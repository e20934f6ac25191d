//! The line-delimited JSON wire protocol.
//!
//! One request or response per line; every line is a single JSON object.
//! Client frames carry an `"op"` discriminator; server frames carry exactly
//! one of `"ok"` (direct replies), `"event"` (streamed outcomes for
//! subscribed clients — the one way a ticket's answer leaves the server) or
//! `"error"`. The full frame grammar, the
//! backpressure rules and the shutdown semantics are documented in
//! DESIGN.md §9 — this module is the single encode/decode point, shared by
//! the TCP transport and the deterministic loopback transport so that both
//! speak byte-identical frames.
//!
//! Parsing is hardened for untrusted input: lines are length-capped
//! ([`MAX_LINE_BYTES`]), the JSON layer rejects malformed documents with
//! typed errors (see [`dcn_workload::json`]), and every failure maps onto a
//! protocol-level [`FrameError`] — an `error` frame on the wire, never a
//! dropped connection or a panicked thread.

use dcn_workload::json::{self, JsonError, Value};
use std::fmt::Write as _;

/// The protocol version spoken by this build; `hello` frames asking for a
/// different `proto` are refused with an `unsupported-proto` error.
pub const PROTO_VERSION: u64 = 1;

/// Longest accepted request line, in bytes, its `\n` or `\r\n` excluded.
/// Longer lines are answered with a `line-too-long` error frame and
/// discarded up to the next newline; the connection stays usable.
pub const MAX_LINE_BYTES: usize = 8 * 1024;

/// Maximum number of submissions one `batch` frame may carry. Keeps a
/// single line from enqueueing unbounded controller work (the line-length
/// cap already bounds the bytes; this bounds the tickets).
pub const MAX_BATCH_REQUESTS: usize = 256;

/// A request frame's submission payload: where the request arrives and what
/// it asks for, plus the client's optional correlation tag (echoed verbatim
/// on the ticket reply and on every event for the resulting ticket).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Submission {
    /// Index of the node the request arrives at.
    pub node: u64,
    /// What the request asks for.
    pub kind: WireKind,
    /// Client-chosen correlation tag.
    pub tag: Option<u64>,
}

/// [`RequestKind`](dcn_controller::RequestKind) as spelled on the wire.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum WireKind {
    /// `"add-leaf"` — add a new leaf under `node`.
    AddLeaf,
    /// `"add-internal-above"` — split the `node`→`child` edge with a new
    /// internal node.
    AddInternalAbove {
        /// Index of the child whose parent edge is split.
        child: u64,
    },
    /// `"remove-self"` — delete `node`.
    RemoveSelf,
    /// `"event"` — a non-topological request (a resource permit) at `node`.
    Event,
}

impl WireKind {
    /// The wire spelling.
    pub fn name(&self) -> &'static str {
        match self {
            WireKind::AddLeaf => "add-leaf",
            WireKind::AddInternalAbove { .. } => "add-internal-above",
            WireKind::RemoveSelf => "remove-self",
            WireKind::Event => "event",
        }
    }
}

/// The wire spelling of a resolved request kind (for event frames, which
/// report the kind the controller recorded).
pub fn kind_name(kind: dcn_controller::RequestKind) -> &'static str {
    match kind {
        dcn_controller::RequestKind::AddLeaf => "add-leaf",
        dcn_controller::RequestKind::AddInternalAbove(_) => "add-internal-above",
        dcn_controller::RequestKind::RemoveSelf => "remove-self",
        dcn_controller::RequestKind::NonTopological => "event",
    }
}

/// A decoded client frame.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ClientFrame {
    /// `{"op":"hello", "proto"?, "family"?, "m"?, "w"?}` — must be the first
    /// frame on a connection. The optional fields are *assertions*: the
    /// server refuses the hello (with a `config-mismatch` error) when one
    /// of them differs from the controller it actually runs, and reports
    /// its real parameters in the `welcome` reply either way.
    Hello {
        /// Asserted protocol version (defaults to [`PROTO_VERSION`]).
        proto: Option<u64>,
        /// Asserted controller family name.
        family: Option<String>,
        /// Asserted permit budget `M`.
        m: Option<u64>,
        /// Asserted waste bound `W`.
        w: Option<u64>,
    },
    /// `{"op":"submit", "kind", "node", "child"?, "tag"?}` — ask for a
    /// permit; replies with a ticket.
    Submit(Submission),
    /// `{"op":"batch", "requests": [{"kind", "node", "child"?, "tag"?}, …]}`
    /// — up to [`MAX_BATCH_REQUESTS`] submit bodies in one frame, answered
    /// with one ticket reply per element in array order. The frame is
    /// validated as a whole: one malformed element (or an empty or oversized
    /// array) rejects the entire batch and enqueues nothing.
    Batch(Vec<Submission>),
    /// `{"op":"subscribe"}` — stream this connection's future outcome
    /// events; an unsubscribed connection submits fire-and-forget and reads
    /// totals from `stats`.
    Subscribe,
    /// `{"op":"stats"}` — a snapshot of the engine's counters.
    Stats,
    /// `{"op":"shutdown"}` — ask the server to drain and exit.
    Shutdown,
}

/// A protocol-level decode failure: rendered as an `error` frame, never a
/// closed connection.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FrameError {
    /// Stable machine-readable error code (the `"error"` field).
    pub code: &'static str,
    /// Human-readable detail (the `"detail"` field).
    pub detail: String,
}

impl FrameError {
    fn new(code: &'static str, detail: impl Into<String>) -> Self {
        FrameError {
            code,
            detail: detail.into(),
        }
    }
}

impl From<JsonError> for FrameError {
    fn from(e: JsonError) -> Self {
        let code = match &e {
            JsonError::TooLong { .. } => "line-too-long",
            JsonError::Schema(_) => "bad-frame",
            _ => "bad-json",
        };
        FrameError::new(code, e.to_string())
    }
}

fn opt_u64(v: &Value, key: &str) -> Result<Option<u64>, JsonError> {
    v.get_opt(key)?.map(Value::as_u64).transpose()
}

fn submission(v: &Value) -> Result<Submission, FrameError> {
    let kind = match v.get("kind")?.as_str()? {
        "add-leaf" => WireKind::AddLeaf,
        "add-internal-above" => WireKind::AddInternalAbove {
            child: v.get("child")?.as_u64()?,
        },
        "remove-self" => WireKind::RemoveSelf,
        "event" => WireKind::Event,
        other => {
            return Err(FrameError::new(
                "bad-frame",
                format!("unknown kind {other:?}"),
            ))
        }
    };
    Ok(Submission {
        node: v.get("node")?.as_u64()?,
        kind,
        tag: opt_u64(v, "tag")?,
    })
}

/// Decodes one request line into a [`ClientFrame`].
///
/// # Errors
///
/// A [`FrameError`] for oversized lines, malformed JSON, unknown ops and
/// schema violations — every one maps to an `error` frame via
/// [`error_frame`], keeping the connection alive.
pub fn parse_frame(line: &str) -> Result<ClientFrame, FrameError> {
    let v = json::parse_limited(line, MAX_LINE_BYTES)?;
    let op = v.get("op")?.as_str()?.to_string();
    match op.as_str() {
        "hello" => Ok(ClientFrame::Hello {
            proto: opt_u64(&v, "proto")?,
            family: v
                .get_opt("family")?
                .map(|f| Ok::<_, JsonError>(f.as_str()?.to_string()))
                .transpose()?,
            m: opt_u64(&v, "m")?,
            w: opt_u64(&v, "w")?,
        }),
        "submit" => Ok(ClientFrame::Submit(submission(&v)?)),
        "batch" => {
            let elems = v.get("requests")?.as_array()?;
            if elems.is_empty() {
                return Err(FrameError::new("bad-frame", "batch.requests is empty"));
            }
            if elems.len() > MAX_BATCH_REQUESTS {
                return Err(FrameError::new(
                    "bad-frame",
                    format!(
                        "batch.requests has {} elements (max {MAX_BATCH_REQUESTS})",
                        elems.len()
                    ),
                ));
            }
            let mut subs = Vec::with_capacity(elems.len());
            for elem in elems {
                subs.push(submission(elem)?);
            }
            Ok(ClientFrame::Batch(subs))
        }
        "subscribe" => Ok(ClientFrame::Subscribe),
        "stats" => Ok(ClientFrame::Stats),
        "shutdown" => Ok(ClientFrame::Shutdown),
        other => Err(FrameError::new(
            "unknown-op",
            format!("unknown op {other:?}"),
        )),
    }
}

fn push_tag(out: &mut String, tag: Option<u64>) {
    if let Some(tag) = tag {
        let _ = write!(out, ", \"tag\": {tag}");
    }
}

/// Encodes an `error` frame. `tag` correlates the error with the request
/// that caused it, when that request carried one.
pub fn error_frame(code: &str, detail: &str, tag: Option<u64>) -> String {
    let mut out = format!(
        "{{\"error\": {}, \"detail\": {}",
        json::quote(code),
        json::quote(detail)
    );
    push_tag(&mut out, tag);
    out.push('}');
    out
}

/// Encodes the `line-too-long` error both transports answer an oversized
/// line with, before it reaches the engine.
pub fn line_too_long_frame() -> String {
    error_frame(
        "line-too-long",
        &format!("lines are capped at {MAX_LINE_BYTES} bytes"),
        None,
    )
}

/// Encodes the `welcome` reply to a successful `hello`.
pub fn welcome_frame(family: &str, m: u64, w: u64, nodes: usize) -> String {
    format!(
        "{{\"ok\": \"welcome\", \"proto\": {PROTO_VERSION}, \"family\": {}, \"m\": {m}, \"w\": {w}, \"nodes\": {nodes}}}",
        json::quote(family)
    )
}

/// Encodes the `ticket` reply to an accepted `submit` (or `batch` element).
pub fn ticket_frame(ticket: u64, tag: Option<u64>) -> String {
    let mut out = format!("{{\"ok\": \"ticket\", \"ticket\": {ticket}");
    push_tag(&mut out, tag);
    out.push('}');
    out
}

/// Encodes the `subscribed` acknowledgement.
pub fn subscribed_frame() -> String {
    "{\"ok\": \"subscribed\"}".to_string()
}

/// Encodes the `shutting-down` acknowledgement.
pub fn shutting_down_frame() -> String {
    "{\"ok\": \"shutting-down\"}".to_string()
}

/// A ticket's answer, as a streamed event reports it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum WireOutcome {
    /// Granted at virtual time `at`.
    Granted {
        /// Virtual answer time.
        at: u64,
        /// The granted request kind.
        kind: dcn_controller::RequestKind,
        /// Node created by a granted insertion. Not encoded: the `topology`
        /// event that follows the grant names the node.
        new_node: Option<u64>,
    },
    /// Rejected (the budget is spent up to the waste bound).
    Rejected,
    /// Outside the controller family's dynamic model; no permit consumed.
    Refused,
}

/// Encodes a streamed outcome event for a subscribed connection.
pub fn event_frame(ticket: u64, outcome: &WireOutcome, tag: Option<u64>) -> String {
    let mut out = match outcome {
        WireOutcome::Granted { at, kind, .. } => format!(
            "{{\"event\": \"granted\", \"ticket\": {ticket}, \"at\": {at}, \"kind\": {}",
            json::quote(kind_name(*kind))
        ),
        WireOutcome::Rejected => format!("{{\"event\": \"rejected\", \"ticket\": {ticket}"),
        WireOutcome::Refused => format!("{{\"event\": \"refused\", \"ticket\": {ticket}"),
    };
    push_tag(&mut out, tag);
    out.push('}');
    out
}

/// Encodes a streamed topology-applied event for a subscribed connection.
pub fn topology_event_frame(
    ticket: u64,
    kind: dcn_controller::RequestKind,
    node: Option<u64>,
    tag: Option<u64>,
) -> String {
    let mut out = format!(
        "{{\"event\": \"topology\", \"ticket\": {ticket}, \"kind\": {}",
        json::quote(kind_name(kind))
    );
    if let Some(n) = node {
        let _ = write!(out, ", \"node\": {n}");
    }
    push_tag(&mut out, tag);
    out.push('}');
    out
}

/// The counter snapshot reported by a `stats` reply.
///
/// `granted`, `rejected` and `refused` are the served controller's tally:
/// an answer counts once the controller has given it, before a pump streams
/// its event.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct StatsSnapshot {
    /// Submit frames the engine accepted over the server's lifetime (a
    /// controller may burn a ticket on a failed submit, which this does not
    /// count).
    pub submitted: u64,
    /// Permits granted.
    pub granted: u64,
    /// Requests rejected.
    pub rejected: u64,
    /// Requests refused (see `Outcome::Refused`: the one refusal rule of
    /// DESIGN §2.1).
    pub refused: u64,
    /// Request lines answered with an `error` frame.
    pub protocol_errors: u64,
    /// Reply/event frames dropped because a connection's outbox was full.
    pub dropped_frames: u64,
    /// Connections currently registered.
    pub clients: u64,
    /// Current tree size.
    pub nodes: usize,
    /// Cumulative permit/package movement cost.
    pub moves: u64,
    /// Cumulative message cost.
    pub messages: u64,
    /// Peak per-node state footprint, in bits.
    pub peak_node_memory_bits: u64,
    /// Whether a shutdown is in progress.
    pub shutting_down: bool,
}

/// Encodes the `stats` reply.
pub fn stats_frame(s: &StatsSnapshot) -> String {
    format!(
        "{{\"ok\": \"stats\", \"submitted\": {}, \"granted\": {}, \"rejected\": {}, \
         \"refused\": {}, \"protocol_errors\": {}, \"dropped_frames\": {}, \"clients\": {}, \
         \"nodes\": {}, \"moves\": {}, \"messages\": {}, \"peak_node_memory_bits\": {}, \
         \"shutting_down\": {}}}",
        s.submitted,
        s.granted,
        s.rejected,
        s.refused,
        s.protocol_errors,
        s.dropped_frames,
        s.clients,
        s.nodes,
        s.moves,
        s.messages,
        s.peak_node_memory_bits,
        s.shutting_down,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frames_round_trip_through_the_json_layer() {
        let f = parse_frame(r#"{"op": "hello", "proto": 1, "family": "centralized"}"#).unwrap();
        assert_eq!(
            f,
            ClientFrame::Hello {
                proto: Some(1),
                family: Some("centralized".to_string()),
                m: None,
                w: None
            }
        );
        let f = parse_frame(r#"{"op": "submit", "kind": "add-leaf", "node": 3, "tag": 9}"#);
        assert_eq!(
            f.unwrap(),
            ClientFrame::Submit(Submission {
                node: 3,
                kind: WireKind::AddLeaf,
                tag: Some(9)
            })
        );
        let f =
            parse_frame(r#"{"op": "submit", "kind": "add-internal-above", "node": 1, "child": 4}"#);
        assert_eq!(
            f.unwrap(),
            ClientFrame::Submit(Submission {
                node: 1,
                kind: WireKind::AddInternalAbove { child: 4 },
                tag: None
            })
        );
        assert_eq!(
            parse_frame(r#"{"op": "stats"}"#).unwrap(),
            ClientFrame::Stats
        );
    }

    #[test]
    fn batch_frames_parse_whole_or_not_at_all() {
        // A well-formed batch decodes every element in array order.
        let frame = parse_frame(
            r#"{"op": "batch", "requests": [
                {"kind": "event", "node": 3, "tag": 1},
                {"kind": "add-internal-above", "node": 1, "child": 4}
            ]}"#,
        )
        .unwrap();
        match frame {
            ClientFrame::Batch(subs) => {
                assert_eq!(subs.len(), 2);
                assert_eq!(subs[0].node, 3);
                assert_eq!(subs[0].tag, Some(1));
                assert_eq!(subs[1].kind, WireKind::AddInternalAbove { child: 4 });
            }
            other => panic!("expected a batch frame, got {other:?}"),
        }
        // Empty, missing, non-array and oversized request lists are schema
        // violations for the whole frame.
        for line in [
            r#"{"op": "batch"}"#.to_string(),
            r#"{"op": "batch", "requests": []}"#.to_string(),
            r#"{"op": "batch", "requests": {"kind": "event", "node": 0}}"#.to_string(),
            format!(
                r#"{{"op": "batch", "requests": [{}]}}"#,
                vec![r#"{"kind":"event","node":0}"#; MAX_BATCH_REQUESTS + 1].join(",")
            ),
        ] {
            let err = parse_frame(&line).unwrap_err();
            assert_eq!(err.code, "bad-frame", "for {line:.60}");
        }
        // One malformed element poisons the batch: nothing decodes.
        let err = parse_frame(
            r#"{"op": "batch", "requests": [
                {"kind": "event", "node": 0},
                {"kind": "insert", "node": 1}
            ]}"#,
        )
        .unwrap_err();
        assert_eq!(err.code, "bad-frame");
    }

    #[test]
    fn submit_and_topology_spellings_do_not_cross() {
        // `submit` takes the kind names only.
        for change in ["insert", "insert-above", "delete"] {
            let line = format!(r#"{{"op": "submit", "kind": "{change}", "node": 0, "child": 1}}"#);
            assert_eq!(parse_frame(&line).unwrap_err().code, "bad-frame");
        }
        // `topology` is not an op, whatever it carries.
        for change in ["insert", "add-leaf", "event"] {
            let line = format!(r#"{{"op": "topology", "change": "{change}", "node": 0}}"#);
            assert_eq!(parse_frame(&line).unwrap_err().code, "unknown-op");
        }
    }

    #[test]
    fn decode_failures_map_to_stable_error_codes() {
        let overlong = format!(
            r#"{{"op": "submit", "kind": "add-leaf", "node": 1, "pad": "{}"}}"#,
            "x".repeat(MAX_LINE_BYTES)
        );
        assert_eq!(parse_frame(&overlong).unwrap_err().code, "line-too-long");
        assert_eq!(
            parse_frame("{\"op\": \"stats\"").unwrap_err().code,
            "bad-json"
        );
        assert_eq!(
            parse_frame(r#"{"op": "dance"}"#).unwrap_err().code,
            "unknown-op"
        );
        assert_eq!(
            parse_frame(r#"{"op": "submit", "kind": "add-leaf"}"#)
                .unwrap_err()
                .code,
            "bad-frame"
        );
        // The error frame for any of these is itself valid JSON.
        let e = parse_frame(r#"{"op": "dance"}"#).unwrap_err();
        let frame = error_frame(e.code, &e.detail, Some(3));
        let v = json::parse(&frame).unwrap();
        assert_eq!(v.get("error").unwrap().as_str().unwrap(), "unknown-op");
        assert_eq!(v.get("tag").unwrap().as_u64().unwrap(), 3);
    }

    #[test]
    fn stats_frame_is_valid_json() {
        let s = StatsSnapshot {
            submitted: 10,
            granted: 7,
            shutting_down: true,
            ..StatsSnapshot::default()
        };
        let v = json::parse(&stats_frame(&s)).unwrap();
        assert_eq!(v.get("granted").unwrap().as_u64().unwrap(), 7);
        assert!(v.get("shutting_down").unwrap().as_bool().unwrap());
    }
}
