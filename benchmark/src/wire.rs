//! The client side of the line-JSON protocol: request encoders and a reply
//! scanner.
//!
//! The harness shares two cores with the server it measures, so the client
//! must cost far less per frame than the server does. Requests are written
//! straight into a byte buffer; replies — which are always flat JSON objects
//! of strings, numbers and booleans — are scanned key by key without
//! building a document. The scanner reads by key, not by position or
//! spacing, so a server that re-orders or re-spaces its frames still parses.

use std::io::Write as _;

/// What a generated request asks for.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum OpKind {
    /// A permit request (`"event"`).
    Event,
    /// Add a leaf under the node.
    AddLeaf,
    /// Remove the node.
    RemoveSelf,
}

impl OpKind {
    pub fn name(self) -> &'static str {
        match self {
            OpKind::Event => "event",
            OpKind::AddLeaf => "add-leaf",
            OpKind::RemoveSelf => "remove-self",
        }
    }
}

/// One generated request: the only thing the server ever sees of a workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Op {
    pub kind: OpKind,
    pub node: u64,
    pub tag: u64,
}

fn push_body(buf: &mut Vec<u8>, op: Op) {
    // Writing to a Vec cannot fail.
    let _ = write!(
        buf,
        "\"kind\":\"{}\",\"node\":{},\"tag\":{}",
        op.kind.name(),
        op.node,
        op.tag
    );
}

/// Appends `ops` as single-line `submit` frames.
pub fn push_submits(buf: &mut Vec<u8>, ops: &[Op]) {
    for &op in ops {
        buf.extend_from_slice(b"{\"op\":\"submit\",");
        push_body(buf, op);
        buf.extend_from_slice(b"}\n");
    }
}

/// Appends `ops` as one `batch` frame.
pub fn push_batch(buf: &mut Vec<u8>, ops: &[Op]) {
    buf.extend_from_slice(b"{\"op\":\"batch\",\"requests\":[");
    for (i, &op) in ops.iter().enumerate() {
        buf.extend_from_slice(if i == 0 { b"{" } else { b",{" });
        push_body(buf, op);
        buf.push(b'}');
    }
    buf.extend_from_slice(b"]}\n");
}

/// A ticket's final outcome.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Outcome {
    Granted,
    Rejected,
    Refused,
}

/// A scanned server frame.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Reply<'a> {
    /// `{"ok":"ticket"}`: the submission was accepted.
    Ticket { tag: Option<u64> },
    /// `{"event":"granted"|"rejected"|"refused"}`: the final outcome.
    Final { outcome: Outcome, tag: Option<u64> },
    /// `{"event":"topology"}`: a granted change took effect.
    Topology { node: Option<u64>, tag: Option<u64> },
    /// `{"error":…}`.
    Error { code: &'a [u8], tag: Option<u64> },
    /// Any other well-formed frame (`welcome`, `subscribed`, `stats`, …),
    /// with the value of its `ok`/`event` key.
    Other { what: &'a [u8] },
    /// Not a flat JSON object.
    Malformed,
}

/// Iterates the `(key, raw value)` pairs of a flat JSON object. String
/// values are returned without their quotes (escapes left as they are —
/// none of the values the harness reads contains one).
fn pairs(line: &[u8]) -> impl Iterator<Item = Option<(&[u8], &[u8])>> + '_ {
    let mut pos = line.iter().position(|&b| b == b'{').map(|p| p + 1);
    std::iter::from_fn(move || {
        let mut i = pos?;
        let skip = |i: &mut usize, set: &[u8]| {
            while line.get(*i).is_some_and(|b| set.contains(b)) {
                *i += 1;
            }
        };
        let string_end = |from: usize| {
            let mut j = from;
            while j < line.len() && line[j] != b'"' {
                j += if line[j] == b'\\' { 2 } else { 1 };
            }
            (j < line.len()).then_some(j)
        };
        skip(&mut i, b" \t,");
        match line.get(i) {
            Some(b'}') => {
                pos = None;
                return None;
            }
            Some(b'"') => {}
            _ => {
                pos = None;
                return Some(None);
            }
        }
        let Some(key_end) = string_end(i + 1) else {
            pos = None;
            return Some(None);
        };
        let key = &line[i + 1..key_end];
        i = key_end + 1;
        skip(&mut i, b" \t:");
        let value = if line.get(i) == Some(&b'"') {
            let Some(end) = string_end(i + 1) else {
                pos = None;
                return Some(None);
            };
            let v = &line[i + 1..end];
            i = end + 1;
            v
        } else {
            let start = i;
            while line.get(i).is_some_and(|b| !b",} \t".contains(b)) {
                i += 1;
            }
            if i == start || i >= line.len() {
                pos = None;
                return Some(None);
            }
            &line[start..i]
        };
        pos = Some(i);
        Some(Some((key, value)))
    })
}

fn number(raw: &[u8]) -> Option<u64> {
    if raw.is_empty() {
        return None;
    }
    raw.iter().try_fold(0u64, |acc, &b| {
        b.is_ascii_digit()
            .then(|| acc.checked_mul(10)?.checked_add(u64::from(b - b'0')))?
    })
}

/// Classifies one reply line.
pub fn scan(line: &[u8]) -> Reply<'_> {
    let (mut ok, mut event, mut error) = (None, None, None);
    let (mut tag, mut node) = (None, None);
    let mut any = false;
    for pair in pairs(line) {
        let Some((key, value)) = pair else {
            return Reply::Malformed;
        };
        any = true;
        match key {
            b"ok" => ok = Some(value),
            b"event" => event = Some(value),
            b"error" => error = Some(value),
            b"tag" => tag = number(value),
            b"node" => node = number(value),
            _ => {}
        }
    }
    match (ok, event, error) {
        (_, _, Some(code)) => Reply::Error { code, tag },
        (Some(b"ticket"), _, _) => Reply::Ticket { tag },
        (_, Some(b"granted"), _) => Reply::Final {
            outcome: Outcome::Granted,
            tag,
        },
        (_, Some(b"rejected"), _) => Reply::Final {
            outcome: Outcome::Rejected,
            tag,
        },
        (_, Some(b"refused"), _) => Reply::Final {
            outcome: Outcome::Refused,
            tag,
        },
        (_, Some(b"topology"), _) => Reply::Topology { node, tag },
        (Some(what), _, _) | (_, Some(what), _) => Reply::Other { what },
        _ if any => Reply::Other { what: b"" },
        _ => Reply::Malformed,
    }
}

/// The numeric value of `key` in a flat reply frame (for `stats`/`welcome`).
pub fn field(line: &[u8], key: &str) -> Option<u64> {
    pairs(line)
        .flatten()
        .find(|(k, _)| *k == key.as_bytes())
        .and_then(|(_, v)| number(v))
}

#[cfg(test)]
mod tests {
    use super::*;
    use dcn_server::protocol::{self, ClientFrame, WireKind, WireOutcome};

    #[test]
    fn encoded_requests_parse_as_the_server_reads_them() {
        let ops = [
            Op {
                kind: OpKind::Event,
                node: 3,
                tag: 7,
            },
            Op {
                kind: OpKind::AddLeaf,
                node: 0,
                tag: 8,
            },
            Op {
                kind: OpKind::RemoveSelf,
                node: 300,
                tag: 9,
            },
        ];
        let mut buf = Vec::new();
        push_submits(&mut buf, &ops);
        let text = String::from_utf8(buf).unwrap();
        let kinds = [WireKind::Event, WireKind::AddLeaf, WireKind::RemoveSelf];
        for ((line, op), kind) in text.lines().zip(ops).zip(kinds) {
            match protocol::parse_frame(line).unwrap() {
                ClientFrame::Submit(s) => {
                    assert_eq!((s.node, s.kind, s.tag), (op.node, kind, Some(op.tag)));
                }
                other => panic!("{other:?}"),
            }
        }
        let mut buf = Vec::new();
        push_batch(&mut buf, &ops);
        let text = String::from_utf8(buf).unwrap();
        assert_eq!(text.lines().count(), 1);
        match protocol::parse_frame(text.trim_end()).unwrap() {
            ClientFrame::Batch(subs) => {
                assert_eq!(subs.len(), 3);
                assert_eq!(subs[2].tag, Some(9));
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn scanner_reads_every_frame_the_server_encodes() {
        assert_eq!(
            scan(protocol::ticket_frame(5, Some(9)).as_bytes()),
            Reply::Ticket { tag: Some(9) }
        );
        let granted = WireOutcome::Granted {
            at: 17,
            kind: dcn_controller::RequestKind::NonTopological,
            new_node: None,
        };
        assert_eq!(
            scan(protocol::event_frame(5, &granted, Some(9)).as_bytes()),
            Reply::Final {
                outcome: Outcome::Granted,
                tag: Some(9)
            }
        );
        assert_eq!(
            scan(protocol::event_frame(5, &WireOutcome::Rejected, None).as_bytes()),
            Reply::Final {
                outcome: Outcome::Rejected,
                tag: None
            }
        );
        assert_eq!(
            scan(
                protocol::topology_event_frame(
                    5,
                    dcn_controller::RequestKind::AddLeaf,
                    Some(300),
                    Some(2)
                )
                .as_bytes()
            ),
            Reply::Topology {
                node: Some(300),
                tag: Some(2)
            }
        );
        assert_eq!(
            scan(protocol::error_frame("overloaded", "a \"quoted\" detail, {x}", None).as_bytes()),
            Reply::Error {
                code: b"overloaded",
                tag: None
            }
        );
        assert_eq!(
            scan(protocol::subscribed_frame().as_bytes()),
            Reply::Other {
                what: b"subscribed"
            }
        );
        let stats = protocol::stats_frame(&protocol::StatsSnapshot {
            submitted: 12,
            messages: 99,
            ..Default::default()
        });
        assert_eq!(field(stats.as_bytes(), "submitted"), Some(12));
        assert_eq!(field(stats.as_bytes(), "messages"), Some(99));
        assert_eq!(field(stats.as_bytes(), "shutting_down"), None);
    }

    #[test]
    fn scanner_survives_respacing_and_rejects_garbage() {
        assert_eq!(
            scan(b"{ \"tag\" : 4 ,\"ok\":\"ticket\"}"),
            Reply::Ticket { tag: Some(4) }
        );
        assert_eq!(scan(b""), Reply::Malformed);
        assert_eq!(scan(b"hello"), Reply::Malformed);
        assert_eq!(scan(b"{\"ok\": \"ticket\""), Reply::Malformed);
        assert_eq!(scan(b"{\"ok\": }"), Reply::Malformed);
    }
}
