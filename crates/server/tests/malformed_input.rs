//! Hostile-input hardening for the wire protocol: every malformed line —
//! truncated, spliced, byte-flipped, oversized, deeply nested — must come
//! back as a protocol-level `error` frame on a connection that stays fully
//! usable. The contract under fire is "no panic, no hang, no silent drop";
//! it is checked with a seeded case loop (the workspace's stand-in for
//! proptest) interleaving valid `stats` probes between the garbage.

use dcn_rng::{DetRng, Rng, SeedableRng};
use dcn_server::{Loopback, ServeConfig};
use dcn_workload::json;
use dcn_workload::Family;

fn server() -> (Loopback, u64) {
    let mut lb = Loopback::new(ServeConfig::new(Family::Centralized, 64, 8)).unwrap();
    let c = lb.connect();
    lb.send(c, r#"{"op": "hello", "proto": 1}"#);
    let welcome = lb.recv(c);
    assert!(welcome[0].contains("welcome"));
    (lb, c)
}

/// The reply to one line is always exactly one frame, and it is valid JSON
/// carrying exactly one of the three frame keys.
fn reply_is_wellformed(lb: &mut Loopback, client: u64, line: &str) -> String {
    lb.send(client, line);
    let mut frames = lb.recv(client);
    assert_eq!(frames.len(), 1, "one line in, one frame out: {line:?}");
    let frame = frames.pop().unwrap();
    let v = json::parse(&frame).expect("server frames are valid JSON");
    let keys = ["ok", "event", "error"]
        .iter()
        .filter(|k| v.get(k).is_ok())
        .count();
    assert_eq!(keys, 1, "exactly one frame discriminator: {frame}");
    frame
}

#[test]
fn specific_malformed_lines_map_to_stable_error_codes() {
    let (mut lb, c) = server();
    let cases: &[(&str, &str)] = &[
        ("", "bad-json"),
        ("{", "bad-json"),
        ("null", "bad-frame"),
        ("[1, 2, 3]", "bad-frame"),
        (r#"{"op": 7}"#, "bad-frame"),
        (r#"{"op": "dance"}"#, "unknown-op"),
        (r#"{"kind": "add-leaf", "node": 1}"#, "bad-frame"),
        (r#"{"op": "submit", "kind": "add-leaf"}"#, "bad-frame"),
        (
            r#"{"op": "submit", "kind": "add-leaf", "node": -3}"#,
            "bad-frame",
        ),
        (
            r#"{"op": "submit", "kind": "add-leaf", "node": 1.5}"#,
            "bad-frame",
        ),
        (r#"{"op": "poll", "ticket": 5}"#, "unknown-op"),
        (r#"{"op": "batch"}"#, "bad-frame"),
        (r#"{"op": "batch", "requests": 7}"#, "bad-frame"),
        (r#"{"op": "batch", "requests": []}"#, "bad-frame"),
        (
            r#"{"op": "batch", "requests": [{"kind": "add-leaf"}]}"#,
            "bad-frame",
        ),
        (
            r#"{"op": "batch", "requests": [{"kind": "event", "node": 0}, {"kind": "dance", "node": 1}]}"#,
            "bad-frame",
        ),
        (r#"{"op": "stats", "trailing": }"#, "bad-json"),
        ("{\"op\": \"stats\"}{\"op\": \"stats\"}", "bad-json"),
    ];
    for (line, want) in cases {
        let frame = reply_is_wellformed(&mut lb, c, line);
        let v = json::parse(&frame).unwrap();
        assert_eq!(
            v.get("error").unwrap().as_str().unwrap(),
            *want,
            "for input {line:?}"
        );
    }
    // Out-of-tree nodes and stale submissions are errors too, with codes of
    // their own.
    let frame = reply_is_wellformed(
        &mut lb,
        c,
        r#"{"op": "submit", "kind": "event", "node": 999}"#,
    );
    assert!(frame.contains("bad-node"), "{frame}");

    // Oversized lines get the length code, and the connection resyncs.
    let oversized = format!(r#"{{"op": "stats", "pad": "{}"}}"#, "x".repeat(9000));
    let frame = reply_is_wellformed(&mut lb, c, &oversized);
    assert!(frame.contains("line-too-long"), "{frame}");

    // Hostile nesting is depth-capped, not stack-overflowed.
    let deep = format!("{}{}", "[".repeat(100_000), "]".repeat(100_000));
    // Deep nesting inside the cap-sized prefix still errors cleanly.
    let frame = reply_is_wellformed(&mut lb, c, &deep[..4096]);
    assert!(frame.contains("error"), "{frame}");

    // After all that abuse, the connection still works.
    let frame = reply_is_wellformed(&mut lb, c, r#"{"op": "stats"}"#);
    assert!(frame.contains("\"ok\": \"stats\""), "{frame}");
    let errors = json::parse(&frame)
        .unwrap()
        .get("protocol_errors")
        .unwrap()
        .as_u64()
        .unwrap();
    assert!(
        errors >= cases.len() as u64,
        "errors were counted: {errors}"
    );
}

/// `submit` is the one way in: a `topology` line is an unknown op, issues no
/// ticket, and leaves the connection serving the next `submit`.
#[test]
fn a_topology_line_is_an_unknown_op_and_issues_no_ticket() {
    let (mut lb, c) = server();
    for change in ["insert", "insert-above", "delete"] {
        let line = format!(
            r#"{{"op": "topology", "change": "{change}", "node": 0, "child": 1, "tag": 5}}"#
        );
        let frame = reply_is_wellformed(&mut lb, c, &line);
        let v = json::parse(&frame).unwrap();
        assert_eq!(v.get("error").unwrap().as_str().unwrap(), "unknown-op");
    }
    lb.run_to_quiescence();
    assert!(lb.recv(c).is_empty());
    let frame = reply_is_wellformed(&mut lb, c, r#"{"op": "stats"}"#);
    let v = json::parse(&frame).unwrap();
    assert_eq!(v.get("submitted").unwrap().as_u64().unwrap(), 0);
    let frame = reply_is_wellformed(
        &mut lb,
        c,
        r#"{"op": "submit", "kind": "add-leaf", "node": 0, "tag": 6}"#,
    );
    assert_eq!(frame, r#"{"ok": "ticket", "ticket": 0, "tag": 6}"#);
}

/// Seeded fuzz loop: mutate valid frames by truncation, splicing and byte
/// flips; whatever comes out, the server answers every line with one
/// well-formed frame and keeps serving valid traffic in between.
#[test]
fn seeded_mutation_loop_never_wedges_the_connection() {
    let seeds: &[&str] = &[
        r#"{"op": "hello", "proto": 1, "family": "centralized", "m": 64, "w": 8}"#,
        r#"{"op": "submit", "kind": "add-internal-above", "node": 3, "child": 4, "tag": 11}"#,
        r#"{"op": "topology", "change": "insert", "node": 0, "tag": 12}"#,
        r#"{"op": "poll", "ticket": 18446744073709551615}"#,
        r#"{"op": "subscribe"}"#,
    ];
    let (mut lb, c) = server();
    let mut rng = DetRng::seed_from_u64(0x8a11_0c8e);
    for case in 0..1500 {
        let doc = seeds[rng.gen_range(0..seeds.len())];
        let mut bytes = doc.as_bytes().to_vec();
        match rng.gen_range(0..4u32) {
            0 => {
                // Truncate somewhere, possibly mid-escape or mid-number.
                bytes.truncate(rng.gen_range(0..bytes.len()));
            }
            1 => {
                // Splice the tail of another seed onto a prefix.
                let other = seeds[rng.gen_range(0..seeds.len())].as_bytes();
                let cut = rng.gen_range(0..bytes.len());
                let graft = rng.gen_range(0..other.len());
                bytes.truncate(cut);
                bytes.extend_from_slice(&other[graft..]);
            }
            2 => {
                // Flip a few bytes to arbitrary values (including non-UTF-8;
                // the lossy conversion below mirrors what the TCP reader
                // would reject earlier — here it stresses the parser).
                for _ in 0..rng.gen_range(1..4u32) {
                    let i = rng.gen_range(0..bytes.len());
                    bytes[i] = (rng.next_u64() & 0xff) as u8;
                }
            }
            _ => {
                // Duplicate a middle chunk in place.
                let start = rng.gen_range(0..bytes.len());
                let end = rng.gen_range(start..bytes.len());
                let chunk = bytes[start..end].to_vec();
                let at = rng.gen_range(0..bytes.len());
                for (k, b) in chunk.into_iter().enumerate() {
                    bytes.insert(at + k, b);
                }
            }
        }
        let line = String::from_utf8_lossy(&bytes).into_owned();
        // The only contract: one well-formed reply frame, no panic.
        let _ = reply_is_wellformed(&mut lb, c, &line);

        // Every 100 cases, prove the connection still serves real traffic.
        if case % 100 == 0 {
            let frame = reply_is_wellformed(&mut lb, c, r#"{"op": "stats"}"#);
            assert!(frame.contains("\"ok\": \"stats\""), "{frame}");
        }
    }
    // The engine survived with its controller intact.
    lb.run_to_quiescence();
    assert!(lb.engine().last_engine_error().is_none());
}
