//! The rule set: each rule is policy already written down in DESIGN.md §7
//! or ROADMAP's standing constraints, promoted from a CI `grep` (or from
//! review folklore) into a token-level check with an explicit scope and a
//! uniform suppression grammar.
//!
//! ## Suppression grammar
//!
//! Every rule accepts the uniform form on the finding's line or in the
//! contiguous comment block immediately above it:
//!
//! ```text
//! // lint: allow(<rule-id>) <reason>
//! ```
//!
//! Individual rules additionally accept the legacy justification comment
//! the policy always required (`// perf: cold`, `// perf: …`,
//! `// SAFETY: …`, `// determinism: …`); those are listed per rule below.
//! A reason is part of the grammar, not decoration: a suppression without
//! one tells the next reader nothing, and review should reject it.

use crate::diag::Diagnostic;
use crate::glob::glob_match;
use crate::lexer::TokenKind;
use crate::source::SourceFile;

/// A single lint rule: metadata plus the token-level check.
pub struct Rule {
    /// Stable id, used in diagnostics and in `lint: allow(<id>)`.
    pub id: &'static str,
    /// One-line description for `--list-rules` and the docs.
    pub summary: &'static str,
    /// Path globs (relative to the lint root) the rule applies to.
    pub scope: &'static [&'static str],
    /// Path globs carved back out of `scope`.
    pub exclude: &'static [&'static str],
    /// When true, tokens inside `#[cfg(test)]` / `#[test]` items are
    /// exempt (test code is neither hot nor part of the shipped library
    /// surface).
    pub skip_test_code: bool,
    /// Rule-specific justification comments accepted in addition to the
    /// uniform `lint: allow(<id>)` form.
    pub extra_needles: &'static [&'static str],
    check: fn(&Rule, &SourceFile, &mut Vec<Diagnostic>),
}

impl Rule {
    /// Does this rule apply to the file at `rel_path`?
    pub fn applies_to(&self, rel_path: &str) -> bool {
        self.scope.iter().any(|g| glob_match(g, rel_path))
            && !self.exclude.iter().any(|g| glob_match(g, rel_path))
    }

    /// Run the rule over one (in-scope) file, appending findings.
    pub fn check(&self, file: &SourceFile, out: &mut Vec<Diagnostic>) {
        (self.check)(self, file, out);
    }

    /// All comment needles that suppress this rule at a site.
    fn needles(&self) -> Vec<String> {
        let mut v = vec![format!("lint: allow({})", self.id)];
        v.extend(self.extra_needles.iter().map(|s| s.to_string()));
        v
    }

    /// Report the code token at stream index `ti` unless a suppression
    /// comment covers its line or the token sits in exempt test code.
    fn report(&self, file: &SourceFile, ti: usize, message: String, out: &mut Vec<Diagnostic>) {
        if self.skip_test_code && file.in_test_code(ti) {
            return;
        }
        let tok = &file.tokens[ti];
        let needles = self.needles();
        let needle_refs: Vec<&str> = needles.iter().map(String::as_str).collect();
        if file.suppressed(tok.line, &needle_refs) {
            return;
        }
        out.push(Diagnostic {
            rule: self.id,
            path: file.rel_path.clone(),
            line: tok.line,
            col: tok.col,
            message,
        });
    }
}

/// The rule set, in the order findings are reported.
pub fn all_rules() -> &'static [Rule] {
    &RULES
}

/// Look up a rule by id.
pub fn rule_by_id(id: &str) -> Option<&'static Rule> {
    RULES.iter().find(|r| r.id == id)
}

static RULES: [Rule; 6] = [
    Rule {
        id: "hot-std-hash",
        summary: "no std SipHash HashMap/HashSet in simnet or the sharded hot path \
                  (DESIGN.md §7 storage policy)",
        scope: &[
            "crates/simnet/src/**",
            "crates/core/src/sharded/**",
            "crates/tree/src/region.rs",
        ],
        exclude: &[],
        skip_test_code: false,
        extra_needles: &["perf: cold"],
        check: check_hot_std_hash,
    },
    Rule {
        id: "hot-binary-heap",
        summary: "no BinaryHeap in simnet — the calendar queue replaced it (PR 6)",
        scope: &["crates/simnet/src/**"],
        exclude: &[],
        skip_test_code: false,
        extra_needles: &[],
        check: check_hot_binary_heap,
    },
    Rule {
        id: "secondary-map-justify",
        summary: "SecondaryMap in the SoA-migrated simulator core needs a `// perf:` justification",
        scope: &[
            "crates/simnet/src/sim.rs",
            "crates/simnet/src/hot.rs",
            "crates/simnet/src/engine.rs",
        ],
        exclude: &[],
        skip_test_code: false,
        extra_needles: &["perf:"],
        check: check_secondary_map,
    },
    Rule {
        id: "safety-comment",
        summary: "every `unsafe` block/fn/impl needs a `// SAFETY:` comment",
        scope: &["**"],
        exclude: &[],
        skip_test_code: false,
        extra_needles: &["SAFETY:"],
        check: check_safety_comment,
    },
    Rule {
        id: "determinism",
        summary: "no wall-clock/random-seed/env reads outside crates/bench (golden-hash bytes)",
        scope: &["**"],
        exclude: &["crates/bench/**", "**/tests/**"],
        skip_test_code: true,
        extra_needles: &["determinism:"],
        check: check_determinism,
    },
    Rule {
        id: "unwrap",
        summary: "`.unwrap()`/`.expect(` in library code needs a `// lint: allow(unwrap) <reason>`",
        scope: &["crates/*/src/**", "src/**"],
        exclude: &["**/bin/**", "**/tests/**"],
        skip_test_code: true,
        extra_needles: &[],
        check: check_unwrap,
    },
];

/// Helper: iterate code tokens as `(stream_index, kind, text)`.
fn code_tokens(file: &SourceFile) -> impl Iterator<Item = (usize, TokenKind, &str)> {
    file.code.iter().map(|&i| {
        let t = &file.tokens[i];
        (i, t.kind, t.text.as_str())
    })
}

/// Helper: does the code token at code-position `ci` match `text`?
fn code_is(file: &SourceFile, ci: usize, text: &str) -> bool {
    file.code
        .get(ci)
        .is_some_and(|&i| file.tokens[i].text == text)
}

/// Rule `hot-std-hash`: any `HashMap`/`HashSet` identifier in simnet code.
///
/// Matching the bare identifier (rather than the full `std::collections::`
/// path the old grep required) is deliberate: the import line *and* every
/// use site fire, and an aliased `use std::collections::HashMap as Map`
/// still fires at the import. `FxHashMap`/`FxHashSet` are distinct
/// identifier tokens and never match.
fn check_hot_std_hash(rule: &Rule, file: &SourceFile, out: &mut Vec<Diagnostic>) {
    for (ti, kind, text) in code_tokens(file) {
        if kind == TokenKind::Ident && (text == "HashMap" || text == "HashSet") {
            rule.report(
                file,
                ti,
                format!(
                    "std SipHash `{text}` in a simnet hot-path module; use `SecondaryMap` \
                     (dense entity key) or `Fx{text}` (sparse/composite key), or justify \
                     with `// perf: cold`"
                ),
                out,
            );
        }
    }
}

/// Rule `hot-binary-heap`: any `BinaryHeap` identifier in simnet code.
fn check_hot_binary_heap(rule: &Rule, file: &SourceFile, out: &mut Vec<Diagnostic>) {
    for (ti, kind, text) in code_tokens(file) {
        if kind == TokenKind::Ident && text == "BinaryHeap" {
            rule.report(
                file,
                ti,
                "`BinaryHeap` in simnet: the O(log n) event heap was replaced by \
                 `dcn_collections::CalendarQueue` (PR 6); schedule through the calendar queue"
                    .to_string(),
                out,
            );
        }
    }
}

/// Rule `secondary-map-justify`: `SecondaryMap` in the three files PR 6
/// migrated to fused SoA storage needs a `// perf:` note saying why a slot
/// map (one indirection per access) beats a `HotNodeState`/`AgentTable`
/// column there.
fn check_secondary_map(rule: &Rule, file: &SourceFile, out: &mut Vec<Diagnostic>) {
    for (ti, kind, text) in code_tokens(file) {
        if kind == TokenKind::Ident && text == "SecondaryMap" {
            rule.report(
                file,
                ti,
                "`SecondaryMap` in the SoA-migrated simulator core: fold the state into \
                 `HotNodeState`/`AgentTable`, or justify the slot map with `// perf: …`"
                    .to_string(),
                out,
            );
        }
    }
}

/// Rule `safety-comment`: each `unsafe` keyword (block, fn, impl, trait)
/// must carry a `// SAFETY:` comment on its line or in the comment block
/// immediately above. `#![forbid(unsafe_code)]` attributes do not match —
/// `unsafe_code` is a different identifier token.
fn check_safety_comment(rule: &Rule, file: &SourceFile, out: &mut Vec<Diagnostic>) {
    for (ti, kind, text) in code_tokens(file) {
        if kind == TokenKind::Ident && text == "unsafe" {
            rule.report(
                file,
                ti,
                "`unsafe` without a `// SAFETY:` comment; state the invariant that makes \
                 this sound on the preceding lines"
                    .to_string(),
                out,
            );
        }
    }
}

/// Rule `determinism`: identifiers and call paths that smuggle ambient
/// nondeterminism into results — wall clocks (`SystemTime`, `Instant`),
/// randomly seeded hashers (`RandomState`), environment reads
/// (`env::var`). The sweep's golden-hash bytes only stay byte-identical
/// because none of these feed the simulation; timing belongs in
/// `crates/bench`, configuration in explicit CLI flags.
///
/// `crates/server` is **not** carved out of scope, deliberately. The serve
/// engine is a pure state machine on the controller's virtual clock — any
/// wall-clock read there would be a real determinism bug, and the rule must
/// keep catching it. The crate has none today (latency stamps belong to the
/// load generator, which lives in `benchmark/`, outside the workspace); a
/// measurement edge that legitimately needs `Instant` carries a
/// `// determinism: …` annotation explaining why the value cannot reach a
/// protocol outcome. A new unannotated wall-clock read in the server crate
/// fails `--ci` like anywhere else.
fn check_determinism(rule: &Rule, file: &SourceFile, out: &mut Vec<Diagnostic>) {
    let banned = ["SystemTime", "Instant", "RandomState"];
    for (ci, &ti) in file.code.iter().enumerate() {
        let t = &file.tokens[ti];
        if t.kind != TokenKind::Ident {
            continue;
        }
        if banned.contains(&t.text.as_str()) {
            rule.report(
                file,
                ti,
                format!(
                    "nondeterminism source `{}` outside crates/bench; the sweep reports \
                     are pinned byte-identical — justify with `// determinism: …` if this \
                     provably cannot reach an output",
                    t.text
                ),
                out,
            );
        } else if t.text == "env"
            && code_is(file, ci + 1, ":")
            && code_is(file, ci + 2, ":")
            && code_is(file, ci + 3, "var")
        {
            rule.report(
                file,
                ti,
                "environment read (`env::var`) outside crates/bench; thread configuration \
                 through explicit parameters, or justify with `// determinism: …`"
                    .to_string(),
                out,
            );
        }
    }
}

/// Rule `unwrap`: `.unwrap()` / `.expect(` in library (non-test, non-bin)
/// code. Either the call is provably infallible — then say why with
/// `// lint: allow(unwrap) <reason>` — or it can fire on malformed input
/// and belongs in a `Result`.
fn check_unwrap(rule: &Rule, file: &SourceFile, out: &mut Vec<Diagnostic>) {
    for (ci, &ti) in file.code.iter().enumerate() {
        let t = &file.tokens[ti];
        if t.kind != TokenKind::Ident || (t.text != "unwrap" && t.text != "expect") {
            continue;
        }
        // Require the `.name(` shape so `fn unwrap(…)` definitions and
        // paths like `Option::unwrap` (none in-tree) do not double-fire.
        if ci == 0 || !code_is(file, ci - 1, ".") || !code_is(file, ci + 1, "(") {
            continue;
        }
        rule.report(
            file,
            ti,
            format!(
                "`.{}(…)` in library code: return a `Result` if reachable on bad input, \
                 or annotate the invariant with `// lint: allow(unwrap) <reason>`",
                t.text
            ),
            out,
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::source::SourceFile;

    fn run_rule(id: &str, rel_path: &str, src: &str) -> Vec<Diagnostic> {
        let rule = rule_by_id(id).expect("known rule id");
        assert!(
            rule.applies_to(rel_path),
            "{rel_path} should be in scope for {id}"
        );
        let file = SourceFile::parse(rel_path.to_string(), src);
        let mut out = Vec::new();
        rule.check(&file, &mut out);
        out
    }

    #[test]
    fn scopes_match_policy() {
        let hash = rule_by_id("hot-std-hash").unwrap();
        assert!(hash.applies_to("crates/simnet/src/taxi.rs"));
        assert!(hash.applies_to("crates/simnet/src/hot.rs"));
        assert!(!hash.applies_to("crates/core/src/api.rs"));

        let sec = rule_by_id("secondary-map-justify").unwrap();
        assert!(sec.applies_to("crates/simnet/src/engine.rs"));
        assert!(!sec.applies_to("crates/simnet/src/taxi.rs"));

        let det = rule_by_id("determinism").unwrap();
        assert!(det.applies_to("crates/simnet/src/sim.rs"));
        assert!(!det.applies_to("crates/bench/src/lib.rs"));
        assert!(!det.applies_to("tests/end_to_end.rs"));

        let unwrap = rule_by_id("unwrap").unwrap();
        assert!(unwrap.applies_to("crates/core/src/api.rs"));
        assert!(unwrap.applies_to("src/lib.rs"));
        assert!(!unwrap.applies_to("crates/bench/src/bin/dcn_exp.rs"));
        assert!(!unwrap.applies_to("crates/core/tests/integration.rs"));
        assert!(!unwrap.applies_to("examples/quickstart.rs"));
    }

    #[test]
    fn hot_std_hash_fires_on_code_not_strings() {
        let d = run_rule(
            "hot-std-hash",
            "crates/simnet/src/sim.rs",
            "use std::collections::HashMap;\nlet s = \"HashMap\"; // HashMap in comment\n",
        );
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].line, 1);
    }

    #[test]
    fn hot_std_hash_respects_perf_cold() {
        let d = run_rule(
            "hot-std-hash",
            "crates/simnet/src/metrics.rs",
            "use std::collections::HashMap; // perf: cold — report assembly only\n",
        );
        assert!(d.is_empty());
    }

    #[test]
    fn unwrap_fires_only_on_method_shape() {
        let src = "fn f() { x.unwrap(); y.expect(\"m\"); }\nfn unwrap() {}\n";
        let d = run_rule("unwrap", "crates/core/src/api.rs", src);
        assert_eq!(d.len(), 2);
    }

    #[test]
    fn unwrap_skips_test_code_and_suppressions() {
        let src = "#[cfg(test)]\nmod tests { fn t() { a.unwrap(); } }\n\
                   fn f() { b.unwrap(); } // lint: allow(unwrap) slot exists: inserted above\n";
        let d = run_rule("unwrap", "crates/core/src/api.rs", src);
        assert!(d.is_empty(), "{d:?}");
    }

    #[test]
    fn determinism_catches_env_var_and_instant() {
        let src = "use std::time::Instant;\nlet v = std::env::var(\"X\");\n";
        let d = run_rule("determinism", "crates/workload/src/spec.rs", src);
        assert_eq!(d.len(), 2);
        let suppressed = "// determinism: feeds a log line, never a report\n\
                          let v = std::env::var(\"X\");\n";
        assert!(run_rule("determinism", "crates/workload/src/spec.rs", suppressed).is_empty());
    }

    #[test]
    fn safety_comment_rule() {
        let bad = "unsafe { ptr.read() }\n";
        assert_eq!(
            run_rule("safety-comment", "crates/core/src/x.rs", bad).len(),
            1
        );
        let good = "// SAFETY: ptr is non-null, aligned and owned by this arena slot\n\
                    unsafe { ptr.read() }\n";
        assert!(run_rule("safety-comment", "crates/core/src/x.rs", good).is_empty());
        // The forbid attribute's `unsafe_code` ident must not fire.
        let forbid = "#![forbid(unsafe_code)]\n";
        assert!(run_rule("safety-comment", "crates/core/src/lib.rs", forbid).is_empty());
    }

    #[test]
    fn uniform_allow_works_for_every_rule() {
        for (id, path, bad_line) in [
            (
                "hot-std-hash",
                "crates/simnet/src/sim.rs",
                "use std::collections::HashSet;",
            ),
            (
                "hot-binary-heap",
                "crates/simnet/src/sim.rs",
                "use std::collections::BinaryHeap;",
            ),
            (
                "secondary-map-justify",
                "crates/simnet/src/hot.rs",
                "let m: SecondaryMap<A, B>;",
            ),
            ("safety-comment", "crates/core/src/x.rs", "unsafe { f() }"),
            (
                "determinism",
                "crates/core/src/x.rs",
                "let t = Instant::now();",
            ),
            ("unwrap", "crates/core/src/x.rs", "let v = x.unwrap();"),
        ] {
            assert_eq!(
                run_rule(id, path, bad_line).len(),
                1,
                "{id} should fire bare"
            );
            let suppressed = format!("// lint: allow({id}) reviewed\n{bad_line}\n");
            assert!(
                run_rule(id, path, &suppressed).is_empty(),
                "{id} should honor the uniform allow"
            );
        }
    }
}
