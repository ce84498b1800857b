//! `panic-free-serve`: no panic paths in the request-handling crates.
//!
//! `mochy-serve` answers queries from resident worker threads; a panic in a
//! handler burns the in-flight request (and, for lock-holding code, poisons
//! shared state) even though the accept loop survives. The JSON parser sits
//! on the same untrusted-input path, and so do the `.mochy` snapshot and
//! shard-manifest byte readers (`crates/hypergraph/src/{snapshot,shard}.rs`)
//! — a hostile upload reaches them through `POST /datasets` before any
//! handler sees a parsed value — and the shard-partial decoder and merge
//! (`crates/core/src/shard.rs`), which a coordinator runs on every worker's
//! answer. So in non-test code of those files this rule bans every
//! construct that converts a bug or bad input into a panic:
//!
//! - `.unwrap()` / `.expect(…)` (and their `_err` duals) — return a typed
//!   error mapped to a 4xx/5xx instead;
//! - `panic!` / `unreachable!` / `unimplemented!` / `todo!` /
//!   `assert…!` — these abort the request in release builds too
//!   (`debug_assert…!` compiles out of release and stays legal);
//! - slice/array indexing `x[i]` — use `.get(…)` and handle `None`.

use crate::engine::{Diagnostic, Rule, SourceFile};
use crate::lexer::{is_keyword, TokKind};

/// See the module docs.
pub struct PanicFreeServe;

const PANICKING_METHODS: &[&str] = &["unwrap", "expect", "unwrap_err", "expect_err"];
const PANICKING_MACROS: &[&str] = &[
    "panic",
    "unreachable",
    "unimplemented",
    "todo",
    "assert",
    "assert_eq",
    "assert_ne",
];

impl Rule for PanicFreeServe {
    fn name(&self) -> &'static str {
        "panic-free-serve"
    }

    fn description(&self) -> &'static str {
        "no unwrap/expect/panic!/asserts/slice-indexing on the request/untrusted-byte path"
    }

    fn scope(&self) -> &'static str {
        "crates/{serve,json}/src, crates/hypergraph/src/{snapshot,shard}.rs, \
         crates/core/src/shard.rs"
    }

    fn check(&self, file: &SourceFile, out: &mut Vec<Diagnostic>) {
        if !(file.rel_path.starts_with("crates/serve/src/")
            || file.rel_path.starts_with("crates/json/src/")
            || file.rel_path == "crates/hypergraph/src/snapshot.rs"
            || file.rel_path == "crates/hypergraph/src/shard.rs"
            || file.rel_path == "crates/core/src/shard.rs")
        {
            return;
        }
        let toks = &file.lexed.tokens;
        for (i, t) in toks.iter().enumerate() {
            if file.is_test_line(t.line) {
                continue;
            }
            let prev = i.checked_sub(1).and_then(|p| toks.get(p));
            let next = toks.get(i + 1);
            match t.kind {
                TokKind::Ident => {
                    let called = next.is_some_and(|n| n.text == "(");
                    let after_dot = prev.is_some_and(|p| p.text == ".");
                    if PANICKING_METHODS.contains(&t.text.as_str()) && after_dot && called {
                        file.diag(
                            out,
                            self.name(),
                            t.line,
                            format!(
                                "`.{}()` can panic a request worker — return a typed error instead",
                                t.text
                            ),
                        );
                    }
                    let is_macro = next.is_some_and(|n| n.text == "!");
                    if PANICKING_MACROS.contains(&t.text.as_str()) && is_macro {
                        file.diag(
                            out,
                            self.name(),
                            t.line,
                            format!(
                                "`{}!` panics in release builds — return a typed error \
                                 (or use debug_assert! for internal invariants)",
                                t.text
                            ),
                        );
                    }
                }
                TokKind::Punct if t.text == "[" => {
                    // An index *expression*: `[` applied to a value — an
                    // identifier that is not a keyword (`let [a, b] = …` is a
                    // slice pattern), or a `)`/`]` closing the indexed
                    // expression. Types, attributes, array literals, and
                    // macro brackets all have other predecessors.
                    let indexes_value = prev.is_some_and(|p| match p.kind {
                        TokKind::Ident => !is_keyword(&p.text),
                        TokKind::Punct => p.text == ")" || p.text == "]",
                        _ => false,
                    });
                    if indexes_value {
                        file.diag(
                            out,
                            self.name(),
                            t.line,
                            "slice/array indexing panics out of bounds — use .get(…)".to_string(),
                        );
                    }
                }
                _ => {}
            }
        }
    }
}
