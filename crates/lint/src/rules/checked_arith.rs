//! `checked-untrusted-arith`: length arithmetic on untrusted input goes
//! through the checked helpers.
//!
//! Two files parse bytes an attacker (or a corrupt disk) controls: the
//! `.mochy` snapshot reader (`crates/hypergraph/src/snapshot.rs`) and the
//! HTTP request reader (`crates/serve/src/http.rs`). In those files, bare
//! `+`/`-`/`*` (and their compound forms) over length-typed values can wrap
//! in release builds — turning a hostile header into a bogus offset instead
//! of an error — and `as usize`/`as u32`-style casts can silently truncate.
//! The rule flags:
//!
//! - binary `+ - *` and compound `+= -= *=` whose nearby operands carry a
//!   length-flavoured name (`len`, `offset`, `cursor`, `pos`, …) — use
//!   `checked_*`/`saturating_*` and map `None` to a parse error;
//! - `as usize` / `as u32` / `as u16` / `as u8` casts — use `try_from`, or
//!   a pragma when the conversion is provably lossless.
//!
//! The operand heuristic keeps const-table arithmetic (`16 * 1024`) and
//! float math out of scope; anything it misses is caught at the next layer
//! by the reader's validation tests, and anything it over-flags documents
//! itself via a pragma reason.

use crate::engine::{Diagnostic, Rule, SourceFile};
use crate::lexer::{Tok, TokKind};

/// See the module docs.
pub struct CheckedUntrustedArith;

/// The untrusted-byte parsers this rule guards.
const SCOPE: &[&str] = &[
    "crates/hypergraph/src/snapshot.rs",
    "crates/serve/src/http.rs",
];

/// Name fragments that mark a value as length-typed.
const LENGTH_NAMES: &[&str] = &[
    "len", "pos", "offset", "cursor", "count", "size", "idx", "index", "start", "end", "row",
    "node", "edge", "byte",
];

/// Tokens that end the backward operand scan (statement / binding context).
const SCAN_STOPPERS: &[&str] = &["=", ";", "{", "}", ",", "return", "let"];

/// Cast targets that can truncate (or, for `usize`, change width across
/// platforms).
const NARROWING_CASTS: &[&str] = &["usize", "u32", "u16", "u8"];

impl Rule for CheckedUntrustedArith {
    fn name(&self) -> &'static str {
        "checked-untrusted-arith"
    }

    fn description(&self) -> &'static str {
        "length arithmetic and narrowing casts in the snapshot/HTTP readers must be checked"
    }

    fn scope(&self) -> &'static str {
        "crates/hypergraph/src/snapshot.rs, crates/serve/src/http.rs"
    }

    fn check(&self, file: &SourceFile, out: &mut Vec<Diagnostic>) {
        if !SCOPE.contains(&file.rel_path.as_str()) {
            return;
        }
        let toks = &file.lexed.tokens;
        for (i, t) in toks.iter().enumerate() {
            if file.is_test_line(t.line) {
                continue;
            }
            let compound = matches!(t.text.as_str(), "+=" | "-=" | "*=");
            let binary = matches!(t.text.as_str(), "+" | "-" | "*") && is_binary_op(toks, i);
            if t.kind == TokKind::Punct && (compound || binary) {
                if let Some(name) = length_operand(toks, i) {
                    file.diag(
                        out,
                        self.name(),
                        t.line,
                        format!(
                            "unchecked `{}` over length-typed `{name}` can wrap on hostile \
                             input — use checked_/saturating_ arithmetic",
                            t.text
                        ),
                    );
                }
            }
            if t.kind == TokKind::Ident && t.text == "as" {
                let target = toks.get(i + 1).map(|n| n.text.as_str()).unwrap_or("");
                if NARROWING_CASTS.contains(&target) {
                    file.diag(
                        out,
                        self.name(),
                        t.line,
                        format!(
                            "`as {target}` silently truncates — use {target}::try_from \
                             (or a pragma when provably lossless)"
                        ),
                    );
                }
            }
        }
    }
}

/// A `+`/`-`/`*` is a binary operator when a value just closed on its left;
/// otherwise it is unary negation, a deref, or part of a type.
fn is_binary_op(toks: &[Tok], i: usize) -> bool {
    let Some(prev) = i.checked_sub(1).and_then(|p| toks.get(p)) else {
        return false;
    };
    match prev.kind {
        TokKind::Ident => !crate::lexer::is_keyword(&prev.text),
        TokKind::Number => true,
        TokKind::Punct => prev.text == ")" || prev.text == "]",
        _ => false,
    }
}

/// Scans up to four tokens back (stopping at statement context) and two
/// forward for an identifier with a length-flavoured name.
fn length_operand(toks: &[Tok], i: usize) -> Option<String> {
    let backward = toks[..i].iter().rev().take(4);
    let forward = toks.iter().skip(i + 1).take(2);
    let mut stopped = false;
    let candidates = backward
        .take_while(|t| {
            let stop = stopped || SCAN_STOPPERS.contains(&t.text.as_str());
            stopped = stop;
            !stop
        })
        .chain(forward);
    for t in candidates {
        if t.kind != TokKind::Ident {
            continue;
        }
        let lower = t.text.to_ascii_lowercase();
        if LENGTH_NAMES.iter().any(|n| lower.contains(n)) {
            return Some(t.text.clone());
        }
    }
    None
}
