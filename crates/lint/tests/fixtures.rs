//! Table-driven fixture suite for `mochy_lint`.
//!
//! Each case lints an in-memory source under a chosen workspace-relative
//! path (paths select rule scope) and asserts the exact `(rule, line)`
//! pairs reported. Fixture sources live in string literals, which the lexer
//! of the *outer* lint pass strips — so this file never trips the linter it
//! tests.

use mochy_lint::rules;
use mochy_lint::{check_file, check_sources, Diagnostic, Report, RuleInfo, WorkspaceStats};

/// Lints `source` as if it lived at `path` and returns `(rule, line)` pairs.
fn lint(path: &str, source: &str) -> Vec<(String, u32)> {
    check_file(path, source, &rules::all())
        .into_iter()
        .map(|d| (d.rule, d.line))
        .collect()
}

/// Lints a whole in-memory workspace (per-file rules plus the cross-file
/// pass) and returns `(rule, file, line)` triples in report order.
fn lint_ws(files: &[(&str, &str)]) -> Vec<(String, String, u32)> {
    check_sources(files, None)
        .diagnostics
        .into_iter()
        .map(|d| (d.rule, d.file, d.line))
        .collect()
}

struct Case {
    name: &'static str,
    path: &'static str,
    source: &'static str,
    expect: &'static [(&'static str, u32)],
}

const CASES: &[Case] = &[
    // ---- panic-free-serve -------------------------------------------------
    Case {
        name: "unwrap in serve source is flagged",
        path: "crates/serve/src/http.rs",
        source: "fn f(v: Option<u32>) -> u32 {\n    v.unwrap()\n}\n",
        expect: &[("panic-free-serve", 2)],
    },
    Case {
        name: "expect and panic macro in json source are flagged",
        path: "crates/json/src/parse.rs",
        source: "fn f(v: Option<u32>) -> u32 {\n    let n = v.expect(\"set\");\n    panic!(\"boom\");\n}\n",
        expect: &[("panic-free-serve", 2), ("panic-free-serve", 3)],
    },
    Case {
        name: "slice indexing in serve source is flagged",
        path: "crates/serve/src/http.rs",
        source: "fn f(buffer: &[u8]) -> u8 {\n    buffer[0]\n}\n",
        expect: &[("panic-free-serve", 2)],
    },
    Case {
        name: "debug_assert and get-based access are not flagged",
        path: "crates/serve/src/http.rs",
        source: "fn f(buffer: &[u8]) -> Option<u8> {\n    debug_assert!(!buffer.is_empty());\n    buffer.get(0).copied()\n}\n",
        expect: &[],
    },
    Case {
        name: "unwrap outside the serve/json scope is not flagged",
        path: "crates/core/src/exact.rs",
        source: "fn f(v: Option<u32>) -> u32 {\n    v.unwrap()\n}\n",
        expect: &[],
    },
    Case {
        name: "indexing in the shard-partial decoder is flagged",
        path: "crates/core/src/shard.rs",
        source: "fn f(partials: &[u32], shard: usize) -> u32 {\n    partials[shard]\n}\n",
        expect: &[("panic-free-serve", 2)],
    },
    Case {
        name: "unwrap inside cfg(test) in a serve file is exempt",
        path: "crates/serve/src/api.rs",
        source: "fn shipped() -> u32 {\n    0\n}\n\n#[cfg(test)]\nmod tests {\n    #[test]\n    fn case() {\n        Some(1u32).unwrap();\n    }\n}\n",
        expect: &[],
    },
    // ---- forbid-unsafe ----------------------------------------------------
    Case {
        name: "crate root without forbid(unsafe_code) is flagged at line 1",
        path: "crates/serve/src/lib.rs",
        source: "//! Docs.\n\npub fn f() {}\n",
        expect: &[("forbid-unsafe", 1)],
    },
    Case {
        name: "crate root with the attribute is clean",
        path: "crates/serve/src/main.rs",
        source: "//! Docs.\n\n#![forbid(unsafe_code)]\n\nfn main() {}\n",
        expect: &[],
    },
    Case {
        name: "non-root module never needs the attribute",
        path: "crates/serve/src/http.rs",
        source: "pub fn f() {}\n",
        expect: &[],
    },
    // ---- deterministic-rng ------------------------------------------------
    Case {
        name: "thread_rng is flagged anywhere, even in tests",
        path: "crates/core/tests/sampling.rs",
        source: "fn f() {\n    let mut rng = thread_rng();\n    let _ = rng;\n}\n",
        expect: &[("deterministic-rng", 2)],
    },
    Case {
        name: "SystemTime-based seeding is flagged",
        path: "crates/datagen/src/lib.rs",
        source: "#![forbid(unsafe_code)]\nfn f() -> u64 {\n    let now = SystemTime::now();\n    let _ = now;\n    0\n}\n",
        expect: &[("deterministic-rng", 3)],
    },
    Case {
        name: "seeded StdRng is clean",
        path: "crates/core/src/sample.rs",
        source: "fn f() {\n    let rng = StdRng::seed_from_u64(7);\n    let _ = rng;\n}\n",
        expect: &[],
    },
    // ---- no-hashmap-iter-order --------------------------------------------
    Case {
        name: "HashMap in a counting crate is flagged",
        path: "crates/core/src/exact.rs",
        source: "fn f() {\n    let m: FxHashMap<u32, u32> = FxHashMap::default();\n    let _ = m;\n}\n",
        expect: &[("no-hashmap-iter-order", 2)],
    },
    Case {
        name: "use lines and BTreeMap are exempt",
        path: "crates/core/src/exact.rs",
        source: "use std::collections::HashMap;\npub use std::collections::HashSet;\n\nfn f() {\n    let m: std::collections::BTreeMap<u32, u32> = Default::default();\n    let _ = m;\n}\n",
        expect: &[],
    },
    Case {
        name: "HashMap outside the deterministic-output crates is fine",
        path: "crates/experiments/src/main.rs",
        source: "#![forbid(unsafe_code)]\nfn f() {\n    let m: HashMap<u32, u32> = HashMap::new();\n    let _ = m;\n}\n",
        expect: &[],
    },
    // ---- checked-untrusted-arith ------------------------------------------
    Case {
        name: "bare addition over length-typed names in the snapshot reader",
        path: "crates/hypergraph/src/snapshot.rs",
        source: "fn f(offset: usize, len: usize) -> usize {\n    offset + len\n}\n",
        expect: &[("checked-untrusted-arith", 2)],
    },
    Case {
        name: "narrowing casts in the http reader are flagged",
        path: "crates/serve/src/http.rs",
        source: "fn f(declared: u64) -> usize {\n    declared as usize\n}\n",
        expect: &[("checked-untrusted-arith", 2)],
    },
    Case {
        name: "checked helpers and pure-literal arithmetic are clean",
        path: "crates/hypergraph/src/snapshot.rs",
        source: "fn f(offset: usize, len: usize) -> Option<usize> {\n    let _block = 16 * 1024;\n    offset.checked_add(len)\n}\n",
        expect: &[],
    },
    Case {
        name: "the same arithmetic outside the reader files is out of scope",
        path: "crates/core/src/exact.rs",
        source: "fn f(offset: usize, len: usize) -> usize {\n    offset + len\n}\n",
        expect: &[],
    },
    // The rolling-buffer idiom the keep-alive HTTP reader is built on: head
    // and body positions come from client-controlled bytes, so every
    // combination must go through saturating/checked helpers and clamped
    // ranges — which the rule accepts without any pragma.
    Case {
        name: "rolling-buffer position arithmetic via saturating helpers is clean",
        path: "crates/serve/src/http.rs",
        source: "fn f(buffer: &mut Vec<u8>, head_end: usize, content_length: usize) {\n    let body_start = head_end.saturating_add(4);\n    let body_end = body_start.saturating_add(content_length);\n    buffer.drain(..body_end.min(buffer.len()));\n}\n",
        expect: &[],
    },
    Case {
        name: "bare arithmetic on rolling-buffer positions is still flagged",
        path: "crates/serve/src/http.rs",
        source: "fn f(head_end: usize, content_length: usize) -> usize {\n    head_end + 4 + content_length\n}\n",
        expect: &[("checked-untrusted-arith", 2)],
    },
    // The shard-manifest reader parses the same class of untrusted bytes as
    // the snapshot reader and is held to the same idiom: record offsets and
    // spans combine via checked helpers, shard counts narrow via try_from.
    Case {
        name: "bare record arithmetic in the shard-manifest reader is flagged",
        path: "crates/hypergraph/src/shard.rs",
        source: "fn f(edge_start: usize, edge_end: usize) -> usize {\n    edge_end - edge_start\n}\n",
        expect: &[("checked-untrusted-arith", 2)],
    },
    Case {
        name: "narrowing a declared shard count with `as` is flagged",
        path: "crates/hypergraph/src/shard.rs",
        source: "fn f(declared: u64) -> usize {\n    declared as usize\n}\n",
        expect: &[("checked-untrusted-arith", 2)],
    },
    Case {
        name: "the shard reader's checked/saturating span idiom is clean",
        path: "crates/hypergraph/src/shard.rs",
        source: "fn f(edge_start: u64, edge_end: u64, cursor: usize) -> Option<usize> {\n    let span = edge_end.saturating_sub(edge_start);\n    let span = usize::try_from(span).ok()?;\n    cursor.checked_add(span)\n}\n",
        expect: &[],
    },
    // ---- unordered-float-merge --------------------------------------------
    Case {
        name: "float accumulation over hash-map iteration is flagged",
        path: "crates/analysis/src/report.rs",
        source: "fn f(weights: &HashMap<u64, f64>, total: &mut f64) {\n    for (_key, value) in weights.iter() {\n        *total += value;\n    }\n}\n",
        expect: &[("unordered-float-merge", 3)],
    },
    Case {
        name: "float accumulation over an ordered slice is clean",
        path: "crates/analysis/src/report.rs",
        source: "fn f(values: &[f64]) -> f64 {\n    let mut total = 0.0;\n    for value in values {\n        total += value;\n    }\n    total\n}\n",
        expect: &[],
    },
    Case {
        name: "accumulating into hash entries from an ordered source is clean",
        path: "crates/analysis/src/report.rs",
        source: "fn f(values: &[f64], acc: &mut HashMap<u64, f64>) {\n    for (slot, value) in values.iter().enumerate() {\n        *acc.entry(slot).or_insert(0.0) += value;\n    }\n}\n",
        expect: &[],
    },
    Case {
        name: "a shadowing ordered redeclaration clears the hash taint",
        path: "crates/analysis/src/report.rs",
        source: "fn f(weights: HashMap<u64, f64>, total: &mut f64) {\n    let mut weights: Vec<(u64, f64)> = weights.into_iter().collect();\n    weights.sort_unstable_by(|a, b| a.0.cmp(&b.0));\n    for (_key, value) in weights.iter() {\n        *total += value;\n    }\n}\n",
        expect: &[],
    },
    Case {
        name: "a float-merge pragma citing the 2^53 argument suppresses cleanly",
        path: "crates/analysis/src/report.rs",
        source: "fn f(weights: &HashMap<u64, f64>, total: &mut f64) {\n    for (_key, value) in weights.iter() {\n        // mochy-lint: allow(unordered-float-merge) reason=\"addends are exact integer counts and the total stays below 2^53, so addition is associative\"\n        *total += value;\n    }\n}\n",
        expect: &[],
    },
    Case {
        name: "a float-merge pragma without the 2^53 argument is rejected",
        path: "crates/analysis/src/report.rs",
        source: "fn f(weights: &HashMap<u64, f64>, total: &mut f64) {\n    for (_key, value) in weights.iter() {\n        // mochy-lint: allow(unordered-float-merge) reason=\"the sum is close enough\"\n        *total += value;\n    }\n}\n",
        expect: &[("lint-pragma", 3)],
    },
    Case {
        name: "a stale float-merge pragma is itself an error",
        path: "crates/analysis/src/report.rs",
        source: "fn f(values: &[f64]) -> f64 {\n    // mochy-lint: allow(unordered-float-merge) reason=\"addends are exact integer counts below 2^53\"\n    values.iter().sum()\n}\n",
        expect: &[("lint-pragma", 2)],
    },
    // ---- pragmas ----------------------------------------------------------
    Case {
        name: "a standalone pragma with a reason suppresses the next line",
        path: "crates/serve/src/http.rs",
        source: "fn f(v: Option<u32>) -> u32 {\n    // mochy-lint: allow(panic-free-serve) reason=\"fixture: value is set two lines up\"\n    v.unwrap()\n}\n",
        expect: &[],
    },
    Case {
        name: "a trailing pragma suppresses its own line",
        path: "crates/serve/src/http.rs",
        source: "fn f(v: Option<u32>) -> u32 {\n    v.unwrap() // mochy-lint: allow(panic-free-serve) reason=\"fixture: value is set two lines up\"\n}\n",
        expect: &[],
    },
    Case {
        name: "a stale pragma is itself an error",
        path: "crates/serve/src/http.rs",
        source: "fn f(v: u32) -> u32 {\n    // mochy-lint: allow(panic-free-serve) reason=\"nothing here panics any more\"\n    v\n}\n",
        expect: &[("lint-pragma", 2)],
    },
    Case {
        name: "a pragma without a reason is an error and suppresses nothing",
        path: "crates/serve/src/http.rs",
        source: "fn f(v: Option<u32>) -> u32 {\n    // mochy-lint: allow(panic-free-serve)\n    v.unwrap()\n}\n",
        expect: &[("lint-pragma", 2), ("panic-free-serve", 3)],
    },
    Case {
        name: "a pragma naming an unknown rule is an error",
        path: "crates/serve/src/http.rs",
        source: "fn f(v: u32) -> u32 {\n    // mochy-lint: allow(no-such-rule) reason=\"typo fixture\"\n    v\n}\n",
        expect: &[("lint-pragma", 2)],
    },
];

#[test]
fn fixture_table() {
    for case in CASES {
        let got = lint(case.path, case.source);
        let want: Vec<(String, u32)> = case
            .expect
            .iter()
            .map(|(rule, line)| (rule.to_string(), *line))
            .collect();
        assert_eq!(got, want, "fixture `{}` ({})", case.name, case.path);
    }
}

// ---- lock-order (workspace pass) ------------------------------------------

const LOCK_CYCLE: &str = "\
pub struct Pair {
    first: Mutex<u32>,
    second: Mutex<u32>,
}
impl Pair {
    pub fn forward(&self) {
        let a = self.first.lock();
        let b = self.second.lock();
        drop(b);
        drop(a);
    }
    pub fn backward(&self) {
        let b = self.second.lock();
        let a = self.first.lock();
        drop(a);
        drop(b);
    }
}
";

#[test]
fn two_lock_cycle_is_flagged_on_both_edges() {
    let got = lint_ws(&[("crates/serve/src/pair.rs", LOCK_CYCLE)]);
    assert_eq!(
        got,
        vec![
            (
                "lock-order".to_string(),
                "crates/serve/src/pair.rs".to_string(),
                8
            ),
            (
                "lock-order".to_string(),
                "crates/serve/src/pair.rs".to_string(),
                14
            ),
        ]
    );
}

#[test]
fn consistently_ordered_lock_pair_is_clean() {
    let source = "\
pub struct Pair {
    first: Mutex<u32>,
    second: Mutex<u32>,
}
impl Pair {
    pub fn forward(&self) {
        let a = self.first.lock();
        let b = self.second.lock();
        drop(b);
        drop(a);
    }
    pub fn also_forward(&self) {
        let a = self.first.lock();
        let b = self.second.lock();
        drop(b);
        drop(a);
    }
}
";
    assert_eq!(lint_ws(&[("crates/serve/src/pair.rs", source)]), vec![]);
}

#[test]
fn lock_order_pragmas_suppress_and_go_stale() {
    // Trailing pragmas on both cycle edges suppress the rule.
    let suppressed = LOCK_CYCLE
        .replace(
            "        let b = self.second.lock();\n        drop(b);",
            "        let b = self.second.lock(); // mochy-lint: allow(lock-order) reason=\"fixture: the cycle is the point\"\n        drop(b);",
        )
        .replace(
            "        let a = self.first.lock();\n        drop(a);",
            "        let a = self.first.lock(); // mochy-lint: allow(lock-order) reason=\"fixture: the cycle is the point\"\n        drop(a);",
        );
    assert_eq!(
        lint_ws(&[("crates/serve/src/pair.rs", &suppressed)]),
        vec![]
    );

    // The same pragma in a file with no cycle is stale — and an error.
    let stale = "\
pub struct Calm {
    inner: Mutex<u32>,
}
impl Calm {
    pub fn touch(&self) -> u32 {
        // mochy-lint: allow(lock-order) reason=\"fixture: stale\"
        let guard = self.inner.lock();
        // mochy-lint: allow(guard-across-blocking) reason=\"fixture: stale\"
        let value = *guard;
        value
    }
}
";
    assert_eq!(
        lint_ws(&[("crates/serve/src/calm.rs", stale)]),
        vec![
            (
                "lint-pragma".to_string(),
                "crates/serve/src/calm.rs".to_string(),
                6
            ),
            (
                "lint-pragma".to_string(),
                "crates/serve/src/calm.rs".to_string(),
                8
            ),
        ]
    );
}

// ---- guard-across-blocking (workspace pass) --------------------------------

const GUARD_IO: &str = "\
pub struct Store {
    state: Mutex<u32>,
}
pub fn flush_to_disk() {
    let file = File::create(\"flush\");
    let _ = file;
}
impl Store {
    pub fn bad(&self) {
        let guard = self.state.lock();
        flush_to_disk();
        drop(guard);
    }
}
";

#[test]
fn guard_held_across_transitive_io_is_flagged() {
    let got = lint_ws(&[("crates/serve/src/store.rs", GUARD_IO)]);
    assert_eq!(
        got,
        vec![(
            "guard-across-blocking".to_string(),
            "crates/serve/src/store.rs".to_string(),
            11
        )]
    );
}

#[test]
fn guard_dropped_before_the_blocking_call_is_clean() {
    let source = "\
pub struct Store {
    state: Mutex<u32>,
}
pub fn flush_to_disk() {
    let file = File::create(\"flush\");
    let _ = file;
}
impl Store {
    pub fn good(&self) {
        let guard = self.state.lock();
        drop(guard);
        flush_to_disk();
    }
}
";
    assert_eq!(lint_ws(&[("crates/serve/src/store.rs", source)]), vec![]);
}

#[test]
fn guard_liveness_follows_nested_blocks_and_scope_ends() {
    let source = "\
pub struct Cell {
    inner: Mutex<u32>,
}
pub fn spill() {
    let file = File::create(\"spill\");
    let _ = file;
}
impl Cell {
    pub fn nested(&self, flag: bool) -> u32 {
        let guard = self.inner.lock();
        if flag {
            return 1;
        }
        {
            spill();
        }
        drop(guard);
        0
    }
    pub fn scoped(&self) {
        {
            let guard = self.inner.lock();
            let _ = *guard;
        }
        spill();
    }
}
";
    // `nested` holds the guard through the inner block (early return or not),
    // so the spill() inside it is flagged; `scoped` drops the guard at the
    // block's end before spilling, so it is clean.
    assert_eq!(
        lint_ws(&[("crates/serve/src/cell.rs", source)]),
        vec![(
            "guard-across-blocking".to_string(),
            "crates/serve/src/cell.rs".to_string(),
            15
        )]
    );
}

#[test]
fn cross_file_method_resolution_beats_same_name_local_fn() {
    // `Sink::send` (another file) reaches IO; the free fn `send` in the
    // caller's own file does not. A bare `send()` resolves to the local free
    // fn — no diagnostic — while `sink.send()` resolves to the unique
    // workspace method and is flagged.
    let sink = "\
pub struct Sink;
impl Sink {
    pub fn send(&self) {
        let file = File::create(\"out\");
        let _ = file;
    }
}
";
    let agent = "\
pub struct Agent {
    state: Mutex<u32>,
}
fn send() {
    let x = 1;
    let _ = x;
}
impl Agent {
    pub fn forward(&self) {
        let guard = self.state.lock();
        send();
        drop(guard);
    }
}
pub fn relay(agent: &Agent, sink: &Sink) {
    let guard = agent.state.lock();
    sink.send();
    drop(guard);
}
";
    let got = lint_ws(&[
        ("crates/serve/src/agent.rs", agent),
        ("crates/serve/src/sink.rs", sink),
    ]);
    assert_eq!(
        got,
        vec![(
            "guard-across-blocking".to_string(),
            "crates/serve/src/agent.rs".to_string(),
            17
        )]
    );
}

#[test]
fn guard_across_blocking_pragma_suppresses() {
    let suppressed = GUARD_IO.replace(
        "        flush_to_disk();\n",
        "        flush_to_disk(); // mochy-lint: allow(guard-across-blocking) reason=\"fixture: single-threaded startup path, nothing contends\"\n",
    );
    assert_eq!(
        lint_ws(&[("crates/serve/src/store.rs", &suppressed)]),
        vec![]
    );
}

#[test]
fn json_report_shape_round_trips_through_mochy_json() {
    let report = Report {
        files_scanned: 2,
        rules: vec![RuleInfo {
            name: "panic-free-serve",
            description: "no panics in request handling",
            scope: "crates/{serve,json}/src",
        }],
        stats: WorkspaceStats {
            functions: 3,
            call_sites: 5,
            resolved_calls: 4,
            lock_fields: 1,
            lock_params: 0,
            guard_spans: 2,
        },
        diagnostics: vec![Diagnostic {
            rule: "panic-free-serve".to_string(),
            file: "crates/serve/src/http.rs".to_string(),
            line: 7,
            message: "unwrap".to_string(),
        }],
    };
    let rendered = report.to_json().render();
    let value = mochy_json::parse(&rendered).expect("report JSON parses");
    assert_eq!(
        value.get("schema").and_then(|v| v.as_str()),
        Some("mochy-lint/2")
    );
    assert_eq!(value.get("files_scanned").and_then(|v| v.as_u64()), Some(2));
    assert_eq!(value.get("clean").and_then(|v| v.as_bool()), Some(false));
    let rules = value
        .get("rules")
        .and_then(|v| v.as_array())
        .expect("rules array");
    assert_eq!(rules.len(), 1);
    assert_eq!(
        rules[0].get("name").and_then(|v| v.as_str()),
        Some("panic-free-serve")
    );
    assert_eq!(
        rules[0].get("scope").and_then(|v| v.as_str()),
        Some("crates/{serve,json}/src")
    );
    assert_eq!(rules[0].get("violations").and_then(|v| v.as_u64()), Some(1));
    let callgraph = value.get("callgraph").expect("callgraph object");
    assert_eq!(callgraph.get("functions").and_then(|v| v.as_u64()), Some(3));
    assert_eq!(
        callgraph.get("call_sites").and_then(|v| v.as_u64()),
        Some(5)
    );
    assert_eq!(
        callgraph.get("resolved_calls").and_then(|v| v.as_u64()),
        Some(4)
    );
    assert_eq!(
        callgraph.get("lock_fields").and_then(|v| v.as_u64()),
        Some(1)
    );
    assert_eq!(
        callgraph.get("guard_spans").and_then(|v| v.as_u64()),
        Some(2)
    );
    let diagnostics = value
        .get("diagnostics")
        .and_then(|v| v.as_array())
        .expect("diagnostics array");
    assert_eq!(diagnostics.len(), 1);
    assert_eq!(
        diagnostics[0].get("file").and_then(|v| v.as_str()),
        Some("crates/serve/src/http.rs")
    );
    assert_eq!(diagnostics[0].get("line").and_then(|v| v.as_u64()), Some(7));
}

#[test]
fn the_workspace_itself_is_lint_clean() {
    // CARGO_MANIFEST_DIR is crates/lint; the workspace root is two up. This
    // is the zero-baseline-exceptions guarantee: every rule passes on the
    // real tree, so the CI stage starts strict instead of grandfathering.
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("workspace root")
        .to_path_buf();
    let report = mochy_lint::lint_workspace(&root, None).expect("workspace scan");
    assert!(
        report.files_scanned > 50,
        "scanned {}",
        report.files_scanned
    );
    let rendered: Vec<String> = report.diagnostics.iter().map(|d| d.render()).collect();
    assert!(
        report.clean(),
        "workspace has lint violations:\n{}",
        rendered.join("\n")
    );
}
