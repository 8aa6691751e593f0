//! Deterministic-iteration guard.
//!
//! The simulation's reproducibility contract (same seed → same
//! trajectory, same event log, pinned single-cell fingerprints) dies the
//! moment an event emission or a placement decision iterates a
//! `HashMap`/`HashSet` — std's hasher is seeded per process, so the
//! visit order varies run to run. Ordered state must live in `BTreeMap`
//! (service records, recovery beliefs) or be explicitly sorted before use
//! (the dead-VSN sweep in `crash_host`).
//!
//! This test is the audit, made durable: it scans the sources of
//! `soda-core` and `soda-sim` (the engine and the parallel epoch
//! machinery in `par.rs` are just as order-sensitive — a hash-ordered
//! merge would break the `Parallel(n)` ≡ `Serial` gate) for hash-typed
//! fields and for iteration over them, and fails when either appears
//! outside the reviewed allow-lists below. Adding a new `HashMap` field
//! or a new `.iter()`/`.values()`/`.retain()` call over one forces the
//! author to re-audit (is the order observable?) and extend the list.

use std::fs;
use std::path::{Path, PathBuf};

/// Hash-typed fields/bindings already audited: every one is either
/// looked up by key only, or its only iteration sites are listed in
/// [`AUDITED_ITERATION_SITES`]. The world's id-keyed hot tables moved
/// off hash maps entirely (see `arena.rs` and
/// [`world_hot_state_is_arena_backed`]), so only order-insensitive
/// locals remain.
const AUDITED_HASH_STATE: &[&str] = &[
    // world.rs locals: membership sets / key-value indexes, read only
    // via `contains`/`get`.
    "keep", "known", // placement.rs proptest local: assertion-only membership set.
    "seen",
];

/// Audited iteration-over-hash sites, `(file, line-substring)`. Each is
/// order-insensitive: pure removal, or the result is sorted before
/// anything observable happens. Currently empty: the arena conversion
/// removed the last iterated hash state (`node_runtimes` iterates in
/// ascending id order by construction, so `crash_host` no longer needs
/// its defensive sort).
const AUDITED_ITERATION_SITES: &[(&str, &str)] = &[];

/// The world's id-keyed hot tables, every one required to be backed by
/// the arena containers (`IdMap`/`RequestTable`) whose iteration order
/// is ascending-id by construction.
const ARENA_BACKED_FIELDS: &[&str] = &[
    "nics: IdMap<",
    "node_runtimes: IdMap<",
    "daemon_slots: IdMap<",
    "callbacks: RequestTable<",
    "nic_arms: IdMap<",
    "host_slow: IdMap<",
    "armed_priming_failures: IdMap<",
    "request_traces: RequestTable<",
    "creation_traces: IdMap<",
    "priming_traces: IdMap<",
];

fn scanned_sources() -> Vec<(String, String)> {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut out = Vec::new();
    for crate_dir in ["crates/soda-core/src", "crates/soda-sim/src"] {
        let before = out.len();
        let mut stack = vec![root.join(crate_dir)];
        while let Some(d) = stack.pop() {
            for entry in fs::read_dir(&d).expect("crate sources readable") {
                let path: PathBuf = entry.expect("dir entry").path();
                if path.is_dir() {
                    stack.push(path);
                } else if path.extension().is_some_and(|e| e == "rs") {
                    let name = path
                        .file_name()
                        .expect("file name")
                        .to_string_lossy()
                        .into_owned();
                    out.push((name, fs::read_to_string(&path).expect("source reads")));
                }
            }
        }
        assert!(out.len() > before + 3, "expected the {crate_dir} tree");
    }
    assert!(out.len() >= 10, "expected both crates' source trees");
    out
}

/// Strip line comments so commentary about hash maps doesn't trip the
/// scan (string literals in this codebase never mention HashMap).
fn code_of(line: &str) -> &str {
    line.split("//").next().unwrap_or(line)
}

/// Names bound to a hash-typed value on this line: the identifier
/// before `: HashMap<...>` / `: HashSet<...>` (field declarations and
/// typed lets) or before `= HashMap::new()`-style constructions.
fn hash_bindings(code: &str) -> Vec<String> {
    let mut out = Vec::new();
    for marker in ["HashMap<", "HashSet<", "HashMap::new", "HashSet::new"] {
        let mut from = 0;
        while let Some(pos) = code[from..].find(marker) {
            let abs = from + pos;
            from = abs + marker.len();
            let mut before = code[..abs].trim_end();
            before = before
                .strip_suffix("std::collections::")
                .unwrap_or(before)
                .trim_end();
            let before = match before.strip_suffix([':', '=']) {
                Some(b) => b.trim_end(),
                // `use std::collections::HashMap`, turbofish, etc.
                None => continue,
            };
            let name: String = before
                .chars()
                .rev()
                .take_while(|c| c.is_alphanumeric() || *c == '_')
                .collect::<String>()
                .chars()
                .rev()
                .collect();
            out.push(if name.is_empty() {
                "<anonymous>".to_string()
            } else {
                name
            });
        }
    }
    out
}

/// Every `HashMap`/`HashSet` field or binding in soda-core must be on
/// the audited list — new hash-typed state requires a determinism
/// review before it can land.
#[test]
fn hash_state_is_allow_listed() {
    let mut violations = Vec::new();
    for (file, src) in scanned_sources() {
        for (i, line) in src.lines().enumerate() {
            for name in hash_bindings(code_of(line)) {
                if !AUDITED_HASH_STATE.contains(&name.as_str()) {
                    violations.push(format!("{file}:{}: unaudited hash state `{name}`", i + 1));
                }
            }
        }
    }
    assert!(
        violations.is_empty(),
        "hash-typed state needs a determinism audit (iterate via BTreeMap \
         or sort before observing), then add it to AUDITED_HASH_STATE:\n{}",
        violations.join("\n")
    );
}

/// Every iteration over audited hash state must itself be an audited
/// site: hash visit order must never feed event emission or placement.
#[test]
fn hash_iteration_sites_are_audited() {
    let mut patterns = Vec::new();
    for field in AUDITED_HASH_STATE {
        for method in [
            "iter()",
            "iter_mut()",
            "keys()",
            "values()",
            "values_mut()",
            "drain()",
            "retain(",
        ] {
            patterns.push(format!("{field}.{method}"));
        }
    }
    let mut violations = Vec::new();
    for (file, src) in scanned_sources() {
        for (i, line) in src.lines().enumerate() {
            let code = code_of(line);
            for p in &patterns {
                if !code.contains(p.as_str()) {
                    continue;
                }
                let audited = AUDITED_ITERATION_SITES
                    .iter()
                    .any(|&(f, frag)| f == file && code.contains(frag));
                if !audited {
                    violations.push(format!("{file}:{}: unaudited iteration `{p}`", i + 1));
                }
            }
        }
    }
    assert!(
        violations.is_empty(),
        "iteration over hash state must be order-insensitive (or sorted) \
         and recorded in AUDITED_ITERATION_SITES:\n{}",
        violations.join("\n")
    );
}

/// The audited-site fragments must actually exist — a refactor that
/// removes or rewords one should prune the allow-list, not leave dead
/// grants behind.
#[test]
fn audited_sites_still_exist() {
    let sources = scanned_sources();
    for &(file, frag) in AUDITED_ITERATION_SITES {
        let found = sources
            .iter()
            .any(|(name, src)| name == file && src.contains(frag));
        assert!(
            found,
            "stale allow-list entry: {file} no longer contains `{frag}`"
        );
    }
}

/// The arena containers and the in-flight table are the determinism
/// backbone of the data plane: both must stay hash-free by
/// construction, not by audit.
#[test]
fn arena_modules_are_hash_free() {
    let sources = scanned_sources();
    for target in ["arena.rs", "inflight.rs"] {
        let (_, src) = sources
            .iter()
            .find(|(name, _)| name == target)
            .unwrap_or_else(|| panic!("{target} exists in soda-core"));
        for (i, line) in src.lines().enumerate() {
            let code = code_of(line);
            assert!(
                !code.contains("HashMap") && !code.contains("HashSet"),
                "{target}:{}: hash container in an arena module",
                i + 1
            );
        }
    }
}

/// The world's id-keyed hot tables must stay on the arena containers.
/// Demoting one back to a `HashMap` would re-open the hash-order
/// question this guard exists to close (and silently forfeit the dense
/// layout the xl scale tier depends on).
#[test]
fn world_hot_state_is_arena_backed() {
    let sources = scanned_sources();
    let (_, world) = sources
        .iter()
        .find(|(name, _)| name == "world.rs")
        .expect("world.rs exists");
    for field in ARENA_BACKED_FIELDS {
        assert!(
            world.contains(field),
            "world.rs hot table drifted off the arena: expected `{field}`"
        );
    }
}
