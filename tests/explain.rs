//! Golden tests for the bug-provenance engine (`paracrash::explain`):
//! one Table 3 bug per class — cross-server reordering (bug 1),
//! multi-structure atomicity (bug 12), partially-persisted journal
//! group (bug 3) — each must get a minimal witness, violated-edge
//! output, and well-formed DOT/JSON exports. Shrinking must be
//! deterministic: two runs produce byte-identical bundles.

use paracrash::{CheckConfig, CheckOutcome, EdgeKind, LayerVerdict};
use paracrash_suite::check_with;
use workloads::{FsKind, Params, Program};

fn check_explained(program: Program, fs: FsKind) -> CheckOutcome {
    let cfg = CheckConfig {
        explain: true,
        ..CheckConfig::paper_default()
    };
    check_with(program, fs, &Params::quick(), &cfg)
}

/// Structural DOT lint: balanced braces, and every edge endpoint is a
/// declared node.
fn lint_dot(dot: &str) {
    assert_eq!(
        dot.matches('{').count(),
        dot.matches('}').count(),
        "unbalanced braces:\n{dot}"
    );
    let is_node_id = |s: &str| {
        s.strip_prefix('e')
            .is_some_and(|d| !d.is_empty() && d.bytes().all(|b| b.is_ascii_digit()))
    };
    for line in dot.lines() {
        let line = line.trim();
        if let Some((from, rest)) = line.split_once(" -> ") {
            if !is_node_id(from) {
                continue; // graph label, not an edge line
            }
            let to = rest.split([' ', ';']).next().unwrap();
            for id in [from, to] {
                assert!(
                    is_node_id(id) && dot.contains(&format!("{id} [")),
                    "edge endpoint {id} not declared as a node:\n{dot}"
                );
            }
        }
    }
}

#[test]
fn bug1_reordering_gets_a_strictly_smaller_witness() {
    let outcome = check_explained(Program::Arvr, FsKind::BeeGfs);
    assert_eq!(
        outcome.explanations.len(),
        outcome.bugs.len(),
        "one bundle per bug"
    );
    let e = outcome
        .explanations
        .iter()
        .find(|e| e.signature == "append(file chunk)@storage -> rename(d_entry)@metadata")
        .expect("bug 1 must be explained");
    assert_eq!(e.layer, LayerVerdict::PfsBug);
    assert!(e.shrink.reproduced, "bug 1 reproduces without torn writes");
    // Reordering-class acceptance: the minimal witness is a *strict*
    // subset of the original dropped set.
    assert!(
        e.shrink.minimal_ops < e.shrink.original_ops,
        "witness not shrunk: {:?}",
        e.shrink
    );
    assert!(!e.minimal_witness.is_empty());
    // The violated edge is reported, from a dropped storage-side op to
    // a persisted metadata-side op.
    assert!(
        !e.violated_edges.is_empty(),
        "reordering bug must name a violated edge"
    );
    assert!(e
        .violated_edges
        .iter()
        .all(|v| v.kind == EdgeKind::Violated));
    let first = &e.violated_edges[0];
    let from = e.nodes.iter().find(|n| n.event == first.from).unwrap();
    let to = e.nodes.iter().find(|n| n.event == first.to).unwrap();
    assert!(
        from.minimal && !from.persisted,
        "violated edge source is dropped"
    );
    assert!(to.persisted, "violated edge target persisted");
    // The crash frontier is non-empty and fully persisted.
    assert!(!e.frontier.is_empty());
    // The state diff names the damaged client file.
    assert!(
        e.diff.nearest_legal.iter().any(|d| d.contains("/file")),
        "diff must mention the renamed file: {:?}",
        e.diff
    );
    assert!(e.diff.servers_skipped > 0, "COW digests skip clean servers");
    lint_dot(&e.to_dot());
    pc_rt::json::Json::parse(&e.to_json().pretty()).expect("bundle JSON parses");
}

#[test]
fn bug1_witness_lines_are_in_trace_order() {
    let outcome = check_explained(Program::Arvr, FsKind::BeeGfs);
    let bug = outcome
        .bugs
        .iter()
        .find(|b| {
            b.signature.to_string() == "append(file chunk)@storage -> rename(d_entry)@metadata"
        })
        .expect("bug 1 present");
    // Golden pin for the witness-ordering fix: ops listed as issued
    // (creat before the append that depends on it), not alphabetically.
    assert_eq!(
        bug.witness,
        vec![
            "creat(/chunks/f1.0)@storage#3".to_string(),
            "append(/chunks/f1.0, len=32)@storage#3".to_string(),
        ],
        "witness must be event-id ordered"
    );
}

#[test]
fn bug12_multi_structure_atomicity_is_explained() {
    let outcome = check_explained(Program::H5Rename, FsKind::BeeGfs);
    let e = outcome
        .explanations
        .iter()
        .find(|e| e.layer == LayerVerdict::IoLibBug && e.signature.starts_with('['))
        .expect("bug 12's atomic-group bundle");
    assert!(e.signature.contains("symbol table node"), "{}", e.signature);
    assert!(e.shrink.minimal_ops <= e.shrink.original_ops);
    // Atomicity-class output: either explicit violated pairs inside the
    // group, or the pinpoint's atomic-group fallback.
    let pin = e.pinpoint();
    assert!(pin.contains("violated"), "{pin}");
    assert!(!e.nodes.is_empty());
    lint_dot(&e.to_dot());
    pc_rt::json::Json::parse(&e.to_json().pretty()).expect("bundle JSON parses");
}

#[test]
fn bug3_partially_persisted_journal_group_is_explained() {
    let outcome = check_explained(Program::Arvr, FsKind::Gpfs);
    assert!(!outcome.explanations.is_empty());
    assert_eq!(outcome.explanations.len(), outcome.bugs.len());
    let e = outcome
        .explanations
        .iter()
        .find(|e| e.layer == LayerVerdict::PfsBug)
        .expect("GPFS journal-group bundle");
    assert!(e.shrink.reproduced);
    assert!(!e.minimal_witness.is_empty());
    // GPFS stores are block devices: the tree diff degrades to the
    // block-store line rather than a path walk.
    assert!(
        e.diff.tree.iter().any(|d| d.contains("block store"))
            || e.diff.servers_skipped == e.diff.servers_total,
        "{:?}",
        e.diff
    );
    for e in &outcome.explanations {
        lint_dot(&e.to_dot());
        pc_rt::json::Json::parse(&e.to_json().pretty()).expect("bundle JSON parses");
    }
}

#[test]
fn shrinking_is_deterministic() {
    let a = check_explained(Program::Arvr, FsKind::BeeGfs);
    let b = check_explained(Program::Arvr, FsKind::BeeGfs);
    assert_eq!(a.explanations.len(), b.explanations.len());
    for (ea, eb) in a.explanations.iter().zip(&b.explanations) {
        assert_eq!(
            ea.to_json().pretty(),
            eb.to_json().pretty(),
            "bundle for {} differs between runs",
            ea.signature
        );
        assert_eq!(ea.to_dot(), eb.to_dot());
    }
    // Explain output must not perturb the canonical verdict either.
    let plain = check_with(
        Program::Arvr,
        FsKind::BeeGfs,
        &Params::quick(),
        &CheckConfig::paper_default(),
    );
    assert_eq!(a.canonical_report(), plain.canonical_report());
    assert!(plain.explanations.is_empty(), "explain off by default");
}
