//! Trace-file serialization round-trips on *real* program traces, and
//! the reloaded trace drives the checker to identical results — the
//! paper's trace-then-analyze workflow (§5.1) end to end.

use paracrash::{check_stack, CheckConfig};
use tracer::{load_trace, save_trace, CausalityGraph};
use workloads::{FsKind, Params, Program};

#[test]
fn every_program_trace_roundtrips() {
    let params = Params::quick();
    for program in Program::paper_eleven() {
        for fs in [FsKind::BeeGfs, FsKind::Gpfs] {
            let stack = program.run(fs, &params);
            let text = save_trace(&stack.rec);
            let back = load_trace(&text)
                .unwrap_or_else(|e| panic!("{} on {}: {e}", program.name(), fs.name()));
            assert_eq!(stack.rec.events(), back.events());
            assert_eq!(stack.rec.extra_edges(), back.extra_edges());
        }
    }
}

#[test]
fn reloaded_trace_checks_identically() {
    let params = Params::quick();
    let fs = FsKind::BeeGfs;
    let mut stack = Program::Arvr.run(fs, &params);
    let factory = fs.factory(&params);
    let cfg = CheckConfig::paper_default();
    let direct = check_stack(&stack, &factory, &cfg);

    // Serialize the trace, reload it, and check again.
    let text = save_trace(&stack.rec);
    stack.rec = load_trace(&text).expect("parse");
    let reloaded = check_stack(&stack, &factory, &cfg);

    let sigs = |o: &paracrash::CheckOutcome| -> Vec<String> {
        o.bugs.iter().map(|b| b.signature.to_string()).collect()
    };
    assert_eq!(sigs(&direct), sigs(&reloaded));
    assert_eq!(
        direct.raw_inconsistent_states,
        reloaded.raw_inconsistent_states
    );
}

#[test]
fn reloaded_graph_answers_identical_hb_queries() {
    let stack = Program::H5Create.run(FsKind::Lustre, &Params::quick());
    let g1 = CausalityGraph::build(&stack.rec);
    let back = load_trace(&save_trace(&stack.rec)).expect("parse");
    let g2 = CausalityGraph::build(&back);
    let low = stack.rec.lowermost_events();
    for &a in &low {
        for &b in &low {
            assert_eq!(g1.happens_before(a, b), g2.happens_before(a, b));
        }
    }
}
