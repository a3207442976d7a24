//! A panicking PFS model must not abort the checking run: each crash
//! state's work runs under `catch_unwind`, and a poisoned state becomes
//! a diagnostic entry while the rest of the run completes.

use paracrash_suite::paracrash::{check_stack, CheckConfig};
use pfs::{ModelBase, Pfs, PfsCall, PfsResult, PfsView, ServerStates};
use tracer::{EventId, Process, Recorder};
use workloads::{FsKind, Params, Program};

/// A PFS whose recovery tool is deliberately broken: everything
/// delegates to the wrapped model except `recover`, which panics.
#[derive(Clone)]
struct PoisonedRecover(Box<dyn Pfs>);

impl Pfs for PoisonedRecover {
    fn name(&self) -> &'static str {
        self.0.name()
    }
    fn base(&self) -> &ModelBase {
        self.0.base()
    }
    fn base_mut(&mut self) -> &mut ModelBase {
        self.0.base_mut()
    }
    fn handle(
        &mut self,
        rec: &mut Recorder,
        client: Process,
        call: &PfsCall,
        cev: EventId,
    ) -> PfsResult<()> {
        self.0.handle(rec, client, call, cev)
    }
    fn recover(&self, _states: &mut ServerStates) {
        panic!("poisoned recover");
    }
    fn client_view(&self, states: &ServerStates) -> PfsView {
        self.0.client_view(states)
    }
    fn restart_cost_secs(&self) -> f64 {
        self.0.restart_cost_secs()
    }
}

#[test]
fn poisoned_recover_yields_diagnostics_not_an_abort() {
    let params = Params::quick();
    let cfg = CheckConfig::paper_default();
    let factory = FsKind::BeeGfs.factory(&params);
    let mut stack = Program::Arvr.run(FsKind::BeeGfs, &params);
    let clean = check_stack(&stack, &factory, &cfg);
    assert!(clean.diagnostics.is_empty());
    assert!(!clean.bugs.is_empty(), "the seeded ARVR bugs are there");

    // The same traced run with the recovery tool poisoned: every crash
    // state hits it, so every one must have been turned into a
    // diagnostic rather than a verdict — and the run still returned an
    // outcome instead of unwinding.
    stack.pfs = Box::new(PoisonedRecover(stack.pfs));
    let outcome = check_stack(&stack, &factory, &cfg);
    assert!(!outcome.diagnostics.is_empty());
    assert_eq!(outcome.stats.states_diagnostic, outcome.diagnostics.len());
    assert!(outcome
        .diagnostics
        .iter()
        .all(|d| d.contains("poisoned recover")));
    // Diagnostics surface in the canonical report too.
    assert!(outcome.canonical_report().contains("diagnostic:"));
}
