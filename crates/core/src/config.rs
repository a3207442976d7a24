//! The ParaCrash checker configuration (§5).
//!
//! The original framework takes a configuration file specifying the
//! system configuration (mount point, storage directories, stripe size,
//! server/client counts), the crash-consistency model for each layer,
//! and the exploration mode. [`CheckConfig`] is the checker's half of
//! that file — the models, `k`, the exploration mode and the `h5clear`
//! options; the cluster shape belongs to the traced run
//! (`workloads::Params`, whose `configure` reads the file).
//! [`paper_default`](CheckConfig::paper_default) mirrors Table 2.

use crate::explore::ExploreMode;
use crate::model::Model;
use h5sim::ClearOpts;
use simnet::FaultConfig;

/// Everything a check run needs besides the traced stack itself.
#[derive(Debug, Clone)]
pub struct CheckConfig {
    /// Crash-consistency model the PFS layer is tested against
    /// (the paper: causal, which every studied PFS nominally satisfies).
    pub pfs_model: Model,
    /// Crash-consistency model the I/O library layer is tested against
    /// (the paper tests baseline and causal).
    pub h5_model: Model,
    /// Maximum number of crash victims (Algorithm 1's `k`; the paper
    /// reports k = 1 suffices).
    pub k: usize,
    /// Exploration strategy.
    pub mode: ExploreMode,
    /// `h5clear` options used before declaring an H5 state inconsistent
    /// (the sensitivity knob of Table 3 bug 13).
    pub clear_opts: ClearOpts,
    /// Seeded fault plane for the run: RPC delivery faults during the
    /// traced workload plus torn-write widening of crash states. The
    /// default injects nothing and leaves every code path untouched.
    pub faults: FaultConfig,
    /// Build a provenance bundle ([`crate::explain::BugExplanation`])
    /// for every reproduced bug: minimal witness, causal-graph export,
    /// state diff. Off by default — the explain pass re-runs recovery
    /// on shrinking probes, which costs real time on buggy cells.
    pub explain: bool,
    /// Collect the digests of the distinct *representative* crash
    /// states into [`crate::check::CheckOutcome::rep_digests`]
    /// (Pathfinder-style state identity for the campaign corpus). Off
    /// by default — digesting materialized states costs a tree walk per
    /// representative. Programmatic only: not part of the
    /// configuration-file format.
    pub collect_rep_digests: bool,
}

impl Default for CheckConfig {
    fn default() -> Self {
        Self::paper_default()
    }
}

impl CheckConfig {
    /// The paper's evaluation setup: causal model for the PFS, causal
    /// for the I/O library (baseline violations are also causal
    /// violations and are reported as such), k = 1, optimized
    /// exploration.
    pub fn paper_default() -> Self {
        CheckConfig {
            pfs_model: Model::Causal,
            h5_model: Model::Causal,
            k: 1,
            mode: ExploreMode::Optimized,
            clear_opts: ClearOpts::default(),
            faults: FaultConfig::disabled(),
            explain: false,
            collect_rep_digests: false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_default_matches_table2() {
        let cfg = CheckConfig::paper_default();
        assert_eq!(cfg.k, 1);
        assert_eq!(cfg.pfs_model, Model::Causal);
        assert_eq!(cfg.mode, ExploreMode::Optimized);
        assert!(!cfg.faults.enabled() && !cfg.explain);
    }
}
