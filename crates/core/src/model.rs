//! Crash-consistency models (§4.4.2).
//!
//! A crash-consistency model defines, for the operations that preceded a
//! crash, which *preserved sets* are legal: a recovery is correct iff the
//! storage state equals the result of executing some legal preserved set
//! (in causality order) and nothing else.
//!
//! | model | legal preserved sets |
//! |---|---|
//! | [`Model::Strict`]   | exactly the operations before the crash |
//! | [`Model::Commit`]   | any subset containing every committed operation |
//! | [`Model::Causal`]   | commit, plus closure under happens-before |
//! | [`Model::Baseline`] | any subset containing every update to files/datasets already closed |
//!
//! The paper tests every PFS with the causal model (all five satisfy it
//! in the bug-free case, none satisfies strict) and the I/O libraries
//! with both baseline and causal.

use tracer::{CausalityGraph, EventId};

/// A crash-consistency model.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Model {
    /// Precise exceptions: everything before the crash persisted.
    Strict,
    /// Committed operations persisted; anything else may be lost.
    Commit,
    /// Commit + causal closure: if an op is preserved, so is everything
    /// that happened before it.
    Causal,
    /// Only updates to closed files are guaranteed.
    Baseline,
}

impl Model {
    /// Parse a configuration-file spelling.
    pub fn parse(s: &str) -> Option<Model> {
        match s {
            "strict" => Some(Model::Strict),
            "commit" => Some(Model::Commit),
            "causal" => Some(Model::Causal),
            "baseline" => Some(Model::Baseline),
            _ => None,
        }
    }

    /// Configuration spelling.
    pub fn as_str(&self) -> &'static str {
        match self {
            Model::Strict => "strict",
            Model::Commit => "commit",
            Model::Causal => "causal",
            Model::Baseline => "baseline",
        }
    }

    /// Enumerate the legal preserved sets of `ops` (layer-level operation
    /// event ids, all of which precede the crash).
    ///
    /// `required` is the model-specific obligation computed by the
    /// caller: the fsync-committed ops for [`Model::Commit`] /
    /// [`Model::Causal`], the closed-file ops for [`Model::Baseline`].
    pub fn preserved_sets(
        &self,
        graph: &CausalityGraph,
        ops: &[EventId],
        required: &[EventId],
    ) -> Vec<Vec<EventId>> {
        match self {
            Model::Strict => vec![ops.to_vec()],
            Model::Causal => {
                let mut sets = Vec::new();
                graph.consistent_cuts(ops, required, |cut| {
                    sets.push(cut.iter().map(|i| ops[i]).collect());
                });
                sets
            }
            Model::Commit | Model::Baseline => {
                let free: Vec<EventId> = ops
                    .iter()
                    .copied()
                    .filter(|o| !required.contains(o))
                    .collect();
                assert!(
                    free.len() <= 16,
                    "subset enumeration over {} ops is intractable",
                    free.len()
                );
                let mut sets = Vec::with_capacity(1 << free.len());
                for mask in 0u32..(1 << free.len()) {
                    let mut s: Vec<EventId> = required.to_vec();
                    for (i, &o) in free.iter().enumerate() {
                        if mask >> i & 1 == 1 {
                            s.push(o);
                        }
                    }
                    s.sort_unstable();
                    sets.push(s);
                }
                sets
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tracer::{Layer, Payload, Process, Recorder};

    /// The Figure 5 execution: P0: write(A); send; write(B) — P1: recv;
    /// write(C); fsync.
    fn figure5() -> (Recorder, CausalityGraph, [EventId; 3], EventId) {
        let mut rec = Recorder::new();
        let (p0, p1) = (Process::Client(0), Process::Client(1));
        let call = |rec: &mut Recorder, p, name: &str| {
            rec.record(
                Layer::PfsClient,
                p,
                Payload::Call {
                    name: name.into(),
                    args: vec![],
                },
                None,
            )
        };
        let wa = call(&mut rec, p0, "write_A");
        let snd = rec.record(
            Layer::PfsClient,
            p0,
            Payload::Send {
                to: p1,
                msg: "buf".into(),
            },
            None,
        );
        let wb = call(&mut rec, p0, "write_B");
        let rcv = rec.record(
            Layer::PfsClient,
            p1,
            Payload::Recv {
                from: p0,
                msg: "buf".into(),
            },
            None,
        );
        rec.add_edge(snd, rcv);
        let wc = call(&mut rec, p1, "write_C");
        let fsync = call(&mut rec, p1, "fsync_C");
        let g = CausalityGraph::build(&rec);
        let _ = wb;
        (rec, g, [wa, wb, wc], fsync)
    }

    #[test]
    fn strict_preserves_everything() {
        let (_, g, [wa, wb, wc], _) = figure5();
        let sets = Model::Strict.preserved_sets(&g, &[wa, wb, wc], &[]);
        assert_eq!(sets, vec![vec![wa, wb, wc]]);
    }

    #[test]
    fn commit_requires_committed_only() {
        // With commit consistency, C (covered by the fsync) is in every
        // preserved set; A and B may each be lost (Figure 5 discussion).
        let (_, g, [wa, wb, wc], _) = figure5();
        let sets = Model::Commit.preserved_sets(&g, &[wa, wb, wc], &[wc]);
        assert_eq!(sets.len(), 4);
        assert!(sets.iter().all(|s| s.contains(&wc)));
        assert!(sets.iter().any(|s| !s.contains(&wa) && !s.contains(&wb)));
        // Commit admits the causally-absurd {C} without {A}.
        assert!(sets.iter().any(|s| s.contains(&wc) && !s.contains(&wa)));
    }

    #[test]
    fn causal_preserves_histories() {
        // Under causal consistency, preserving C forces preserving A
        // (write_A happens-before write_C via send/recv), while B may be
        // lost — the exact Figure 5 example.
        let (_, g, [wa, wb, wc], _) = figure5();
        let sets = Model::Causal.preserved_sets(&g, &[wa, wb, wc], &[wc]);
        assert!(!sets.is_empty());
        for s in &sets {
            assert!(s.contains(&wc));
            assert!(s.contains(&wa), "causal closure violated: {s:?}");
        }
        assert!(sets.iter().any(|s| !s.contains(&wb)));
    }

    #[test]
    fn baseline_allows_losing_everything() {
        let (_, g, [wa, wb, wc], _) = figure5();
        let sets = Model::Baseline.preserved_sets(&g, &[wa, wb, wc], &[]);
        assert_eq!(sets.len(), 8);
        assert!(sets.iter().any(|s| s.is_empty()));
    }

    #[test]
    fn stronger_models_yield_subset_of_legal_sets() {
        let (_, g, ops3 @ [_, _, wc], _) = figure5();
        let ops = ops3.to_vec();
        let causal: std::collections::HashSet<Vec<EventId>> = Model::Causal
            .preserved_sets(&g, &ops, &[wc])
            .into_iter()
            .collect();
        let commit: std::collections::HashSet<Vec<EventId>> = Model::Commit
            .preserved_sets(&g, &ops, &[wc])
            .into_iter()
            .map(|mut s| {
                s.sort_unstable();
                s
            })
            .collect();
        let causal_sorted: std::collections::HashSet<Vec<EventId>> = causal
            .into_iter()
            .map(|mut s| {
                s.sort_unstable();
                s
            })
            .collect();
        assert!(causal_sorted.is_subset(&commit));
    }

    #[test]
    fn parse_roundtrip() {
        for m in [Model::Strict, Model::Commit, Model::Causal, Model::Baseline] {
            assert_eq!(Model::parse(m.as_str()), Some(m));
        }
        assert_eq!(Model::parse("nope"), None);
    }
}
