//! Algorithm 1 — crash-state generation.
//!
//! A *normal state* is a consistent cut of the causality graph restricted
//! to the lowermost-level operations: everything in the cut executed,
//! nothing after it did. A *crash state* drops up to `k` victim updates
//! (plus every update that must persist after them, per Algorithm 2's
//! `persists_before`) from the cut — modelling writes that sat in a
//! volatile cache when the power went out. Updates already committed by
//! a sync operation inside the cut are pinned and cannot be victims.

use crate::persist::PersistAnalysis;
use std::collections::HashSet;
use tracer::{BitSet, CausalityGraph, EventId, Recorder};

/// One crash state: which lowermost updates reached persistent storage.
#[derive(Debug, Clone)]
pub struct CrashState {
    /// The consistent cut (all lowermost events, including syncs).
    pub cut: BitSet,
    /// The victims dropped from the cut.
    pub victims: Vec<EventId>,
    /// The persisted update set (cut updates minus victim closures).
    pub persisted: BitSet,
}

impl CrashState {
    /// Updates in the cut that did *not* persist.
    pub fn unpersisted(&self, pa: &PersistAnalysis) -> Vec<EventId> {
        pa.updates()
            .iter()
            .copied()
            .filter(|&u| self.cut.contains(u) && !self.persisted.contains(u))
            .collect()
    }
}

/// Victim-selection filter used by the optimized mode (§5.3). Returns
/// `false` to skip a victim candidate.
pub type VictimFilter<'f> = dyn Fn(EventId) -> bool + 'f;

/// Enumerate crash states per Algorithm 1.
///
/// `k` is the maximum number of victims (the paper uses `k = 1`; larger
/// values exposed no new bugs, which our tests assert). `victim_filter`
/// lets the semantic pruning skip victim candidates (e.g. dataset data
/// chunks).
///
/// Per cut, each victim's dependency closure is taken once and a state
/// is the cut's updates minus its victims' closures. A victim whose
/// closure includes a pinned update is contradictory — the pinned update
/// is durable, so that crash cannot happen. No accepted closure holds a
/// pinned update, so the pinned updates all stay persisted whatever was
/// dropped before, and whether a victim is contradictory does not depend
/// on the victims chosen with it: it leaves the cut's candidates once.
pub fn crash_states(
    rec: &Recorder,
    graph: &CausalityGraph,
    pa: &PersistAnalysis,
    k: usize,
    victim_filter: Option<&VictimFilter>,
) -> Vec<CrashState> {
    assert!(k <= 3, "victim counts beyond 3 are not supported");
    let n = rec.len();
    let cuts = graph.consistent_cuts(&rec.lowermost_events());
    let update_set = BitSet::from_iter(n, pa.updates().iter().copied());
    let mut out: Vec<CrashState> = Vec::new();
    // Cuts are distinct, so two states can only coincide within one cut:
    // there they are the same state iff the same updates persisted.
    let mut seen: HashSet<BitSet> = HashSet::new();
    // `closures[i]` is the closure of `victims[i]`; the sets are reused
    // from cut to cut.
    let mut victims: Vec<EventId> = Vec::new();
    let mut closures: Vec<BitSet> = Vec::new();

    for cut in cuts {
        let mut universe = cut.clone();
        universe.intersect_with(&update_set);
        let pinned = BitSet::from_iter(n, universe.iter().filter(|&u| pa.pinned(u, &cut)));
        victims.clear();
        if k >= 1 {
            for u in universe.iter() {
                if pinned.contains(u) || !victim_filter.is_none_or(|f| f(u)) {
                    continue;
                }
                if closures.len() == victims.len() {
                    closures.push(BitSet::new(n));
                }
                let deps = &mut closures[victims.len()];
                pa.depends_on_into(u, &universe, deps);
                if !deps.intersects(&pinned) {
                    victims.push(u);
                }
            }
        }

        seen.clear();
        // n = 0 (the normal state itself) … k victims.
        let mut push = |chosen: &[usize]| {
            let mut persisted = universe.clone();
            for &i in chosen {
                persisted.subtract(&closures[i]);
            }
            if seen.insert(persisted.clone()) {
                out.push(CrashState {
                    cut: cut.clone(),
                    victims: chosen.iter().map(|&i| victims[i]).collect(),
                    persisted,
                });
            }
        };
        let m = victims.len();
        push(&[]);
        for v1 in 0..m {
            push(&[v1]);
        }
        if k >= 2 {
            for v1 in 0..m {
                for v2 in v1 + 1..m {
                    push(&[v1, v2]);
                }
            }
        }
        if k >= 3 {
            for v1 in 0..m {
                for v2 in v1 + 1..m {
                    for v3 in v2 + 1..m {
                        push(&[v1, v2, v3]);
                    }
                }
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use simfs::{FsOp, JournalMode};
    use tracer::{Layer, Payload, Process};

    /// Two servers, two chained client ops, one lowermost op each.
    fn two_server_trace() -> (Recorder, EventId, EventId) {
        let mut rec = Recorder::new();
        let c1 = rec.record(
            Layer::PfsClient,
            Process::Client(0),
            Payload::Call {
                name: "op1".into(),
                args: vec![],
            },
            None,
        );
        let a = rec.record(
            Layer::LocalFs,
            Process::Server(0),
            Payload::Fs {
                server: 0,
                op: FsOp::Creat { path: "/a".into() },
            },
            Some(c1),
        );
        let c2 = rec.record(
            Layer::PfsClient,
            Process::Client(0),
            Payload::Call {
                name: "op2".into(),
                args: vec![],
            },
            None,
        );
        rec.add_edge(a, c2);
        let b = rec.record(
            Layer::LocalFs,
            Process::Server(1),
            Payload::Fs {
                server: 1,
                op: FsOp::Creat { path: "/b".into() },
            },
            Some(c2),
        );
        (rec, a, b)
    }

    #[test]
    fn k0_yields_only_consistent_cuts() {
        let (rec, a, b) = two_server_trace();
        let g = CausalityGraph::build(&rec);
        let pa = PersistAnalysis::build(&rec, &g, |_| Some(JournalMode::Data));
        let states = crash_states(&rec, &g, &pa, 0, None);
        // Cuts: {}, {a}, {a,b} — b without a is causally impossible.
        assert_eq!(states.len(), 3);
        #[allow(clippy::nonminimal_bool)] // "never b without a" reads as intended
        let never_b_without_a = states
            .iter()
            .all(|s| !(s.persisted.contains(b) && !s.persisted.contains(a)));
        assert!(never_b_without_a);
    }

    #[test]
    fn k1_exposes_cross_server_reordering() {
        let (rec, a, b) = two_server_trace();
        let g = CausalityGraph::build(&rec);
        let pa = PersistAnalysis::build(&rec, &g, |_| Some(JournalMode::Data));
        let states = crash_states(&rec, &g, &pa, 1, None);
        // The reordered state (b persisted, a dropped) must now exist:
        // victim = a in the full cut; b is on another server, so it is
        // not in a's dependency closure.
        assert!(states
            .iter()
            .any(|s| s.persisted.contains(b) && !s.persisted.contains(a)));
    }

    #[test]
    fn victims_drop_same_server_dependents() {
        let mut rec = Recorder::new();
        let a = rec.record(
            Layer::LocalFs,
            Process::Server(0),
            Payload::Fs {
                server: 0,
                op: FsOp::Creat { path: "/a".into() },
            },
            None,
        );
        let b = rec.record(
            Layer::LocalFs,
            Process::Server(0),
            Payload::Fs {
                server: 0,
                op: FsOp::Creat { path: "/b".into() },
            },
            None,
        );
        let g = CausalityGraph::build(&rec);
        let pa = PersistAnalysis::build(&rec, &g, |_| Some(JournalMode::Data));
        let states = crash_states(&rec, &g, &pa, 1, None);
        // Data journaling: dropping a forces dropping b; no state may
        // contain b without a.
        assert!(!states
            .iter()
            .any(|s| s.persisted.contains(b) && !s.persisted.contains(a)));
        // But the state {a} (victim b) exists.
        assert!(states
            .iter()
            .any(|s| s.persisted.contains(a) && !s.persisted.contains(b)));
    }

    #[test]
    fn pinned_updates_cannot_be_victims() {
        let mut rec = Recorder::new();
        let a = rec.record(
            Layer::LocalFs,
            Process::Server(0),
            Payload::Fs {
                server: 0,
                op: FsOp::Append {
                    path: "/f".into(),
                    data: vec![1],
                },
            },
            None,
        );
        let s = rec.record(
            Layer::LocalFs,
            Process::Server(0),
            Payload::Fs {
                server: 0,
                op: FsOp::Fdatasync { path: "/f".into() },
            },
            Some(a),
        );
        let g = CausalityGraph::build(&rec);
        let pa = PersistAnalysis::build(&rec, &g, |_| Some(JournalMode::Data));
        let states = crash_states(&rec, &g, &pa, 1, None);
        let _ = s;
        // In every state whose cut contains the fdatasync, `a` persisted.
        for st in &states {
            if st.cut.contains(s) {
                assert!(st.persisted.contains(a), "synced update was dropped");
            }
        }
    }

    #[test]
    fn victim_filter_prunes_candidates() {
        let (rec, a, b) = two_server_trace();
        let g = CausalityGraph::build(&rec);
        let pa = PersistAnalysis::build(&rec, &g, |_| Some(JournalMode::Data));
        let all = crash_states(&rec, &g, &pa, 1, None);
        let filter = move |e: EventId| e != a;
        let pruned = crash_states(&rec, &g, &pa, 1, Some(&filter));
        assert!(pruned.len() < all.len());
        assert!(!pruned
            .iter()
            .any(|s| s.persisted.contains(b) && !s.persisted.contains(a)));
    }

    #[test]
    fn k2_superset_of_k1() {
        let (rec, _, _) = two_server_trace();
        let g = CausalityGraph::build(&rec);
        let pa = PersistAnalysis::build(&rec, &g, |_| Some(JournalMode::Data));
        let k1 = crash_states(&rec, &g, &pa, 1, None);
        let k2 = crash_states(&rec, &g, &pa, 2, None);
        assert!(k2.len() >= k1.len());
        let key = |s: &CrashState| (s.persisted.clone(), s.cut.clone());
        let keys1: HashSet<_> = k1.iter().map(key).collect();
        let keys2: HashSet<_> = k2.iter().map(key).collect();
        assert!(keys1.is_subset(&keys2));
    }
}
