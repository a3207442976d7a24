//! Bug classification (Table 1) and aggregation (§5.2).
//!
//! Once a crash state is found inconsistent, ParaCrash pins down *why*
//! by re-testing hypothetical states: for a candidate pair `(A, B)` with
//! `A` unpersisted and `B` persisted in the failing state, it constructs
//! the four persist/not-persist combinations and checks each:
//!
//! * only `(¬A, B)` fails → **reordering**: `A` should persist before
//!   `B` (Table 1a);
//! * `(¬A, B)` and `(A, ¬B)` fail, the all/none states pass →
//!   **atomicity**: `A` must persist together with `B` (Table 1b);
//! * no pair explains the state → a **multi-operation atomicity**
//!   violation over the partially-persisted operation group (§5.2:
//!   "ParaCrash also checks atomicity issues for more than two
//!   operations").
//!
//! The candidate universe is the crash state's cut *plus* the remaining
//! lowermost operations of calls that were only partially persisted —
//! so a crash that truncated a call mid-flush (e.g. HDF5's delete
//! flushing the B-tree and heap but not the symbol-table node) is
//! explained by the not-yet-issued operation, exactly as the paper's
//! Table 3 rows phrase it.

use crate::emulate::CrashState;
use crate::persist::PersistAnalysis;
use crate::report::OpSigs;
use simfs::FsOp;
use std::collections::{BTreeSet, HashMap};
use std::fmt;
use tracer::{BitSet, EventId, Payload, Recorder};

/// Reordering vs atomicity (Table 1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum BugKind {
    /// `A → B`: A should be persisted before B.
    Reordering,
    /// `[A, B, …]`: the members must persist atomically.
    Atomicity,
}

/// Aggregation key of one root cause.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct BugSignature {
    /// Violation kind.
    pub kind: BugKind,
    /// Normalized operation signatures: `[first, second]` for a
    /// reordering (first should persist first), the sorted member set
    /// for an atomicity violation.
    pub members: Vec<String>,
}

impl fmt::Display for BugSignature {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.kind {
            BugKind::Reordering => write!(f, "{} -> {}", self.members[0], self.members[1]),
            BugKind::Atomicity => write!(f, "[{}]", self.members.join(", ")),
        }
    }
}

/// The layer-call an event belongs to, for grouping flushes of one
/// operation: nearest I/O-library ancestor if the program has one,
/// else the nearest PFS-client call.
fn call_of(rec: &Recorder, e: EventId) -> Option<EventId> {
    let mut pfs_call = None;
    let mut cur = Some(e);
    while let Some(id) = cur {
        let ev = rec.event(id);
        // Only actual calls count — RPC send/recv events are recorded at
        // the client/server layers too but belong to their issuing call.
        if matches!(ev.payload, Payload::Call { .. }) {
            match ev.layer {
                tracer::Layer::IoLib => return Some(id),
                tracer::Layer::PfsClient if pfs_call.is_none() => pfs_call = Some(id),
                _ => {}
            }
        }
        cur = ev.parent;
    }
    pfs_call
}

/// The extended probe universe for one crash state: cut updates plus the
/// remaining updates of calls that are only partially inside the cut —
/// so a crash that truncated a call mid-flush is explained by the
/// not-yet-issued operation. Shared by [`classify`] and the provenance
/// engine (`crate::explain`), which must shrink witnesses over exactly
/// the universe the classifier probed.
pub fn extended_universe(rec: &Recorder, pa: &PersistAnalysis, state: &CrashState) -> BitSet {
    let mut universe = BitSet::new(state.cut.capacity());
    let in_cut_calls: BTreeSet<EventId> = pa
        .updates()
        .iter()
        .copied()
        .filter(|&u| state.cut.contains(u))
        .filter_map(|u| call_of(rec, u))
        .collect();
    for &u in pa.updates() {
        if state.cut.contains(u) || call_of(rec, u).is_some_and(|c| in_cut_calls.contains(&c)) {
            universe.insert(u);
        }
    }
    universe
}

/// Classify one inconsistent crash state, probing subsets of its
/// `universe` ([`extended_universe`]).
///
/// `oracle` evaluates a hypothetical persisted set through the full
/// recover-and-compare pipeline; it is the expensive part, so
/// combinations are probed lazily, and — the oracle being a pure
/// function of the persisted set within one call — each distinct set is
/// probed once.
pub fn classify(
    rec: &Recorder,
    sigs: &OpSigs,
    pa: &PersistAnalysis,
    state: &CrashState,
    universe: &BitSet,
    oracle: &mut dyn FnMut(&BitSet) -> bool,
) -> BugSignature {
    let mut probed: HashMap<BitSet, bool> = HashMap::new();
    let mut consistent = |p: &BitSet| -> bool {
        if let Some(&ok) = probed.get(p) {
            pc_rt::obs::count("classify.probes_shared", 1);
            return ok;
        }
        pc_rt::obs::count("classify.probes", 1);
        let ok = oracle(p);
        probed.insert(p.clone(), ok);
        ok
    };

    // A victim's closure does not depend on what it is dropped with:
    // taken once per victim within this call.
    let mut closures: HashMap<EventId, BitSet> = HashMap::new();
    let mut drop = |victims: &[EventId]| -> BitSet {
        let mut p = universe.clone();
        for &v in victims {
            let closure = closures
                .entry(v)
                .or_insert_with(|| pa.depends_on(v, universe));
            p.subtract(closure);
        }
        p
    };
    let unpersisted: Vec<EventId> = pa
        .updates()
        .iter()
        .copied()
        .filter(|&u| universe.contains(u) && !state.persisted.contains(u))
        .collect();
    let persisted: Vec<EventId> = pa
        .updates()
        .iter()
        .copied()
        .filter(|&u| state.persisted.contains(u))
        .collect();

    let sig = |e: EventId| sigs.get(e).to_string();
    // Attribute-update events are auxiliary; they never anchor a pair.
    let meaningful = |e: EventId| {
        !matches!(
            &rec.event(e).payload,
            Payload::Fs {
                op: FsOp::SetXattr { .. },
                ..
            }
        )
    };
    // The complete execution of every involved call must be consistent
    // for the pairwise analysis to be meaningful.
    if consistent(universe) {
        // Scan A from the causally-latest unpersisted op backwards (the
        // op closest to the damage) and B from the latest persisted op
        // backwards: the tightest pair gives the canonical signature.
        for &a in unpersisted.iter().rev() {
            // `drop(&[a])` does not depend on `b`: built on the first `b`
            // that survives the cheap filters, probed once.
            let mut without_a: Option<BitSet> = None;
            for &b in persisted.iter().rev() {
                if pa.persists_before(a, b) || sigs.get(a) == sigs.get(b) || !meaningful(b) {
                    continue;
                }
                let s_a0_b1 = without_a.get_or_insert_with(|| drop(&[a]));
                if !s_a0_b1.contains(b) || consistent(s_a0_b1) {
                    continue;
                }
                let s_a1_b0 = drop(&[b]);
                let s_a0_b0 = drop(&[a, b]);
                let ok_10 = consistent(&s_a1_b0);
                let ok_00 = consistent(&s_a0_b0);
                if ok_10 && ok_00 {
                    return BugSignature {
                        kind: BugKind::Reordering,
                        members: vec![sig(a), sig(b)],
                    };
                }
                if !ok_10 && ok_00 {
                    let mut members = vec![sig(a), sig(b)];
                    members.sort();
                    members.dedup();
                    return BugSignature {
                        kind: BugKind::Atomicity,
                        members,
                    };
                }
            }
        }
    }

    // No clean pairwise pattern. If a victim belongs to a journal atomic
    // group (kernel-level PFS), the violation is that group's atomicity
    // (Table 3 bug 3).
    for &v in &unpersisted {
        if let Payload::Block { op, .. } = &rec.event(v).payload {
            if let Some(g) = op.atomic_group() {
                let mut members: Vec<String> = universe
                    .iter()
                    .filter(|&u| {
                        matches!(&rec.event(u).payload,
                            Payload::Block { op, .. } if op.atomic_group() == Some(g))
                    })
                    .map(sig)
                    .collect();
                members.sort();
                members.dedup();
                return BugSignature {
                    kind: BugKind::Atomicity,
                    members,
                };
            }
        }
    }

    // Reordering fallback: the causally-latest unpersisted op against
    // the first meaningful persisted op after it (attribute updates are
    // auxiliary and aggregated with their triggering operation).
    if let Some(&a) = unpersisted.last() {
        let partner = persisted
            .iter()
            .copied()
            .find(|&b| b > a && meaningful(b) && sigs.get(b) != sigs.get(a))
            .or_else(|| {
                persisted
                    .iter()
                    .copied()
                    .find(|&b| b > a && sigs.get(b) != sigs.get(a))
            });
        if let Some(b) = partner {
            return BugSignature {
                kind: BugKind::Reordering,
                members: vec![sig(a), sig(b)],
            };
        }
        // Nothing persisted after the victim: the victim's call group is
        // partially persisted.
        let mut members: Vec<String> = unpersisted.iter().map(|&e| sig(e)).collect();
        members.sort();
        members.dedup();
        return BugSignature {
            kind: BugKind::Atomicity,
            members,
        };
    }

    // Pure cut truncation with no pairwise pattern: report the
    // partially-persisted call's structure set as an atomic group
    // (HDF5 rename, Table 3 bug 12).
    let partial_call = pa
        .updates()
        .iter()
        .copied()
        .filter(|&u| universe.contains(u) && !state.cut.contains(u))
        .filter_map(|u| call_of(rec, u))
        .next();
    let mut members: Vec<String> = match partial_call {
        Some(c) => pa
            .updates()
            .iter()
            .copied()
            .filter(|&u| universe.contains(u) && call_of(rec, u) == Some(c))
            .map(sig)
            .collect(),
        None => persisted.iter().map(|&e| sig(e)).collect(),
    };
    members.sort();
    members.dedup();
    BugSignature {
        kind: BugKind::Atomicity,
        members,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report;
    use simfs::JournalMode;
    use simnet::ClusterTopology;
    use tracer::{CausalityGraph, Layer, Process};

    /// Synthetic two-op trace: storage append then metadata rename,
    /// chained through client calls.
    fn two_ops() -> (Recorder, EventId, EventId) {
        let mut rec = Recorder::new();
        let c = rec.record(
            Layer::PfsClient,
            Process::Client(0),
            Payload::Call {
                name: "op".into(),
                args: vec![],
            },
            None,
        );
        let a = rec.record(
            Layer::LocalFs,
            Process::Server(2),
            Payload::Fs {
                server: 2,
                op: FsOp::Append {
                    path: "/chunks/f0.0".into(),
                    data: vec![1],
                },
            },
            Some(c),
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
            Process::Server(0),
            Payload::Fs {
                server: 0,
                op: FsOp::Rename {
                    src: "/dentries/root/tmp".into(),
                    dst: "/dentries/root/file".into(),
                },
            },
            Some(c2),
        );
        (rec, a, b)
    }

    fn state_for(rec: &Recorder, _pa: &PersistAnalysis, persisted: &[EventId]) -> CrashState {
        let all: Vec<EventId> = rec.lowermost_events();
        CrashState {
            cut: BitSet::from_iter(rec.len(), all.clone()),
            victims: all
                .iter()
                .copied()
                .filter(|e| !persisted.contains(e))
                .collect(),
            persisted: BitSet::from_iter(rec.len(), persisted.iter().copied()),
        }
    }

    #[test]
    fn reordering_pattern_detected() {
        let (rec, a, b) = two_ops();
        let topo = ClusterTopology::dedicated(2, 2, 1);
        let g = CausalityGraph::build(&rec);
        let pa = PersistAnalysis::build(&rec, &g, |_| Some(JournalMode::Data));
        // Oracle: the state is broken exactly when b persisted without a
        // (the bug-1 shape: rename without the append).
        #[allow(clippy::nonminimal_bool)] // "not (b without a)" reads as intended
        let mut oracle = |p: &BitSet| !(p.contains(b) && !p.contains(a));
        let state = state_for(&rec, &pa, &[b]);
        let sigs = OpSigs::build(&rec, &topo, pa.updates());
        let universe = extended_universe(&rec, &pa, &state);
        let sig = classify(&rec, &sigs, &pa, &state, &universe, &mut oracle);
        assert_eq!(sig.kind, BugKind::Reordering);
        assert_eq!(sig.members[0], "append(file chunk)@storage");
        assert_eq!(sig.members[1], "rename(d_entry)@metadata");
        assert_eq!(
            sig.to_string(),
            "append(file chunk)@storage -> rename(d_entry)@metadata"
        );
    }

    #[test]
    fn atomicity_pattern_detected() {
        let (rec, a, b) = two_ops();
        let topo = ClusterTopology::dedicated(2, 2, 1);
        let g = CausalityGraph::build(&rec);
        let pa = PersistAnalysis::build(&rec, &g, |_| Some(JournalMode::Data));
        // Oracle: broken whenever exactly one of {a, b} persisted.
        let mut oracle = |p: &BitSet| p.contains(a) == p.contains(b);
        let state = state_for(&rec, &pa, &[b]);
        let sigs = OpSigs::build(&rec, &topo, pa.updates());
        let universe = extended_universe(&rec, &pa, &state);
        let sig = classify(&rec, &sigs, &pa, &state, &universe, &mut oracle);
        assert_eq!(sig.kind, BugKind::Atomicity);
        assert_eq!(sig.members.len(), 2);
        assert!(sig.to_string().starts_with('['));
    }

    #[test]
    fn cut_truncation_uses_extended_universe() {
        // One call with two flushes on one server; the cut stops after
        // the first. The extended universe pulls the second flush in, so
        // the pair (missing-second, persisted-first) can classify.
        let mut rec = Recorder::new();
        let call = rec.record(
            Layer::IoLib,
            Process::Client(0),
            Payload::Call {
                name: "H5Ldelete".into(),
                args: vec![],
            },
            None,
        );
        let first = rec.record_labeled(
            Layer::LocalFs,
            Process::Server(0),
            Payload::Fs {
                server: 0,
                op: FsOp::Pwrite {
                    path: "/x".into(),
                    offset: 0,
                    data: vec![1],
                },
            },
            Some(call),
            "local heap of g1",
        );
        let second = rec.record_labeled(
            Layer::LocalFs,
            Process::Server(1),
            Payload::Fs {
                server: 1,
                op: FsOp::Pwrite {
                    path: "/y".into(),
                    offset: 0,
                    data: vec![2],
                },
            },
            Some(call),
            "symbol table node of g1",
        );
        let topo = ClusterTopology::combined(2, 1);
        let g = CausalityGraph::build(&rec);
        let pa = PersistAnalysis::build(&rec, &g, |_| Some(JournalMode::Data));
        let state = CrashState {
            cut: BitSet::from_iter(rec.len(), [first]),
            victims: vec![],
            persisted: BitSet::from_iter(rec.len(), [first]),
        };
        // Broken whenever the heap write persisted without the symbol
        // table write.
        #[allow(clippy::nonminimal_bool)] // "not (first without second)" reads as intended
        let mut oracle = |p: &BitSet| !(p.contains(first) && !p.contains(second));
        let sigs = OpSigs::build(&rec, &topo, pa.updates());
        let universe = extended_universe(&rec, &pa, &state);
        let sig = classify(&rec, &sigs, &pa, &state, &universe, &mut oracle);
        assert_eq!(sig.kind, BugKind::Reordering);
        assert_eq!(sig.members[0], "write(symbol table node)");
        assert_eq!(sig.members[1], "write(local heap)");
    }

    /// The pair loop as it was before `classify` hoisted and memoised
    /// it, kept straight-line as the reference: `drop(&[a])`, both
    /// signatures and every probe are recomputed per pair. `None` when
    /// no pair explains the state (where `classify` falls back).
    fn pair_signature_reference(
        rec: &Recorder,
        topo: &ClusterTopology,
        pa: &PersistAnalysis,
        state: &CrashState,
        consistent: &mut dyn FnMut(&BitSet) -> bool,
    ) -> Option<BugSignature> {
        let universe = extended_universe(rec, pa, state);
        let drop = |victims: &[EventId]| -> BitSet {
            let mut p = universe.clone();
            for &v in victims {
                p.subtract(&pa.depends_on(v, &universe));
            }
            p
        };
        let updates = pa.updates().iter().copied();
        let unpersisted: Vec<EventId> = updates
            .clone()
            .filter(|&u| universe.contains(u) && !state.persisted.contains(u))
            .collect();
        let persisted: Vec<EventId> = updates.filter(|&u| state.persisted.contains(u)).collect();
        let sig = |e: EventId| report::op_sig(rec, topo, e);
        let meaningful = |e: EventId| {
            !matches!(
                &rec.event(e).payload,
                Payload::Fs {
                    op: FsOp::SetXattr { .. },
                    ..
                }
            )
        };
        if !consistent(&universe) {
            return None;
        }
        for &a in unpersisted.iter().rev() {
            for &b in persisted.iter().rev() {
                if pa.persists_before(a, b) || sig(a) == sig(b) || !meaningful(b) {
                    continue;
                }
                let s_a0_b1 = drop(&[a]);
                if !s_a0_b1.contains(b) || consistent(&s_a0_b1) {
                    continue;
                }
                let s_a1_b0 = drop(&[b]);
                let s_a0_b0 = drop(&[a, b]);
                let ok_10 = consistent(&s_a1_b0);
                let ok_00 = consistent(&s_a0_b0);
                if ok_10 && ok_00 {
                    return Some(BugSignature {
                        kind: BugKind::Reordering,
                        members: vec![sig(a), sig(b)],
                    });
                }
                if !ok_10 && ok_00 {
                    let mut members = vec![sig(a), sig(b)];
                    members.sort();
                    members.dedup();
                    return Some(BugSignature {
                        kind: BugKind::Atomicity,
                        members,
                    });
                }
            }
        }
        None
    }

    /// One client, one storage op per call, each call causally after
    /// the previous op: three chunk appends on the storage servers (the
    /// unpersisted side), then ten namespace ops alternating over the
    /// metadata servers (the persisted side), every third an auxiliary
    /// xattr update.
    fn thirteen_ops() -> (Recorder, Vec<EventId>, Vec<EventId>) {
        let mut rec = Recorder::new();
        let mut prev: Option<EventId> = None;
        let mut op = |rec: &mut Recorder, server: u32, op: FsOp| {
            let call = rec.record(
                Layer::PfsClient,
                Process::Client(0),
                Payload::Call {
                    name: "op".into(),
                    args: vec![],
                },
                None,
            );
            if let Some(p) = prev {
                rec.add_edge(p, call);
            }
            let e = rec.record(
                Layer::LocalFs,
                Process::Server(server),
                Payload::Fs { server, op },
                Some(call),
            );
            prev = Some(e);
            e
        };
        let appends = (0..3)
            .map(|i| {
                let path = format!("/chunks/f{i}.0");
                op(
                    &mut rec,
                    2 + i % 2,
                    FsOp::Append {
                        path,
                        data: vec![1],
                    },
                )
            })
            .collect();
        let namespace = (0..10)
            .map(|i| {
                let path = format!("/dentries/root/f{i}");
                let fs_op = match i % 3 {
                    0 => FsOp::Creat { path },
                    1 => FsOp::Rename {
                        src: path,
                        dst: format!("/dentries/root/g{i}"),
                    },
                    _ => FsOp::SetXattr {
                        path,
                        key: "user.k".into(),
                        value: vec![1],
                    },
                };
                op(&mut rec, i % 2, fs_op)
            })
            .collect();
        (rec, appends, namespace)
    }

    #[test]
    fn each_distinct_persisted_set_is_probed_once() {
        let (rec, appends, namespace) = thirteen_ops();
        let topo = ClusterTopology::dedicated(2, 2, 1);
        let g = CausalityGraph::build(&rec);
        let pa = PersistAnalysis::build(&rec, &g, |_| Some(JournalMode::Data));
        let sigs = OpSigs::build(&rec, &topo, pa.updates());
        let state = state_for(&rec, &pa, &namespace);
        let universe = extended_universe(&rec, &pa, &state);
        let (a0, b0) = (appends[0], namespace[0]);
        // Pure functions of the persisted set, as the flip oracle is. The
        // first two put the explaining pair last in scan order, so every
        // other pair is probed before it; the third admits no pair.
        type Pure = Box<dyn Fn(&BitSet) -> bool>;
        let oracles: [(&str, Pure); 3] = [
            (
                "reordering",
                Box::new(move |p| !p.contains(b0) || p.contains(a0)),
            ),
            (
                "atomicity",
                Box::new(move |p| p.contains(a0) == p.contains(b0)),
            ),
            (
                "no pair",
                Box::new({
                    let universe = universe.clone();
                    move |p| *p == universe
                }),
            ),
        ];
        for (name, pure) in &oracles {
            let mut probes: Vec<BitSet> = Vec::new();
            let sig = classify(&rec, &sigs, &pa, &state, &universe, &mut |p| {
                probes.push(p.clone());
                pure(p)
            });
            let distinct: std::collections::HashSet<&BitSet> = probes.iter().collect();
            assert_eq!(distinct.len(), probes.len(), "{name}: a set probed twice");

            let mut reference_probes = 0;
            let reference = pair_signature_reference(&rec, &topo, &pa, &state, &mut |p| {
                reference_probes += 1;
                pure(p)
            });
            match *name {
                "no pair" => assert_eq!(reference, None),
                _ => assert_eq!(reference, Some(sig), "{name}"),
            }
            assert!(
                probes.len() < reference_probes,
                "{name}: {} probes, the per-pair loop made {reference_probes}",
                probes.len(),
            );
        }
    }

    #[test]
    fn signatures_aggregate_equal_causes() {
        let s1 = BugSignature {
            kind: BugKind::Reordering,
            members: vec!["x".into(), "y".into()],
        };
        let s2 = BugSignature {
            kind: BugKind::Reordering,
            members: vec!["x".into(), "y".into()],
        };
        let s3 = BugSignature {
            kind: BugKind::Atomicity,
            members: vec!["x".into(), "y".into()],
        };
        assert_eq!(s1, s2);
        assert_ne!(s1, s3);
        let set: std::collections::BTreeSet<_> = [s1, s2, s3].into_iter().collect();
        assert_eq!(set.len(), 2);
    }
}
