//! The cross-layer consistency checker (Figure 6).
//!
//! For every crash state: materialize it on snapshots of the servers,
//! run the PFS recovery tool and remount, then check **top-down**:
//!
//! 1. If the program uses the I/O library, check the recovered HDF5 /
//!    NetCDF state against the legal golden states of the I/O-library
//!    layer (preserved sets of H5 calls, replayed by [`crate::golden`];
//!    `h5clear` is given a chance to repair first).
//! 2. If the I/O-library state is inconsistent, check the PFS layer the
//!    same way (preserved sets of PFS client calls). A valid PFS state
//!    under an invalid I/O-library state attributes the bug to the I/O
//!    library; an invalid PFS state attributes it to the PFS.
//! 3. Classify (Table 1), aggregate duplicates (§5.2), optionally learn
//!    the pattern for pruning (§5.3).

use crate::classify::{classify, extended_universe, BugSignature};
use crate::config::CheckConfig;
use crate::emulate::{crash_states, CrashState};
use crate::explain::BugExplanation;
use crate::explore::{
    is_data_chunk, server_fingerprints, tsp_order, CacheStats, CostModel, ExploreStats, Pruner,
};
use crate::golden::{self, caught, LegalStates};
use crate::model::Model;
use crate::persist::PersistAnalysis;
use crate::report::{op_detail, OpSigs};
use crate::snapshot::ProbeImages;
use crate::stack::{Stack, StackFactory};
use h5sim::{check_lenient_with, check_with, Cleared, DigestMemo, H5Logical};
use pfs::{recover_and_mount, Content, PfsView, ServerStates};
use std::cell::{OnceCell, RefCell};
use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet};
use std::rc::Rc;
use std::sync::Arc;
use std::time::Instant;
use tracer::{BitSet, CausalityGraph, EventId, Layer, Recorder};

/// Which layer a bug is attributed to (Figure 6's final verdict).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum LayerVerdict {
    /// The PFS state was legal but the I/O-library state was not.
    IoLibBug,
    /// The PFS state itself violated its crash-consistency model.
    PfsBug,
}

/// One aggregated crash-consistency bug.
#[derive(Debug, Clone)]
pub struct Inconsistency {
    /// Root-cause signature (reordering pair / atomic group).
    pub signature: BugSignature,
    /// Responsible layer.
    pub layer: LayerVerdict,
    /// The weakest crash-consistency model the state violates at the
    /// inconsistent layer (baseline violations are the severe ones).
    pub violated_model: Model,
    /// Concrete operations of one witness state (Table 3's "Details").
    pub witness: Vec<String>,
    /// How many distinct crash states expose this cause.
    pub occurrences: usize,
}

/// The result of checking one test program on one stack.
#[derive(Debug, Clone, Default)]
pub struct CheckOutcome {
    /// PFS under test.
    pub pfs_name: String,
    /// Aggregated unique bugs.
    pub bugs: Vec<Inconsistency>,
    /// Inconsistent crash states before aggregation (Figure 8 bars).
    pub raw_inconsistent_states: usize,
    /// States where the I/O library was inconsistent while the PFS was
    /// consistent (Figure 8 line series).
    pub h5_bad_pfs_ok_states: usize,
    /// Exploration accounting (Figures 10 / 11).
    pub stats: ExploreStats,
    /// Crash states whose check itself failed (a panicking recovery
    /// tool, a poisoned replay): one human-readable line each. The run
    /// completes; these states are excluded from the verdict counts.
    pub diagnostics: Vec<String>,
    /// Provenance bundles, one per bug, in signature order — filled
    /// only when `cfg.explain` is set.
    /// Presentation-plane output: never part of
    /// [`CheckOutcome::canonical_report`], so explain on/off runs stay
    /// byte-identical there.
    pub explanations: Vec<BugExplanation>,
    /// Digests of the distinct *representative* pre-recovery crash
    /// states (sorted, deduplicated) — the Pathfinder-style state
    /// identities the campaign corpus dedups on. Filled only when
    /// `cfg.collect_rep_digests` is set; checker-invariant
    /// ([`check_stack`] and [`check_reference`] agree). Like
    /// `explanations`, never part of [`CheckOutcome::canonical_report`].
    pub rep_digests: Vec<u64>,
}

impl CheckOutcome {
    /// Union `other`'s findings into this outcome, as the paper reports
    /// a program tested under several placements or dimensions: bugs by
    /// `(signature, layer)` with occurrences summed, explain bundles by
    /// the same key and likewise summed (the first variant to expose a
    /// cause is its witness), diagnostics, and the per-state finding
    /// counts.
    pub fn absorb_findings(&mut self, other: CheckOutcome) {
        self.raw_inconsistent_states += other.raw_inconsistent_states;
        self.h5_bad_pfs_ok_states += other.h5_bad_pfs_ok_states;
        self.stats.states_diagnostic += other.stats.states_diagnostic;
        self.diagnostics.extend(other.diagnostics);
        for expl in other.explanations {
            let known =
                |e: &&mut BugExplanation| e.signature == expl.signature && e.layer == expl.layer;
            match self.explanations.iter_mut().find(known) {
                Some(existing) => existing.occurrences += expl.occurrences,
                None => self.explanations.push(expl),
            }
        }
        for bug in other.bugs {
            let known =
                |b: &&mut Inconsistency| b.signature == bug.signature && b.layer == bug.layer;
            match self.bugs.iter_mut().find(known) {
                Some(existing) => existing.occurrences += bug.occurrences,
                None => self.bugs.push(bug),
            }
        }
    }

    /// Sum `other`'s exploration accounting into this outcome's.
    pub fn absorb_counts(&mut self, other: &CheckOutcome) {
        let (acc, stats) = (&mut self.stats, &other.stats);
        acc.states_total += stats.states_total;
        acc.states_checked += stats.states_checked;
        acc.states_pruned += stats.states_pruned;
        acc.restart_seconds += stats.restart_seconds;
        acc.sim_seconds += stats.sim_seconds;
        acc.wall_seconds += stats.wall_seconds;
        acc.legal_replays += stats.legal_replays;
        acc.pfs_cache.hits += stats.pfs_cache.hits;
        acc.pfs_cache.misses += stats.pfs_cache.misses;
        acc.h5_cache.hits += stats.h5_cache.hits;
        acc.h5_cache.misses += stats.h5_cache.misses;
    }

    /// Bugs attributed to the I/O library.
    pub fn iolib_bugs(&self) -> usize {
        self.bugs
            .iter()
            .filter(|b| b.layer == LayerVerdict::IoLibBug)
            .count()
    }

    /// Bugs attributed to the PFS.
    pub fn pfs_bugs(&self) -> usize {
        self.bugs
            .iter()
            .filter(|b| b.layer == LayerVerdict::PfsBug)
            .count()
    }

    /// Deterministic rendering of everything the checker *decided* —
    /// bugs, state counts, diagnostics — excluding wall-clock timing
    /// and cache traffic. Two runs with the same trace and the same
    /// torn seed must produce byte-identical canonical reports: this is
    /// the string the determinism tests compare.
    pub fn canonical_report(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(out, "pfs = {}", self.pfs_name);
        let _ = writeln!(
            out,
            "states total/checked/pruned/diagnostic = {}/{}/{}/{}",
            self.stats.states_total,
            self.stats.states_checked,
            self.stats.states_pruned,
            self.stats.states_diagnostic,
        );
        let _ = writeln!(
            out,
            "raw inconsistent = {} (h5-bad-pfs-ok {})",
            self.raw_inconsistent_states, self.h5_bad_pfs_ok_states,
        );
        let mut bugs: Vec<String> = self
            .bugs
            .iter()
            .map(|b| {
                format!(
                    "bug {} [{:?}] violates {} x{} witness={:?}",
                    b.signature,
                    b.layer,
                    b.violated_model.as_str(),
                    b.occurrences,
                    b.witness,
                )
            })
            .collect();
        bugs.sort();
        for b in bugs {
            let _ = writeln!(out, "{b}");
        }
        for d in &self.diagnostics {
            let _ = writeln!(out, "diagnostic: {d}");
        }
        out
    }
}

/// Walk caller links to the nearest *call* ancestor at `layer` (RPC
/// send/recv events are recorded at the same layers but belong to their
/// issuing call).
fn ancestor_at(rec: &Recorder, e: EventId, layer: Layer) -> Option<EventId> {
    let mut cur = Some(e);
    while let Some(id) = cur {
        let ev = rec.event(id);
        if ev.layer == layer && matches!(ev.payload, tracer::Payload::Call { .. }) {
            return Some(id);
        }
        cur = ev.parent;
    }
    None
}

/// Map each lowermost event in `cut` to its layer-level call, falling
/// back to the latest call that happens-before it.
fn layer_candidates(
    rec: &Recorder,
    graph: &CausalityGraph,
    layer: Layer,
    layer_ops: &[EventId],
    cut: &BitSet,
) -> Vec<EventId> {
    let mut out: BTreeSet<EventId> = BTreeSet::new();
    for e in cut.iter() {
        if !rec.event(e).layer.is_lowermost() {
            continue;
        }
        if let Some(a) = ancestor_at(rec, e, layer) {
            if layer_ops.contains(&a) {
                out.insert(a);
                continue;
            }
        }
        if let Some(&a) = layer_ops.iter().rfind(|&&op| graph.happens_before(op, e)) {
            out.insert(a);
        }
    }
    out.into_iter().collect()
}

/// Figure 6's verdict for one crash state: `None` when consistent,
/// otherwise the responsible layer and the weakest violated model.
type Verdict = Option<(LayerVerdict, Model)>;

/// Aggregated bugs keyed by cause and layer, each with the index of its
/// first (witness) crash state — kept beside the `Inconsistency` rather
/// than in it, so the canonical report stays exactly what the checker
/// decided.
type Bugs = BTreeMap<(BugSignature, LayerVerdict), (Inconsistency, usize)>;

// The checker is a chain of stages; each takes the outputs of the stages
// before it, so the order lives in the signatures:
//
//   analyze → enumerate → materialize → legal_states
//           → prune_and_judge → cost → explain
//
// `check_stack` is that chain. `check_reference` shares every stage
// but materialize and legal_states: it hands `prune_and_judge` its own
// legal lists and verdict — the obvious per-state replays, and a
// deep-cloned image recovered afresh.
//
// Golden states — what a recovered view is compared against — come from
// `golden::legal_lists`: in `check_stack` one walk per layer over the
// preserved sets of every candidate set `enumerate` interned, run by
// `legal_states` before the first verdict; in `check_reference` one
// full replay per preserved set per checked state.
//
// One builder makes every on-disk image of a check: the `ProbeImages`
// the analysis' `RecoveryMemo` owns, seeded by `materialize`. A crash
// state, a classifier probe and an explain probe are all persisted sets
// asked of that memo, so within one check an image is built from the
// nearest checkpoint and recovered once, whoever asks first.

/// Stage 1 output: everything derived from the traced run alone.
struct Analysis<'a> {
    stack: &'a Stack,
    cfg: &'a CheckConfig,
    graph: CausalityGraph,
    pa: PersistAnalysis,
    topo: simnet::ClusterTopology,
    /// Aggregation signature of every update, for the pruner, the
    /// classifier and the witness renderer.
    sigs: OpSigs,
    pfs_ops: Vec<EventId>,
    h5_ops: Vec<EventId>,
    /// Pre-crash I/O-library state, for the baseline model's
    /// unmodified-dataset rule.
    baseline_h5: Option<H5Logical>,
    modified_keys: BTreeSet<String>,
    memo: RecoveryMemo<'a>,
}

/// One crash state after the PFS's recovery tool and a remount, plus
/// the I/O-library facts that are a function of the view alone — parsed
/// on first use, then shared by every verdict taken on this view.
pub(crate) struct Recovered {
    pub(crate) view: PfsView,
    h5: OnceCell<H5Parse>,
}

/// What [`h5_verdict`] reads of the library file of one view.
struct H5Parse {
    /// `h5check` of the file, `h5clear`ed first if it must be.
    strict: Option<H5Logical>,
    /// Whether the view breaks the baseline model's unmodified-dataset
    /// rule.
    violates_baseline: bool,
}

impl Recovered {
    /// Run the recovery tool on `image` and mount the result.
    fn of(pfs: &dyn pfs::Pfs, mut image: ServerStates) -> Recovered {
        pc_rt::obs::count("recover.executed", 1);
        Recovered::mounted(recover_and_mount(pfs, &mut image))
    }

    fn mounted(view: PfsView) -> Recovered {
        Recovered {
            view,
            h5: OnceCell::new(),
        }
    }
}

/// The per-check recovery memo: `persisted set → pre-recovery digest →
/// Rc<Recovered>`, over the check's one image builder.
///
/// Every image of a check is a persisted set: a crash state's, a
/// classifier probe's or a ddmin round's. A miss at level 1 builds the
/// set's image with the check's [`ProbeImages`], which `materialize`
/// seeded with every crash state. Level 2 is the key that matters.
/// Recovery and mounting read nothing but the server stores, and
/// `ServerStates::digest()` hashes the stores' whole logical content
/// (every path, byte and xattr; memoised per COW store), so two sets
/// with one image digest recover to one view. It is the identity
/// `rep_digests` and `distinct_replays` already rest on.
///
/// A view enters the maps only once its recovery returned, so a
/// panicking recovery tool stores nothing and every state that asks for
/// that digest gets the panic, as if it had recovered on its own.
/// Bounded by states + probes per check. A state that torn-write
/// widening makes unique takes its image here and is torn and recovered
/// outside, and `check_reference` runs with [`RecoveryMemo::never`]: it
/// is this memo's oracle, so it builds every image as a baseline fork
/// with the whole set applied and recovers every request afresh.
///
/// Beside the views it keeps the check's [`DigestMemo`], which every
/// library parse of the check — recovered views, the baseline, the
/// library-layer golden walk — takes its dataset digests through, so a
/// dataset whose chunks another parse already hashed costs a lookup;
/// `check_reference` hashes every dataset afresh.
struct RecoveryMemo<'a>(Option<Memos<'a>>);

struct Memos<'a> {
    images: RefCell<ProbeImages<'a>>,
    maps: RefCell<MemoMaps>,
    datasets: DigestMemo,
}

#[derive(Default)]
struct MemoMaps {
    by_set: HashMap<BitSet, Rc<Recovered>>,
    by_digest: HashMap<u64, Rc<Recovered>>,
}

impl<'a> RecoveryMemo<'a> {
    /// The memo of a check of `stack`, its builder not yet seeded.
    fn new(stack: &'a Stack) -> Self {
        RecoveryMemo(Some(Memos {
            images: RefCell::new(ProbeImages::new(&stack.rec, stack.pfs.baseline())),
            maps: RefCell::default(),
            datasets: DigestMemo::default(),
        }))
    }

    /// The memo that stores nothing.
    fn never() -> Self {
        RecoveryMemo(None)
    }

    /// The dataset-digest memo, `None` in the reference.
    fn datasets(&self) -> Option<&DigestMemo> {
        self.0.as_ref().map(|memos| &memos.datasets)
    }

    /// Leave a checkpoint at each of `sets`' first gaps ([`ProbeImages::seed`]).
    fn seed<'s>(&self, sets: impl Iterator<Item = &'s BitSet> + Clone) {
        if let Some(memos) = &self.0 {
            memos.images.borrow_mut().seed(sets);
        }
    }

    /// The pre-recovery image of the baseline with `persisted` applied.
    fn image(&self, stack: &Stack, persisted: &BitSet) -> ServerStates {
        match &self.0 {
            Some(memos) => memos.images.borrow_mut().image(persisted),
            None => {
                let mut image = stack.pfs.baseline().fork();
                image.apply_events(&stack.rec, persisted.iter());
                image
            }
        }
    }

    /// The recovered view of the baseline with `persisted` applied.
    fn of_set(&self, stack: &Stack, persisted: &BitSet) -> Rc<Recovered> {
        let pfs = stack.pfs.as_ref();
        let Some(Memos { maps, .. }) = &self.0 else {
            // The reference's memo: every view the copying way.
            let view = Recovered::of(pfs, self.image(stack, persisted)).view.flat();
            return Rc::new(Recovered::mounted(view));
        };
        if let Some(recovered) = maps.borrow().by_set.get(persisted) {
            pc_rt::obs::count("recover.shared_set", 1);
            return recovered.clone();
        }
        let image = self.image(stack, persisted);
        let digest = image.digest();
        let known = maps.borrow().by_digest.get(&digest).cloned();
        let recovered = match known {
            Some(recovered) => {
                pc_rt::obs::count("recover.shared_digest", 1);
                recovered
            }
            None => {
                let recovered = Rc::new(Recovered::of(pfs, image));
                maps.borrow_mut()
                    .by_digest
                    .insert(digest, recovered.clone());
                recovered
            }
        };
        maps.borrow_mut()
            .by_set
            .insert(persisted.clone(), recovered.clone());
        recovered
    }
}

/// `set`'s index among the distinct candidate sets of its layer seen so
/// far, in first-seen order.
fn intern(ids: &mut HashMap<Vec<EventId>, usize>, set: Vec<EventId>) -> usize {
    let next = ids.len();
    *ids.entry(set).or_insert(next)
}

/// The interned sets, by index.
fn by_index(ids: HashMap<Vec<EventId>, usize>) -> Vec<Vec<EventId>> {
    let mut sets = vec![Vec::new(); ids.len()];
    for (set, id) in ids {
        sets[id] = set;
    }
    sets
}

/// Stage 2 output: Algorithm 1's crash states and their checking order.
struct Enumerated {
    states: Vec<CrashState>,
    /// The layer calls a cut may have preserved, interned per layer
    /// (cuts that differ in lowermost events mostly agree in layer
    /// calls), and per state the `(PFS, I/O-library)` entries of its cut
    /// — `None` for programs that do not use the library.
    pfs_sets: Vec<Vec<EventId>>,
    h5_sets: Vec<Vec<EventId>>,
    sets_of: Vec<(usize, Option<usize>)>,
    /// Minimal-damage states first, so classification sees the
    /// single-fault witnesses before the compound ones and the §5.2
    /// aggregation can absorb the latter. (Reconstruction *cost* is
    /// charged separately, over the mode's own visiting order.)
    order: Vec<usize>,
}

/// Stage 4 output: one legal list per distinct candidate set, so crash
/// state `i` is judged against `lists.of(e.sets_of[i])`. A panicking
/// golden replay is stored as its message, which stage 5 turns into a
/// diagnostic of each state that names the set.
struct Legal {
    lists: golden::Golden,
    /// Legal-list table traffic per layer (how the stage ran, not what
    /// it found).
    pfs_cache: CacheStats,
    h5_cache: CacheStats,
    /// Preserved-set traffic over both layers: `(replays executed,
    /// replays a shared view answered)`.
    replays: (usize, usize),
    /// What the golden walks cost: `(calls dispatched, instances forked)`.
    walked: (usize, usize),
}

/// Stage 5 output: what the checker decided.
#[derive(Default)]
struct Classified {
    bugs: Bugs,
    raw_inconsistent: usize,
    h5_bad_pfs_ok: usize,
    /// States reconstructed and checked, in checking order.
    checked: Vec<usize>,
    pruned: usize,
    diagnostics: Vec<String>,
}

fn analyze<'a>(stack: &'a Stack, cfg: &'a CheckConfig, memo: RecoveryMemo<'a>) -> Analysis<'a> {
    let stage = pc_rt::obs::span_cat("check.analyze", "check");
    let graph = CausalityGraph::build(&stack.rec);
    let pa = PersistAnalysis::build(&stack.rec, &graph, |s| stack.journal_of(s));
    let topo = stack.pfs.topology().clone();
    let sigs = OpSigs::build(&stack.rec, &topo, pa.updates());
    drop(stage);
    Analysis {
        stack,
        cfg,
        graph,
        pa,
        topo,
        sigs,
        pfs_ops: stack.calls.event_ids(),
        h5_ops: stack.h5.event_ids(),
        baseline_h5: stack.h5_path.as_ref().and_then(|p| {
            let view = stack.pfs.client_view(stack.pfs.baseline());
            view.content(p)
                .and_then(|c| check_with(c, memo.datasets()).ok())
        }),
        modified_keys: modified_dataset_keys(stack),
        memo,
    }
}

fn enumerate(a: &Analysis) -> Enumerated {
    let rec = &a.stack.rec;
    // Semantic victim pruning (§5.3) only in the optimized mode, only for
    // I/O-library programs (whose events carry the library's object
    // labels: `is_data_chunk`).
    let semantic = a.cfg.mode.prunes() && a.stack.h5_path.is_some();
    let filter = |e: EventId| !(semantic && is_data_chunk(rec, e));
    let stage = pc_rt::obs::span_cat("check.enumerate", "check");
    let states = crash_states(rec, &a.graph, &a.pa, a.cfg.k, Some(&filter));
    drop(stage);
    pc_rt::obs::count("check.crash_states", states.len() as u64);
    // Algorithm 1 emits a cut's states together, so comparing each cut
    // with the one before finds the distinct ones (a cut met again
    // later would only be computed again).
    let stage = pc_rt::obs::span_cat("check.candidates", "check");
    let (mut pfs_sets, mut h5_sets) = (HashMap::new(), HashMap::new());
    let mut sets_of: Vec<(usize, Option<usize>)> = Vec::with_capacity(states.len());
    for (i, s) in states.iter().enumerate() {
        if i > 0 && s.cut == states[i - 1].cut {
            sets_of.push(sets_of[i - 1]);
        } else {
            sets_of.push((
                intern(&mut pfs_sets, pfs_candidates(a, &s.cut)),
                h5_candidates(a, &s.cut).map(|set| intern(&mut h5_sets, set)),
            ));
        }
    }
    drop(stage);
    let mut order: Vec<usize> = (0..states.len()).collect();
    order.sort_by_key(|&i| {
        let s = &states[i];
        (s.victims.len(), std::cmp::Reverse(s.cut.count()))
    });
    Enumerated {
        states,
        pfs_sets: by_index(pfs_sets),
        h5_sets: by_index(h5_sets),
        sets_of,
        order,
    }
}

/// Stage 3: seed the check's image builder with every crash state, and
/// return the representative-state identities for the campaign corpus
/// (filled only when the config asks): the distinct digests of the
/// states' pre-recovery, pre-widening images.
fn materialize(a: &Analysis, e: &Enumerated) -> Vec<u64> {
    let stage = pc_rt::obs::span_cat("check.materialize", "check");
    a.memo.seed(e.states.iter().map(|s| &s.persisted));
    drop(stage);
    if !a.cfg.collect_rep_digests {
        return Vec::new();
    }
    let _stage = pc_rt::obs::span_cat("check.rep_digests", "check");
    let sets = e.states.iter().map(|s| &s.persisted);
    let rep_digests = distinct_digests(sets, |set| a.memo.image(a.stack, set).digest());
    pc_rt::obs::count("check.rep_digests", rep_digests.len() as u64);
    rep_digests
}

/// The sorted distinct values of `digest` over `sets`, asked once per
/// distinct set, in first-seen order (so the images built are a function
/// of the sets' order).
fn distinct_digests<'s>(
    sets: impl Iterator<Item = &'s BitSet>,
    digest: impl FnMut(&BitSet) -> u64,
) -> Vec<u64> {
    let mut seen = HashSet::new();
    let mut digests: Vec<u64> = sets.filter(|set| seen.insert(*set)).map(digest).collect();
    digests.sort_unstable();
    digests.dedup();
    digests
}

/// Torn-write widening draws from an RNG seeded by (torn seed, state
/// index) so the same crash state tears the same way on every run and
/// in both checkers. `seed` is [`CheckConfig::torn_seed`].
fn torn_rng(seed: u64, state_index: usize) -> pc_rt::rng::Rng {
    pc_rt::rng::Rng::new(
        seed.wrapping_add((state_index as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15)),
    )
}

/// The model `recovered` violates at the layer the run checks top-down
/// (`None` = consistent): the I/O library's when the program uses it,
/// otherwise the PFS's.
fn violated_model(
    a: &Analysis,
    recovered: &Recovered,
    (legal_views, legal_h5): &LegalStates,
) -> Option<Model> {
    match &a.stack.h5_path {
        Some(path) => h5_verdict(a, path, recovered, legal_h5),
        None => (!is_legal(legal_views, &recovered.view)).then_some(a.cfg.pfs_model),
    }
}

/// `true` if `state` equals one of the shared legal states.
fn is_legal<T: PartialEq>(legal: &[Arc<T>], state: &T) -> bool {
    legal.iter().any(|l| **l == *state)
}

/// Figure 6 for one recovered view: a legal PFS state under an illegal
/// I/O-library state blames the library, anything else the PFS.
fn layer_verdict(a: &Analysis, recovered: &Recovered, legal: &LegalStates) -> Verdict {
    violated_model(a, recovered, legal).map(|violated| {
        let layer = if a.stack.h5_path.is_some() && is_legal(&legal.0, &recovered.view) {
            LayerVerdict::IoLibBug
        } else {
            LayerVerdict::PfsBug
        };
        (layer, violated)
    })
}

/// `check_stack`'s verdict: recover and mount crash state `i`, then
/// judge it. Its persisted set is asked of the memo, so states with one
/// image share one recovery. Only a state whose on-disk image fault
/// widening can make unique (torn writes with live victims) takes its
/// image from the memo and is torn and recovered on its own. Recovery is
/// deterministic on the store state, so both paths produce bit-identical
/// views.
fn verdict_of(a: &Analysis, e: &Enumerated, i: usize, legal: &LegalStates) -> Verdict {
    let (stack, state) = (a.stack, &e.states[i]);
    let recovered = if let Some(seed) = a.cfg.torn_seed.filter(|_| !state.victims.is_empty()) {
        let mut st = a.memo.image(stack, &state.persisted);
        st.apply_torn_victims(
            &stack.rec,
            state.victims.iter().copied(),
            &mut torn_rng(seed, i),
        );
        Rc::new(Recovered::mounted(recover_and_mount(
            stack.pfs.as_ref(),
            &mut st,
        )))
    } else {
        a.memo.of_set(stack, &state.persisted)
    };
    layer_verdict(a, &recovered, legal)
}

/// Stage 4, the golden walks: one legal list per distinct candidate set
/// (`Enumerated` interned them, so a state's lists are an index away).
fn legal_states(a: &Analysis, e: &Enumerated) -> Legal {
    let _stage = pc_rt::obs::span_cat("check.legal_states", "check");
    let mut walk = golden::WalkStats::default();
    let sets = (&e.pfs_sets[..], &e.h5_sets[..]);
    let regime = golden::Regime::Walk(&mut walk);
    let lists = golden::legal_lists(a.stack, a.cfg, &a.graph, sets, regime, a.memo.datasets());
    // `enumerate` interned the candidate sets from the states, so each
    // list is named by at least one: a miss the first time, a hit for
    // every other state that looks it up.
    let table = |sets: &[Vec<EventId>], lookups: usize| CacheStats {
        hits: lookups - sets.len(),
        misses: sets.len(),
    };
    let h5_lookups = e.sets_of.iter().filter(|(_, h5)| h5.is_some()).count();
    Legal {
        lists,
        pfs_cache: table(&e.pfs_sets, e.states.len()),
        h5_cache: table(&e.h5_sets, h5_lookups),
        replays: (walk.executed, walk.shared),
        walked: (walk.dispatched, walk.forks),
    }
}

/// Stage 5, Algorithm 1's loop. Walk the checking order, one state after
/// another; skip a state the §5.3 pruner has learned is redundant before
/// anything is recovered for it; judge every other one against
/// `legal_of` with `verdict`; aggregate or classify the inconsistent
/// ones. A panicking model, replay or recovery tool poisons only its
/// own state, as a diagnostic.
fn prune_and_judge(
    a: &Analysis,
    e: &Enumerated,
    legal_of: impl Fn(usize) -> Result<LegalStates, String>,
    verdict: impl Fn(usize, &LegalStates) -> Verdict,
) -> Classified {
    let _stage = pc_rt::obs::span_cat("check.judge", "check");
    let mut c = Classified::default();
    let mut pruner = Pruner::new();
    fn diagnose(c: &mut Classified, line: String) {
        pc_rt::obs::count("recover.diagnostic", 1);
        c.diagnostics.push(line);
    }
    for &idx in &e.order {
        if a.cfg.mode.prunes() && pruner.redundant(&a.sigs, &a.pa, &e.states[idx]) {
            c.pruned += 1;
            continue;
        }
        c.checked.push(idx);
        let judged = match legal_of(idx) {
            Ok(legal) => caught(|| verdict(idx, &legal)).map(|v| (v, legal)),
            Err(msg) => Err(format!("legal-state replay failed: {msg}")),
        };
        let (verdict, legal) = match judged {
            Ok(judged) => judged,
            Err(msg) => {
                diagnose(&mut c, format!("crash state {idx}: {msg}"));
                continue;
            }
        };
        let Some(inconsistency) = verdict else {
            continue;
        };
        c.raw_inconsistent += 1;
        if inconsistency.0 == LayerVerdict::IoLibBug {
            c.h5_bad_pfs_ok += 1;
        }
        // The classifier's flip oracle re-runs recovery on probe
        // states; a panic there poisons only this state.
        if let Err(msg) = caught(|| {
            aggregate_or_classify(a, e, idx, inconsistency, &legal, &mut c.bugs, &mut pruner)
        }) {
            diagnose(
                &mut c,
                format!("crash state {idx}: classification failed: {msg}"),
            );
        }
    }
    c
}

/// §5.2 aggregation + Table 1 classification for one inconsistent state:
/// count it against the first already-reported cause its damage pattern
/// matches, otherwise classify it and teach `pruner` the new pattern.
fn aggregate_or_classify(
    a: &Analysis,
    e: &Enumerated,
    state_index: usize,
    (layer, violated): (LayerVerdict, Model),
    legal: &LegalStates,
    bugs: &mut Bugs,
    pruner: &mut Pruner,
) {
    let (stack, rec, topo, sigs, pa) = (a.stack, &a.stack.rec, &a.topo, &a.sigs, &a.pa);
    let state = &e.states[state_index];
    if let Some(known) = pruner.matching(sigs, pa, state) {
        let reported = bugs.iter_mut().find(|((sig, _), _)| sig == known);
        let (_, (bug, _)) = reported.expect("every learned signature is a reported bug");
        bug.occurrences += 1;
        return;
    }
    let signature = {
        let _s = pc_rt::obs::span_cat("check.classify", "check");
        let universe = extended_universe(rec, pa, state);
        let mut oracle = |persisted: &BitSet| -> bool {
            let recovered = a.memo.of_set(stack, persisted);
            violated_model(a, &recovered, legal).is_none()
        };
        classify(rec, sigs, pa, state, &universe, &mut oracle)
    };
    pruner.learn(&signature);
    bugs.entry((signature.clone(), layer))
        .and_modify(|(b, _)| b.occurrences += 1)
        .or_insert_with(|| {
            // Witness ops in event-id (trace) order — the order they
            // were issued — not lexicographic string order. Built only
            // for the first state that exposes the bug.
            let mut witness_events: Vec<EventId> = state.unpersisted(pa);
            witness_events.extend(state.victims.iter().copied());
            witness_events.sort_unstable();
            witness_events.dedup();
            let witness: Vec<String> = witness_events
                .iter()
                .map(|&e| op_detail(rec, topo, e))
                .collect();
            let bug = Inconsistency {
                signature,
                layer,
                violated_model: violated,
                witness,
                occurrences: 1,
            };
            (bug, state_index)
        });
}

/// PFS-layer calls a cut may have preserved.
fn pfs_candidates(a: &Analysis, cut: &BitSet) -> Vec<EventId> {
    let rec = &a.stack.rec;
    layer_candidates(rec, &a.graph, Layer::PfsClient, &a.pfs_ops, cut)
}

/// I/O-library calls a cut may have preserved (`None` for programs that
/// do not use the library).
fn h5_candidates(a: &Analysis, cut: &BitSet) -> Option<Vec<EventId>> {
    a.stack.h5_path.as_ref()?;
    let rec = &a.stack.rec;
    Some(layer_candidates(
        rec,
        &a.graph,
        Layer::IoLib,
        &a.h5_ops,
        cut,
    ))
}

/// Stage 6: what reconstructing the checked states costs, priced both
/// ways in one pass. Returns `(sim_seconds, restart_seconds)`:
/// `restart_seconds` restarts the cluster for each state in checking
/// order; `sim_seconds` is the mode's own price — the same under brute
/// force, and when the mode prunes, one restart followed by incremental
/// rebuilds along a greedy-TSP route.
fn cost(a: &Analysis, e: &Enumerated, c: &Classified) -> (f64, f64) {
    let _stage = pc_rt::obs::span_cat("check.cost_model", "check");
    let model = CostModel::for_restart(a.stack.pfs.restart_cost_secs());
    let ops = |idx: usize| e.states[idx].persisted.count();
    let restart_seconds = (c.checked.iter()).fold(0.0, |t, &idx| t + model.restart_cost(ops(idx)));
    if !a.cfg.mode.prunes() {
        return (restart_seconds, restart_seconds);
    }
    let n_servers = a.topo.server_count();
    let fingerprints: Vec<Vec<u64>> = (c.checked.iter())
        .map(|&idx| server_fingerprints(&a.pa, n_servers, &e.states[idx]))
        .collect();
    let route = tsp_order(&fingerprints).into_iter().enumerate();
    let sim_seconds = route.fold(0.0, |t, (step, (j, changed))| {
        let ops = ops(c.checked[j]);
        t + match step {
            0 => model.restart_cost(ops),
            _ => model.rebuild_cost(changed, n_servers as usize, ops),
        }
    });
    (sim_seconds, restart_seconds)
}

/// Stage 7, the provenance pass: one explain bundle per aggregated bug,
/// built after aggregation so bundles carry final occurrence counts.
/// Presentation-plane: a panic inside it is a warning, never a
/// diagnostic, so `canonical_report()` is identical with explain on or
/// off.
fn explain(a: &Analysis, e: &Enumerated, l: &Legal, c: &Classified) -> Vec<BugExplanation> {
    let mut explanations = Vec::new();
    if !a.cfg.explain || c.bugs.is_empty() {
        return explanations;
    }
    let _stage = pc_rt::obs::span_cat("check.explain", "check");
    for ((sig, _), (bug, widx)) in &c.bugs {
        let Ok(legal) = l.lists.of(e.sets_of[*widx]) else {
            continue;
        };
        let ctx = crate::explain::ExplainCtx {
            stack: a.stack,
            graph: &a.graph,
            pa: &a.pa,
            topo: &a.topo,
            sigs: &a.sigs,
            legal_views: &legal.0,
            probe: &|persisted| a.memo.of_set(a.stack, persisted),
            image: &|persisted| a.memo.image(a.stack, persisted),
            fails: &|recovered| violated_model(a, recovered, &legal).is_some(),
        };
        match caught(|| crate::explain::explain_bug(&ctx, bug, &e.states[*widx], *widx)) {
            Ok(e) => explanations.push(e),
            Err(msg) => pc_rt::pc_warn!("explain failed for {sig}: {msg}"),
        }
    }
    pc_rt::obs::count("explain.bugs", explanations.len() as u64);
    explanations
}

/// Assemble what the stages decided into the public outcome; how they
/// ran (cache traffic, wall time) and the explanations stay at their
/// defaults.
fn outcome(
    a: &Analysis,
    e: &Enumerated,
    c: Classified,
    (sim_seconds, restart_seconds): (f64, f64),
    rep_digests: Vec<u64>,
) -> CheckOutcome {
    CheckOutcome {
        pfs_name: a.stack.pfs.name().to_string(),
        bugs: c.bugs.into_values().map(|(bug, _)| bug).collect(),
        raw_inconsistent_states: c.raw_inconsistent,
        h5_bad_pfs_ok_states: c.h5_bad_pfs_ok,
        stats: ExploreStats {
            states_total: e.states.len(),
            states_checked: c.checked.len(),
            states_pruned: c.pruned,
            states_diagnostic: c.diagnostics.len(),
            restart_seconds,
            sim_seconds,
            ..ExploreStats::default()
        },
        diagnostics: c.diagnostics,
        explanations: Vec::new(),
        rep_digests,
    }
}

/// Run the full ParaCrash check for one traced program. The walks never
/// call `factory`: both start from the pre-test snapshot `stack` sealed.
/// It stays so that callers hand both checkers the same arguments.
pub fn check_stack(stack: &Stack, _factory: &StackFactory, cfg: &CheckConfig) -> CheckOutcome {
    let started = Instant::now();
    let _check_span = pc_rt::obs::span_cat("check_stack", "check");

    let a = analyze(stack, cfg, RecoveryMemo::new(stack));
    let e = enumerate(&a);
    let rep_digests = materialize(&a, &e);
    let l = legal_states(&a, &e);
    let c = prune_and_judge(
        &a,
        &e,
        |i| l.lists.of(e.sets_of[i]),
        |i, legal| verdict_of(&a, &e, i, legal),
    );
    let cost = cost(&a, &e, &c);
    let explanations = explain(&a, &e, &l, &c);

    let mut out = outcome(&a, &e, c, cost, rep_digests);
    out.explanations = explanations;
    out.stats.legal_replays = l.pfs_cache.misses + l.h5_cache.misses;
    (out.stats.pfs_cache, out.stats.h5_cache) = (l.pfs_cache, l.h5_cache);
    out.stats.wall_seconds = started.elapsed().as_secs_f64();
    publish(&out, &l, a.pa.closures_taken());
    out
}

/// The counters of one finished check.
fn publish(out: &CheckOutcome, l: &Legal, closures: u64) {
    let stats = &out.stats;
    pc_rt::obs::count("cache.pfs.hits", stats.pfs_cache.hits as u64);
    pc_rt::obs::count("cache.pfs.misses", stats.pfs_cache.misses as u64);
    pc_rt::obs::count("cache.h5.hits", stats.h5_cache.hits as u64);
    pc_rt::obs::count("cache.h5.misses", stats.h5_cache.misses as u64);
    pc_rt::obs::count("replay.executed", l.replays.0 as u64);
    pc_rt::obs::count("replay.shared", l.replays.1 as u64);
    pc_rt::obs::count("replay.dispatched", l.walked.0 as u64);
    pc_rt::obs::count("replay.forks", l.walked.1 as u64);
    pc_rt::obs::count("persist.closures", closures);
    pc_rt::obs::count("check.states_checked", stats.states_checked as u64);
    pc_rt::obs::count("check.states_pruned", stats.states_pruned as u64);
}

/// The reference checker: the same analysis, enumeration, legal-state
/// sets, Figure 6 verdict, prune/classify loop and cost model as
/// [`check_stack`], but each checked crash state becomes a recovered
/// view the obvious way — deep-clone the baseline, apply the persisted
/// events, tear the victims, recover, mount, copy each file's bytes into
/// one buffer ([`PfsView::flat`]) — with its legal lists replayed
/// afresh: no checkpoints, no shared views and no replay table.
/// `tests/differential.rs` holds `check_stack` to it: everything a
/// checker *decides* (the canonical report, `rep_digests`, state counts,
/// the cost model) must match byte for byte; cache traffic, wall time
/// and explanations describe how a checker ran and stay at their
/// defaults here.
#[doc(hidden)]
pub fn check_reference(stack: &Stack, factory: &StackFactory, cfg: &CheckConfig) -> CheckOutcome {
    let a = analyze(stack, cfg, RecoveryMemo::never());
    let e = enumerate(&a);
    let rec = &stack.rec;
    let image = |i: usize| {
        let mut st = stack.pfs.baseline().deep_clone();
        st.apply_events(rec, e.states[i].persisted.iter());
        st
    };
    // Every state's pre-recovery digest: the same set as one digest per
    // distinct storage-event sequence.
    let mut rep_digests = BTreeSet::new();
    if cfg.collect_rep_digests {
        rep_digests.extend((0..e.states.len()).map(|i| image(i).digest()));
    }
    // No table: every preserved set of a checked state is replayed
    // afresh.
    let legal_of = |i: usize| {
        let (pfs, h5) = e.sets_of[i];
        let pfs = std::slice::from_ref(&e.pfs_sets[pfs]);
        let h5 = h5.map_or(&[][..], |h5| std::slice::from_ref(&e.h5_sets[h5]));
        let regime = golden::Regime::Replay(factory);
        golden::legal_lists(stack, cfg, &a.graph, (pfs, h5), regime, None)
            .of((0, h5.first().map(|_| 0)))
    };
    let verdict = |i: usize, legal: &LegalStates| {
        let mut st = image(i);
        if let Some(seed) = cfg.torn_seed {
            let victims = e.states[i].victims.iter().copied();
            st.apply_torn_victims(rec, victims, &mut torn_rng(seed, i));
        }
        // The copying mount's view: the borrowed one's oracle.
        let view = recover_and_mount(stack.pfs.as_ref(), &mut st).flat();
        layer_verdict(&a, &Recovered::mounted(view), legal)
    };
    let c = prune_and_judge(&a, &e, legal_of, verdict);
    let cost = cost(&a, &e, &c);
    outcome(&a, &e, c, cost, rep_digests.into_iter().collect())
}

/// Dataset keys the test program modifies.
fn modified_dataset_keys(stack: &Stack) -> BTreeSet<String> {
    use h5sim::H5Call;
    let mut keys = BTreeSet::new();
    for (_, _, call) in stack.h5.entries() {
        match call {
            H5Call::CreateDataset { group, name, .. }
            | H5Call::CreateDatasetParallel { group, name, .. }
            | H5Call::ResizeDataset { group, name, .. }
            | H5Call::ResizeDatasetParallel { group, name, .. }
            | H5Call::DeleteDataset { group, name } => {
                keys.insert(h5sim::format::dataset_key(group, name));
            }
            H5Call::RenameDataset {
                src_group,
                src_name,
                dst_group,
                dst_name,
            } => {
                keys.insert(h5sim::format::dataset_key(src_group, src_name));
                keys.insert(h5sim::format::dataset_key(dst_group, dst_name));
            }
            _ => {}
        }
    }
    keys
}

/// I/O-library-layer verdict for one recovered view: `None` if
/// consistent under `cfg.h5_model`, otherwise the weakest violated model
/// (baseline < causal). What depends on the view alone — the parse — is
/// taken once per [`Recovered`]; what depends on the crash state is the
/// membership test against its `legal` list.
fn h5_verdict(
    a: &Analysis,
    path: &str,
    recovered: &Recovered,
    legal: &[Arc<H5Logical>],
) -> Option<Model> {
    let Some(content) = recovered.view.content(path) else {
        // The file itself is gone or unreadable through the PFS.
        return Some(Model::Baseline);
    };
    let parse = recovered.h5.get_or_init(|| h5_parse(a, content));
    // A state that parses cleanly and matches a causal golden state is
    // consistent under every model (most crash states are legal).
    if parse.strict.as_ref().is_some_and(|l| is_legal(legal, l)) {
        return None;
    }
    // From here on the causal model is violated; a weaker model only
    // adds legal states, so what is left to decide is the baseline.
    if parse.violates_baseline {
        Some(Model::Baseline)
    } else {
        (a.cfg.h5_model != Model::Baseline).then_some(Model::Causal)
    }
}

/// Walk the file's content in place once; only if that walk met an
/// error let `h5clear` try to repair it (§4.4.3) and walk the repair —
/// its superblock patch laid over the same content, not a copy. Both
/// answers come off the one report: the strict state is the report of a
/// walk that met no error, and under the baseline model every dataset
/// that was closed before the crash (i.e. not modified by the test
/// program) must still be readable and intact.
fn h5_parse(a: &Analysis, content: &Content) -> H5Parse {
    let _span = pc_rt::obs::span_cat("h5.parse", "check");
    pc_rt::obs::count("h5.view_parses", 1);
    pc_rt::obs::count("h5.walks", 1);
    let memo = a.memo.datasets();
    let mut report = check_lenient_with(content, memo);
    if !report.is_clean() {
        // `h5clear` leaves an unreadable superblock as it is: a second
        // walk would only repeat the first.
        if let Some(cleared) = Cleared::new(content, a.cfg.clear_opts) {
            pc_rt::obs::count("h5.walks", 1);
            report = check_lenient_with(&cleared, memo);
        }
    }
    let violates_baseline = report.open_error.is_some()
        || a.baseline_h5.as_ref().is_some_and(|base| {
            base.datasets.iter().any(|(key, expected)| {
                !a.modified_keys.contains(key)
                    && !matches!(report.datasets.get(key), Some(Ok(v)) if v == expected)
            })
        });
    H5Parse {
        strict: report.into_logical(),
        violates_baseline,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::explore::ExploreMode;
    use h5sim::{check as h5check, check_lenient_with, h5clear};
    use pfs::beegfs::BeeGfs;
    use pfs::ext4::Ext4Direct;
    use pfs::PfsCall;

    fn beegfs_factory() -> StackFactory {
        Box::new(|| Box::new(BeeGfs::paper_default()))
    }

    fn ext4_factory() -> StackFactory {
        Box::new(|| Box::new(Ext4Direct::paper_default()))
    }

    fn run_arvr(factory: &StackFactory) -> Stack {
        let mut stack = Stack::new(factory());
        stack.posix(
            0,
            PfsCall::Creat {
                path: "/file".into(),
            },
        );
        stack.posix(
            0,
            PfsCall::Pwrite {
                path: "/file".into(),
                offset: 0,
                data: b"old".to_vec(),
            },
        );
        stack.posix(
            0,
            PfsCall::Close {
                path: "/file".into(),
            },
        );
        stack.seal_preamble();
        stack.posix(
            0,
            PfsCall::Creat {
                path: "/tmp".into(),
            },
        );
        stack.posix(
            0,
            PfsCall::Pwrite {
                path: "/tmp".into(),
                offset: 0,
                data: b"new".to_vec(),
            },
        );
        stack.posix(
            0,
            PfsCall::Close {
                path: "/tmp".into(),
            },
        );
        stack.posix(
            0,
            PfsCall::Rename {
                src: "/tmp".into(),
                dst: "/file".into(),
            },
        );
        stack
    }

    #[test]
    fn arvr_on_beegfs_finds_bugs() {
        let factory = beegfs_factory();
        let stack = run_arvr(&factory);
        let cfg = CheckConfig {
            mode: ExploreMode::BruteForce,
            ..CheckConfig::paper_default()
        };
        let outcome = check_stack(&stack, &factory, &cfg);
        assert!(outcome.raw_inconsistent_states > 0, "{outcome:?}");
        assert!(!outcome.bugs.is_empty());
        assert!(outcome.pfs_bugs() > 0);
        assert_eq!(outcome.h5_bad_pfs_ok_states, 0);
        // Bug 1's shape must be among the signatures: the storage-side
        // append reordered after metadata-side rename work.
        let sigs: Vec<String> = outcome
            .bugs
            .iter()
            .map(|b| b.signature.to_string())
            .collect();
        assert!(
            sigs.iter()
                .any(|s| s.contains("append(file chunk)@storage")),
            "signatures: {sigs:?}"
        );
    }

    #[test]
    fn arvr_on_ext4_is_clean() {
        let factory = ext4_factory();
        let stack = run_arvr(&factory);
        let cfg = CheckConfig {
            mode: ExploreMode::BruteForce,
            ..CheckConfig::paper_default()
        };
        let outcome = check_stack(&stack, &factory, &cfg);
        assert_eq!(outcome.raw_inconsistent_states, 0, "{:?}", outcome.bugs);
        assert!(outcome.bugs.is_empty());
    }

    /// A sequential program's candidate sets are the prefixes of its
    /// calls, and so are their preserved sets: `n + 1` distinct ones
    /// behind `(n + 1)(n + 2) / 2` lookups. Executed replays must grow
    /// with the former.
    #[test]
    fn golden_replays_grow_linearly_on_a_sequential_trace() {
        let factory = ext4_factory();
        let cfg = CheckConfig {
            mode: ExploreMode::BruteForce,
            ..CheckConfig::paper_default()
        };
        for n in [4, 8, 16] {
            let mut stack = Stack::new(factory());
            stack.seal_preamble();
            for i in 0..n {
                let path = format!("/f{i}");
                stack.posix(0, PfsCall::Creat { path });
            }
            let a = analyze(&stack, &cfg, RecoveryMemo::new(&stack));
            let e = enumerate(&a);
            let l = legal_states(&a, &e);
            assert_eq!(l.pfs_cache.misses, n + 1, "candidate sets, n = {n}");
            let (executed, shared) = l.replays;
            assert_eq!(executed, n + 1, "replays executed, n = {n}");
            assert_eq!(
                executed + shared,
                (n + 1) * (n + 2) / 2,
                "preserved sets looked up, n = {n}"
            );
        }
    }

    /// Crash states with equal candidates at a layer compare against one
    /// list, not equal copies: the table holds one per distinct set.
    #[test]
    fn states_of_one_candidate_set_share_one_list() {
        let (stack, _) = run_h5(false);
        let cfg = CheckConfig::paper_default();
        let a = analyze(&stack, &cfg, RecoveryMemo::new(&stack));
        let e = enumerate(&a);
        let l = legal_states(&a, &e);
        let legal = |i: usize| l.lists.of(e.sets_of[i]).expect("replays succeed");
        let (mut pfs_pairs, mut h5_pairs) = (0, 0);
        for i in 0..e.states.len() {
            for j in 0..i {
                let (same_pfs, same_h5) = (
                    e.sets_of[i].0 == e.sets_of[j].0,
                    e.sets_of[i].1 == e.sets_of[j].1,
                );
                assert_eq!(same_pfs, Arc::ptr_eq(&legal(i).0, &legal(j).0), "{i} {j}");
                assert_eq!(same_h5, Arc::ptr_eq(&legal(i).1, &legal(j).1), "{i} {j}");
                pfs_pairs += usize::from(same_pfs && e.states[i].cut != e.states[j].cut);
                h5_pairs += usize::from(same_h5 && !same_pfs);
            }
        }
        // Sharing reaches past one cut, and further at the library layer.
        assert!(pfs_pairs > 0 && h5_pairs > 0, "{pfs_pairs} {h5_pairs}");
    }

    /// `ExploreStats`' cache fields are derived from the sizes of the
    /// per-check tables: one miss per distinct candidate set, a hit for
    /// every other state, one lookup per state and layer in use. The
    /// literals are what the checker counted lookup by lookup before
    /// the fields were derived.
    #[test]
    fn explore_stats_are_table_sizes() {
        let stats = |hits, misses| CacheStats { hits, misses };
        let cfg = CheckConfig::paper_default();
        let (stack, factory) = run_h5(false);
        let h5_create = check_stack(&stack, &factory, &cfg).stats;
        assert_eq!(h5_create.states_total, 165);
        assert_eq!(h5_create.pfs_cache, stats(153, 12));
        assert_eq!(h5_create.h5_cache, stats(163, 2));
        assert_eq!(h5_create.legal_replays, 14);
        let factory = beegfs_factory();
        let arvr = check_stack(&run_arvr(&factory), &factory, &cfg).stats;
        assert_eq!(arvr.states_total, 91);
        assert_eq!(arvr.pfs_cache, stats(87, 4));
        assert_eq!(arvr.h5_cache, stats(0, 0));
        assert_eq!(arvr.legal_replays, 4);
    }

    /// A PFS that counts its recovery tool's runs, or panics in it;
    /// everything else delegates to the wrapped model.
    #[derive(Clone)]
    struct InstrumentedRecover {
        inner: Box<dyn pfs::Pfs>,
        runs: Arc<std::sync::atomic::AtomicUsize>,
        poisoned: bool,
    }

    impl pfs::Pfs for InstrumentedRecover {
        fn name(&self) -> &'static str {
            self.inner.name()
        }
        fn base(&self) -> &pfs::ModelBase {
            self.inner.base()
        }
        fn base_mut(&mut self) -> &mut pfs::ModelBase {
            self.inner.base_mut()
        }
        fn handle(
            &mut self,
            rec: &mut Recorder,
            client: tracer::Process,
            call: &PfsCall,
            cev: EventId,
        ) -> pfs::PfsResult<()> {
            self.inner.handle(rec, client, call, cev)
        }
        fn recover(&self, states: &mut ServerStates) {
            self.runs.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            if self.poisoned {
                panic!("poisoned recover");
            }
            self.inner.recover(states)
        }
        fn client_view(&self, states: &ServerStates) -> PfsView {
            self.inner.client_view(states)
        }
        fn restart_cost_secs(&self) -> f64 {
            self.inner.restart_cost_secs()
        }
    }

    /// The ARVR/BeeGFS fixture with an instrumented recovery tool.
    fn instrumented_arvr(poisoned: bool) -> (Stack, Arc<std::sync::atomic::AtomicUsize>) {
        let mut stack = run_arvr(&beegfs_factory());
        let runs = Arc::new(std::sync::atomic::AtomicUsize::new(0));
        stack.pfs = Box::new(InstrumentedRecover {
            inner: stack.pfs,
            runs: runs.clone(),
            poisoned,
        });
        (stack, runs)
    }

    /// The digests the memo holds a recovered view for.
    fn memo_digests(a: &Analysis) -> BTreeSet<u64> {
        let memos = a.memo.0.as_ref().expect("check_stack's memo stores");
        memos.maps.borrow().by_digest.keys().copied().collect()
    }

    /// Stages 3 to 5 as `check_stack` runs them.
    fn judged(a: &Analysis, e: &Enumerated) -> Classified {
        materialize(a, e);
        let l = legal_states(a, e);
        prune_and_judge(
            a,
            e,
            |i| l.lists.of(e.sets_of[i]),
            |i, legal| verdict_of(a, e, i, legal),
        )
    }

    /// The distinct images the memo is asked for on behalf of `states`,
    /// bar the torn states'.
    fn untorn_images(a: &Analysis, e: &Enumerated, states: &[usize]) -> BTreeSet<u64> {
        let torn = |i: usize| a.cfg.torn_seed.is_some() && !e.states[i].victims.is_empty();
        (states.iter().filter(|&&i| !torn(i)))
            .map(|&i| a.memo.image(a.stack, &e.states[i].persisted).digest())
            .collect()
    }

    /// Every distinct pre-recovery digest is recovered exactly once,
    /// however many checked states and probes share it, and a pruned
    /// state asks for none.
    #[test]
    fn each_distinct_digest_is_recovered_exactly_once() {
        use std::sync::atomic::Ordering::Relaxed;
        let cfg = CheckConfig::paper_default();
        let (stack, runs) = instrumented_arvr(false);

        // The memo alone, asked for every state's image.
        let a = analyze(&stack, &cfg, RecoveryMemo::new(&stack));
        let e = enumerate(&a);
        materialize(&a, &e);
        let images: Vec<ServerStates> = (e.states.iter())
            .map(|state| a.memo.image(&stack, &state.persisted))
            .collect();
        let distinct: BTreeSet<u64> = images.iter().map(|s| s.digest()).collect();
        assert!(distinct.len() < e.states.len(), "the fixture shares images");
        runs.store(0, Relaxed);
        let views: Vec<Rc<Recovered>> = (e.states.iter())
            .map(|state| a.memo.of_set(&stack, &state.persisted))
            .collect();
        assert_eq!(runs.load(Relaxed), distinct.len());
        assert_eq!(memo_digests(&a), distinct);
        for (image, recovered) in images.iter().zip(&views) {
            let alone = recover_and_mount(stack.pfs.as_ref(), &mut image.fork());
            assert!(recovered.view == alone);
        }

        // The whole loop: checked states and classifier probes, but
        // never a pruned state.
        let a = analyze(&stack, &cfg, RecoveryMemo::new(&stack));
        let e = enumerate(&a);
        runs.store(0, Relaxed);
        let c = judged(&a, &e);
        assert!(!c.bugs.is_empty(), "the classifier probed");
        assert!(c.pruned > 0, "the fixture prunes");
        let filled = memo_digests(&a);
        assert_eq!(runs.load(Relaxed), filled.len());
        assert!(filled.is_superset(&untorn_images(&a, &e, &c.checked)));
    }

    /// Torn-write widening happens after the image is built, so the
    /// digest of a state's image says nothing about a state with live
    /// victims: each recovers on its own and neither reads nor fills the
    /// memo's views.
    #[test]
    fn torn_states_never_touch_the_memo() {
        use std::sync::atomic::Ordering::Relaxed;
        let mut cfg = CheckConfig::paper_default();
        cfg.torn_seed = Some(0);
        let (stack, runs) = instrumented_arvr(false);
        let a = analyze(&stack, &cfg, RecoveryMemo::new(&stack));
        let e = enumerate(&a);
        let c = judged(&a, &e);
        let torn = (c.checked.iter())
            .filter(|&&i| !e.states[i].victims.is_empty())
            .count();
        let untorn = untorn_images(&a, &e, &c.checked);
        assert!(torn > 0 && !untorn.is_empty() && c.pruned > 0);
        // Every recovery is a torn state's own or the one fill of a
        // memo entry, which the untorn checked states all found.
        let filled = memo_digests(&a);
        assert_eq!(runs.load(Relaxed), torn + filled.len());
        assert!(filled.is_superset(&untorn));
    }

    /// A panicking recovery tool poisons exactly the states that ask
    /// for it — one diagnostic per crash state, in checking order, as
    /// when every state recovered on its own — and not the memo.
    #[test]
    fn poisoned_recover_poisons_states_not_the_memo() {
        let factory = beegfs_factory();
        let cfg = CheckConfig::paper_default();
        let (stack, runs) = instrumented_arvr(true);
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        let a = analyze(&stack, &cfg, RecoveryMemo::new(&stack));
        let e = enumerate(&a);
        let c = judged(&a, &e);
        std::panic::set_hook(prev);
        // No verdict, so nothing learned and nothing pruned: every state
        // is checked.
        assert_eq!(c.checked, e.order);
        let expected: Vec<String> = (e.order.iter())
            .map(|idx| format!("crash state {idx}: poisoned recover"))
            .collect();
        assert_eq!(c.diagnostics, expected);
        // Each checked state tried for itself; the memo stayed empty.
        assert_eq!(
            runs.load(std::sync::atomic::Ordering::Relaxed),
            e.states.len()
        );
        assert!(memo_digests(&a).is_empty());
        assert!(a.memo.0.as_ref().unwrap().maps.borrow().by_set.is_empty());
        let outcome = check_stack(&stack, &factory, &cfg);
        assert_eq!(outcome.diagnostics, expected);
    }

    /// H5-create (or H5-delete) on a striped 2+2 BeeGFS, the quick
    /// profile's shape.
    fn run_h5(delete: bool) -> (Stack, StackFactory) {
        use h5sim::{H5Call, H5Spec};
        let factory: StackFactory = Box::new(|| {
            Box::new(BeeGfs::new(
                simnet::ClusterTopology::dedicated(2, 2, 2),
                pfs::Placement::new(),
                2048,
            ))
        });
        let mut stack = Stack::new(factory());
        let ranks = vec![0, 1];
        stack.h5_path = Some("/file.h5".into());
        stack.h5_ranks = ranks.clone();
        stack.h5_spec = H5Spec { elem: 8, seg: 1024 };
        let (g1, g2) = (String::from("g1"), String::from("g2"));
        let dataset = |name: &str| H5Call::CreateDataset {
            group: g1.clone(),
            name: name.into(),
            rows: 24,
            cols: 24,
        };
        for call in [
            H5Call::CreateFile,
            H5Call::CreateGroup { group: g1.clone() },
            H5Call::CreateGroup { group: g2 },
            dataset("d1"),
            dataset("d2"),
            H5Call::CloseFile,
        ] {
            stack.h5(0, call);
        }
        stack.seal_preamble();
        let mut mpi = mpiio::MpiIo::new(stack.pfs.as_mut(), &mut stack.rec, &mut stack.calls);
        mpi.file_open(&ranks, "/file.h5", false, None);
        let test = if delete {
            let (group, name) = (g1.clone(), "d2".into());
            H5Call::DeleteDataset { group, name }
        } else {
            dataset("d3")
        };
        stack.h5(0, test);
        (stack, factory)
    }

    /// `rep_digests` builds one image per distinct persisted set, in the
    /// order the states first name it, and collects the digests one
    /// image per state would.
    #[test]
    fn rep_digests_build_each_distinct_set_once() {
        let (stack, _) = run_h5(false);
        let cfg = CheckConfig {
            collect_rep_digests: true,
            ..CheckConfig::paper_default()
        };
        let a = analyze(&stack, &cfg, RecoveryMemo::new(&stack));
        let e = enumerate(&a);
        let sets: Vec<&BitSet> = e.states.iter().map(|s| &s.persisted).collect();
        let first_seen = (0..sets.len()).filter(|&i| !sets[..i].contains(&sets[i]));
        let first_seen: Vec<&BitSet> = first_seen.map(|i| sets[i]).collect();
        assert!(first_seen.len() < sets.len(), "the fixture repeats sets");
        let digest = |set: &BitSet| a.memo.image(&stack, set).digest();
        let mut asked = Vec::new();
        let digests = distinct_digests(sets.iter().copied(), |set| {
            asked.push(set.clone());
            digest(set)
        });
        assert!(asked.iter().eq(first_seen.iter().copied()));
        let every: BTreeSet<u64> = sets.iter().map(|set| digest(set)).collect();
        assert!(digests.iter().eq(&every));
        assert_eq!(materialize(&a, &e), digests);
    }

    /// The single-function verdict [`h5_verdict`] was split from, re-parsing
    /// on every call: the reference `check::tests` holds the split to.
    fn h5_verdict_reference(
        cfg: &CheckConfig,
        path: &str,
        view: &PfsView,
        legal: &[Arc<H5Logical>],
        baseline: Option<&H5Logical>,
        modified: &BTreeSet<String>,
    ) -> Option<Model> {
        let Some(bytes) = view.read(path) else {
            // The file itself is gone or unreadable through the PFS.
            return Some(Model::Baseline);
        };
        // h5check; on failure let h5clear try to repair (§4.4.3).
        let strict = match h5check(bytes) {
            Ok(l) => Some(l),
            Err(_) => {
                let cleared = h5clear(bytes, cfg.clear_opts);
                h5check(&cleared).ok()
            }
        };
        // Fast path: a state that parses cleanly and matches a causal golden
        // state is consistent under every model — no need for the
        // dataset-granular baseline walk (most crash states are legal).
        if strict.as_ref().is_some_and(|l| is_legal(legal, l)) {
            return None;
        }
        // Baseline: every dataset that was closed before the crash (i.e. not
        // modified by the test program) must still be readable and intact.
        let violates_baseline = {
            let cleared = h5clear(bytes, cfg.clear_opts);
            let lenient = {
                let first = check_lenient_with(bytes, None);
                if first.open_error.is_some()
                    || first.datasets.values().any(|d| d.is_err())
                    || !first.group_errors.is_empty()
                {
                    check_lenient_with(&cleared, None)
                } else {
                    first
                }
            };
            if lenient.open_error.is_some() {
                true
            } else if let Some(base) = baseline {
                base.datasets.iter().any(|(key, expected)| {
                    if modified.contains(key) {
                        return false;
                    }
                    !matches!(lenient.datasets.get(key), Some(Ok(v)) if v == expected)
                })
            } else {
                false
            }
        };
        let violates_causal =
            violates_baseline || strict.map(|l| !is_legal(legal, &l)).unwrap_or(true);

        let violated = match cfg.h5_model {
            Model::Baseline => violates_baseline,
            _ => violates_causal,
        };
        if !violated {
            None
        } else if violates_baseline {
            Some(Model::Baseline)
        } else {
            Some(Model::Causal)
        }
    }

    /// The split verdict — parses taken once per shared view — decides
    /// what the single function it was split from decides, on every
    /// crash state of H5-create/BeeGFS (causal violations only) and of
    /// H5-delete/BeeGFS (baseline violations too), under both library
    /// models.
    #[test]
    fn split_h5_verdict_agrees_with_the_single_function() {
        let mut seen = BTreeSet::new();
        for (delete, h5_model) in [
            (false, Model::Causal),
            (false, Model::Baseline),
            (true, Model::Causal),
            (true, Model::Baseline),
        ] {
            let (stack, _) = run_h5(delete);
            let path = stack.h5_path.as_deref().unwrap();
            let cfg = CheckConfig {
                h5_model,
                ..CheckConfig::paper_default()
            };
            let a = analyze(&stack, &cfg, RecoveryMemo::new(&stack));
            let e = enumerate(&a);
            materialize(&a, &e);
            let l = legal_states(&a, &e);
            for i in 0..e.states.len() {
                let legal = l.lists.of(e.sets_of[i]).expect("replays succeed");
                let shared = a.memo.of_set(&stack, &e.states[i].persisted);
                let got = h5_verdict(&a, path, &shared, &legal.1);
                let want = h5_verdict_reference(
                    &cfg,
                    path,
                    &shared.view,
                    &legal.1,
                    a.baseline_h5.as_ref(),
                    &a.modified_keys,
                );
                assert_eq!(got, want, "state {i} under {}", h5_model.as_str());
                let verdict = verdict_of(&a, &e, i, &legal);
                assert_eq!(verdict.map(|(_, m)| m), want);
                seen.insert((h5_model.as_str(), want.map(|m| m.as_str())));
            }
        }
        // Every outcome the function has was met: consistent, the causal
        // model violated, the baseline violated under either model.
        for outcome in [
            ("causal", None),
            ("causal", Some("causal")),
            ("causal", Some("baseline")),
            ("baseline", None),
            ("baseline", Some("baseline")),
        ] {
            assert!(seen.contains(&outcome), "{outcome:?} not in {seen:?}");
        }
    }

    #[test]
    fn pruning_finds_the_same_bugs_faster() {
        let factory = beegfs_factory();
        let stack = run_arvr(&factory);
        let brute = check_stack(
            &stack,
            &factory,
            &CheckConfig {
                mode: ExploreMode::BruteForce,
                ..CheckConfig::paper_default()
            },
        );
        let optimized = check_stack(
            &stack,
            &factory,
            &CheckConfig {
                mode: ExploreMode::Optimized,
                ..CheckConfig::paper_default()
            },
        );
        let sigs = |o: &CheckOutcome| -> BTreeSet<String> {
            o.bugs.iter().map(|b| b.signature.to_string()).collect()
        };
        // §5.3 / §6.4: pruning does not reduce the bugs discovered.
        assert_eq!(sigs(&brute), sigs(&optimized));
        assert!(optimized.stats.states_checked < brute.stats.states_checked);
        assert!(optimized.stats.sim_seconds < brute.stats.sim_seconds);
    }
}
