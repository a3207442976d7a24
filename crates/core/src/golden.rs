//! Golden states: the legal states every crash state of a check is
//! compared against (§4.4.3, §5.1).
//!
//! A legal state is what a *preserved set* of layer calls leaves behind
//! when replayed after the preamble; the legal list of a candidate set
//! holds the distinct states of its preserved sets. `legal_lists` is
//! the one way to get them, in two regimes:
//!
//! * **`check_stack`: one walk per layer.** The preserved sets of every
//!   interned candidate set are computed once; their sorted union is a
//!   trie keyed by call event id (sets are subsequences of one program
//!   order). The base — `factory()` plus the preamble, fault-free, never
//!   the traced `stack.pfs` — is built once per check, every trie edge
//!   is dispatched once into a throw-away `Recorder`, and the instance
//!   is forked ([`pfs::Pfs::fork`](pfs::Fork::fork): copy-on-write
//!   stores) only where the trie branches, the last child taking the
//!   instance itself. `executable()`'s namespace mirror travels down the
//!   walk with the instance. An edge that fails marks its whole subtree
//!   "no legal state"; an edge that panics marks it with the caught
//!   message — what a full replay of each set under it would have hit at
//!   the same call. One `check.legal_replay` span per layer walk.
//! * **`check_reference`: no table.** Every preserved set goes through
//!   [`replay_pfs`] / [`replay_h5`] — a fresh instance and the whole
//!   preamble per set. It is the oracle `tests/differential.rs` holds the
//!   walk to.
//!
//! Either way a list is assembled from its sets in the model's order,
//! deduplicated by state digest.

use crate::config::CheckConfig;
use crate::model::Model;
use crate::snapshot::descend;
use crate::stack::{replay_h5, replay_pfs, Namespace, Stack, StackFactory};
use h5sim::{H5Call, H5Logical, H5Replay};
use pfs::{CallTrace, Pfs, PfsCall, PfsView};
use std::collections::{BTreeSet, HashMap};
use std::sync::Arc;
use tracer::{CausalityGraph, EventId, Process, Recorder};

/// The legal golden states of one candidate set at one layer. The list
/// is shared by every crash state with that candidate set, each state in
/// it by every list whose candidates admit the preserved set it was
/// replayed from.
pub(crate) type LegalList<T> = Arc<Vec<Arc<T>>>;

/// Legal golden states for one cut: `(PFS views, H5 logicals)`.
pub(crate) type LegalStates = (LegalList<PfsView>, LegalList<H5Logical>);

/// One golden replay: the digest of the state a preserved set denotes
/// and the state (`None` when the set is not executable), or the message
/// of the panic its replay ends in.
type Replayed<T> = Result<Option<(u64, Arc<T>)>, String>;

/// Run `f`, turning a panic into its message: a panicking model or
/// recovery tool poisons only what it ran for.
pub(crate) fn caught<T>(f: impl FnOnce() -> T) -> Result<T, String> {
    std::panic::catch_unwind(std::panic::AssertUnwindSafe(f))
        .map_err(|p| pc_rt::pool::panic_message(p.as_ref()))
}

/// How the walks of one check ran (what they found is in the lists).
#[derive(Debug, Default, Clone, Copy)]
pub(crate) struct WalkStats {
    /// Distinct preserved sets over both layers: one state observed each.
    pub executed: usize,
    /// Preserved-set lookups a set already in the table answered.
    pub shared: usize,
    /// Calls dispatched, preambles included.
    pub dispatched: usize,
    /// Instances forked at trie branches.
    pub forks: usize,
}

/// The legal lists of one layer, by candidate-set index. A panicking
/// replay is stored as its message, so every state of the set reports it.
type Lists<T> = Vec<Result<LegalList<T>, String>>;

/// The legal lists of both layers of one check.
pub(crate) struct Golden {
    views: Lists<PfsView>,
    logicals: Lists<H5Logical>,
}

impl Golden {
    /// What a crash state with candidate sets `(pfs, h5)` is judged
    /// against (`h5` is `None` for programs that do not use the library).
    pub(crate) fn of(&self, pfs: usize, h5: Option<usize>) -> Result<LegalStates, String> {
        let views = self.views[pfs].clone()?;
        let logicals = h5.map_or_else(|| Ok(Arc::default()), |h5| self.logicals[h5].clone())?;
        Ok((views, logicals))
    }
}

/// The legal lists of both layers for the given candidate sets. With
/// `walk`, one golden walk per layer fills a table the lists are
/// assembled from; without, every preserved set of every candidate set
/// is replayed afresh on a `factory()` instance.
pub(crate) fn legal_lists(
    stack: &Stack,
    cfg: &CheckConfig,
    graph: &CausalityGraph,
    factory: &StackFactory,
    (pfs_sets, h5_sets): (&[Vec<EventId>], &[Vec<EventId>]),
    mut walk: Option<&mut WalkStats>,
) -> Golden {
    let views = layer_lists(
        pfs_sets,
        |candidates| {
            let committed = pfs_committed(graph, stack, candidates);
            (cfg.pfs_model).preserved_sets(graph, candidates, &committed)
        },
        |set| replay_pfs(factory, &stack.pre_calls, &stack.calls.subset(set)),
        || PfsGolden::new(factory),
        &stack.pre_calls,
        &stack.calls,
        walk.as_deref_mut(),
    );
    // The baseline model's golden comparison is dataset-granular rather
    // than whole-state, but its legal *full* states still come from the
    // causal sets (a weaker model only adds legal states — handled in
    // `h5_verdict`).
    let enum_model = match cfg.h5_model {
        Model::Baseline => Model::Causal,
        model => model,
    };
    let path = stack.h5_path.as_deref().unwrap_or_default();
    let logicals = layer_lists(
        h5_sets,
        |candidates| enum_model.preserved_sets(graph, candidates, &[]),
        |set| {
            let subset = stack.h5.subset(set);
            let (ranks, pre, spec) = (&stack.h5_ranks, &stack.pre_h5, stack.h5_spec);
            replay_h5(factory, path, ranks, pre, &subset, spec)
        },
        || H5Golden {
            pfs: factory(),
            replay: H5Replay::new(path, &stack.h5_ranks, stack.h5_spec),
        },
        &stack.pre_h5,
        &stack.h5,
        walk,
    );
    Golden { views, logicals }
}

/// One layer of [`legal_lists`]: `preserved` enumerates a candidate
/// set's preserved sets, `oracle` replays one set in full, `fresh`
/// builds the empty instance a walk starts from.
fn layer_lists<R: Replay>(
    candidate_sets: &[Vec<EventId>],
    preserved: impl Fn(&[EventId]) -> Vec<Vec<EventId>>,
    oracle: impl Fn(&[EventId]) -> Option<R::State>,
    fresh: impl FnOnce() -> R,
    pre: &[(R::Who, R::Op)],
    calls: &CallTrace<R::Who, R::Op>,
    walk: Option<&mut WalkStats>,
) -> Lists<R::State> {
    let preserved: Vec<Result<Vec<Vec<EventId>>, String>> = candidate_sets
        .iter()
        .map(|candidates| caught(|| preserved(candidates)))
        .collect();
    let lookups = || preserved.iter().flatten().flatten();
    let table = walk.map(|stats| {
        let mut sets: Vec<&[EventId]> = lookups().map(Vec::as_slice).collect();
        sets.sort_unstable();
        sets.dedup();
        stats.executed += sets.len();
        stats.shared += lookups().count() - sets.len();
        walk_sets(fresh, pre, calls, sets, stats)
    });
    let replayed = |set: &[EventId]| -> Replayed<R::State> {
        match &table {
            Some(table) => table[set].clone(),
            None => caught(|| oracle(set).map(|state| (R::digest(&state), Arc::new(state)))),
        }
    };
    let list = |sets: &Result<Vec<Vec<EventId>>, String>| {
        let (mut seen, mut list) = (BTreeSet::new(), Vec::new());
        for set in sets.as_ref().map_err(String::clone)? {
            if let Some((digest, state)) = replayed(set)? {
                if seen.insert(digest) {
                    list.push(state);
                }
            }
        }
        Ok(Arc::new(list))
    };
    preserved.iter().map(list).collect()
}

/// PFS-layer ops committed by an `fsync` call inside the candidate set.
fn pfs_committed(graph: &CausalityGraph, stack: &Stack, candidates: &[EventId]) -> Vec<EventId> {
    let mut out = Vec::new();
    for &(ev, _, ref call) in stack.calls.entries() {
        if !candidates.contains(&ev) {
            continue;
        }
        for &(fev, _, ref fcall) in stack.calls.entries() {
            if let PfsCall::Fsync { path } = fcall {
                if candidates.contains(&fev)
                    && path == call.primary_path()
                    && graph.happens_before(ev, fev)
                {
                    out.push(ev);
                    break;
                }
            }
        }
    }
    out
}

/// One layer's replay in progress: what a golden walk forks and steps.
trait Replay: Sized {
    /// Who issues a call at this layer (client process / rank).
    type Who: Copy;
    type Op: Clone;
    type State;
    /// An independent replay in the same state.
    fn fork(&self) -> Self;
    /// The cheap validity mirror, advanced even under a panicked edge;
    /// `false` = no sequence through this call is executable.
    fn admits(&mut self, _op: &Self::Op) -> bool {
        true
    }
    /// Dispatch one call; `false` = rejected, no legal state below.
    fn apply(&mut self, who: Self::Who, op: &Self::Op) -> bool;
    /// The state the calls so far denote, if it is a legal one.
    fn state(&self) -> Option<Self::State>;
    fn digest(state: &Self::State) -> u64;
}

/// [`replay_pfs`], resumable: the instance and `executable()`'s mirror.
struct PfsGolden {
    pfs: Box<dyn Pfs>,
    ns: Namespace,
}

impl PfsGolden {
    fn new(factory: &StackFactory) -> PfsGolden {
        PfsGolden {
            pfs: factory(),
            ns: Namespace::new(),
        }
    }
}

impl Replay for PfsGolden {
    type Who = Process;
    type Op = PfsCall;
    type State = PfsView;
    fn fork(&self) -> Self {
        PfsGolden {
            pfs: self.pfs.fork(),
            ns: self.ns.clone(),
        }
    }
    fn admits(&mut self, call: &PfsCall) -> bool {
        self.ns.admits(call)
    }
    fn apply(&mut self, client: Process, call: &PfsCall) -> bool {
        // A model may reject what the mirror admits (its own namespace
        // bookkeeping is stricter); that denotes no legal state either.
        let rec = &mut Recorder::new();
        self.pfs.dispatch(rec, client, call, None).is_ok()
    }
    fn state(&self) -> Option<PfsView> {
        Some(self.pfs.client_view(self.pfs.live()))
    }
    fn digest(view: &PfsView) -> u64 {
        view.digest()
    }
}

/// [`replay_h5`], resumable.
struct H5Golden {
    pfs: Box<dyn Pfs>,
    replay: H5Replay,
}

impl Replay for H5Golden {
    type Who = u32;
    type Op = H5Call;
    type State = H5Logical;
    fn fork(&self) -> Self {
        H5Golden {
            pfs: self.pfs.fork(),
            replay: self.replay.clone(),
        }
    }
    fn apply(&mut self, rank: u32, call: &H5Call) -> bool {
        self.replay.step(self.pfs.as_mut(), rank, call).is_ok()
    }
    fn state(&self) -> Option<H5Logical> {
        // A legal state is by definition a clean execution: one that
        // fails `h5check` is none.
        self.replay.finish(self.pfs.as_ref()).ok()
    }
    fn digest(logical: &H5Logical) -> u64 {
        logical.digest()
    }
}

/// A replay on its way down the trie, and the message of the edge that
/// panicked above it, if one did: from there on only the mirror moves.
struct Node<R> {
    replay: R,
    poison: Option<String>,
}

/// Dispatch one edge on `node`; `false` when nothing below it is legal.
fn step<R: Replay>(dispatched: &mut usize, node: &mut Node<R>, who: R::Who, op: &R::Op) -> bool {
    if !node.replay.admits(op) {
        return false;
    }
    if node.poison.is_none() {
        *dispatched += 1;
        match caught(|| node.replay.apply(who, op)) {
            Ok(alive) => return alive,
            Err(message) => node.poison = Some(message),
        }
    }
    true
}

/// One layer's golden walk: what each of `sets` (sorted, distinct; each
/// a subsequence of `calls`) denotes, replayed from the base `fresh()` +
/// `pre` down the sets' prefix tree.
fn walk_sets<'a, R: Replay>(
    fresh: impl FnOnce() -> R,
    pre: &[(R::Who, R::Op)],
    calls: &CallTrace<R::Who, R::Op>,
    sets: Vec<&'a [EventId]>,
    stats: &mut WalkStats,
) -> HashMap<&'a [EventId], Replayed<R::State>> {
    debug_assert!(sets.iter().all(|set| set.is_sorted()), "program order");
    // "No legal state" until the walk says otherwise.
    let mut out: Vec<Replayed<R::State>> = sets.iter().map(|_| Ok(None)).collect();
    if !sets.is_empty() {
        let _walk = pc_rt::obs::span_cat("check.legal_replay", "check");
        let mut base = Node {
            replay: fresh(),
            poison: None,
        };
        let dispatched = &mut stats.dispatched;
        if pre
            .iter()
            .all(|(who, op)| step(dispatched, &mut base, *who, op))
        {
            stats.forks += descend(
                &sets,
                base,
                |node| Node {
                    replay: node.replay.fork(),
                    poison: node.poison.clone(),
                },
                |node, id| {
                    let (who, op) = calls.get(id).expect("preserved sets name traced calls");
                    step(dispatched, node, who, op)
                },
                |node, at| {
                    out[at] = match &node.poison {
                        Some(message) => Err(message.clone()),
                        None => caught(|| {
                            let state = node.replay.state()?;
                            Some((R::digest(&state), Arc::new(state)))
                        }),
                    }
                },
            );
        }
    }
    sets.into_iter().zip(out).collect()
}

/// The PFS-layer golden walk alone: what each of `sets` (ascending call
/// event ids of `stack.calls`) denotes. `tests/properties.rs` holds it
/// to [`replay_pfs`] set by set.
#[doc(hidden)]
pub fn walk_pfs(
    stack: &Stack,
    factory: &StackFactory,
    sets: &[Vec<EventId>],
) -> Vec<Result<Option<PfsView>, String>> {
    let mut sorted: Vec<&[EventId]> = sets.iter().map(Vec::as_slice).collect();
    sorted.sort_unstable();
    sorted.dedup();
    let mut stats = WalkStats::default();
    let fresh = || PfsGolden::new(factory);
    let table = walk_sets(fresh, &stack.pre_calls, &stack.calls, sorted, &mut stats);
    let view = |replayed: &Replayed<PfsView>| {
        let replayed = replayed.as_ref().map_err(String::clone)?;
        Ok(replayed.as_ref().map(|(_, view)| PfsView::clone(view)))
    };
    sets.iter()
        .map(|set| view(&table[set.as_slice()]))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::check::{check_reference, check_stack};
    use pfs::ext4::Ext4Direct;
    use std::sync::atomic::{AtomicBool, Ordering::Relaxed};

    fn creat(path: &str) -> PfsCall {
        PfsCall::Creat { path: path.into() }
    }

    fn close(path: &str) -> PfsCall {
        PfsCall::Close { path: path.into() }
    }

    fn ext4_factory() -> StackFactory {
        Box::new(|| Box::new(Ext4Direct::paper_default()))
    }

    /// A sequential program's preserved sets are the prefixes of its
    /// calls — a trie of `n` edges and no branch: the walk dispatches the
    /// preamble and each call once, where `n + 1` full replays dispatch
    /// `(n + 1) · preamble + n(n + 1) / 2`.
    #[test]
    fn golden_walk_dispatches_each_edge_of_a_sequential_trace_once() {
        let (factory, cfg) = (ext4_factory(), CheckConfig::paper_default());
        for n in [4, 8, 16] {
            let mut stack = Stack::new(factory());
            for call in [creat("/old"), close("/old")] {
                stack.posix(0, call);
            }
            stack.seal_preamble();
            for i in 0..n {
                stack.posix(0, creat(&format!("/f{i}")));
            }
            let graph = CausalityGraph::build(&stack.rec);
            let ids = stack.calls.event_ids();
            let prefixes: Vec<Vec<EventId>> = (0..=n).map(|k| ids[..k].to_vec()).collect();
            let lists = |walk: Option<&mut WalkStats>| {
                let sets = (&prefixes[..], &[][..]);
                legal_lists(&stack, &cfg, &graph, &factory, sets, walk)
            };
            let mut stats = WalkStats::default();
            let walked = lists(Some(&mut stats));
            assert_eq!((stats.dispatched, stats.forks), (2 + n, 0), "n = {n}");
            assert_eq!(stats.executed, n + 1, "n = {n}");
            assert_eq!(stats.executed + stats.shared, (n + 1) * (n + 2) / 2);
            // The table the walk fills is the oracle's, list by list.
            let replayed = lists(None);
            for k in 0..=n {
                let (walked, replayed) = (walked.of(k, None), replayed.of(k, None));
                assert_eq!(walked.as_ref().unwrap().0.len(), k + 1);
                assert_eq!(walked, replayed, "n = {n}, prefix {k}");
            }
        }
    }

    /// A model whose `handle` first asks `fault` — which may panic or
    /// reject the call — once `armed`.
    #[derive(Clone)]
    struct Faulty {
        inner: Box<dyn Pfs>,
        fault: fn(&PfsCall) -> pfs::PfsResult<()>,
        armed: Arc<AtomicBool>,
    }

    impl Pfs for Faulty {
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
            client: Process,
            call: &PfsCall,
            cev: EventId,
        ) -> pfs::PfsResult<()> {
            if self.armed.load(Relaxed) {
                (self.fault)(call)?;
            }
            self.inner.handle(rec, client, call, cev)
        }
        fn recover(&self, states: &mut pfs::ServerStates) {
            self.inner.recover(states)
        }
        fn client_view(&self, states: &pfs::ServerStates) -> PfsView {
            self.inner.client_view(states)
        }
        fn restart_cost_secs(&self) -> f64 {
            self.inner.restart_cost_secs()
        }
    }

    /// `calls` traced on BeeGFS behind the double, which is then armed.
    fn faulty(
        fault: fn(&PfsCall) -> pfs::PfsResult<()>,
        calls: Vec<PfsCall>,
    ) -> (Stack, StackFactory) {
        let armed = Arc::new(AtomicBool::new(false));
        let flag = armed.clone();
        let factory: StackFactory = Box::new(move || {
            Box::new(Faulty {
                inner: Box::new(pfs::beegfs::BeeGfs::paper_default()),
                fault,
                armed: flag.clone(),
            })
        });
        let mut stack = Stack::new(factory());
        stack.seal_preamble();
        for call in calls {
            stack.posix(0, call);
        }
        armed.store(true, Relaxed);
        (stack, factory)
    }

    /// Run `f` with the panic hook silenced (one caller at a time: the
    /// hook is process-wide).
    fn quietly<T>(f: impl FnOnce() -> T) -> T {
        static HOOK: std::sync::Mutex<()> = std::sync::Mutex::new(());
        let _one = pc_rt::lock(&HOOK);
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        let out = f();
        std::panic::set_hook(prev);
        out
    }

    /// Every subsequence of a trace with a call that panics in the
    /// model, one the model rejects and calls whose prerequisites a
    /// subsequence may drop: the walk reports per set what a full replay
    /// of that set ends in — a view, no legal state, or the caught panic —
    /// also where the set is not executable *below* the panicking edge
    /// (`executable()` rejects it before any dispatch).
    #[test]
    fn golden_walk_of_a_faulty_trace_equals_full_replays_set_by_set() {
        let unlink = |path: &str| PfsCall::Unlink { path: path.into() };
        let fault = |call: &PfsCall| match call {
            PfsCall::Close { .. } => panic!("poisoned handle"),
            PfsCall::Unlink { path } => Err(pfs::PfsError::UnknownPath(path.clone())),
            _ => Ok(()),
        };
        let (stack, factory) = faulty(
            fault,
            vec![
                creat("/a"),
                close("/a"),
                creat("/b"),
                unlink("/b"),
                creat("/c"),
            ],
        );
        let ids = stack.calls.event_ids();
        let sets: Vec<Vec<EventId>> = (0..1u32 << ids.len())
            .map(|mask| {
                (0..ids.len())
                    .filter(|i| mask >> i & 1 == 1)
                    .map(|i| ids[i])
                    .collect()
            })
            .collect();
        let (walked, replayed) = quietly(|| {
            let replay = |set: &Vec<EventId>| {
                caught(|| replay_pfs(&factory, &stack.pre_calls, &stack.calls.subset(set)))
            };
            (
                walk_pfs(&stack, &factory, &sets),
                sets.iter().map(replay).collect::<Vec<_>>(),
            )
        });
        assert_eq!(walked, replayed);
        let count = |f: fn(&Result<Option<PfsView>, String>) -> bool| {
            walked.iter().filter(|r| f(r)).count()
        };
        // 18 of the 32 are executable: 6 run into the panicking close,
        // 4 more into the rejected unlink.
        assert_eq!(count(|r| r.is_err()), 6);
        assert_eq!(count(|r| matches!(r, Ok(None))), 14 + 4);
        assert_eq!(count(|r| matches!(r, Ok(Some(_)))), 8);
    }

    /// A panicking edge poisons the crash states whose legal lists name
    /// a set under it — the diagnostics `check_reference` produces from
    /// full replays — and the rest of the check completes.
    #[test]
    fn golden_panicking_model_yields_the_reference_diagnostics() {
        let fault = |call: &PfsCall| match call.primary_path() {
            "/last" => panic!("poisoned handle"),
            _ => Ok(()),
        };
        let (stack, factory) = faulty(
            fault,
            vec![
                creat("/tmp"),
                PfsCall::Pwrite {
                    path: "/tmp".into(),
                    offset: 0,
                    data: b"new".to_vec(),
                },
                close("/tmp"),
                creat("/last"),
            ],
        );
        let cfg = CheckConfig::paper_default();
        let (checked, reference) = quietly(|| {
            (
                check_stack(&stack, &factory, &cfg),
                check_reference(&stack, &factory, &cfg),
            )
        });
        assert_eq!(checked.canonical_report(), reference.canonical_report());
        let poisoned = checked.diagnostics.len();
        assert!(
            poisoned > 0 && poisoned < checked.stats.states_checked,
            "{checked:?}"
        );
        for line in &checked.diagnostics {
            assert!(
                line.ends_with("legal-state replay failed: poisoned handle"),
                "{line}"
            );
        }
    }
}
