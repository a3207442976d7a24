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
//!   order). Every trie edge is dispatched once into a throw-away
//!   `Recorder`, and the instance is forked
//!   ([`pfs::Pfs::fork`](pfs::Fork::fork): copy-on-write stores) only
//!   where the trie branches, the last child taking the instance itself.
//!   Both walks start from the paper's pre-test snapshot, which the
//!   traced stack sealed after its preamble: the PFS walk from a fork of
//!   that instance ([`Stack::sealed`]), the library walk from another
//!   fork and the library replay sealed next to it ([`Stack::sealed_h5`]).
//!   Neither builds an instance or dispatches a preamble call; the PFS
//!   walk only mirrors its preamble into `executable()`'s namespace. The
//!   namespace mirror travels down the walk with the instance. An edge
//!   that fails marks its whole subtree "no legal state"; an edge that
//!   panics marks it with the caught message — what a full replay of each
//!   set under it would have hit at the same call. One
//!   `check.legal_replay` span per layer walk.
//! * **`check_reference`: no table.** Every preserved set goes through
//!   [`replay_pfs`] / [`replay_h5`] — a fresh instance and the whole
//!   preamble per set. It is the oracle `tests/differential.rs` holds the
//!   walk to.
//!
//! Either way a list is assembled from its sets in the model's order,
//! deduplicated by state digest.

use crate::config::CheckConfig;
use crate::model::Model;
use crate::stack::{replay_h5, replay_pfs, Namespace, Stack, StackFactory};
use h5sim::{DigestMemo, H5Call, H5Logical, H5Replay};
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
    /// Calls dispatched: trie edges (both walks start past the
    /// preamble).
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
    pub(crate) fn of(&self, (pfs, h5): (usize, Option<usize>)) -> Result<LegalStates, String> {
        let views = self.views[pfs].clone()?;
        let logicals = h5.map_or_else(|| Ok(Arc::default()), |h5| self.logicals[h5].clone())?;
        Ok((views, logicals))
    }
}

/// How [`legal_lists`] gets the state a preserved set denotes.
pub(crate) enum Regime<'a> {
    /// One golden walk per layer from the sealed pre-test snapshot,
    /// counted into the stats.
    Walk(&'a mut WalkStats),
    /// Every preserved set replayed afresh on an instance the factory
    /// builds.
    Replay(&'a StackFactory),
}

/// The legal lists of both layers for the given candidate sets, the
/// library states taking their dataset digests through `datasets`.
pub(crate) fn legal_lists(
    stack: &Stack,
    cfg: &CheckConfig,
    graph: &CausalityGraph,
    (pfs_sets, h5_sets): (&[Vec<EventId>], &[Vec<EventId>]),
    mut regime: Regime,
    datasets: Option<&DigestMemo>,
) -> Golden {
    let views = layer_lists(
        pfs_sets,
        |candidates| {
            let committed = pfs_committed(graph, stack, candidates);
            (cfg.pfs_model).preserved_sets(graph, candidates, &committed)
        },
        &mut regime,
        || PfsGolden::sealed(stack),
        |factory, set| replay_pfs(factory, &stack.pre_calls, &stack.calls.subset(set)),
        &stack.calls,
    );
    // The baseline model's golden comparison is dataset-granular rather
    // than whole-state, but its legal *full* states still come from the
    // causal sets (a weaker model only adds legal states — handled in
    // `h5_verdict`).
    let enum_model = match cfg.h5_model {
        Model::Baseline => Model::Causal,
        model => model,
    };
    let logicals = layer_lists(
        h5_sets,
        |candidates| enum_model.preserved_sets(graph, candidates, &[]),
        &mut regime,
        || {
            Some(H5Golden {
                pfs: stack.sealed.fork(),
                replay: stack.sealed_h5(),
                datasets,
            })
        },
        |factory, set| {
            let path = stack.h5_path.as_deref().unwrap_or_default();
            let (ranks, pre, spec) = (&stack.h5_ranks, &stack.pre_h5, stack.h5_spec);
            replay_h5(factory, path, ranks, pre, &stack.h5.subset(set), spec)
        },
        &stack.h5,
    );
    Golden { views, logicals }
}

/// One layer of [`legal_lists`]: `preserved` enumerates a candidate
/// set's preserved sets; each distinct one is walked down from `base`,
/// the replay past the preamble (see [`walk_sets`]), or replayed in full
/// by `oracle`.
fn layer_lists<R: Replay>(
    candidate_sets: &[Vec<EventId>],
    preserved: impl Fn(&[EventId]) -> Vec<Vec<EventId>>,
    regime: &mut Regime,
    base: impl FnOnce() -> Option<R>,
    oracle: impl Fn(&StackFactory, &[EventId]) -> Option<R::State>,
    calls: &CallTrace<R::Who, R::Op>,
) -> Lists<R::State> {
    let preserved: Vec<Result<Vec<Vec<EventId>>, String>> = candidate_sets
        .iter()
        .map(|candidates| caught(|| preserved(candidates)))
        .collect();
    let lookups = || preserved.iter().flatten().flatten();
    let mut sets: Vec<&[EventId]> = lookups().map(Vec::as_slice).collect();
    sets.sort_unstable();
    sets.dedup();
    let table = match regime {
        Regime::Walk(stats) => {
            stats.executed += sets.len();
            stats.shared += lookups().count() - sets.len();
            walk_sets(base, calls, sets, stats)
        }
        Regime::Replay(factory) => (sets.into_iter())
            .map(|set| {
                let state = caught(|| oracle(factory, set));
                (set, state.map(|s| s.map(|s| (R::digest(&s), Arc::new(s)))))
            })
            .collect(),
    };
    let list = |sets: &Result<Vec<Vec<EventId>>, String>| {
        let (mut seen, mut list) = (BTreeSet::new(), Vec::new());
        for set in sets.as_ref().map_err(String::clone)? {
            if let Some((digest, state)) = table[set.as_slice()].clone()? {
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
    /// Past the preamble: a fork of the instance `stack` sealed, with the
    /// preamble mirrored into the namespace. `None` when the mirror
    /// rejects the preamble, as `executable()` would every set.
    fn sealed(stack: &Stack) -> Option<PfsGolden> {
        let mut ns = Namespace::new();
        let admitted = stack.pre_calls.iter().all(|(_, call)| ns.admits(call));
        admitted.then(|| PfsGolden {
            pfs: stack.sealed.fork(),
            ns,
        })
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
struct H5Golden<'m> {
    pfs: Box<dyn Pfs>,
    replay: H5Replay,
    datasets: Option<&'m DigestMemo>,
}

impl Replay for H5Golden<'_> {
    type Who = u32;
    type Op = H5Call;
    type State = H5Logical;
    fn fork(&self) -> Self {
        H5Golden {
            pfs: self.pfs.fork(),
            replay: self.replay.clone(),
            datasets: self.datasets,
        }
    }
    fn apply(&mut self, rank: u32, call: &H5Call) -> bool {
        self.replay.step(self.pfs.as_mut(), rank, call).is_ok()
    }
    fn state(&self) -> Option<H5Logical> {
        // A legal state is by definition a clean execution: one that
        // fails `h5check` is none.
        self.replay.finish(self.pfs.as_ref(), self.datasets).ok()
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

/// Depth-first descent of the prefix tree of `seqs` — sorted, so the
/// sequences below a tree node are one contiguous range led by those
/// that end at it. One instance is threaded down each chain from
/// `root`: `step` applies an edge's key to it (`false` = nothing below
/// this edge is wanted), `leaf` sees it once per sequence that ends at
/// the node (by index into `seqs`), and it is `fork`ed only where the
/// tree branches, the last child taking the instance itself. Returns the
/// forks taken.
fn descend<K: Copy + PartialEq, N>(
    seqs: &[&[K]],
    root: N,
    fork: impl Fn(&N) -> N,
    mut step: impl FnMut(&mut N, K) -> bool,
    mut leaf: impl FnMut(&N, usize),
) -> usize {
    let mut forks = 0;
    // `(node, depth, lo, hi)`: `seqs[lo..hi]` share their first `depth`
    // keys and `node` has stepped through them.
    let mut stack = vec![(root, 0, 0, seqs.len())];
    while let Some((node, depth, mut lo, hi)) = stack.pop() {
        while lo < hi && seqs[lo].len() == depth {
            leaf(&node, lo);
            lo += 1;
        }
        let mut node = Some(node);
        while lo < hi {
            let key = seqs[lo][depth];
            let end = lo + seqs[lo..hi].partition_point(|seq| seq[depth] == key);
            let mut child = if end == hi {
                node.take().expect("taken by the last child only")
            } else {
                forks += 1;
                fork(node.as_ref().expect("taken by the last child only"))
            };
            if step(&mut child, key) {
                stack.push((child, depth + 1, lo, end));
            }
            lo = end;
        }
    }
    forks
}

/// One layer's golden walk: what each of `sets` (sorted, distinct; each
/// a subsequence of `calls`) denotes, replayed down the sets' prefix tree
/// from `base`, the replay past the preamble (`None`: no legal state
/// follows it).
fn walk_sets<'a, R: Replay>(
    base: impl FnOnce() -> Option<R>,
    calls: &CallTrace<R::Who, R::Op>,
    sets: Vec<&'a [EventId]>,
    stats: &mut WalkStats,
) -> HashMap<&'a [EventId], Replayed<R::State>> {
    debug_assert!(sets.iter().all(|set| set.is_sorted()), "program order");
    // "No legal state" until the walk says otherwise.
    let mut out: Vec<Replayed<R::State>> = sets.iter().map(|_| Ok(None)).collect();
    if !sets.is_empty() {
        let _walk = pc_rt::obs::span_cat("check.legal_replay", "check");
        let dispatched = &mut stats.dispatched;
        if let Some(base) = base() {
            let base = Node {
                replay: base,
                poison: None,
            };
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
pub fn walk_pfs(stack: &Stack, sets: &[Vec<EventId>]) -> Vec<Result<Option<PfsView>, String>> {
    let mut sorted: Vec<&[EventId]> = sets.iter().map(Vec::as_slice).collect();
    sorted.sort_unstable();
    sorted.dedup();
    let mut stats = WalkStats::default();
    let table = walk_sets(
        || PfsGolden::sealed(stack),
        &stack.calls,
        sorted,
        &mut stats,
    );
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

    /// A sequential program's preserved sets are the prefixes of its
    /// calls — a trie of `n` edges and no branch: the walk forks the
    /// sealed instance and dispatches each call once and no preamble,
    /// where `n + 1` full replays dispatch `(n + 1) · preamble + n(n + 1) / 2`.
    #[test]
    fn golden_walk_dispatches_each_edge_of_a_sequential_trace_once() {
        let factory: StackFactory = Box::new(|| Box::new(Ext4Direct::paper_default()));
        let cfg = CheckConfig::paper_default();
        for n in [4, 8, 16] {
            let mut stack = Stack::new(Box::new(Ext4Direct::paper_default()));
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
            let lists = |regime| {
                let sets = (&prefixes[..], &[][..]);
                legal_lists(&stack, &cfg, &graph, sets, regime, None)
            };
            let replayed = lists(Regime::Replay(&factory));
            let mut stats = WalkStats::default();
            let walked = lists(Regime::Walk(&mut stats));
            assert_eq!((stats.dispatched, stats.forks), (n, 0), "n = {n}");
            assert_eq!(stats.executed, n + 1, "n = {n}");
            assert_eq!(stats.executed + stats.shared, (n + 1) * (n + 2) / 2);
            // The table the walk fills is the oracle's, list by list.
            for k in 0..=n {
                let (walked, replayed) = (walked.of((k, None)), replayed.of((k, None)));
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
        let double = Faulty {
            inner: Box::new(pfs::beegfs::BeeGfs::paper_default()),
            fault,
            armed: armed.clone(),
        };
        let mut stack = Stack::new(Box::new(double.clone()));
        let factory: StackFactory = Box::new(move || Box::new(double.clone()));
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
                walk_pfs(&stack, &sets),
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
