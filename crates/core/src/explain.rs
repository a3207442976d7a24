//! Bug provenance: minimal witnesses, causal-graph exports, and
//! self-contained explain reports.
//!
//! The checking pipeline ([`crate::check`]) ends with an aggregated list
//! of bugs, each carrying the *first* crash state that exposed it. That
//! witness state is rarely minimal: Algorithm 1's victim closures drop
//! every operation that persistence-depends on the victim, so the
//! witness typically contains ops whose loss is irrelevant to the
//! violation. This module runs *after* classification and, for every
//! reproduced bug, produces a [`BugExplanation`]:
//!
//! 1. **Minimal witness** — delta-debugging (ddmin) over the witness
//!    state's dropped-op set, re-running the golden-master comparison on
//!    each probe, until no single op can be removed while the state
//!    still fails. Probe states are materialized in per-round batches
//!    through the prefix-sharing snapshot engine
//!    ([`crate::snapshot::prepare_states`]), so sibling probes share
//!    their common persisted prefix (COW forks, not replays).
//! 2. **Causal graph** — the happens-before graph over the witness
//!    state's update universe, transitively reduced for readability,
//!    with per-node vector clocks ([`simnet::assign_clocks`]), edges
//!    tagged happens-before vs persists-before
//!    ([`crate::persist::PersistAnalysis`]), violated ordering edges and
//!    the crash frontier highlighted. Exported as DOT and JSON.
//! 3. **State diff** — the crashed state against the closest legal
//!    golden view (client level) and against the no-crash end state
//!    (server level), skipping servers whose COW digests already match.
//!
//! Everything here is presentation-plane: explanations never feed
//! [`crate::check::CheckOutcome::canonical_report`], and a panic during
//! explanation degrades to a warning, not a diagnostic — determinism
//! tests compare byte-identical reports with explain on and off.

use crate::check::{Inconsistency, LayerVerdict, Recovered};
use crate::classify::{extended_universe, BugSignature};
use crate::emulate::CrashState;
use crate::model::Model;
use crate::persist::PersistAnalysis;
use crate::report::{op_detail, OpSigs};
use crate::snapshot::prepare_states;
use crate::stack::Stack;
use pc_rt::json::Json;
use pfs::{PfsView, ServerStates};
use simfs::FsState;
use simnet::{ClusterTopology, VectorClock};
use std::collections::BTreeSet;
use std::fmt::Write as _;
use tracer::{BitSet, CausalityGraph, EventId, Process, Recorder};

/// One operation of a minimal witness.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ExplainOp {
    /// Trace event id.
    pub event: EventId,
    /// Full rendering (path, server) via [`crate::report::op_detail`].
    pub label: String,
    /// Aggregation signature via [`crate::report::op_sig`].
    pub sig: String,
    /// Vector-clock components of the event.
    pub clock: Vec<u64>,
}

/// Edge kind in the exported causal graph.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EdgeKind {
    /// Happens-before only (no persistence-order guarantee).
    HappensBefore,
    /// Happens-before *and* persists-before (Algorithm 2).
    PersistsBefore,
    /// A happens-before edge the crash state persisted out of order —
    /// the root cause of a reordering bug — or, for atomicity bugs, a
    /// torn atomic-group membership edge.
    Violated,
}

impl EdgeKind {
    /// Stable spelling for JSON export.
    pub fn as_str(&self) -> &'static str {
        match self {
            EdgeKind::HappensBefore => "happens-before",
            EdgeKind::PersistsBefore => "persists-before",
            EdgeKind::Violated => "violated",
        }
    }
}

/// A node of the exported causal graph: one lowermost update of the
/// witness state's probe universe.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GraphNode {
    /// Trace event id.
    pub event: EventId,
    /// Full rendering.
    pub label: String,
    /// Aggregation signature.
    pub sig: String,
    /// Vector-clock components.
    pub clock: Vec<u64>,
    /// Persisted in the minimal witness state.
    pub persisted: bool,
    /// Member of the minimal witness (dropped, and necessary).
    pub minimal: bool,
    /// On the crash frontier: persisted with no persisted
    /// happens-before successor.
    pub frontier: bool,
}

/// A directed edge of the exported causal graph.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GraphEdge {
    /// Source event.
    pub from: EventId,
    /// Target event.
    pub to: EventId,
    /// Edge kind.
    pub kind: EdgeKind,
}

/// Cost accounting for one witness-shrinking run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShrinkStats {
    /// Recovery-and-compare probes executed.
    pub probes: usize,
    /// ddmin rounds.
    pub rounds: usize,
    /// Dropped ops in the original witness state.
    pub original_ops: usize,
    /// Dropped ops in the minimal witness.
    pub minimal_ops: usize,
    /// Snapshot forks performed for probe materialization.
    pub forks: usize,
    /// Storage events replayed (shared prefixes replay once).
    pub ops_replayed: usize,
    /// `false` if the untorn re-probe of the original witness did not
    /// fail (e.g. the bug needed torn-write widening): the witness is
    /// then reported unshrunk.
    pub reproduced: bool,
}

/// Tree-structured diff of the crashed state against its references.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct StateDiff {
    /// Client-level diff of the recovered minimal-witness view against
    /// the *nearest* legal golden view (fewest differing entries).
    pub nearest_legal: Vec<String>,
    /// Servers in the cluster.
    pub servers_total: usize,
    /// Servers skipped wholesale because their COW digests matched the
    /// no-crash end state.
    pub servers_skipped: usize,
    /// Per-server tree diff (pre-recovery) against the no-crash end
    /// state, for the servers whose digests differed.
    pub tree: Vec<String>,
}

impl StateDiff {
    /// Total diff entries (the "diff size" of the pinpoint line).
    pub fn size(&self) -> usize {
        self.nearest_legal.len() + self.tree.len()
    }
}

/// The full provenance bundle for one aggregated bug.
#[derive(Debug, Clone)]
pub struct BugExplanation {
    /// Bug signature, as rendered in reports.
    pub signature: String,
    /// Responsible layer.
    pub layer: LayerVerdict,
    /// Weakest violated model.
    pub violated_model: Model,
    /// Crash states aggregated under this cause.
    pub occurrences: usize,
    /// Index of the witness crash state in the enumeration.
    pub state_index: usize,
    /// Minimal set of dropped ops that still reproduces the failure,
    /// sorted by event id.
    pub minimal_witness: Vec<ExplainOp>,
    /// The ordering (or atomic-group) edges the witness violates,
    /// signature-matching pairs first.
    pub violated_edges: Vec<GraphEdge>,
    /// Crash-frontier events (maximal persisted updates).
    pub frontier: Vec<EventId>,
    /// Causal-graph nodes (the witness state's probe universe).
    pub nodes: Vec<GraphNode>,
    /// Causal-graph edges (transitive reduction plus violated edges).
    pub edges: Vec<GraphEdge>,
    /// State diff against nearest-legal and no-crash references.
    pub diff: StateDiff,
    /// Shrinking cost accounting.
    pub shrink: ShrinkStats,
}

/// Everything `explain_bug` needs from the surrounding `check_stack`
/// run. Borrowed wholesale so the explain pass adds no clones to the
/// disabled path.
pub(crate) struct ExplainCtx<'a> {
    pub stack: &'a Stack,
    pub graph: &'a CausalityGraph,
    pub pa: &'a PersistAnalysis,
    pub topo: &'a ClusterTopology,
    pub sigs: &'a OpSigs,
    pub legal_views: &'a [std::sync::Arc<PfsView>],
    /// Recover and mount a materialized pre-recovery image through the
    /// check's recovery memo: an image some crash state or classifier
    /// probe already recovered is not recovered again.
    pub recover: &'a dyn Fn(&ServerStates) -> std::sync::Arc<Recovered>,
    /// The same consistency oracle the classifier probes with, inverted:
    /// `true` if a recovered view fails the golden-master comparison at
    /// the layer the run checks top-down.
    pub fails: &'a dyn Fn(&Recovered) -> bool,
}

/// Build the provenance bundle for one bug from its witness crash state.
pub(crate) fn explain_bug(
    ctx: &ExplainCtx,
    bug: &Inconsistency,
    state: &CrashState,
    state_index: usize,
) -> BugExplanation {
    let _span = pc_rt::obs::span_cat("explain.bug", "check");
    let rec = &ctx.stack.rec;
    let universe = extended_universe(rec, ctx.pa, state);
    // The original dropped set: every update of the probe universe the
    // witness state did not persist (victim closures + truncated calls).
    let d0: Vec<EventId> = ctx
        .pa
        .updates()
        .iter()
        .copied()
        .filter(|&u| universe.contains(u) && !state.persisted.contains(u))
        .collect();
    let (minimal, persisted_min, shrink) = shrink_witness(ctx, &universe, &d0);
    pc_rt::obs::count("explain.probes", shrink.probes as u64);
    pc_rt::obs::count("explain.minimal_ops", minimal.len() as u64);

    let clocks = trace_clocks(rec);
    let node_ids: Vec<EventId> = universe.iter().collect();
    let frontier: Vec<EventId> = node_ids
        .iter()
        .copied()
        .filter(|&p| persisted_min.contains(p))
        .filter(|&p| {
            !node_ids
                .iter()
                .any(|&q| q != p && persisted_min.contains(q) && ctx.graph.happens_before(p, q))
        })
        .collect();
    let violated = violated_edges(ctx, &minimal, &persisted_min, &bug.signature);
    let (nodes, edges) = build_graph(
        ctx,
        &node_ids,
        &persisted_min,
        &minimal,
        &frontier,
        &clocks,
        &violated,
    );
    let diff = state_diff(ctx, &universe, &persisted_min);
    let minimal_witness: Vec<ExplainOp> = minimal
        .iter()
        .map(|&e| ExplainOp {
            event: e,
            label: op_detail(rec, ctx.topo, e),
            sig: ctx.sigs.get(e).to_string(),
            clock: clocks[e].components().to_vec(),
        })
        .collect();
    BugExplanation {
        signature: bug.signature.to_string(),
        layer: bug.layer,
        violated_model: bug.violated_model,
        occurrences: bug.occurrences,
        state_index,
        minimal_witness,
        violated_edges: violated,
        frontier,
        nodes,
        edges,
        diff,
        shrink,
    }
}

/// ddmin (Zeller's delta debugging) over the dropped-op set: find a
/// 1-minimal subset whose loss still fails the golden comparison. Each
/// round's candidate sets are materialized as one batch so the
/// prefix-sharing engine can fork their common persisted prefix.
fn shrink_witness(
    ctx: &ExplainCtx,
    universe: &BitSet,
    d0: &[EventId],
) -> (Vec<EventId>, BitSet, ShrinkStats) {
    let rec = &ctx.stack.rec;
    let baseline = ctx.stack.pfs.baseline();
    let mut stats = ShrinkStats {
        probes: 0,
        rounds: 0,
        original_ops: d0.len(),
        minimal_ops: d0.len(),
        forks: 0,
        ops_replayed: 0,
        reproduced: false,
    };
    // Dropping a set of ops drops their persistence-dependency closures
    // too — the exact recipe Algorithm 1 used to build the state, so a
    // probe is always a *reachable* crash state, never a fabricated one.
    let persisted_for = |dropped: &[EventId]| -> BitSet {
        let mut p = universe.clone();
        for &d in dropped {
            p.subtract(&ctx.pa.depends_on(d, universe));
        }
        p
    };
    let probe_batch = |cands: &[Vec<EventId>], stats: &mut ShrinkStats| -> Vec<bool> {
        stats.probes += cands.len();
        let synth: Vec<CrashState> = cands
            .iter()
            .map(|c| {
                let persisted = persisted_for(c);
                CrashState {
                    cut: persisted.clone(),
                    victims: Vec::new(),
                    persisted,
                }
            })
            .collect();
        let plan = prepare_states(rec, baseline, &synth);
        stats.forks += plan.stats.forks;
        stats.ops_replayed += plan.stats.ops_replayed;
        plan.prepared
            .iter()
            .map(|image| (ctx.fails)(&(ctx.recover)(image)))
            .collect()
    };
    if d0.is_empty() {
        return (Vec::new(), persisted_for(&[]), stats);
    }
    // Untorn reproduction check: probes never widen with torn writes, so
    // a bug only reachable through tearing keeps its original witness.
    stats.reproduced = probe_batch(&[d0.to_vec()], &mut stats)[0];
    let mut current: Vec<EventId> = d0.to_vec();
    if stats.reproduced {
        let mut n = 2usize.min(current.len());
        while current.len() >= 2 && stats.rounds < 64 {
            stats.rounds += 1;
            let chunk_len = current.len().div_ceil(n);
            let subsets: Vec<Vec<EventId>> =
                current.chunks(chunk_len).map(|c| c.to_vec()).collect();
            let nn = subsets.len();
            let mut cands: Vec<(Vec<EventId>, bool)> =
                subsets.iter().cloned().map(|s| (s, true)).collect();
            if nn > 2 {
                for i in 0..nn {
                    let comp: Vec<EventId> = subsets
                        .iter()
                        .enumerate()
                        .filter(|&(j, _)| j != i)
                        .flat_map(|(_, s)| s.iter().copied())
                        .collect();
                    cands.push((comp, false));
                }
            }
            let probes: Vec<Vec<EventId>> = cands.iter().map(|(c, _)| c.clone()).collect();
            let results = probe_batch(&probes, &mut stats);
            if let Some(pos) = results.iter().position(|&f| f) {
                let (c, is_subset) = &cands[pos];
                current = c.clone();
                n = if *is_subset {
                    2
                } else {
                    n.saturating_sub(1).max(2)
                };
                n = n.min(current.len().max(1));
            } else if nn >= current.len() {
                break; // granularity 1 and nothing fails: 1-minimal
            } else {
                n = (n * 2).min(current.len());
            }
        }
    }
    current.sort_unstable();
    stats.minimal_ops = current.len();
    let persisted_min = persisted_for(&current);
    (current, persisted_min, stats)
}

/// Happens-before edges the minimal witness persisted out of order: a
/// dropped op `a` with a persisted happens-before successor `b` and no
/// persists-before guarantee between them. When no such edge exists the
/// bug is an atomicity violation; the violated "edges" are then the
/// dropped↔persisted pairs inside the signature's atomic group.
fn violated_edges(
    ctx: &ExplainCtx,
    minimal: &[EventId],
    persisted: &BitSet,
    signature: &BugSignature,
) -> Vec<GraphEdge> {
    let mut out: Vec<GraphEdge> = Vec::new();
    for &a in minimal {
        for b in persisted.iter() {
            if ctx.graph.happens_before(a, b) && !ctx.pa.persists_before(a, b) {
                out.push(GraphEdge {
                    from: a,
                    to: b,
                    kind: EdgeKind::Violated,
                });
            }
        }
    }
    if out.is_empty() {
        for &a in minimal {
            let sa = ctx.sigs.get(a);
            if !signature.members.iter().any(|m| m == sa) {
                continue;
            }
            for b in persisted.iter() {
                let sb = ctx.sigs.get(b);
                if signature.members.iter().any(|m| m == sb) && sb != sa {
                    out.push(GraphEdge {
                        from: a,
                        to: b,
                        kind: EdgeKind::Violated,
                    });
                }
            }
        }
    }
    // Deterministic order, edges matching the signature pair first.
    let matches_sig = |e: &GraphEdge| {
        let (sa, sb) = (ctx.sigs.get(e.from), ctx.sigs.get(e.to));
        let member = |i: usize| signature.members.get(i).map(String::as_str);
        !(member(0) == Some(sa) && member(1) == Some(sb))
    };
    out.sort_by_key(|e| (matches_sig(e), e.from, e.to));
    out.dedup();
    out
}

/// Vector clocks for every trace event: each event merges the clocks of
/// its causal predecessors (program order, caller links, message edges).
/// The same adapter the cross-check test drives.
fn trace_clocks(rec: &Recorder) -> Vec<VectorClock> {
    let mut procs: Vec<Process> = rec.events().iter().map(|e| e.proc).collect();
    procs.sort();
    procs.dedup();
    let pidx = |p: Process| procs.iter().position(|&q| q == p).unwrap();
    let mut incoming: Vec<Vec<usize>> = vec![Vec::new(); rec.len()];
    for &(from, to) in rec.extra_edges() {
        incoming[to].push(from);
    }
    let events: Vec<(usize, Vec<usize>)> = rec
        .events()
        .iter()
        .map(|e| {
            let mut preds: Vec<usize> = e.parent.into_iter().collect();
            preds.extend(&incoming[e.id]);
            (pidx(e.proc), preds)
        })
        .collect();
    simnet::assign_clocks(procs.len(), &events)
}

/// Nodes + transitively-reduced happens-before edges over the witness
/// universe, with the violated edges overlaid.
fn build_graph(
    ctx: &ExplainCtx,
    node_ids: &[EventId],
    persisted: &BitSet,
    minimal: &[EventId],
    frontier: &[EventId],
    clocks: &[VectorClock],
    violated: &[GraphEdge],
) -> (Vec<GraphNode>, Vec<GraphEdge>) {
    let rec = &ctx.stack.rec;
    let nodes: Vec<GraphNode> = node_ids
        .iter()
        .map(|&e| GraphNode {
            event: e,
            label: op_detail(rec, ctx.topo, e),
            sig: ctx.sigs.get(e).to_string(),
            clock: clocks[e].components().to_vec(),
            persisted: persisted.contains(e),
            minimal: minimal.contains(&e),
            frontier: frontier.contains(&e),
        })
        .collect();
    let mut edges: Vec<GraphEdge> = Vec::new();
    for &a in node_ids {
        for &b in node_ids {
            if a == b || !ctx.graph.happens_before(a, b) {
                continue;
            }
            // Transitive reduction: keep a→b only if no c lies between.
            let direct = !node_ids.iter().any(|&c| {
                c != a && c != b && ctx.graph.happens_before(a, c) && ctx.graph.happens_before(c, b)
            });
            if direct {
                let kind = if ctx.pa.persists_before(a, b) {
                    EdgeKind::PersistsBefore
                } else {
                    EdgeKind::HappensBefore
                };
                edges.push(GraphEdge {
                    from: a,
                    to: b,
                    kind,
                });
            }
        }
    }
    for v in violated {
        if let Some(e) = edges.iter_mut().find(|e| e.from == v.from && e.to == v.to) {
            e.kind = EdgeKind::Violated;
        } else {
            edges.push(*v);
        }
    }
    (nodes, edges)
}

/// Upper bound on state-diff lines kept per bundle (the tail is
/// summarized, never silently dropped).
const DIFF_CAP: usize = 64;

/// Diff the minimal witness state against (a) the nearest legal golden
/// view after recovery and (b) the no-crash end state before recovery,
/// skipping servers whose COW digests already match.
fn state_diff(ctx: &ExplainCtx, universe: &BitSet, persisted_min: &BitSet) -> StateDiff {
    let rec = &ctx.stack.rec;
    let baseline = ctx.stack.pfs.baseline();
    let mut crashed = baseline.fork();
    crashed.apply_events(rec, persisted_min.iter());
    let mut full = baseline.fork();
    full.apply_events(rec, universe.iter());
    let cd = crashed.per_server_digests();
    let fd = full.per_server_digests();
    let mut tree: Vec<String> = Vec::new();
    let mut skipped = 0usize;
    for (i, (c, f)) in cd.iter().zip(fd.iter()).enumerate() {
        if c == f {
            skipped += 1;
            continue;
        }
        let sid = i as u32;
        match (
            crashed.server(sid).try_as_fs(),
            full.server(sid).try_as_fs(),
        ) {
            (Some(a), Some(b)) => tree.extend(fs_tree_diff(sid, a, b)),
            _ => tree.push(format!("server {sid}: block store contents differ")),
        }
    }
    if tree.len() > DIFF_CAP {
        let extra = tree.len() - DIFF_CAP;
        tree.truncate(DIFF_CAP);
        tree.push(format!("... ({extra} more entries)"));
    }
    let recovered = (ctx.recover)(&crashed);
    let nearest_legal = ctx
        .legal_views
        .iter()
        .map(|lv| recovered.view.diff(lv))
        .min_by_key(|d| d.len())
        .unwrap_or_default();
    StateDiff {
        nearest_legal,
        servers_total: crashed.len(),
        servers_skipped: skipped,
        tree,
    }
}

/// Path-by-path diff of one server's local FS against the no-crash end
/// state (both trees walk sorted, so output order is deterministic).
fn fs_tree_diff(server: u32, crashed: &FsState, full: &FsState) -> Vec<String> {
    let a: BTreeSet<String> = crashed.walk().into_iter().collect();
    let b: BTreeSet<String> = full.walk().into_iter().collect();
    let mut out = Vec::new();
    for p in a.union(&b) {
        let (ina, inb) = (a.contains(p), b.contains(p));
        if ina && inb {
            let (da, db) = (crashed.is_dir(p), full.is_dir(p));
            if da || db {
                if da != db {
                    out.push(format!("server {server}: {p}: directory/file mismatch"));
                }
                continue;
            }
            let ca = crashed.read(p).ok();
            let cb = full.read(p).ok();
            if ca != cb {
                out.push(format!(
                    "server {server}: {p}: content differs ({} vs {} bytes)",
                    ca.map_or(0, <[u8]>::len),
                    cb.map_or(0, <[u8]>::len),
                ));
            }
        } else if ina {
            out.push(format!("server {server}: {p}: only in crash state"));
        } else {
            out.push(format!("server {server}: {p}: lost in crash"));
        }
    }
    out
}

/// Escape a string for a double-quoted DOT attribute.
fn dot_escape(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"")
}

impl BugExplanation {
    /// Signature of a graph node, for rendering (`e<id>` if unknown).
    fn sig_of(&self, e: EventId) -> String {
        self.nodes
            .iter()
            .find(|n| n.event == e)
            .map(|n| n.sig.clone())
            .unwrap_or_else(|| format!("e{e}"))
    }

    /// One-line summary for `PC_TRACE=summary`: minimal-witness size,
    /// the violated edge, and the diff size.
    pub fn pinpoint(&self) -> String {
        let cause = match self.violated_edges.first() {
            Some(e) => format!("violated {} -> {}", self.sig_of(e.from), self.sig_of(e.to)),
            None => "violated atomic group".to_string(),
        };
        format!(
            "{} [{:?}]: witness {}/{} ops, {}, diff {} entries",
            self.signature,
            self.layer,
            self.shrink.minimal_ops,
            self.shrink.original_ops,
            cause,
            self.diff.size(),
        )
    }

    /// Graphviz DOT rendering of the causal graph: minimal-witness
    /// nodes pink/bold, persisted nodes gray, frontier nodes doubled
    /// and blue, dropped nodes dashed; violated edges red.
    pub fn to_dot(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "digraph explain {{");
        let _ = writeln!(out, "  rankdir=LR;");
        let _ = writeln!(out, "  labelloc=\"t\";");
        let _ = writeln!(out, "  label=\"{}\";", dot_escape(&self.signature));
        let _ = writeln!(out, "  node [shape=box, fontname=\"Helvetica\"];");
        for n in &self.nodes {
            let clock = n
                .clock
                .iter()
                .map(u64::to_string)
                .collect::<Vec<_>>()
                .join(" ");
            let label = format!("e{}\\n{}\\n[{clock}]", n.event, dot_escape(&n.label));
            let style = if n.minimal {
                ", style=\"filled,bold\", fillcolor=\"#f4cccc\""
            } else if n.frontier {
                ", style=filled, fillcolor=\"#cfe2f3\", peripheries=2"
            } else if n.persisted {
                ", style=filled, fillcolor=\"#eeeeee\""
            } else {
                ", style=dashed, color=gray50"
            };
            let _ = writeln!(out, "  e{} [label=\"{label}\"{style}];", n.event);
        }
        for e in &self.edges {
            let attrs = match e.kind {
                EdgeKind::HappensBefore => " [color=gray50, style=dashed]",
                EdgeKind::PersistsBefore => " [color=black]",
                EdgeKind::Violated => " [color=red, penwidth=2.0, label=\"violated\"]",
            };
            let _ = writeln!(out, "  e{} -> e{}{attrs};", e.from, e.to);
        }
        let _ = writeln!(out, "}}");
        out
    }

    /// JSON rendering (via `pc_rt::json`) of the full bundle — the
    /// machine-readable counterpart of the Markdown report.
    pub fn to_json(&self) -> Json {
        let op_json = |o: &ExplainOp| {
            Json::Obj(vec![
                ("event".into(), Json::Int(o.event as u64)),
                ("label".into(), Json::Str(o.label.clone())),
                ("sig".into(), Json::Str(o.sig.clone())),
                (
                    "clock".into(),
                    Json::Arr(o.clock.iter().map(|&c| Json::Int(c)).collect()),
                ),
            ])
        };
        let edge_json = |e: &GraphEdge| {
            Json::Obj(vec![
                ("from".into(), Json::Int(e.from as u64)),
                ("to".into(), Json::Int(e.to as u64)),
                ("kind".into(), Json::Str(e.kind.as_str().into())),
            ])
        };
        let node_json = |n: &GraphNode| {
            Json::Obj(vec![
                ("event".into(), Json::Int(n.event as u64)),
                ("label".into(), Json::Str(n.label.clone())),
                ("sig".into(), Json::Str(n.sig.clone())),
                (
                    "clock".into(),
                    Json::Arr(n.clock.iter().map(|&c| Json::Int(c)).collect()),
                ),
                ("persisted".into(), Json::Bool(n.persisted)),
                ("minimal".into(), Json::Bool(n.minimal)),
                ("frontier".into(), Json::Bool(n.frontier)),
            ])
        };
        let strings = |v: &[String]| Json::Arr(v.iter().map(|s| Json::Str(s.clone())).collect());
        Json::Obj(vec![
            ("signature".into(), Json::Str(self.signature.clone())),
            ("layer".into(), Json::Str(format!("{:?}", self.layer))),
            (
                "violated_model".into(),
                Json::Str(self.violated_model.as_str().into()),
            ),
            ("occurrences".into(), Json::Int(self.occurrences as u64)),
            ("state_index".into(), Json::Int(self.state_index as u64)),
            (
                "minimal_witness".into(),
                Json::Arr(self.minimal_witness.iter().map(op_json).collect()),
            ),
            (
                "violated_edges".into(),
                Json::Arr(self.violated_edges.iter().map(edge_json).collect()),
            ),
            (
                "frontier".into(),
                Json::Arr(self.frontier.iter().map(|&e| Json::Int(e as u64)).collect()),
            ),
            (
                "nodes".into(),
                Json::Arr(self.nodes.iter().map(node_json).collect()),
            ),
            (
                "edges".into(),
                Json::Arr(self.edges.iter().map(edge_json).collect()),
            ),
            (
                "diff".into(),
                Json::Obj(vec![
                    ("nearest_legal".into(), strings(&self.diff.nearest_legal)),
                    (
                        "servers_total".into(),
                        Json::Int(self.diff.servers_total as u64),
                    ),
                    (
                        "servers_skipped".into(),
                        Json::Int(self.diff.servers_skipped as u64),
                    ),
                    ("tree".into(), strings(&self.diff.tree)),
                ]),
            ),
            (
                "shrink".into(),
                Json::Obj(vec![
                    ("probes".into(), Json::Int(self.shrink.probes as u64)),
                    ("rounds".into(), Json::Int(self.shrink.rounds as u64)),
                    (
                        "original_ops".into(),
                        Json::Int(self.shrink.original_ops as u64),
                    ),
                    (
                        "minimal_ops".into(),
                        Json::Int(self.shrink.minimal_ops as u64),
                    ),
                    ("forks".into(), Json::Int(self.shrink.forks as u64)),
                    (
                        "ops_replayed".into(),
                        Json::Int(self.shrink.ops_replayed as u64),
                    ),
                    ("reproduced".into(), Json::Bool(self.shrink.reproduced)),
                ]),
            ),
        ])
    }

    /// Self-contained Markdown report. `context` names the run (e.g.
    /// `"ARVR on BeeGFS"`); the `.dot`/`.json` siblings carry the graph.
    pub fn to_markdown(&self, context: &str) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "# Bug: `{}`\n", self.signature);
        let _ = writeln!(out, "Context: {context}\n");
        let _ = writeln!(out, "- **Layer:** {:?}", self.layer);
        let _ = writeln!(
            out,
            "- **Violated model:** {}",
            self.violated_model.as_str()
        );
        let _ = writeln!(out, "- **Occurrences:** {} crash states", self.occurrences);
        let _ = writeln!(out, "- **Witness crash state:** #{}", self.state_index);
        let _ = writeln!(
            out,
            "- **Minimal witness:** {} of {} dropped ops ({} rounds, {} probes{})\n",
            self.shrink.minimal_ops,
            self.shrink.original_ops,
            self.shrink.rounds,
            self.shrink.probes,
            if self.shrink.reproduced {
                ""
            } else {
                "; NOT reproduced untorn — witness unshrunk"
            },
        );
        let _ = writeln!(out, "## Minimal witness\n");
        let _ = writeln!(out, "| event | operation | vector clock |");
        let _ = writeln!(out, "|---|---|---|");
        for o in &self.minimal_witness {
            let clock = o
                .clock
                .iter()
                .map(u64::to_string)
                .collect::<Vec<_>>()
                .join(" ");
            let _ = writeln!(out, "| e{} | `{}` | [{clock}] |", o.event, o.label);
        }
        let _ = writeln!(out, "\n## Violated ordering\n");
        if self.violated_edges.is_empty() {
            let _ = writeln!(
                out,
                "No single ordering edge: the signature's atomic group was \
                 persisted partially.",
            );
        } else {
            for e in &self.violated_edges {
                let _ = writeln!(
                    out,
                    "- `{}` must persist before `{}` (e{} -> e{}), but the \
                     crash state kept the latter without the former.",
                    self.sig_of(e.from),
                    self.sig_of(e.to),
                    e.from,
                    e.to,
                );
            }
        }
        let _ = writeln!(out, "\n## Crash frontier\n");
        for &f in &self.frontier {
            let label = self
                .nodes
                .iter()
                .find(|n| n.event == f)
                .map(|n| n.label.clone())
                .unwrap_or_default();
            let _ = writeln!(out, "- e{f} `{label}`");
        }
        let _ = writeln!(out, "\n## State diff\n");
        let _ = writeln!(
            out,
            "Recovered witness view vs nearest legal golden view ({} entries):\n",
            self.diff.nearest_legal.len(),
        );
        for d in &self.diff.nearest_legal {
            let _ = writeln!(out, "- {d}");
        }
        let _ = writeln!(
            out,
            "\nPre-recovery server trees vs the no-crash end state \
             ({} of {} servers digest-identical, skipped):\n",
            self.diff.servers_skipped, self.diff.servers_total,
        );
        for d in &self.diff.tree {
            let _ = writeln!(out, "- {d}");
        }
        let _ = writeln!(out, "\n## Causal graph\n");
        let _ = writeln!(
            out,
            "{} nodes, {} edges ({} violated) — see the adjacent `.dot` \
             (Graphviz) and `.json` files; red edges are ordering \
             requirements the crash state broke.",
            self.nodes.len(),
            self.edges.len(),
            self.violated_edges.len(),
        );
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> BugExplanation {
        BugExplanation {
            signature: "append(file chunk)@storage -> rename(d_entry)@metadata".into(),
            layer: LayerVerdict::PfsBug,
            violated_model: Model::Causal,
            occurrences: 3,
            state_index: 7,
            minimal_witness: vec![ExplainOp {
                event: 4,
                label: "append(/chunks/f0.0)@storage#2".into(),
                sig: "append(file chunk)@storage".into(),
                clock: vec![1, 0, 2],
            }],
            violated_edges: vec![GraphEdge {
                from: 4,
                to: 9,
                kind: EdgeKind::Violated,
            }],
            frontier: vec![9],
            nodes: vec![
                GraphNode {
                    event: 4,
                    label: "append(/chunks/f0.0)@storage#2".into(),
                    sig: "append(file chunk)@storage".into(),
                    clock: vec![1, 0, 2],
                    persisted: false,
                    minimal: true,
                    frontier: false,
                },
                GraphNode {
                    event: 9,
                    label: "rename(/dentries/root/tmp -> /dentries/root/file)@metadata#0".into(),
                    sig: "rename(d_entry)@metadata".into(),
                    clock: vec![2, 1, 2],
                    persisted: true,
                    minimal: false,
                    frontier: true,
                },
            ],
            edges: vec![GraphEdge {
                from: 4,
                to: 9,
                kind: EdgeKind::Violated,
            }],
            diff: StateDiff {
                nearest_legal: vec!["file /file content differs".into()],
                servers_total: 4,
                servers_skipped: 3,
                tree: vec!["server 2: /chunks/f0.0: lost in crash".into()],
            },
            shrink: ShrinkStats {
                probes: 6,
                rounds: 2,
                original_ops: 3,
                minimal_ops: 1,
                forks: 6,
                ops_replayed: 12,
                reproduced: true,
            },
        }
    }

    #[test]
    fn dot_is_balanced_and_declares_nodes() {
        let dot = sample().to_dot();
        assert_eq!(dot.matches('{').count(), dot.matches('}').count(), "{dot}");
        assert!(dot.contains("e4 ["));
        assert!(dot.contains("e9 ["));
        assert!(dot.contains("e4 -> e9"));
        assert!(dot.contains("color=red"));
        assert!(dot.contains("fillcolor=\"#f4cccc\"")); // minimal
        assert!(dot.contains("peripheries=2")); // frontier
    }

    #[test]
    fn dot_escapes_quotes() {
        assert_eq!(dot_escape(r#"a "b" \c"#), r#"a \"b\" \\c"#);
    }

    #[test]
    fn json_round_trips_through_parser() {
        let e = sample();
        let text = e.to_json().pretty();
        let parsed = Json::parse(&text).expect("self-produced JSON parses");
        assert_eq!(
            parsed.get("signature").and_then(Json::as_str),
            Some(e.signature.as_str())
        );
        assert_eq!(
            parsed
                .get("shrink")
                .and_then(|s| s.get("minimal_ops"))
                .and_then(Json::as_int),
            Some(1)
        );
        assert_eq!(
            parsed
                .get("nodes")
                .and_then(Json::as_arr)
                .map(<[Json]>::len),
            Some(2)
        );
    }

    #[test]
    fn pinpoint_names_the_edge_and_sizes() {
        let p = sample().pinpoint();
        assert!(p.contains("witness 1/3 ops"), "{p}");
        assert!(
            p.contains("violated append(file chunk)@storage -> rename(d_entry)@metadata"),
            "{p}"
        );
        assert!(p.contains("diff 2 entries"), "{p}");
    }

    #[test]
    fn markdown_is_self_contained() {
        let md = sample().to_markdown("ARVR on BeeGFS");
        assert!(md.starts_with("# Bug:"));
        assert!(md.contains("Context: ARVR on BeeGFS"));
        assert!(md.contains("## Minimal witness"));
        assert!(md.contains("## Violated ordering"));
        assert!(md.contains("## Crash frontier"));
        assert!(md.contains("## State diff"));
        assert!(md.contains("3 of 4 servers digest-identical"));
    }
}
