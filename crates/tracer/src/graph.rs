//! The multi-layer causality graph (§4.2).
//!
//! Nodes are trace events; edges are (a) program order within each process
//! (single-threaded clients and servers, as in the paper), (b)
//! caller–callee links across layers, and (c) explicit sender–receiver /
//! synchronization edges. `happens_before` is reachability, computed once
//! as a transitive closure over bitsets: one row of `n` bits per event, so
//! a query is one bit test and a row is word-parallel set algebra. The
//! paper's test programs trace a few hundred events; the heavy HDF5 cells
//! and the 256-server stacks here run to a few thousand, where a row is
//! tens of words — which is why [`BitSet`]'s iteration and binary
//! operations work a word at a time, never a bit at a time.

use crate::event::{EventId, Recorder};

/// A fixed-capacity bitset used for reachability rows and for representing
/// crash states (sets of persisted operations).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct BitSet {
    words: Vec<u64>,
    len: usize,
}

impl BitSet {
    /// An empty set over a universe of `len` elements.
    pub fn new(len: usize) -> Self {
        BitSet {
            words: vec![0; len.div_ceil(64)],
            len,
        }
    }

    /// Universe size.
    pub fn capacity(&self) -> usize {
        self.len
    }

    /// Insert element `i`.
    pub fn insert(&mut self, i: usize) {
        debug_assert!(i < self.len);
        self.words[i / 64] |= 1 << (i % 64);
    }

    /// Remove element `i`.
    pub fn remove(&mut self, i: usize) {
        debug_assert!(i < self.len);
        self.words[i / 64] &= !(1 << (i % 64));
    }

    /// Membership test.
    pub fn contains(&self, i: usize) -> bool {
        i < self.len && self.words[i / 64] & (1 << (i % 64)) != 0
    }

    /// Union-assign.
    pub fn union_with(&mut self, other: &BitSet) {
        debug_assert_eq!(self.len, other.len);
        for (a, b) in self.words.iter_mut().zip(&other.words) {
            *a |= b;
        }
    }

    /// `self |= a & b`, over the words from element `from`'s on: the
    /// step of a closure that only ever grows upwards.
    pub fn union_with_intersection_from(&mut self, a: &BitSet, b: &BitSet, from: usize) {
        debug_assert_eq!(self.len, a.len);
        debug_assert_eq!(self.len, b.len);
        let w = (from / 64).min(self.words.len());
        for ((d, a), b) in self.words[w..]
            .iter_mut()
            .zip(&a.words[w..])
            .zip(&b.words[w..])
        {
            *d |= a & b;
        }
    }

    /// Difference-assign.
    pub fn subtract(&mut self, other: &BitSet) {
        debug_assert_eq!(self.len, other.len);
        for (a, b) in self.words.iter_mut().zip(&other.words) {
            *a &= !b;
        }
    }

    /// Intersection-assign.
    pub fn intersect_with(&mut self, other: &BitSet) {
        debug_assert_eq!(self.len, other.len);
        for (a, b) in self.words.iter_mut().zip(&other.words) {
            *a &= b;
        }
    }

    /// `true` if `self` and `other` share no element.
    pub fn is_disjoint(&self, other: &BitSet) -> bool {
        debug_assert_eq!(self.len, other.len);
        self.words.iter().zip(&other.words).all(|(a, b)| a & b == 0)
    }

    /// `true` if `self` and `other` share an element.
    pub fn intersects(&self, other: &BitSet) -> bool {
        !self.is_disjoint(other)
    }

    /// `true` if every element of `self` is in `other`.
    pub fn is_subset(&self, other: &BitSet) -> bool {
        debug_assert_eq!(self.len, other.len);
        self.words
            .iter()
            .zip(&other.words)
            .all(|(a, b)| a & !b == 0)
    }

    /// Number of elements.
    pub fn count(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Remove every element.
    pub fn clear(&mut self) {
        self.words.fill(0);
    }

    /// The smallest member greater than `i`, if any.
    pub fn next_after(&self, i: usize) -> Option<usize> {
        let start = i + 1;
        let mut w = start / 64;
        let mut word = *self.words.get(w)? & (!0u64 << (start % 64));
        while word == 0 {
            w += 1;
            word = *self.words.get(w)?;
        }
        Some(w * 64 + word.trailing_zeros() as usize)
    }

    /// Iterate over members in ascending order, a word at a time: empty
    /// words cost one test, a member one `trailing_zeros`.
    pub fn iter(&self) -> impl Iterator<Item = usize> + '_ {
        self.words.iter().enumerate().flat_map(|(w, &word)| {
            let mut rest = word;
            std::iter::from_fn(move || {
                (rest != 0).then(|| {
                    let bit = rest.trailing_zeros() as usize;
                    rest &= rest - 1;
                    w * 64 + bit
                })
            })
        })
    }

    /// Build from an iterator of members.
    pub fn from_iter(len: usize, items: impl IntoIterator<Item = usize>) -> Self {
        let mut s = BitSet::new(len);
        for i in items {
            s.insert(i);
        }
        s
    }
}

/// The causality graph over a recorded trace.
#[derive(Debug, Clone)]
pub struct CausalityGraph {
    n: usize,
    /// `reach[i]` = every event reachable from `i` (excluding `i`).
    reach: Vec<BitSet>,
}

impl CausalityGraph {
    /// Build the graph from a recorder: program order per process,
    /// caller–callee edges, and the recorder's explicit extra edges.
    pub fn build(rec: &Recorder) -> Self {
        let n = rec.len();
        // `succ[i]` = direct successors of event `i`.
        let mut succ: Vec<Vec<EventId>> = vec![Vec::new(); n];
        // Program order within each process.
        for (_, ids) in rec.per_process() {
            for w in ids.windows(2) {
                succ[w[0]].push(w[1]);
            }
        }
        // Caller–callee.
        for e in rec.events() {
            if let Some(p) = e.parent {
                succ[p].push(e.id);
            }
        }
        // Sender–receiver and synchronization edges.
        for &(from, to) in rec.extra_edges() {
            succ[from].push(to);
        }
        for s in &mut succ {
            s.sort_unstable();
            s.dedup();
        }
        // Transitive closure in reverse topological order. Events are
        // recorded chronologically and every edge goes forward in time, so
        // id order is already topological.
        let mut reach: Vec<BitSet> = (0..n).map(|_| BitSet::new(n)).collect();
        for i in (0..n).rev() {
            // Clone out to appease the borrow checker; rows are small.
            let mut row = BitSet::new(n);
            for &j in &succ[i] {
                debug_assert!(j > i, "causal edges must go forward in time");
                row.insert(j);
                row.union_with(&reach[j]);
            }
            reach[i] = row;
        }
        CausalityGraph { n, reach }
    }

    /// Number of events.
    pub fn len(&self) -> usize {
        self.n
    }

    /// `true` if the graph has no events.
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// The happens-before partial order: `true` iff `a` precedes `b`.
    pub fn happens_before(&self, a: EventId, b: EventId) -> bool {
        self.reach[a].contains(b)
    }

    /// Every event `a` happens before (excluding `a`): its closure row.
    pub fn reachable(&self, a: EventId) -> &BitSet {
        &self.reach[a]
    }

    /// `true` if neither happens before the other.
    pub fn concurrent(&self, a: EventId, b: EventId) -> bool {
        a != b && !self.happens_before(a, b) && !self.happens_before(b, a)
    }

    /// Check whether `set` is a *consistent cut* restricted to the given
    /// universe: no event outside `set` (within `universe`) happens before
    /// an event inside `set`.
    pub fn is_consistent_cut(&self, set: &BitSet, universe: &[EventId]) -> bool {
        for &inside in universe.iter().filter(|&&e| set.contains(e)) {
            for &outside in universe.iter().filter(|&&e| !set.contains(e)) {
                if self.happens_before(outside, inside) {
                    return false;
                }
            }
        }
        true
    }

    /// Enumerate every consistent cut (order ideal) of the partial order
    /// restricted to `universe`, as bitsets over event ids. This is step 2
    /// of Algorithm 1 ("all consistent cuts of the causality graph").
    ///
    /// Enumeration is by recursive extension in topological (id) order
    /// with memoized antichain frontiers; traces in this reproduction are
    /// small enough that the ideal lattice stays tractable, exactly as in
    /// the paper (hundreds to thousands of states).
    pub fn consistent_cuts(&self, universe: &[EventId]) -> Vec<BitSet> {
        let mut cuts = Vec::new();
        let mut current = BitSet::new(self.n);
        self.extend_cut(universe, 0, &mut current, &mut cuts);
        cuts
    }

    fn extend_cut(
        &self,
        universe: &[EventId],
        idx: usize,
        current: &mut BitSet,
        out: &mut Vec<BitSet>,
    ) {
        if idx == universe.len() {
            out.push(current.clone());
            return;
        }
        let e = universe[idx];
        // Option 1: exclude `e` — then every later event that causally
        // depends on `e` must also be excluded.
        // Option 2: include `e` — only legal if all its predecessors in
        // the universe are included (they are, because we scan in id order
        // and edges go forward).
        let preds_ok = universe[..idx]
            .iter()
            .all(|&p| !self.happens_before(p, e) || current.contains(p));
        if preds_ok {
            current.insert(e);
            self.extend_cut(universe, idx + 1, current, out);
            current.remove(e);
        }
        // Excluding is always allowed, but downstream events blocked by
        // `e` will be pruned by their own `preds_ok` check.
        self.extend_cut(universe, idx + 1, current, out);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{Layer, Payload, Process, Recorder};

    fn call(name: &str) -> Payload {
        Payload::Call {
            name: name.into(),
            args: vec![],
        }
    }

    /// Figure 5 of the paper: P0 does write(A); send; write(B).
    /// P1 does recv; write(C); fsync.
    fn figure5() -> (Recorder, [EventId; 6]) {
        let mut r = Recorder::new();
        let (p0, p1) = (Process::Client(0), Process::Client(1));
        let wa = r.record(Layer::App, p0, call("write_A"), None);
        let snd = r.record(
            Layer::App,
            p0,
            Payload::Send {
                to: p1,
                msg: "buf".into(),
            },
            None,
        );
        let wb = r.record(Layer::App, p0, call("write_B"), None);
        let rcv = r.record(
            Layer::App,
            p1,
            Payload::Recv {
                from: p0,
                msg: "buf".into(),
            },
            None,
        );
        let wc = r.record(Layer::App, p1, call("write_C"), None);
        let fs = r.record(Layer::App, p1, call("fsync"), None);
        r.add_edge(snd, rcv);
        (r, [wa, snd, wb, rcv, wc, fs])
    }

    #[test]
    fn program_order_and_message_edges() {
        let (r, [wa, snd, wb, _rcv, wc, fs]) = figure5();
        let g = CausalityGraph::build(&r);
        assert!(g.happens_before(wa, wb));
        assert!(g.happens_before(wa, wc)); // via send/recv
        assert!(g.happens_before(snd, fs));
        assert!(g.concurrent(wb, wc)); // no path either way
        assert!(!g.happens_before(wc, wa));
    }

    #[test]
    fn caller_callee_edges() {
        let mut r = Recorder::new();
        let top = r.record(Layer::IoLib, Process::Client(0), call("H5Dcreate"), None);
        let low = r.record(
            Layer::LocalFs,
            Process::Server(0),
            Payload::Fs {
                server: 0,
                op: simfs::FsOp::Creat { path: "/c".into() },
            },
            Some(top),
        );
        let g = CausalityGraph::build(&r);
        assert!(g.happens_before(top, low));
    }

    #[test]
    fn consistent_cuts_of_figure5() {
        let (r, ids) = figure5();
        let g = CausalityGraph::build(&r);
        let universe: Vec<_> = ids.to_vec();
        let cuts = g.consistent_cuts(&universe);
        // Every cut must be consistent; the empty and full cuts exist.
        assert!(cuts.iter().all(|c| g.is_consistent_cut(c, &universe)));
        assert!(cuts.iter().any(|c| c.count() == 0));
        assert!(cuts.iter().any(|c| c.count() == universe.len()));
        // A cut containing recv but not send is inconsistent and must not
        // be enumerated.
        assert!(!cuts
            .iter()
            .any(|c| c.contains(ids[3]) && !c.contains(ids[1])));
        // Two independent chains of 3: the ideal count of this particular
        // poset. Chains: wa->snd->wb, rcv->wc->fs with snd->rcv.
        // Count ideals by brute force for confidence.
        let mut brute = 0;
        for mask in 0u32..(1 << 6) {
            let set = BitSet::from_iter(r.len(), (0..6).filter(|i| mask >> i & 1 == 1));
            if g.is_consistent_cut(&set, &universe) {
                brute += 1;
            }
        }
        assert_eq!(cuts.len(), brute);
    }

    #[test]
    fn bitset_basics() {
        let mut a = BitSet::new(130);
        a.insert(0);
        a.insert(64);
        a.insert(129);
        assert_eq!(a.count(), 3);
        assert!(a.contains(64));
        a.remove(64);
        assert!(!a.contains(64));
        let b = BitSet::from_iter(130, [0, 129]);
        assert!(b.is_subset(&a));
        assert!(a.is_subset(&a));
        let mut c = BitSet::new(130);
        c.insert(5);
        assert!(c.is_disjoint(&a));
        c.union_with(&a);
        assert_eq!(c.count(), 3);
        c.subtract(&b);
        assert_eq!(c.iter().collect::<Vec<_>>(), vec![5]);
    }

    /// Mixed capacities used to `zip`-truncate silently: a longer set
    /// was a "subset" of a shorter one, a union dropped the tail.
    #[test]
    #[cfg(debug_assertions)]
    #[should_panic]
    fn binary_ops_reject_mixed_capacities() {
        let long = BitSet::from_iter(130, [129]);
        let _ = long.is_subset(&BitSet::new(64));
    }

    #[test]
    fn word_skipping_iteration_and_in_place_algebra() {
        let a = BitSet::from_iter(200, [0, 63, 64, 127, 128, 199]);
        assert_eq!(a.iter().collect::<Vec<_>>(), [0, 63, 64, 127, 128, 199]);
        assert_eq!(a.next_after(0), Some(63));
        assert_eq!(a.next_after(63), Some(64));
        assert_eq!(a.next_after(128), Some(199));
        assert_eq!(a.next_after(199), None);
        let b = BitSet::from_iter(200, [63, 64, 100, 199]);
        assert!(a.intersects(&b));
        let mut i = a.clone();
        i.intersect_with(&b);
        assert_eq!(i.iter().collect::<Vec<_>>(), [63, 64, 199]);
        // From element 70 on: word 1 upwards, word 0 untouched.
        let mut d = BitSet::new(200);
        d.union_with_intersection_from(&a, &b, 70);
        assert_eq!(d.iter().collect::<Vec<_>>(), [64, 199]);
        d.clear();
        assert_eq!(d.count(), 0);
    }

    #[test]
    fn empty_graph() {
        let g = CausalityGraph::build(&Recorder::new());
        assert!(g.is_empty());
        assert_eq!(g.consistent_cuts(&[]).len(), 1);
    }
}
