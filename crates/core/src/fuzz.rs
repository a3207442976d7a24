//! Bounded black-box workload fuzzing (the B3 recipe, applied to the
//! cross-layer stack).
//!
//! The paper's evaluation replays eleven fixed test programs; every
//! REPRODUCED verdict is therefore a *re-confirmation*. This module
//! turns the checker into a *discovery* engine, following "Finding
//! Crash-Consistency Bugs with Bounded Black-Box Crash Testing" (B3,
//! OSDI '18): systematically enumerate **every** operation sequence up
//! to a small length bound over a **bounded vocabulary** (few files,
//! few directories, canned write arguments), run each sequence through
//! the full crash-consistency check, and deduplicate what comes back.
//!
//! Three pieces live here, all workload-agnostic (the concrete POSIX /
//! HDF5 / MPI-IO vocabularies are `workloads::generated`, which this
//! crate cannot see — `workloads` depends on `paracrash`, not the other
//! way around):
//!
//! * [`bounded_sequences`] — exhaustive, duplicate-free enumeration of
//!   the sequences of length `1..=bound` over a vocabulary, with
//!   prefix-validity pruning (an inexecutable prefix prunes its whole
//!   subtree). Enumeration order is the vocabulary order, radix style,
//!   so the corpus is deterministic by construction — no RNG involved.
//! * [`sample_indices`] — the seeded sampling mode: a deterministic
//!   `k`-subset of a corpus for bounds whose exhaustive sweep is too
//!   large for a CI tier (the nightly crash gate samples seq-3).
//! * [`FuzzCorpus`] — the dedup-and-triage accumulator: every checked
//!   `(workload, stack)` cell is folded in, findings are deduplicated
//!   by **canonical signature key** (the Pathfinder observation:
//!   many workloads collapse into few crash-state equivalence classes),
//!   and [`FuzzCorpus::canonical_report`] renders the whole campaign as
//!   a byte-stable string — the artifact the CI crash gate diffs across
//!   thread counts and pins across PRs.
//!
//! Determinism contract: same vocabulary, bound and seed ⇒ byte-
//! identical corpus and findings, sequential ≡ parallel. This holds
//! because enumeration is RNG-free, sampling draws from a fixed-seed
//! [`pc_rt::rng::Rng`], and the per-cell verdicts come from
//! [`check_stack`](crate::check_stack), whose `canonical_report` is
//! already `PC_THREADS`-invariant.

use crate::check::{CheckOutcome, LayerVerdict};
use pc_rt::hash::fnv1a;
use std::collections::{BTreeMap, BTreeSet};
use std::fmt::Write as _;

/// Enumerate every sequence of length `1..=bound` over `vocab`, in
/// vocabulary (radix) order, keeping only sequences every prefix of
/// which satisfies `valid`.
///
/// `valid` must be **prefix-monotone**: if a sequence is invalid, every
/// extension of it is too (true for executability — you cannot repair a
/// failed `creat` by appending more calls). The enumerator exploits
/// that to prune whole subtrees, so the cost is proportional to the
/// number of *valid* prefixes, not `|vocab|^bound`.
///
/// The result is exhaustive and duplicate-free by construction: every
/// valid sequence appears exactly once (property-pinned in
/// `tests/fuzz_generator.rs`).
pub fn bounded_sequences<T: Clone>(
    vocab: &[T],
    bound: usize,
    mut valid: impl FnMut(&[T]) -> bool,
) -> Vec<Vec<T>> {
    let mut out = Vec::new();
    let mut seq: Vec<T> = Vec::with_capacity(bound);
    // Iterative DFS over vocabulary indices: `cursor[d]` is the next
    // vocabulary index to try at depth `d`.
    let mut cursor: Vec<usize> = vec![0];
    while let Some(next) = cursor.last_mut() {
        if *next >= vocab.len() {
            cursor.pop();
            seq.pop();
            if let Some(parent) = cursor.last_mut() {
                *parent += 1;
            }
            continue;
        }
        seq.push(vocab[*next].clone());
        if valid(&seq) {
            out.push(seq.clone());
            if seq.len() < bound {
                cursor.push(0);
                continue;
            }
        }
        seq.pop();
        *next += 1;
    }
    out
}

/// A deterministic `k`-subset of `0..n`, in increasing order (so the
/// sampled corpus preserves enumeration order). Partial Fisher–Yates
/// over the index space, seeded; `k >= n` returns all indices.
pub fn sample_indices(n: usize, k: usize, seed: u64) -> Vec<usize> {
    if k >= n {
        return (0..n).collect();
    }
    let mut rng = pc_rt::rng::Rng::new(seed);
    let mut idx: Vec<usize> = (0..n).collect();
    for i in 0..k {
        let j = i + rng.gen_index(n - i);
        idx.swap(i, j);
    }
    idx.truncate(k);
    idx.sort_unstable();
    idx
}

/// One deduplicated fuzzing finding: a bug signature first exposed by
/// some generated workload on some `(fs, journal)` cell.
#[derive(Debug, Clone)]
pub struct FuzzFinding {
    /// Label of the first (representative) workload exposing it.
    pub workload: String,
    /// File system under test.
    pub fs: String,
    /// Local-FS journaling mode of the cell (`data`, `ordered`, …).
    pub journal: String,
    /// Canonical bug signature (reordering pair / atomicity group).
    pub signature: String,
    /// Layer attribution of the verdict.
    pub layer: LayerVerdict,
    /// Weakest violated crash-consistency model, as a string.
    pub violated_model: String,
    /// Crash states exposing this cause in the representative cell.
    pub occurrences: usize,
    /// How many *other* generated workloads re-exposed the same key
    /// (the dedup counter — Pathfinder's "representative testing").
    pub duplicates: usize,
}

/// Dedup key: a finding is novel iff no prior cell produced the same
/// signature with the same layer verdict on the same `(fs, journal)`.
pub type FindingKey = (String, String, String, LayerVerdict);

/// Campaign accumulator: cells go in, deduplicated findings and
/// behavior classes come out.
#[derive(Debug, Default)]
pub struct FuzzCorpus {
    /// Deduplicated findings, keyed by `(fs, journal, signature,
    /// layer)`, insertion-order id in [`FuzzFinding::workload`] order.
    findings: BTreeMap<FindingKey, FuzzFinding>,
    /// Behavior classes: digest of a cell's *decision content* (its bug
    /// signatures + layers, not its state counts) → (representative
    /// workload, population). Clean cells share one class per
    /// `(fs, journal)`.
    behaviors: BTreeMap<u64, (String, usize)>,
    /// Checked `(workload, fs, journal)` cells.
    pub cells: usize,
    /// Cells with at least one inconsistency.
    pub buggy_cells: usize,
    /// Per-cell diagnostics (panicking recovery tools etc.), copied
    /// verbatim from the outcomes, in check order.
    pub diagnostics: Vec<String>,
    /// Distinct representative crash-state digests seen across all
    /// cells (Pathfinder-style state identity, fed from
    /// [`CheckOutcome::rep_digests`] when the checker collects them).
    /// This is the cross-run dedup index the campaign engine persists.
    rep_states: BTreeSet<u64>,
}

impl FuzzCorpus {
    /// Fresh, empty corpus.
    pub fn new() -> FuzzCorpus {
        FuzzCorpus::default()
    }

    /// Number of deduplicated findings so far.
    pub fn finding_count(&self) -> usize {
        self.findings.len()
    }

    /// Number of distinct behavior classes so far.
    pub fn behavior_count(&self) -> usize {
        self.behaviors.len()
    }

    /// Number of distinct representative crash states seen so far.
    pub fn rep_state_count(&self) -> usize {
        self.rep_states.len()
    }

    /// Number of behavior classes seen in exactly one cell so far.
    pub fn singleton_behaviors(&self) -> usize {
        self.behaviors
            .values()
            .filter(|&&(_, pop)| pop == 1)
            .count()
    }

    /// Good–Turing coverage-saturation estimate in `[0, 1]`: the
    /// probability that the *next* cell lands in an already-seen
    /// behavior class, estimated as `1 − singletons / cells` (Turing's
    /// missing-mass estimator — the fraction of cells that discovered a
    /// class never seen again bounds the undiscovered mass). 0.0 while
    /// the corpus is empty; approaches 1.0 as discovery dries up, which
    /// is the campaign driver's "coverage has saturated" signal.
    pub fn saturation(&self) -> f64 {
        if self.cells == 0 {
            return 0.0;
        }
        1.0 - self.singleton_behaviors() as f64 / self.cells as f64
    }

    /// Iterate the deduplicated findings in canonical (key) order.
    pub fn findings(&self) -> impl Iterator<Item = &FuzzFinding> {
        self.findings.values()
    }

    /// Fold one checked cell into the corpus. Returns the keys of the
    /// findings this cell *newly* contributed (the triage hook: the
    /// campaign driver re-runs exactly those cells through the explain
    /// engine and writes per-finding bundles).
    pub fn record_cell(
        &mut self,
        workload: &str,
        fs: &str,
        journal: &str,
        outcome: &CheckOutcome,
    ) -> Vec<FindingKey> {
        self.cells += 1;
        if outcome.raw_inconsistent_states > 0 {
            self.buggy_cells += 1;
        }
        for d in &outcome.diagnostics {
            self.diagnostics
                .push(format!("{workload} on {fs}/{journal}: {d}"));
        }
        for &digest in &outcome.rep_digests {
            self.rep_states.insert(digest);
        }

        // Behavior class: what the checker *decided*, independent of
        // how many crash states said it.
        let mut decision = format!("{fs}/{journal}\n");
        let mut lines: Vec<String> = outcome
            .bugs
            .iter()
            .map(|b| {
                format!(
                    "{} [{:?}] {}",
                    b.signature,
                    b.layer,
                    b.violated_model.as_str()
                )
            })
            .collect();
        lines.sort();
        for l in &lines {
            decision.push_str(l);
            decision.push('\n');
        }
        let class = fnv1a(decision.as_bytes());
        let entry = self
            .behaviors
            .entry(class)
            .or_insert_with(|| (workload.to_string(), 0));
        entry.1 += 1;

        let mut novel = Vec::new();
        for bug in &outcome.bugs {
            let key: FindingKey = (
                fs.to_string(),
                journal.to_string(),
                bug.signature.to_string(),
                bug.layer,
            );
            match self.findings.get_mut(&key) {
                Some(f) => f.duplicates += 1,
                None => {
                    self.findings.insert(
                        key.clone(),
                        FuzzFinding {
                            workload: workload.to_string(),
                            fs: fs.to_string(),
                            journal: journal.to_string(),
                            signature: bug.signature.to_string(),
                            layer: bug.layer,
                            violated_model: bug.violated_model.as_str().to_string(),
                            occurrences: bug.occurrences,
                            duplicates: 0,
                        },
                    );
                    novel.push(key);
                }
            }
        }
        novel
    }

    /// Byte-stable rendering of everything the campaign decided:
    /// finding lines in key order, behavior/cell tallies, diagnostics.
    /// Two runs over the same corpus must produce identical bytes on
    /// any `PC_THREADS` — this is the string the crash gate diffs and
    /// the pinned-corpus regression test compares.
    pub fn canonical_report(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "cells={} buggy={} findings={} behaviors={} rep_states={}",
            self.cells,
            self.buggy_cells,
            self.findings.len(),
            self.behaviors.len(),
            self.rep_states.len(),
        );
        for f in self.findings.values() {
            let _ = writeln!(
                out,
                "finding {}/{} {} [{:?}] violates {} x{} dup={} first={}",
                f.fs,
                f.journal,
                f.signature,
                f.layer,
                f.violated_model,
                f.occurrences,
                f.duplicates,
                f.workload,
            );
        }
        for d in &self.diagnostics {
            let _ = writeln!(out, "diagnostic: {d}");
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sequences_are_exhaustive_and_duplicate_free() {
        // Unconstrained vocabulary of 3 ops, bound 2: 3 + 9 sequences.
        let vocab = [0u8, 1, 2];
        let seqs = bounded_sequences(&vocab, 2, |_| true);
        assert_eq!(seqs.len(), 12);
        let mut seen = std::collections::BTreeSet::new();
        for s in &seqs {
            assert!(seen.insert(s.clone()), "duplicate {s:?}");
        }
        // Radix order: length-1 prefix comes right before its children.
        assert_eq!(seqs[0], vec![0]);
        assert_eq!(seqs[1], vec![0, 0]);
        assert_eq!(seqs[4], vec![1]);
    }

    #[test]
    fn validity_prunes_subtrees() {
        // Forbid anything starting with 1: its 3 children disappear too.
        let vocab = [0u8, 1, 2];
        let seqs = bounded_sequences(&vocab, 2, |s| s[0] != 1);
        assert_eq!(seqs.len(), 8);
        assert!(seqs.iter().all(|s| s[0] != 1));
        // The invalid prefix is never *extended* (prefix-monotone
        // pruning): no sequence [1, _] survives even where the suffix
        // alone would be fine.
        assert!(seqs.iter().all(|s| s != &vec![1, 0]));
    }

    #[test]
    fn sampling_is_deterministic_and_ordered() {
        let a = sample_indices(100, 10, 42);
        let b = sample_indices(100, 10, 42);
        assert_eq!(a, b);
        assert_eq!(a.len(), 10);
        assert!(a.windows(2).all(|w| w[0] < w[1]));
        assert!(a.iter().all(|&i| i < 100));
        let c = sample_indices(100, 10, 43);
        assert_ne!(a, c, "different seeds should (here) differ");
        assert_eq!(sample_indices(5, 10, 1), vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn corpus_dedups_by_key_and_counts_behaviors() {
        use crate::classify::{BugKind, BugSignature};
        use crate::model::Model;
        let bug = crate::check::Inconsistency {
            signature: BugSignature {
                kind: BugKind::Reordering,
                members: vec!["a@x".into(), "b@y".into()],
            },
            layer: LayerVerdict::PfsBug,
            violated_model: Model::Causal,
            witness: vec!["w".into()],
            occurrences: 3,
        };
        let buggy = CheckOutcome {
            pfs_name: "BeeGFS".into(),
            bugs: vec![bug],
            raw_inconsistent_states: 3,
            ..Default::default()
        };
        let clean = CheckOutcome {
            pfs_name: "BeeGFS".into(),
            ..Default::default()
        };
        let mut corpus = FuzzCorpus::new();
        let novel = corpus.record_cell("w1", "BeeGFS", "data", &buggy);
        assert_eq!(novel.len(), 1);
        let again = corpus.record_cell("w2", "BeeGFS", "data", &buggy);
        assert!(again.is_empty(), "same key must dedup");
        corpus.record_cell("w3", "BeeGFS", "data", &clean);
        corpus.record_cell("w4", "BeeGFS", "data", &clean);
        assert_eq!(corpus.finding_count(), 1);
        assert_eq!(corpus.behavior_count(), 2, "buggy class + clean class");
        assert_eq!(corpus.cells, 4);
        assert_eq!(corpus.buggy_cells, 2);
        let f = corpus.findings().next().unwrap();
        assert_eq!(f.duplicates, 1);
        assert_eq!(f.workload, "w1");
        let report = corpus.canonical_report();
        assert!(report.starts_with("cells=4 buggy=2 findings=1 behaviors=2"));
        assert!(report.contains("first=w1"));
    }

    #[test]
    fn rep_states_dedup_across_cells() {
        let mut corpus = FuzzCorpus::new();
        let outcome_a = CheckOutcome {
            rep_digests: vec![1, 2, 3],
            ..Default::default()
        };
        let outcome_b = CheckOutcome {
            rep_digests: vec![2, 3, 4],
            ..Default::default()
        };
        corpus.record_cell("w1", "BeeGFS", "data", &outcome_a);
        corpus.record_cell("w2", "BeeGFS", "data", &outcome_b);
        assert_eq!(corpus.rep_state_count(), 4, "overlap must dedup");
        assert!(corpus
            .canonical_report()
            .starts_with("cells=2 buggy=0 findings=0 behaviors=1 rep_states=4"));
        assert_eq!(corpus.saturation(), 1.0, "one class, seen twice");
    }

    #[test]
    fn saturation_is_finite_on_empty_and_tiny_corpora() {
        let corpus = FuzzCorpus::new();
        assert_eq!(corpus.saturation(), 0.0, "zero cells must not divide");
        assert!(corpus.saturation().is_finite());
        let mut one = FuzzCorpus::new();
        one.record_cell("w", "BeeGFS", "data", &CheckOutcome::default());
        assert!(one.saturation().is_finite());
        assert_eq!(one.saturation(), 0.0, "a lone singleton class");
    }
}
