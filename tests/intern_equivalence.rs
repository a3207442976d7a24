//! Symbol interning must be invisible to every observer: the interned
//! fast paths (id-keyed directory and xattr maps, structural
//! `same_tree`, DFS digest) and the historical string-keyed algorithms
//! kept beside them as reference functions (`FsState::digest_reference`,
//! `FsState::same_tree_reference`) have to agree on arbitrary operation
//! sequences — same digests, same tree comparisons, clean fsck,
//! lexicographic listings. Interning is a bijection, so any divergence
//! is a bug in one of the two implementations.
//!
//! Also pins the determinism contract of the id assignment itself:
//! dense first-intern order, reproducible across tables, and stable
//! under concurrent interning (`scripts/verify.sh` runs the repo tests
//! both sequential and parallel, exercising this from both ends).

use pc_rt::intern::{Sym, SymTable};
use pc_rt::proptest::{gen_vec, run, Config};
use pc_rt::rng::Rng;
use pc_rt::{prop_assert, prop_assert_eq};
use simfs::{FsOp, FsState, Fsck};

/// Random op sequence over a small path universe with a few distinct
/// xattr keys (xattr maps are interned too); lenient application skips
/// ops whose prerequisites are missing, mirroring crash replay.
fn arb_ops(rng: &mut Rng, size: usize) -> Vec<FsOp> {
    gen_vec(rng, size.min(16), |r| {
        let f = format!("/f{}", r.next_u32() % 4);
        let g = format!("/d/f{}", r.next_u32() % 3);
        match r.next_u32() % 11 {
            0 => FsOp::Creat { path: f },
            1 => FsOp::Mkdir { path: "/d".into() },
            2 => FsOp::Creat { path: g },
            3 => FsOp::Pwrite {
                path: f,
                offset: u64::from(r.next_u32() % 8),
                data: vec![r.next_u32() as u8; 1 + (r.next_u32() % 4) as usize],
            },
            4 => FsOp::Append {
                path: f,
                data: vec![r.next_u32() as u8],
            },
            5 => FsOp::Truncate {
                path: f,
                size: u64::from(r.next_u32() % 6),
            },
            6 => FsOp::Rename { src: f, dst: g },
            7 => FsOp::Link { src: f, dst: g },
            8 => FsOp::SetXattr {
                path: f,
                key: format!("user.k{}", r.next_u32() % 3),
                value: vec![r.next_u32() as u8],
            },
            9 => FsOp::RemoveXattr {
                path: f,
                key: format!("user.k{}", r.next_u32() % 3),
            },
            _ => FsOp::Unlink { path: f },
        }
    })
}

/// Everything fsck observed, rendered (order included — issue order is
/// part of the observable output contract).
fn fsck_report(fs: &FsState) -> Vec<String> {
    Fsck::check(fs).iter().map(|i| i.to_string()).collect()
}

/// Replay a random sequence and ask the fast and the reference
/// algorithms about the *same* state; a second replay of the sequence
/// (fresh inode numbering, same tree) and a diverged fork give
/// `same_tree` a positive and a negative to agree on.
#[test]
fn interned_state_matches_string_oracle_on_random_ops() {
    run(
        "interned_state_matches_string_oracle_on_random_ops",
        &Config::with_cases(192),
        arb_ops,
        |ops| {
            let mut fs = FsState::new();
            let failures = fs.apply_lenient(ops.iter()).len();
            let mut twin = FsState::new();
            prop_assert_eq!(twin.apply_lenient(ops.iter()).len(), failures);
            let mut other = fs.fork();
            other.creat("/diverged").expect("fresh path");

            prop_assert_eq!(fs.digest(), fs.digest_reference());
            prop_assert_eq!(fs.digest(), twin.digest_reference());
            prop_assert_eq!(other.digest(), other.digest_reference());
            for (a, b, same) in [(&fs, &twin, true), (&fs, &other, false)] {
                prop_assert_eq!(a.same_tree(b), same);
                prop_assert_eq!(b.same_tree(a), same);
                prop_assert_eq!(a.same_tree_reference(b), same);
                prop_assert_eq!(b.same_tree_reference(a), same);
            }
            prop_assert!(fsck_report(&fs).is_empty(), "replay must keep the FS clean");
            // Listings resolve through interned entry maps; readdir's
            // contract is lexicographic output.
            for path in &fs.walk() {
                if fs.is_dir(path) {
                    let listing = fs.readdir(path).unwrap();
                    prop_assert!(listing.windows(2).all(|w| w[0] < w[1]));
                    prop_assert_eq!(listing, twin.readdir(path).unwrap());
                }
            }
            Ok(())
        },
    );
}

/// Dense first-intern order is a pure function of the insertion
/// sequence: two private tables fed the same strings assign identical
/// ids, regardless of which thread (or how many) produced the sequence.
#[test]
fn sym_table_ids_are_a_function_of_insertion_order() {
    let seq: Vec<String> = (0..40)
        .map(|i| format!("intern-eq/{}", i % 17)) // duplicates included
        .collect();
    let mut a = SymTable::new();
    let mut b = SymTable::new();
    let ids_a: Vec<u32> = seq.iter().map(|s| a.intern(s)).collect();
    let ids_b: Vec<u32> = seq.iter().map(|s| b.intern(s)).collect();
    assert_eq!(ids_a, ids_b);
    assert_eq!(a.len(), 17);
    for (s, &id) in seq.iter().zip(&ids_a) {
        assert_eq!(a.resolve(id), s.as_str());
    }
}

/// Seq-vs-par pin on the global interner: ids assigned sequentially
/// must survive a concurrent hammering of the same vocabulary unchanged
/// (the table is append-only), and resolution must round-trip from
/// every thread.
#[test]
fn global_interner_is_stable_under_concurrency() {
    let vocab: Vec<String> = (0..48).map(|i| format!("intern-eq/global/{i}")).collect();
    let pinned: Vec<Sym> = vocab.iter().map(|s| Sym::new(s)).collect();
    std::thread::scope(|scope| {
        for t in 0..4 {
            let vocab = &vocab;
            let pinned = &pinned;
            scope.spawn(move || {
                for rep in 0..64 {
                    let i = (t * 13 + rep * 5) % vocab.len();
                    let s = Sym::new(&vocab[i]);
                    assert_eq!(s, pinned[i]);
                    assert_eq!(s.as_str(), vocab[i]);
                }
            });
        }
    });
    for (s, orig) in pinned.iter().zip(&vocab) {
        assert_eq!(s.as_str(), orig);
    }
}
