//! Fuzz the HDF5-like library and format: random valid call sequences
//! must always produce files that `h5check` accepts, whose object maps
//! tile the file without overlap, and that replay deterministically.
//! (Hosted on the vendored `pc-rt` property harness.)

use h5sim::format::{encode, sizes, superblock, H5Error};
use h5sim::DigestMemo;
use h5sim::{check, check_lenient_with, h5clear, h5inspect, h5replay_with};
use h5sim::{ClearOpts, Cleared, H5Call, H5Spec, ObjectRange};
use pc_rt::prop_assert;
use pc_rt::prop_assert_eq;
use pc_rt::proptest::{gen_vec, run, Config};
use pc_rt::rng::Rng;
use pfs::Content;
use std::sync::Arc;
use workloads::FsKind;
use workloads::Params;

/// Symbolic op over a bounded namespace of 2 groups × 3 dataset names.
#[derive(Debug, Clone)]
enum GenOp {
    Create(u8, u8),
    Resize(u8, u8),
    Delete(u8, u8),
    Rename(u8, u8, u8, u8),
}

fn group(g: u8) -> String {
    format!("g{}", g % 2 + 1)
}

fn dset(d: u8) -> String {
    format!("d{}", d % 3 + 1)
}

/// Lower into a valid H5Call sequence (tracking the namespace so every
/// call is executable).
fn lower(ops: &[GenOp]) -> Vec<(u32, H5Call)> {
    let mut live: std::collections::BTreeSet<(String, String)> = std::collections::BTreeSet::new();
    let mut dims: std::collections::BTreeMap<(String, String), u64> =
        std::collections::BTreeMap::new();
    let mut calls = vec![
        (0, H5Call::CreateFile),
        (0, H5Call::CreateGroup { group: "g1".into() }),
        (0, H5Call::CreateGroup { group: "g2".into() }),
    ];
    for op in ops {
        match op {
            GenOp::Create(g, d) => {
                let key = (group(*g), dset(*d));
                if live.insert(key.clone()) {
                    dims.insert(key.clone(), 8);
                    calls.push((
                        0,
                        H5Call::CreateDataset {
                            group: key.0,
                            name: key.1,
                            rows: 8,
                            cols: 8,
                        },
                    ));
                }
            }
            GenOp::Resize(g, d) => {
                let key = (group(*g), dset(*d));
                if live.contains(&key) {
                    let cur = dims.get_mut(&key).expect("tracked");
                    *cur += 4;
                    calls.push((
                        0,
                        H5Call::ResizeDataset {
                            group: key.0,
                            name: key.1,
                            rows: *cur,
                            cols: *cur,
                        },
                    ));
                }
            }
            GenOp::Delete(g, d) => {
                let key = (group(*g), dset(*d));
                if live.remove(&key) {
                    dims.remove(&key);
                    calls.push((
                        0,
                        H5Call::DeleteDataset {
                            group: key.0,
                            name: key.1,
                        },
                    ));
                }
            }
            GenOp::Rename(g, d, g2, d2) => {
                let src = (group(*g), dset(*d));
                let dst = (group(*g2), dset(*d2));
                if src != dst && live.contains(&src) && !live.contains(&dst) {
                    live.remove(&src);
                    live.insert(dst.clone());
                    let v = dims.remove(&src).expect("tracked");
                    dims.insert(dst.clone(), v);
                    calls.push((
                        0,
                        H5Call::RenameDataset {
                            src_group: src.0,
                            src_name: src.1,
                            dst_group: dst.0,
                            dst_name: dst.1,
                        },
                    ));
                }
            }
        }
    }
    calls.push((0, H5Call::CloseFile));
    calls
}

/// Up to ~9 random symbolic ops (bounded by the shrinkable `size`
/// budget), uniformly over the four op kinds.
fn arb_ops(rng: &mut Rng, size: usize) -> Vec<GenOp> {
    gen_vec(rng, size.min(9), |r| {
        let g = (r.next_u32() % 2) as u8;
        let d = (r.next_u32() % 3) as u8;
        match r.gen_index(4) {
            0 => GenOp::Create(g, d),
            1 => GenOp::Resize(g, d),
            2 => GenOp::Delete(g, d),
            _ => {
                let g2 = (r.next_u32() % 2) as u8;
                let d2 = (r.next_u32() % 3) as u8;
                GenOp::Rename(g, d, g2, d2)
            }
        }
    })
}

fn spec() -> H5Spec {
    H5Spec { elem: 8, seg: 256 }
}

/// Any valid call sequence produces a clean, parseable file with the
/// expected dataset census.
#[test]
fn random_sequences_produce_valid_files() {
    run(
        "random_sequences_produce_valid_files",
        &Config::with_cases(32),
        arb_ops,
        |ops| {
            let params = Params::quick();
            let calls = lower(ops);
            let mut pfs = FsKind::Ext4.build(&params);
            let logical = h5replay_with(pfs.as_mut(), "/fuzz.h5", &[0], &calls, spec())
                .expect("valid sequence replays");
            // Census: count live datasets from the call sequence.
            let mut live = std::collections::BTreeSet::new();
            for (_, c) in &calls {
                match c {
                    H5Call::CreateDataset { group, name, .. } => {
                        live.insert(format!("{group}/{name}"));
                    }
                    H5Call::DeleteDataset { group, name } => {
                        live.remove(&format!("{group}/{name}"));
                    }
                    H5Call::RenameDataset {
                        src_group,
                        src_name,
                        dst_group,
                        dst_name,
                    } => {
                        live.remove(&format!("{src_group}/{src_name}"));
                        live.insert(format!("{dst_group}/{dst_name}"));
                    }
                    _ => {}
                }
            }
            prop_assert_eq!(
                logical.datasets.keys().cloned().collect::<Vec<_>>(),
                live.into_iter().collect::<Vec<_>>()
            );
            Ok(())
        },
    );
}

/// `h5check`, the per-dataset report and `h5inspect` are folds of one
/// walk: they accept the same images, and an accepted image reads the
/// same through the first two.
fn folds_agree(image: &[u8]) -> Result<(), String> {
    let (strict, lenient) = (check(image), check_lenient_with(image, None));
    let clean = lenient.open_error.is_none()
        && lenient.group_errors.is_empty()
        && lenient.datasets.values().all(|found| found.is_ok());
    prop_assert_eq!(strict.is_ok(), clean);
    prop_assert_eq!(strict.is_ok(), h5inspect(image).is_ok());
    if let Ok(logical) = strict {
        prop_assert_eq!(&logical.groups, &lenient.groups);
        let datasets = lenient.datasets.into_iter();
        let datasets: Vec<_> = datasets.map(|(key, found)| (key, found.unwrap())).collect();
        prop_assert_eq!(logical.datasets.into_iter().collect::<Vec<_>>(), datasets);
    }
    Ok(())
}

/// `image` broken at every structure of its object `map`: the signature
/// zeroed, the file cut short inside it (its `eof` left stale), its
/// second word pointed past any file — once under the real `eof`, once
/// under one that admits every address.
fn mutations(image: &[u8], map: &[ObjectRange]) -> Vec<Vec<u8>> {
    let mut out = Vec::new();
    for at in map.iter().map(|obj| obj.addr as usize) {
        let mut zeroed = image.to_vec();
        zeroed[at..at + 4].fill(0);
        out.push(zeroed);
        for cut in [2, 5, 12, 28] {
            out.push(image[..(at + cut).min(image.len())].to_vec());
        }
        let mut wild = image.to_vec();
        wild[at + 8..at + 16].copy_from_slice(&(u64::MAX - 3).to_le_bytes());
        out.push(wild.clone());
        wild[16..24].copy_from_slice(&u64::MAX.to_le_bytes());
        out.push(wild);
    }
    out
}

/// The object map tiles the file without overlaps, h5clear is
/// idempotent on clean files, and the three readers agree on the file
/// and on every way of breaking it.
#[test]
fn object_maps_never_overlap() {
    run(
        "object_maps_never_overlap",
        &Config::with_cases(32),
        arb_ops,
        |ops| {
            let params = Params::quick();
            let calls = lower(ops);
            let mut pfs = FsKind::Ext4.build(&params);
            h5replay_with(pfs.as_mut(), "/fuzz.h5", &[0], &calls, spec()).expect("replays");
            let view = pfs.client_view(pfs.live());
            let bytes = view.read("/fuzz.h5").expect("file exists").to_vec();
            let map = h5inspect(&bytes).expect("clean file inspects");
            let mut prev_end = 0u64;
            for obj in &map {
                prop_assert!(obj.addr >= prev_end, "overlap at {}", obj.name);
                prev_end = obj.addr + obj.len;
            }
            // h5clear on a clean file only touches the status byte.
            let cleared = h5clear(&bytes, ClearOpts::default());
            prop_assert_eq!(check(&bytes).expect("ok"), check(&cleared).expect("ok"));
            let twice = h5clear(&cleared, ClearOpts { increase_eof: true });
            prop_assert!(check(&twice).is_ok());
            folds_agree(&bytes)?;
            for image in mutations(&bytes, &map) {
                folds_agree(&image)?;
            }
            Ok(())
        },
    );
}

/// `image` as a PFS view holds a file: runs of `size` bytes, each its
/// own shared buffer.
fn chunked(image: &[u8], size: usize) -> Content {
    let mut content = Content::default();
    for run in image.chunks(size) {
        content.push(Arc::new(run.to_vec()));
    }
    content
}

/// The reader walks a view's runs in place: on every image
/// [`object_maps_never_overlap`] draws — a clean file and each way of
/// breaking it — the per-dataset report over the file in runs of 1, 7,
/// 256 and 2048 bytes is the report over its joined bytes, and so is the
/// report over `h5clear`'s patch laid on the runs against the report
/// over its patched copy. Runs of 1 and 7 bytes make every structure
/// straddle a boundary.
#[test]
fn chunked_content_parses_like_the_joined_bytes() {
    run(
        "chunked_content_parses_like_the_joined_bytes",
        &Config::with_cases(8),
        arb_ops,
        |ops| {
            let params = Params::quick();
            let mut pfs = FsKind::Ext4.build(&params);
            h5replay_with(pfs.as_mut(), "/fuzz.h5", &[0], &lower(ops), spec()).expect("replays");
            let view = pfs.client_view(pfs.live());
            let bytes = view.read("/fuzz.h5").expect("file exists").to_vec();
            let map = h5inspect(&bytes).expect("clean file inspects");
            let opts = ClearOpts { increase_eof: true };
            for image in std::iter::once(bytes.clone()).chain(mutations(&bytes, &map)) {
                let flat = format!("{:?}", check_lenient_with(&image, None));
                let cleared = format!("{:?}", check_lenient_with(&h5clear(&image, opts), None));
                for size in [1, 7, 256, 2048] {
                    let content = chunked(&image, size);
                    prop_assert_eq!(&format!("{:?}", check_lenient_with(&content, None)), &flat);
                    let patched =
                        Cleared::new(&content, opts).map(|c| check_lenient_with(&c, None));
                    let patched = patched.unwrap_or_else(|| check_lenient_with(&content, None));
                    prop_assert_eq!(&format!("{patched:?}"), &cleared);
                }
            }
            Ok(())
        },
    );
}

/// A [`DigestMemo`] returns what the stream hash returns. Each case
/// replays a random file and cuts it into random runs (`a`); `b` is `a`
/// with random data bytes changed, the runs holding a changed byte new
/// buffers and the rest `a`'s own; `c` is `a`'s runs copied into fresh
/// buffers. One memo reads `a`, `b`, `c` and `a` again, each plainly and
/// under `h5clear`'s patch, and every report equals the memo-less one:
/// no lookup returns the digest of a run that changed. `a`'s second
/// reading hashes nothing new, `b` adds entries only if a byte changed,
/// and `c`'s fresh buffers are new keys.
#[test]
fn memoised_dataset_digests_equal_the_stream_digests() {
    run(
        "memoised_dataset_digests_equal_the_stream_digests",
        &Config::with_cases(32),
        |rng, size| {
            let ops = arb_ops(rng, size);
            let cuts = gen_vec(rng, 48, |r| 1 + r.gen_index(700));
            let changes = gen_vec(rng, 4, |r| r.next_u64());
            (ops, cuts, changes)
        },
        |(ops, cuts, changes)| {
            let params = Params::quick();
            let mut pfs = FsKind::Ext4.build(&params);
            h5replay_with(pfs.as_mut(), "/fuzz.h5", &[0], &lower(ops), spec()).expect("replays");
            let view = pfs.client_view(pfs.live());
            let bytes = view.read("/fuzz.h5").expect("file exists").to_vec();
            let map = h5inspect(&bytes).expect("clean file inspects");
            let data: Vec<&ObjectRange> = map.iter().filter(|o| o.is_data && o.len > 0).collect();
            let mut changed = bytes.clone();
            for (&r, obj) in changes.iter().zip(data.iter().cycle()) {
                let at = (obj.addr + (r % obj.len)) as usize;
                changed[at] = changed[at].wrapping_add(1);
            }
            let (mut runs, mut at) = (Vec::new(), 0);
            while at < bytes.len() {
                let cut = cuts.get(runs.len() % cuts.len().max(1)).unwrap_or(&4096);
                runs.push(at..(at + cut).min(bytes.len()));
                at = runs.last().expect("pushed").end;
            }
            let a: Vec<Arc<Vec<u8>>> = (runs.iter())
                .map(|run| Arc::new(bytes[run.clone()].to_vec()))
                .collect();
            let b: Vec<Arc<Vec<u8>>> = (runs.iter().zip(&a))
                .map(
                    |(run, own)| match changed[run.clone()] == bytes[run.clone()] {
                        true => own.clone(),
                        false => Arc::new(changed[run.clone()].to_vec()),
                    },
                )
                .collect();
            let c: Vec<Arc<Vec<u8>>> = a.iter().map(|run| Arc::new(run.to_vec())).collect();
            let content = |runs: &[Arc<Vec<u8>>]| {
                let mut content = Content::default();
                for run in runs {
                    content.push(run.clone());
                }
                content
            };
            let (memo, opts) = (DigestMemo::default(), ClearOpts { increase_eof: true });
            let read = |runs: &[Arc<Vec<u8>>]| -> Result<usize, String> {
                let image = content(runs);
                let plain = format!("{:?}", check_lenient_with(&image, None));
                prop_assert_eq!(
                    format!("{:?}", check_lenient_with(&image, Some(&memo))),
                    plain
                );
                if let Some(cleared) = Cleared::new(&image, opts) {
                    let plain = format!("{:?}", check_lenient_with(&cleared, None));
                    let memoised = check_lenient_with(&cleared, Some(&memo));
                    prop_assert_eq!(format!("{memoised:?}"), plain);
                }
                Ok(memo.len())
            };
            let first = read(&a)?;
            prop_assert_eq!(first == 0, data.is_empty());
            let after_b = read(&b)?;
            prop_assert!(after_b >= first);
            prop_assert!(
                changed != bytes || after_b == first,
                "b shares every run of a"
            );
            let after_c = read(&c)?;
            prop_assert!(
                data.is_empty() || after_c > after_b,
                "fresh runs are new keys"
            );
            prop_assert_eq!(read(&a)?, after_c);
            Ok(())
        },
    );
}

/// Replays are deterministic: two fresh stacks produce structurally
/// identical logical states.
#[test]
fn replays_are_deterministic() {
    run(
        "replays_are_deterministic",
        &Config::with_cases(32),
        arb_ops,
        |ops| {
            let params = Params::quick();
            let calls = lower(ops);
            let mut a = FsKind::BeeGfs.build(&params);
            let mut b = FsKind::BeeGfs.build(&params);
            let la = h5replay_with(a.as_mut(), "/fuzz.h5", &[0], &calls, spec()).expect("a");
            let lb = h5replay_with(b.as_mut(), "/fuzz.h5", &[0], &calls, spec()).expect("b");
            prop_assert_eq!(la, lb);
            prop_assert_eq!(a.client_view(a.live()), b.client_view(b.live()));
            Ok(())
        },
    );
}

/// A file cut short under a stale `eof` can end inside a node: an entry
/// count, a B-tree entry or a symbol-table entry that cannot be read is
/// an error of the group in every fold, not an entry passed over. So is
/// a group that names itself.
#[test]
fn unreadable_entries_are_errors_of_every_fold() {
    // The heap ahead of the B-tree, so that a cut inside the B-tree
    // node leaves the group's header readable.
    let root_oh = sizes::SUPERBLOCK;
    let heap = root_oh + sizes::OHDR;
    let tree = heap + sizes::HEAP;
    let snod = tree + sizes::TREE;
    let ds_oh = snod + sizes::SNOD;
    let dtree = ds_oh + sizes::OHDR;
    let data = dtree + sizes::DTRE;
    let dlen = 2 * 2 * sizes::ELEM;
    let image = [
        superblock::encode(root_oh, data + dlen, 0),
        encode::group_ohdr(tree, heap),
        encode::heap(&[(8, "d1".into())]),
        encode::tree(&[snod]),
        encode::snod(&[(8, ds_oh)]),
        encode::dataset_ohdr(2, 2, dtree),
        encode::dtree(true, &[(data, dlen)]),
        vec![7u8; dlen as usize],
    ]
    .concat();
    assert!(check(&image).is_ok());
    for (cut, what) in [
        (tree + 5, "group B-tree node"),
        (tree + 8 + 4, "group B-tree entry"),
        (snod + 5, "symbol table node"),
        (snod + 8 + 4, "symbol table entry"),
    ] {
        let cut = &image[..cut as usize];
        let expected = |e: &H5Error| matches!(e, H5Error::Truncated { what: w, .. } if *w == what);
        assert!(check(cut).is_err_and(|e| expected(&e)), "{what}");
        let lenient = check_lenient_with(cut, None);
        assert!(lenient.open_error.is_none(), "{what}");
        assert!(
            (lenient.group_errors.iter()).any(|(group, e)| group == "/" && expected(e)),
            "{what}: {:?}",
            lenient.group_errors
        );
        folds_agree(cut).unwrap();
    }
    let mut cyclic = image.clone();
    let entry = (snod + 8 + 8) as usize;
    cyclic[entry..entry + 8].copy_from_slice(&root_oh.to_le_bytes());
    assert!(check(&cyclic).is_err());
    folds_agree(&cyclic).unwrap();
}
