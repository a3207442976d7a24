//! The HDF5-like library runtime: `H5File`.
//!
//! Every operation updates the in-memory structure bookkeeping, then
//! flushes the affected structures into the file through MPI-IO —
//! **in the order HDF5 1.8's metadata cache flushes them**, which for
//! `delete`, `rename`, parallel `create` and B-tree splits is exactly
//! the vulnerable order reported in Table 3 (bugs 9, 11, 12, 14). For
//! `create` and `resize` the issue order is dependency-correct, so the
//! corresponding crash bugs (10, 13, 15) only appear when the PFS
//! underneath reorders persistence across servers — which is how the
//! paper pinpoints their root cause to the PFS layer.

use crate::call::{H5Call, H5Trace};
use crate::format::{encode, sizes, superblock};
use mpiio::MpiIo;
use pc_rt::hash::{fnv1a_fold, FNV_OFFSET_BASIS, LONG_PRIME};
use std::collections::BTreeMap;
use tracer::{EventId, Layer, Payload, Process};

/// Deterministic fill pattern for bytes `first..first + len` of the
/// dataset `name`'s content.
fn fill_bytes(name: &str, first: u64, len: u64) -> Vec<u8> {
    let h = fnv1a_fold(FNV_OFFSET_BASIS, name.as_bytes(), LONG_PRIME);
    (first..first + len)
        .map(|i| (h ^ i.wrapping_mul(2654435761)) as u8)
        .collect()
}

/// Library tuning knobs (kept explicit so ablation benches can vary
/// them; the defaults match the paper's HDF5 1.8 + h5py setup).
#[derive(Debug, Clone, Copy)]
pub struct H5Spec {
    /// Bytes per element (f64 in the paper's datasets).
    pub elem: u64,
    /// Data segment size.
    pub seg: u64,
}

impl Default for H5Spec {
    fn default() -> Self {
        H5Spec {
            elem: sizes::ELEM,
            seg: sizes::SEG,
        }
    }
}

#[derive(Debug, Clone)]
struct GroupRt {
    oh: u64,
    tree: u64,
    heap: u64,
    snod: u64,
    /// (heap offset, name) records currently in the heap.
    names: Vec<(u64, String)>,
    /// (heap offset, object header) symbol-table entries.
    entries: Vec<(u64, u64)>,
    heap_next: u64,
}

impl GroupRt {
    /// Heap offset of the name record for `name` that still has a live
    /// symbol-table entry. `rename_dataset` frees heap records lazily,
    /// so a stale record with the same name can precede a re-created
    /// one in `names`; lookups must resolve through `entries`, never
    /// through the heap alone.
    fn live_offset(&self, name: &str) -> Option<u64> {
        self.names
            .iter()
            .find(|(off, n)| n == name && self.entries.iter().any(|(o, _)| o == off))
            .map(|(off, _)| *off)
    }
}

#[derive(Debug, Clone)]
struct DatasetRt {
    oh: u64,
    rows: u64,
    cols: u64,
    dtree: u64,
    /// Leaf data segments `(addr, len)` in order.
    segs: Vec<(u64, u64)>,
    /// Child B-tree nodes after a split (empty while the root is a leaf).
    children: Vec<u64>,
}

/// An open HDF5-like file over the simulated stack.
#[derive(Debug, Clone)]
pub struct H5File {
    /// PFS path of the file.
    pub path: String,
    spec: H5Spec,
    eof: u64,
    root_oh: u64,
    groups: BTreeMap<String, GroupRt>,
    datasets: BTreeMap<String, DatasetRt>,
}

impl H5File {
    fn alloc(&mut self, size: u64) -> u64 {
        let a = self.eof;
        self.eof += size;
        a
    }

    fn iolib_event(mpi: &mut MpiIo, rank: u32, call: &H5Call) -> EventId {
        mpi.recorder().record(
            Layer::IoLib,
            Process::Client(rank),
            Payload::Call {
                name: call.name().into(),
                args: call.args(),
            },
            None,
        )
    }

    /// Flush one structure into the file, tagged with its object label —
    /// the label drives ParaCrash's semantic pruning and bug
    /// classification.
    fn flush(
        &self,
        mpi: &mut MpiIo,
        rank: u32,
        addr: u64,
        bytes: Vec<u8>,
        label: &str,
        parent: EventId,
    ) {
        let ev = mpi.file_write_at(rank, &self.path, addr, &bytes, Some(parent));
        mpi.recorder().set_object(ev, label);
    }

    fn flush_superblock(&self, mpi: &mut MpiIo, rank: u32, parent: EventId) {
        self.flush(
            mpi,
            rank,
            0,
            superblock::encode(self.root_oh, self.eof, 1),
            "superblock",
            parent,
        );
    }

    fn flush_group(&self, mpi: &mut MpiIo, rank: u32, group: &str, what: Flush, parent: EventId) {
        let g = &self.groups[group];
        match what {
            Flush::Heap => self.flush(
                mpi,
                rank,
                g.heap,
                encode::heap(&g.names),
                &format!("local heap of {group}"),
                parent,
            ),
            Flush::Tree => self.flush(
                mpi,
                rank,
                g.tree,
                encode::tree(&[g.snod]),
                &format!("B-tree node of {group}"),
                parent,
            ),
            Flush::Snod => self.flush(
                mpi,
                rank,
                g.snod,
                encode::snod(&g.entries),
                &format!("symbol table node of {group}"),
                parent,
            ),
            Flush::Ohdr => self.flush(
                mpi,
                rank,
                g.oh,
                encode::group_ohdr(g.tree, g.heap),
                &format!("object header of {group}"),
                parent,
            ),
        }
    }

    /// Create the file: superblock + empty root group. Collective.
    pub fn create(
        mpi: &mut MpiIo,
        h5t: &mut H5Trace,
        ranks: &[u32],
        path: &str,
        spec: H5Spec,
    ) -> H5File {
        let call = H5Call::CreateFile;
        let ev = Self::iolib_event(mpi, ranks[0], &call);
        h5t.push(ev, ranks[0], call);
        mpi.file_open(ranks, path, true, Some(ev));
        let mut f = H5File {
            path: path.to_string(),
            spec,
            eof: sizes::SUPERBLOCK,
            root_oh: 0,
            groups: BTreeMap::new(),
            datasets: BTreeMap::new(),
        };
        let oh = f.alloc(sizes::OHDR);
        let tree = f.alloc(sizes::TREE);
        let heap = f.alloc(sizes::HEAP);
        let snod = f.alloc(sizes::SNOD);
        f.root_oh = oh;
        f.groups.insert(
            "/".to_string(),
            GroupRt {
                oh,
                tree,
                heap,
                snod,
                names: Vec::new(),
                entries: Vec::new(),
                heap_next: 8,
            },
        );
        let rank = ranks[0];
        f.flush_superblock(mpi, rank, ev);
        f.flush_group(mpi, rank, "/", Flush::Ohdr, ev);
        f.flush_group(mpi, rank, "/", Flush::Heap, ev);
        f.flush_group(mpi, rank, "/", Flush::Tree, ev);
        f.flush_group(mpi, rank, "/", Flush::Snod, ev);
        f
    }

    /// Close the file. Collective.
    pub fn close(&mut self, mpi: &mut MpiIo, h5t: &mut H5Trace, ranks: &[u32]) {
        let call = H5Call::CloseFile;
        let ev = Self::iolib_event(mpi, ranks[0], &call);
        h5t.push(ev, ranks[0], call);
        self.flush(
            mpi,
            ranks[0],
            0,
            superblock::encode(self.root_oh, self.eof, 0),
            "superblock",
            ev,
        );
        mpi.file_close(ranks, &self.path, Some(ev));
    }

    fn add_name(&mut self, group: &str, name: &str, oh: u64) {
        let g = self.groups.get_mut(group).expect("group exists");
        let off = g.heap_next;
        g.heap_next += (2 + name.len() as u64 + 7) & !7;
        g.names.push((off, name.to_string()));
        g.entries.push((off, oh));
        g.entries.sort_unstable();
    }

    fn remove_name(&mut self, group: &str, name: &str) -> Option<(u64, u64)> {
        let g = self.groups.get_mut(group).expect("group exists");
        let off = g.live_offset(name)?;
        g.names.retain(|(o, _)| *o != off);
        let entry = g.entries.iter().find(|(o, _)| *o == off).copied();
        g.entries.retain(|(o, _)| *o != off);
        entry
    }

    /// `H5Gcreate`: create a top-level group.
    pub fn create_group(&mut self, mpi: &mut MpiIo, h5t: &mut H5Trace, rank: u32, group: &str) {
        let call = H5Call::CreateGroup {
            group: group.into(),
        };
        let ev = Self::iolib_event(mpi, rank, &call);
        h5t.push(ev, rank, call);
        let oh = self.alloc(sizes::OHDR);
        let tree = self.alloc(sizes::TREE);
        let heap = self.alloc(sizes::HEAP);
        let snod = self.alloc(sizes::SNOD);
        self.groups.insert(
            group.to_string(),
            GroupRt {
                oh,
                tree,
                heap,
                snod,
                names: Vec::new(),
                entries: Vec::new(),
                heap_next: 8,
            },
        );
        self.add_name("/", group, oh);
        // Dependency-correct flush order: space first, then the new
        // group's structures, then the root structures that reference it.
        self.flush_superblock(mpi, rank, ev);
        self.flush_group(mpi, rank, group, Flush::Heap, ev);
        self.flush_group(mpi, rank, group, Flush::Tree, ev);
        self.flush_group(mpi, rank, group, Flush::Snod, ev);
        self.flush_group(mpi, rank, group, Flush::Ohdr, ev);
        self.flush_group(mpi, rank, "/", Flush::Heap, ev);
        self.flush_group(mpi, rank, "/", Flush::Tree, ev);
        self.flush_group(mpi, rank, "/", Flush::Snod, ev);
    }

    fn alloc_dataset(
        &mut self,
        name: &str,
        rows: u64,
        cols: u64,
    ) -> (DatasetRt, Vec<(u64, Vec<u8>)>) {
        let total = rows * cols * self.spec.elem;
        let oh = self.alloc(sizes::OHDR);
        let dtree = self.alloc(sizes::DTRE);
        let mut segs = Vec::new();
        let mut seg_payloads = Vec::new();
        let mut written = 0u64;
        let mut idx = 0u64;
        while written < total {
            let len = self.spec.seg.min(total - written);
            let addr = self.alloc(len);
            segs.push((addr, len));
            let bytes = fill_bytes(name, idx * self.spec.seg, len);
            seg_payloads.push((addr, bytes));
            written += len;
            idx += 1;
        }
        // A dataset too large for one leaf is born split.
        let children = (0..Self::needed_children(segs.len()))
            .map(|_| self.alloc(sizes::DTRE))
            .collect();
        (
            DatasetRt {
                oh,
                rows,
                cols,
                dtree,
                segs,
                children,
            },
            seg_payloads,
        )
    }

    /// Number of child nodes a dataset of `nsegs` segments needs
    /// (0 while a single leaf suffices).
    fn needed_children(nsegs: usize) -> usize {
        if nsegs <= sizes::DTRE_CAP {
            0
        } else {
            nsegs.div_ceil(sizes::DTRE_CAP)
        }
    }

    /// Flush the children of a split dataset B-tree (segments spread
    /// evenly over the child leaves).
    fn flush_dataset_children(&self, mpi: &mut MpiIo, rank: u32, key: &str, parent: EventId) {
        let d = &self.datasets[key];
        if d.children.is_empty() {
            return;
        }
        let per_child = d.segs.len().div_ceil(d.children.len());
        debug_assert_eq!(
            d.segs.chunks(per_child).count(),
            d.children.len(),
            "segment distribution must fill every child node"
        );
        for (child, segs) in d.children.iter().zip(d.segs.chunks(per_child)) {
            self.flush(
                mpi,
                rank,
                *child,
                encode::dtree(true, segs),
                &format!("child B-tree node of dataset {key}"),
                parent,
            );
        }
    }

    fn flush_dataset_tree(&self, mpi: &mut MpiIo, rank: u32, key: &str, parent: EventId) {
        let d = &self.datasets[key];
        if d.children.is_empty() {
            self.flush(
                mpi,
                rank,
                d.dtree,
                encode::dtree(true, &d.segs),
                &format!("B-tree node of dataset {key}"),
                parent,
            );
        } else {
            let child_entries: Vec<(u64, u64)> = d.children.iter().map(|&c| (c, 0)).collect();
            self.flush(
                mpi,
                rank,
                d.dtree,
                encode::dtree(false, &child_entries),
                &format!("parent B-tree node of dataset {key}"),
                parent,
            );
        }
    }

    fn flush_dataset_ohdr(&self, mpi: &mut MpiIo, rank: u32, key: &str, parent: EventId) {
        let d = &self.datasets[key];
        self.flush(
            mpi,
            rank,
            d.oh,
            encode::dataset_ohdr(d.rows, d.cols, d.dtree),
            &format!("object header of dataset {key}"),
            parent,
        );
    }

    /// `H5Dcreate` + fill, single rank.
    ///
    /// Flush order (dependency-correct — HDF5 gets this one right, so
    /// the crash hazard here is the *PFS* reordering persistence across
    /// servers; Table 3 bug 10 / 13 / 15 mechanics):
    /// superblock → data → dataset B-tree → dataset header →
    /// heap → group B-tree → symbol table node.
    #[allow(clippy::too_many_arguments)] // mirrors the HDF5 API signature
    pub fn create_dataset(
        &mut self,
        mpi: &mut MpiIo,
        h5t: &mut H5Trace,
        rank: u32,
        group: &str,
        name: &str,
        rows: u64,
        cols: u64,
    ) {
        let call = H5Call::CreateDataset {
            group: group.into(),
            name: name.into(),
            rows,
            cols,
        };
        let ev = Self::iolib_event(mpi, rank, &call);
        h5t.push(ev, rank, call);
        let key = crate::format::dataset_key(group, name);
        let (ds, payloads) = self.alloc_dataset(&key, rows, cols);
        let oh = ds.oh;
        self.datasets.insert(key.clone(), ds);
        self.add_name(group, name, oh);

        self.flush_superblock(mpi, rank, ev);
        for (addr, bytes) in payloads {
            self.flush(mpi, rank, addr, bytes, &format!("data chunks of {key}"), ev);
        }
        // Creation writes B-tree children before the parent — the
        // dependency-correct order (contrast with the resize split).
        self.flush_dataset_children(mpi, rank, &key, ev);
        self.flush_dataset_tree(mpi, rank, &key, ev);
        self.flush_dataset_ohdr(mpi, rank, &key, ev);
        self.flush_group(mpi, rank, group, Flush::Heap, ev);
        self.flush_group(mpi, rank, group, Flush::Tree, ev);
        self.flush_group(mpi, rank, group, Flush::Snod, ev);
    }

    /// Collective `H5Dcreate` across ranks.
    ///
    /// HDF5 1.8's collective metadata path splits the flushes across
    /// ranks with no ordering between them: rank 0 writes everything
    /// *except* the local heap, which rank 1 flushes concurrently —
    /// so the group B-tree / symbol table can persist without the heap
    /// even on a causally-consistent PFS. That concurrency is Table 3
    /// bug 9 (sensitivity: number of clients).
    #[allow(clippy::too_many_arguments)] // mirrors the HDF5 API signature
    pub fn create_dataset_parallel(
        &mut self,
        mpi: &mut MpiIo,
        h5t: &mut H5Trace,
        ranks: &[u32],
        group: &str,
        name: &str,
        rows: u64,
        cols: u64,
    ) {
        if ranks.len() < 2 {
            return self.create_dataset(mpi, h5t, ranks[0], group, name, rows, cols);
        }
        let call = H5Call::CreateDatasetParallel {
            group: group.into(),
            name: name.into(),
            rows,
            cols,
            nranks: ranks.len() as u32,
        };
        let ev = Self::iolib_event(mpi, ranks[0], &call);
        h5t.push(ev, ranks[0], call);
        let key = crate::format::dataset_key(group, name);
        let (ds, payloads) = self.alloc_dataset(&key, rows, cols);
        let oh = ds.oh;
        self.datasets.insert(key.clone(), ds);
        self.add_name(group, name, oh);

        let r0 = ranks[0];
        let r1 = ranks[1];
        self.flush_superblock(mpi, r0, ev);
        // Data segments are distributed round-robin over ranks.
        for (i, (addr, bytes)) in payloads.into_iter().enumerate() {
            let r = ranks[i % ranks.len()];
            self.flush(mpi, r, addr, bytes, &format!("data chunks of {key}"), ev);
        }
        self.flush_dataset_children(mpi, r0, &key, ev);
        self.flush_dataset_tree(mpi, r0, &key, ev);
        self.flush_dataset_ohdr(mpi, r0, &key, ev);
        self.flush_group(mpi, r0, group, Flush::Tree, ev);
        self.flush_group(mpi, r0, group, Flush::Snod, ev);
        // The heap flush happens on another rank, concurrent with the
        // B-tree/symbol-table flushes above.
        self.flush_group(mpi, r1, group, Flush::Heap, ev);
    }

    /// `H5Ldelete`.
    ///
    /// HDF5 1.8 flushes the shrunken B-tree and heap *before* the
    /// symbol-table node — the wrong order (the old symbol table then
    /// references a freed heap slot). A crash between the flushes breaks
    /// every dataset in the group: Table 3 bug 11.
    pub fn delete_dataset(
        &mut self,
        mpi: &mut MpiIo,
        h5t: &mut H5Trace,
        rank: u32,
        group: &str,
        name: &str,
    ) {
        let call = H5Call::DeleteDataset {
            group: group.into(),
            name: name.into(),
        };
        let ev = Self::iolib_event(mpi, rank, &call);
        h5t.push(ev, rank, call);
        let key = crate::format::dataset_key(group, name);
        self.remove_name(group, name);
        self.datasets.remove(&key);
        self.flush_group(mpi, rank, group, Flush::Tree, ev);
        self.flush_group(mpi, rank, group, Flush::Heap, ev);
        self.flush_group(mpi, rank, group, Flush::Snod, ev);
    }

    /// `H5Lmove`: move a dataset between groups.
    ///
    /// Six structures across two groups must change together; HDF5
    /// flushes the source group's removal first, so a crash in between
    /// loses the renamed dataset entirely: Table 3 bug 12.
    #[allow(clippy::too_many_arguments)] // mirrors the HDF5 API signature
    pub fn rename_dataset(
        &mut self,
        mpi: &mut MpiIo,
        h5t: &mut H5Trace,
        rank: u32,
        src_group: &str,
        src_name: &str,
        dst_group: &str,
        dst_name: &str,
    ) {
        let call = H5Call::RenameDataset {
            src_group: src_group.into(),
            src_name: src_name.into(),
            dst_group: dst_group.into(),
            dst_name: dst_name.into(),
        };
        let ev = Self::iolib_event(mpi, rank, &call);
        h5t.push(ev, rank, call);
        let src_key = crate::format::dataset_key(src_group, src_name);
        let dst_key = crate::format::dataset_key(dst_group, dst_name);
        // Remove the symbol-table entry but leave the heap record in
        // place (HDF5 frees heap space lazily): a crash mid-rename loses
        // the dataset being moved, but never breaks lookups of the
        // *other* datasets — which is why the paper classifies rename as
        // a causal (not baseline) violation.
        let oh = {
            let g = self.groups.get_mut(src_group).expect("group exists");
            let off = g.live_offset(src_name).expect("renamed dataset exists");
            let entry = g
                .entries
                .iter()
                .find(|(o, _)| *o == off)
                .map(|(_, oh)| *oh)
                .expect("entry exists");
            g.entries.retain(|(o, _)| *o != off);
            entry
        };
        if let Some(ds) = self.datasets.remove(&src_key) {
            self.datasets.insert(dst_key, ds);
        }
        // Source-side removal flushes…
        self.flush_group(mpi, rank, src_group, Flush::Tree, ev);
        self.flush_group(mpi, rank, src_group, Flush::Snod, ev);
        // …then destination-side insertion flushes.
        self.add_name(dst_group, dst_name, oh);
        self.flush_group(mpi, rank, dst_group, Flush::Heap, ev);
        self.flush_group(mpi, rank, dst_group, Flush::Tree, ev);
        self.flush_group(mpi, rank, dst_group, Flush::Snod, ev);
    }

    /// Rename a dataset *in place*: overwrite its heap name record at the
    /// same offset (NetCDF's `nc_rename_var` path — a single heap flush,
    /// atomic on any FS, which is why the paper's CDF-rename exposed no
    /// bugs). Panics if the new name does not fit the old slot.
    #[allow(clippy::too_many_arguments)] // mirrors the HDF5 API signature
    pub fn rename_dataset_in_place(
        &mut self,
        mpi: &mut MpiIo,
        h5t: &mut H5Trace,
        rank: u32,
        group: &str,
        old: &str,
        new: &str,
    ) {
        let call = H5Call::RenameDataset {
            src_group: group.into(),
            src_name: old.into(),
            dst_group: group.into(),
            dst_name: new.into(),
        };
        let ev = Self::iolib_event(mpi, rank, &call);
        h5t.push(ev, rank, call);
        let slot = (2 + old.len() + 7) & !7;
        assert!(
            2 + new.len() <= slot,
            "in-place rename requires the new name to fit the heap slot"
        );
        {
            let g = self.groups.get_mut(group).expect("group exists");
            let off = g.live_offset(old).expect("renamed dataset exists");
            let entry = g
                .names
                .iter_mut()
                .find(|(o, _)| *o == off)
                .expect("live name record exists");
            entry.1 = new.to_string();
        }
        let old_key = crate::format::dataset_key(group, old);
        let new_key = crate::format::dataset_key(group, new);
        if let Some(ds) = self.datasets.remove(&old_key) {
            self.datasets.insert(new_key, ds);
        }
        self.flush_group(mpi, rank, group, Flush::Heap, ev);
    }

    /// Shared implementation of serial / parallel resize.
    #[allow(clippy::too_many_arguments)] // mirrors the HDF5 API signature
    fn resize_impl(
        &mut self,
        mpi: &mut MpiIo,
        ranks: &[u32],
        ev: EventId,
        group: &str,
        name: &str,
        rows: u64,
        cols: u64,
    ) {
        let key = crate::format::dataset_key(group, name);
        let total = rows * cols * self.spec.elem;
        let have: u64 = self.datasets[&key].segs.iter().map(|s| s.1).sum();
        let mut new_payloads = Vec::new();
        let mut idx = self.datasets[&key].segs.len() as u64;
        let mut written = have;
        while written < total {
            let len = self.spec.seg.min(total - written);
            let addr = self.alloc(len);
            let bytes = fill_bytes(&key, idx * self.spec.seg, len);
            new_payloads.push((addr, bytes));
            self.datasets.get_mut(&key).unwrap().segs.push((addr, len));
            written += len;
            idx += 1;
        }
        let d = self.datasets.get_mut(&key).unwrap();
        d.rows = rows;
        d.cols = cols;
        let needed = Self::needed_children(d.segs.len());
        let needs_split = needed > d.children.len();

        let r0 = ranks[0];
        // Dependency-correct start: superblock (new EOF) first, then the
        // data (bug 13's hazard is the PFS reordering these across
        // servers).
        self.flush_superblock(mpi, r0, ev);
        for (i, (addr, bytes)) in new_payloads.into_iter().enumerate() {
            let r = ranks[i % ranks.len()];
            self.flush(mpi, r, addr, bytes, &format!("data chunks of {key}"), ev);
        }
        if needs_split {
            // Split into child leaves. HDF5 1.8 flushes the *parent*
            // first and the children after — the wrong order (bug 14):
            // a crash in between leaves the parent pointing at unwritten
            // child nodes ("wrong B-tree signature").
            let fresh: Vec<u64> = (self.datasets[&key].children.len()..needed)
                .map(|_| self.alloc(sizes::DTRE))
                .collect();
            // Growing the file again: flush the superblock once more
            // (still before the structures that use the space).
            self.flush_superblock(mpi, r0, ev);
            self.datasets.get_mut(&key).unwrap().children.extend(fresh);
            self.flush_dataset_tree(mpi, r0, &key, ev); // parent first (bug)
            self.flush_dataset_children(mpi, r0, &key, ev);
        } else if self.datasets[&key].children.is_empty() {
            self.flush_dataset_tree(mpi, r0, &key, ev);
        } else {
            // Already split: rewrite the parent, then the children whose
            // segment lists shifted (same vulnerable order).
            self.flush_dataset_tree(mpi, r0, &key, ev);
            self.flush_dataset_children(mpi, r0, &key, ev);
        }
        self.flush_dataset_ohdr(mpi, r0, &key, ev);
    }

    /// `H5Dset_extent`, single rank.
    #[allow(clippy::too_many_arguments)] // mirrors the HDF5 API signature
    pub fn resize_dataset(
        &mut self,
        mpi: &mut MpiIo,
        h5t: &mut H5Trace,
        rank: u32,
        group: &str,
        name: &str,
        rows: u64,
        cols: u64,
    ) {
        let call = H5Call::ResizeDataset {
            group: group.into(),
            name: name.into(),
            rows,
            cols,
        };
        let ev = Self::iolib_event(mpi, rank, &call);
        h5t.push(ev, rank, call);
        self.resize_impl(mpi, &[rank], ev, group, name, rows, cols);
    }

    /// Collective `H5Dset_extent`.
    #[allow(clippy::too_many_arguments)] // mirrors the HDF5 API signature
    pub fn resize_dataset_parallel(
        &mut self,
        mpi: &mut MpiIo,
        h5t: &mut H5Trace,
        ranks: &[u32],
        group: &str,
        name: &str,
        rows: u64,
        cols: u64,
    ) {
        let call = H5Call::ResizeDatasetParallel {
            group: group.into(),
            name: name.into(),
            rows,
            cols,
            nranks: ranks.len() as u32,
        };
        let ev = Self::iolib_event(mpi, ranks[0], &call);
        h5t.push(ev, ranks[0], call);
        self.resize_impl(mpi, ranks, ev, group, name, rows, cols);
    }
}

#[derive(Clone, Copy)]
enum Flush {
    Heap,
    Tree,
    Snod,
    Ohdr,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::format::check;
    use pfs::ext4::Ext4Direct;
    use pfs::{ClientTrace, Pfs};
    use tracer::Recorder;

    /// Build a file with two groups / two datasets (the paper's common
    /// initial state) on a single ext4 store and return the raw bytes.
    fn build(dims: u64) -> (Ext4Direct, H5File) {
        let mut fs = Ext4Direct::paper_default();
        let mut rec = Recorder::new();
        let mut ct = ClientTrace::new();
        let mut h5t = H5Trace::new();
        let mut mpi = MpiIo::new(&mut fs, &mut rec, &mut ct);
        let mut f = H5File::create(&mut mpi, &mut h5t, &[0], "/file.h5", H5Spec::default());
        f.create_group(&mut mpi, &mut h5t, 0, "g1");
        f.create_group(&mut mpi, &mut h5t, 0, "g2");
        f.create_dataset(&mut mpi, &mut h5t, 0, "g1", "d1", dims, dims);
        f.create_dataset(&mut mpi, &mut h5t, 0, "g1", "d2", dims, dims);
        f.close(&mut mpi, &mut h5t, &[0]);
        (fs, f)
    }

    fn bytes_of(fs: &Ext4Direct) -> Vec<u8> {
        fs.client_view(fs.live()).read("/file.h5").unwrap().to_vec()
    }

    #[test]
    fn fresh_file_checks_clean() {
        let (fs, _) = build(20);
        let logical = check(&bytes_of(&fs)).expect("clean file");
        assert_eq!(
            logical.groups.keys().cloned().collect::<Vec<_>>(),
            vec!["/", "g1", "g2"]
        );
        assert!(logical.has_dataset("g1", "d1"));
        assert!(logical.has_dataset("g1", "d2"));
        assert!(!logical.has_dataset("g2", "d1"));
    }

    #[test]
    fn delete_removes_dataset() {
        let (mut fs, mut f) = build(20);
        let mut rec = Recorder::new();
        let mut ct = ClientTrace::new();
        let mut h5t = H5Trace::new();
        let mut mpi = MpiIo::new(&mut fs, &mut rec, &mut ct);
        f.delete_dataset(&mut mpi, &mut h5t, 0, "g1", "d2");
        let logical = check(&bytes_of(&fs)).expect("clean after delete");
        assert!(logical.has_dataset("g1", "d1"));
        assert!(!logical.has_dataset("g1", "d2"));
    }

    #[test]
    fn rename_moves_between_groups() {
        let (mut fs, mut f) = build(20);
        let mut rec = Recorder::new();
        let mut ct = ClientTrace::new();
        let mut h5t = H5Trace::new();
        let mut mpi = MpiIo::new(&mut fs, &mut rec, &mut ct);
        f.rename_dataset(&mut mpi, &mut h5t, 0, "g1", "d2", "g2", "dx");
        let logical = check(&bytes_of(&fs)).expect("clean after rename");
        assert!(!logical.has_dataset("g1", "d2"));
        assert!(logical.has_dataset("g2", "dx"));
    }

    #[test]
    fn stale_heap_record_does_not_shadow_recreated_name() {
        // Regression: rename frees heap records lazily, so after
        // renaming g1/d1 away and re-creating g1/d1, the group heap
        // holds TWO "d1" records — only the second has a live
        // symbol-table entry. A second rename of g1/d1 used to match
        // the stale record and panic on the missing entry.
        let (mut fs, mut f) = build(20);
        let mut rec = Recorder::new();
        let mut ct = ClientTrace::new();
        let mut h5t = H5Trace::new();
        {
            let mut mpi = MpiIo::new(&mut fs, &mut rec, &mut ct);
            f.rename_dataset(&mut mpi, &mut h5t, 0, "g1", "d1", "g2", "d1");
            f.create_dataset(&mut mpi, &mut h5t, 0, "g1", "d1", 20, 20);
            f.rename_dataset(&mut mpi, &mut h5t, 0, "g1", "d1", "g2", "dx");
        }
        let logical = check(&bytes_of(&fs)).expect("clean after double rename");
        assert!(!logical.has_dataset("g1", "d1"));
        assert!(logical.has_dataset("g2", "d1"));
        assert!(logical.has_dataset("g2", "dx"));
        assert!(logical.has_dataset("g1", "d2"));
        // Deleting a re-created name must also resolve to the live
        // record, not the stale one.
        {
            let mut mpi = MpiIo::new(&mut fs, &mut rec, &mut ct);
            f.create_dataset(&mut mpi, &mut h5t, 0, "g1", "d1", 20, 20);
            f.delete_dataset(&mut mpi, &mut h5t, 0, "g1", "d1");
        }
        let logical = check(&bytes_of(&fs)).expect("clean after delete of recreated name");
        assert!(!logical.has_dataset("g1", "d1"));
        assert!(logical.has_dataset("g2", "d1"));
    }

    #[test]
    fn resize_grows_dataset() {
        let (mut fs, mut f) = build(20);
        let mut rec = Recorder::new();
        let mut ct = ClientTrace::new();
        let mut h5t = H5Trace::new();
        let mut mpi = MpiIo::new(&mut fs, &mut rec, &mut ct);
        f.resize_dataset(&mut mpi, &mut h5t, 0, "g1", "d1", 40, 40);
        let logical = check(&bytes_of(&fs)).expect("clean after resize");
        assert_eq!(logical.datasets["g1/d1"].0, 40);
    }

    #[test]
    fn large_resize_splits_btree() {
        // Keep memory small: tiny segments force the split with small
        // dims. leaf cap is 96 → 97 segments split.
        let mut fs = Ext4Direct::paper_default();
        let mut rec = Recorder::new();
        let mut ct = ClientTrace::new();
        let mut h5t = H5Trace::new();
        let mut mpi = MpiIo::new(&mut fs, &mut rec, &mut ct);
        let spec = H5Spec { elem: 8, seg: 64 };
        let mut f = H5File::create(&mut mpi, &mut h5t, &[0], "/file.h5", spec);
        f.create_group(&mut mpi, &mut h5t, 0, "g1");
        f.create_dataset(&mut mpi, &mut h5t, 0, "g1", "d1", 8, 8); // 512 B = 8 segs
        f.resize_dataset(&mut mpi, &mut h5t, 0, "g1", "d1", 30, 30); // 7200 B = 113 segs
        let logical = check(&bytes_of(&fs)).expect("split file still clean");
        assert_eq!(logical.datasets["g1/d1"].0, 30);
        assert!(!f.datasets["g1/d1"].children.is_empty());
    }

    #[test]
    fn parallel_create_heap_flush_is_on_second_rank() {
        let (mut fs, mut f) = build(20);
        let mut rec = Recorder::new();
        let mut ct = ClientTrace::new();
        let mut h5t = H5Trace::new();
        let mut mpi = MpiIo::new(&mut fs, &mut rec, &mut ct);
        f.create_dataset_parallel(&mut mpi, &mut h5t, &[0, 1], "g1", "d3", 20, 20);
        let heap_write = rec
            .events()
            .iter()
            .find(|e| {
                e.object.as_deref() == Some("local heap of g1")
                    && matches!(e.payload, Payload::Call { .. })
            })
            .expect("heap flush traced");
        assert_eq!(heap_write.proc, Process::Client(1));
        assert!(check(&bytes_of(&fs)).is_ok());
    }

    #[test]
    fn structure_writes_carry_object_labels() {
        let (_, _) = build(20); // build succeeds
        let mut fs = Ext4Direct::paper_default();
        let mut rec = Recorder::new();
        let mut ct = ClientTrace::new();
        let mut h5t = H5Trace::new();
        let mut mpi = MpiIo::new(&mut fs, &mut rec, &mut ct);
        let mut f = H5File::create(&mut mpi, &mut h5t, &[0], "/x.h5", H5Spec::default());
        f.create_group(&mut mpi, &mut h5t, 0, "g");
        let labels: std::collections::BTreeSet<String> = rec
            .events()
            .iter()
            .filter_map(|e| e.object.clone())
            .collect();
        assert!(labels.contains("superblock"));
        assert!(labels.iter().any(|l| l.starts_with("local heap")));
        assert!(labels.iter().any(|l| l.starts_with("B-tree node")));
        assert!(labels.iter().any(|l| l.starts_with("symbol table node")));
    }
}
