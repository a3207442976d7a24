//! The stack under test: PFS + traces + replay machinery.
//!
//! A [`Stack`] bundles a live PFS instance with the recorders for both
//! phases of a ParaCrash run (§5: a *preamble* program initializes the
//! storage system, then the *test* program runs and is traced). A legal
//! golden state is what a preserved subset of the recorded calls leaves
//! behind when replayed after the preamble: [`replay_pfs`] / [`replay_h5`]
//! do exactly that, one subset on one fresh [`StackFactory`] instance —
//! the oracle. `check_stack` gets the same states from one walk over all
//! subsets of a check (`golden`).

use h5sim::{H5Call, H5Trace};
use pfs::{ClientTrace, Pfs, PfsCall, PfsView};
use std::collections::BTreeSet;
use tracer::{Process, Recorder};

/// Builds a fresh, empty instance of the PFS configuration under test.
pub type StackFactory = Box<dyn Fn() -> Box<dyn Pfs>>;

/// The traced stack for one test-program run.
pub struct Stack {
    /// The PFS instance (holds live and baseline server states).
    pub pfs: Box<dyn Pfs>,
    /// Test-phase trace (the preamble recorder is discarded at seal).
    pub rec: Recorder,
    /// PFS-level calls of the preamble, replayed verbatim before any
    /// preserved subset.
    pub pre_calls: Vec<(Process, PfsCall)>,
    /// PFS-level calls of the test phase.
    pub calls: ClientTrace,
    /// I/O-library-level calls of the preamble.
    pub pre_h5: Vec<(u32, H5Call)>,
    /// I/O-library-level calls of the test phase.
    pub h5: H5Trace,
    /// Path of the HDF5/NetCDF file, when the program uses the I/O
    /// library layer.
    pub h5_path: Option<String>,
    /// Ranks participating in collective H5 calls.
    pub h5_ranks: Vec<u32>,
    /// Library configuration used by the traced run (replays must
    /// match).
    pub h5_spec: h5sim::H5Spec,
}

impl Stack {
    /// Wrap a freshly-built PFS.
    pub fn new(pfs: Box<dyn Pfs>) -> Stack {
        Stack {
            pfs,
            rec: Recorder::new(),
            pre_calls: Vec::new(),
            calls: ClientTrace::new(),
            pre_h5: Vec::new(),
            h5: H5Trace::new(),
            h5_path: None,
            h5_ranks: vec![0],
            h5_spec: h5sim::H5Spec::default(),
        }
    }

    /// Issue one POSIX-level PFS call from `client`.
    pub fn posix(&mut self, client: u32, call: PfsCall) {
        // The traced run drives calls the workload itself constructed; a
        // dispatch error means the workload is malformed. The checker runs
        // this phase under catch_unwind and surfaces the panic message.
        let ev = self
            .pfs
            .dispatch(&mut self.rec, Process::Client(client), &call, None)
            .unwrap_or_else(|e| panic!("posix dispatch of {}: {e}", call.name()));
        self.calls.push(ev, Process::Client(client), call);
    }

    /// End the preamble: snapshot the baseline, archive the preamble
    /// calls, and start the test-phase trace.
    pub fn seal_preamble(&mut self) {
        self.pfs.seal_baseline();
        self.pre_calls = std::mem::take(&mut self.calls)
            .entries()
            .iter()
            .map(|(_, p, c)| (*p, c.clone()))
            .collect();
        self.pre_h5 = std::mem::take(&mut self.h5)
            .entries()
            .iter()
            .map(|(_, r, c)| (*r, c.clone()))
            .collect();
        self.rec = Recorder::new();
    }

    /// The journaling mode of a server's local FS (block servers: none).
    pub fn journal_of(&self, server: u32) -> Option<simfs::JournalMode> {
        self.pfs.baseline().server(server).journal()
    }
}

/// The namespace a PFS call sequence has built so far, mirrored without
/// a PFS: the models may propose subsets whose prerequisites were
/// dropped — those denote no legal state, and this is what tells.
#[derive(Debug, Clone)]
pub(crate) struct Namespace {
    dirs: BTreeSet<String>,
    files: BTreeSet<String>,
}

impl Namespace {
    /// The empty mount: `/` and nothing else.
    pub(crate) fn new() -> Namespace {
        Namespace {
            dirs: BTreeSet::from(["/".to_string()]),
            files: BTreeSet::new(),
        }
    }

    /// Mirror the namespace effect of `call`; `false` when the sequence
    /// so far does not let it execute.
    pub(crate) fn admits(&mut self, call: &PfsCall) -> bool {
        let Namespace { dirs, files } = self;
        let parent = pfs::base::parent_of;
        match call {
            PfsCall::Creat { path } => {
                if !dirs.contains(&parent(path)) || dirs.contains(path) {
                    return false;
                }
                files.insert(path.clone());
            }
            PfsCall::Mkdir { path } => {
                if !dirs.contains(&parent(path)) || dirs.contains(path) || files.contains(path) {
                    return false;
                }
                dirs.insert(path.clone());
            }
            PfsCall::Pwrite { path, .. } | PfsCall::Fsync { path } | PfsCall::Close { path } => {
                if !files.contains(path) {
                    return false;
                }
            }
            PfsCall::Rename { src, dst } => {
                if files.remove(src) {
                    if !dirs.contains(&parent(dst)) || dirs.contains(dst) {
                        return false;
                    }
                    files.insert(dst.clone());
                } else if dirs.remove(src) {
                    if !dirs.contains(&parent(dst)) || files.contains(dst) {
                        return false;
                    }
                    // Rewrite children.
                    let moved: Vec<String> = dirs
                        .iter()
                        .chain(files.iter())
                        .filter(|p| p.starts_with(&format!("{src}/")))
                        .cloned()
                        .collect();
                    for m in moved {
                        let new = format!("{dst}{}", &m[src.len()..]);
                        if dirs.remove(&m) {
                            dirs.insert(new);
                        } else if files.remove(&m) {
                            files.insert(new);
                        }
                    }
                    dirs.insert(dst.clone());
                } else {
                    return false;
                }
            }
            PfsCall::Unlink { path } => {
                if !files.remove(path) {
                    return false;
                }
            }
            PfsCall::Rmdir { path } => {
                if !dirs.remove(path) {
                    return false;
                }
            }
        }
        true
    }
}

/// Validate that a whole PFS call sequence is executable.
fn executable<'a>(calls: impl IntoIterator<Item = &'a (Process, PfsCall)>) -> bool {
    let mut ns = Namespace::new();
    calls.into_iter().all(|(_, call)| ns.admits(call))
}

/// Replay the preamble plus a preserved subset of test calls on a fresh
/// stack and return the resulting client view. `None` when the subset is
/// not executable (no legal state arises from it).
pub fn replay_pfs(
    factory: &StackFactory,
    pre: &[(Process, PfsCall)],
    subset: &[(Process, PfsCall)],
) -> Option<PfsView> {
    // Borrowed, not concatenated: a copy would clone every preamble
    // `Pwrite` payload once per replay.
    let all = || pre.iter().chain(subset);
    if !executable(all()) {
        return None;
    }
    let mut pfs = factory();
    let mut rec = Recorder::new();
    for (client, call) in all() {
        // A model may reject a subset `executable` admits (its own
        // namespace bookkeeping is stricter); that subset denotes no
        // legal state either.
        pfs.dispatch(&mut rec, *client, call, None).ok()?;
    }
    Some(pfs.client_view(pfs.live()))
}

/// Replay the preamble plus a preserved subset of I/O-library calls on a
/// fresh stack and return the logical H5 state. `None` when the subset
/// is not executable or the result fails `h5check` (a legal state is by
/// definition a clean execution).
pub fn replay_h5(
    factory: &StackFactory,
    path: &str,
    ranks: &[u32],
    pre: &[(u32, H5Call)],
    subset: &[(u32, H5Call)],
    spec: h5sim::H5Spec,
) -> Option<h5sim::H5Logical> {
    let mut pfs = factory();
    h5sim::h5replay_with(pfs.as_mut(), path, ranks, pre.iter().chain(subset), spec).ok()
}

#[cfg(test)]
mod tests {
    use super::*;
    use pfs::beegfs::BeeGfs;

    fn factory() -> StackFactory {
        Box::new(|| Box::new(BeeGfs::paper_default()))
    }

    #[test]
    fn stack_records_and_seals() {
        let mut stack = Stack::new(factory()());
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
        stack.seal_preamble();
        assert_eq!(stack.pre_calls.len(), 2);
        assert!(stack.calls.is_empty());
        assert!(stack.rec.is_empty());
        stack.posix(
            0,
            PfsCall::Creat {
                path: "/tmp".into(),
            },
        );
        assert_eq!(stack.calls.len(), 1);
        assert!(!stack.rec.is_empty());
    }

    #[test]
    fn replay_full_subset_matches_live() {
        let mut stack = Stack::new(factory()());
        stack.posix(
            0,
            PfsCall::Creat {
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
            PfsCall::Rename {
                src: "/tmp".into(),
                dst: "/file".into(),
            },
        );
        let f = factory();
        let subset: Vec<(Process, PfsCall)> = stack
            .calls
            .entries()
            .iter()
            .map(|(_, p, c)| (*p, c.clone()))
            .collect();
        let view = replay_pfs(&f, &stack.pre_calls, &subset).expect("executable");
        assert_eq!(view, stack.pfs.client_view(stack.pfs.live()));
    }

    #[test]
    fn invalid_subsets_are_rejected() {
        let f = factory();
        // Rename without the create.
        let subset = vec![(
            Process::Client(0),
            PfsCall::Rename {
                src: "/tmp".into(),
                dst: "/file".into(),
            },
        )];
        assert!(replay_pfs(&f, &[], &subset).is_none());
        // Write without the create.
        let subset = vec![(
            Process::Client(0),
            PfsCall::Pwrite {
                path: "/x".into(),
                offset: 0,
                data: vec![1],
            },
        )];
        assert!(replay_pfs(&f, &[], &subset).is_none());
    }

    #[test]
    fn executable_tracks_directory_renames() {
        let calls = vec![
            (Process::Client(0), PfsCall::Mkdir { path: "/A".into() }),
            (
                Process::Client(0),
                PfsCall::Rename {
                    src: "/A".into(),
                    dst: "/B".into(),
                },
            ),
            (
                Process::Client(0),
                PfsCall::Creat {
                    path: "/B/foo".into(),
                },
            ),
        ];
        assert!(executable(&calls));
        let bad = vec![
            (Process::Client(0), PfsCall::Mkdir { path: "/A".into() }),
            (
                Process::Client(0),
                PfsCall::Creat {
                    path: "/B/foo".into(),
                },
            ),
        ];
        assert!(!executable(&bad));
    }
}
