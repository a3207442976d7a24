//! Structural consistency checking for [`FsState`] — the local analogue of
//! `e2fsck`, kept as the property tests' invariant oracle.
//!
//! ParaCrash runs the storage system's own checker first (§4.4.3): it is
//! cheap and catches *structural* corruption, but says nothing about which
//! pre-crash operations survived. Our simulated local FS cannot corrupt its
//! own structures (operations are transactional), so no recovery tool
//! calls this module — the PFS checkers live in `pfs` and `h5sim`. The
//! property tests call it instead, to show that every replay schedule
//! leaves the inode table sound.

use crate::state::{FsState, Inode};
use std::collections::BTreeSet;
use std::fmt;

/// One problem found by a checker.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FsckIssue {
    /// Path (or object) the issue is about.
    pub subject: String,
    /// Human-readable description, in the style of fsck tool output.
    pub detail: String,
    /// Whether the checker's repair pass can fix it.
    pub repairable: bool,
}

impl fmt::Display for FsckIssue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}: {} ({})",
            self.subject,
            self.detail,
            if self.repairable {
                "repairable"
            } else {
                "unrepairable"
            }
        )
    }
}

/// Generic structural checker over a local file system.
pub struct Fsck;

impl Fsck {
    /// Verify internal invariants of the inode table itself: every
    /// directory entry resolves, and every inode is reachable from the
    /// root. Returns issues (empty = clean).
    ///
    /// `FsState` maintains these invariants by construction; this check
    /// exists so property tests can assert them after arbitrary replay
    /// schedules, the same way the paper trusts but verifies ext4.
    pub fn check(fs: &FsState) -> Vec<FsckIssue> {
        let mut issues = Vec::new();
        // Reachability sweep.
        let mut reachable: BTreeSet<u64> = BTreeSet::new();
        let mut stack = vec![fs.root()];
        while let Some(ino) = stack.pop() {
            if !reachable.insert(ino) {
                continue;
            }
            match fs.inode(ino) {
                Some(Inode::Dir { entries, .. }) => {
                    // Iterate in resolved-name order: entry maps are
                    // keyed by interned ids whose order is arbitrary,
                    // but issue order is observable output.
                    let mut named: Vec<(&'static str, u64)> =
                        entries.iter().map(|(n, c)| (n.as_str(), *c)).collect();
                    named.sort_unstable_by_key(|(n, _)| *n);
                    for (name, child) in named {
                        if fs.inode(child).is_none() {
                            issues.push(FsckIssue {
                                subject: name.to_string(),
                                detail: format!("dangling entry -> inode {child}"),
                                repairable: true,
                            });
                        } else {
                            stack.push(child);
                        }
                    }
                }
                Some(Inode::File { .. }) => {}
                None => issues.push(FsckIssue {
                    subject: format!("inode {ino}"),
                    detail: "referenced inode missing".into(),
                    repairable: false,
                }),
            }
        }
        // Orphan sweep.
        for ino in 0..=fs.inode_count() as u64 * 4 {
            if fs.inode(ino).is_some() && !reachable.contains(&ino) {
                issues.push(FsckIssue {
                    subject: format!("inode {ino}"),
                    detail: "orphan inode (unreachable from /)".into(),
                    repairable: true,
                });
            }
        }
        issues
    }

    /// `true` if the file system is structurally clean.
    pub fn is_clean(fs: &FsState) -> bool {
        Self::check(fs).is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::FsOp;

    #[test]
    fn fresh_fs_is_clean() {
        assert!(Fsck::is_clean(&FsState::new()));
    }

    #[test]
    fn populated_fs_is_clean() {
        let mut fs = FsState::new();
        fs.mkdir_all("/a/b/c").unwrap();
        fs.creat("/a/b/c/f").unwrap();
        fs.link("/a/b/c/f", "/a/g").unwrap();
        assert!(Fsck::is_clean(&fs));
    }

    #[test]
    fn lenient_replay_keeps_fs_clean() {
        // Even when half the operations fail to apply, the FS invariants
        // hold — this is the property ParaCrash relies on when replaying
        // crash states.
        let mut fs = FsState::new();
        let ops = [
            FsOp::Creat { path: "/a".into() },
            FsOp::Rename {
                src: "/nope".into(),
                dst: "/b".into(),
            },
            FsOp::Unlink {
                path: "/gone".into(),
            },
            FsOp::Link {
                src: "/a".into(),
                dst: "/c".into(),
            },
        ];
        fs.apply_lenient(ops.iter());
        assert!(Fsck::is_clean(&fs));
    }
}
