//! Randomized-workload properties over the whole stack.
//!
//! The paper's Figure 8 control says ext4 (data journaling) leaves *no*
//! inconsistent crash state, and §6.3.1 says the same for Lustre on
//! POSIX workloads. Those are universal claims — so we fuzz them:
//! random POSIX programs on the safe systems must check clean, every
//! random program must replay losslessly on every FS, and the unsafe
//! systems must never crash the checker. (Hosted on the vendored
//! `pc-rt` property harness.)

use paracrash::{check_stack, CheckConfig, Stack};
use pc_rt::prop_assert_eq;
use pc_rt::proptest::{run, Config};
use pc_rt::rng::Rng;
use pfs::PfsCall;
use workloads::{FsKind, Params};

/// A symbolic op in a generated program (paths are drawn from a tiny
/// namespace so operations collide interestingly).
#[derive(Debug, Clone)]
enum GenOp {
    Creat(u8),
    Write(u8, u8),
    Rename(u8, u8),
    Unlink(u8),
    Fsync(u8),
    Close(u8),
}

fn file_name(i: u8) -> String {
    format!("/f{}", i % 4)
}

/// Lower a generated op sequence into an executable PfsCall sequence,
/// tracking namespace state so every call is valid (the PFS models
/// assert on unknown files).
fn lower(ops: &[GenOp]) -> Vec<PfsCall> {
    let mut exists = [false; 4];
    let mut out = Vec::new();
    for op in ops {
        match op {
            GenOp::Creat(f) => {
                let f = (*f % 4) as usize;
                if !exists[f] {
                    exists[f] = true;
                    out.push(PfsCall::Creat {
                        path: file_name(f as u8),
                    });
                }
            }
            GenOp::Write(f, len) => {
                let f = (*f % 4) as usize;
                if exists[f] {
                    out.push(PfsCall::Pwrite {
                        path: file_name(f as u8),
                        offset: 0,
                        data: vec![*len; 1 + (*len as usize % 48)],
                    });
                }
            }
            GenOp::Rename(a, b) => {
                let (a, b) = ((*a % 4) as usize, (*b % 4) as usize);
                if a != b && exists[a] {
                    out.push(PfsCall::Rename {
                        src: file_name(a as u8),
                        dst: file_name(b as u8),
                    });
                    exists[a] = false;
                    exists[b] = true;
                }
            }
            GenOp::Unlink(f) => {
                let f = (*f % 4) as usize;
                if exists[f] {
                    exists[f] = false;
                    out.push(PfsCall::Unlink {
                        path: file_name(f as u8),
                    });
                }
            }
            GenOp::Fsync(f) => {
                let f = (*f % 4) as usize;
                if exists[f] {
                    out.push(PfsCall::Fsync {
                        path: file_name(f as u8),
                    });
                }
            }
            GenOp::Close(f) => {
                let f = (*f % 4) as usize;
                if exists[f] {
                    out.push(PfsCall::Close {
                        path: file_name(f as u8),
                    });
                }
            }
        }
    }
    out
}

/// 1 to ~6 random symbolic ops, shrinking with the `size` budget.
fn arb_ops(rng: &mut Rng, size: usize) -> Vec<GenOp> {
    let len = 1 + rng.gen_range(0..=size.min(5) as u64) as usize;
    (0..len)
        .map(|_| {
            let f = (rng.next_u32() % 4) as u8;
            match rng.gen_index(6) {
                0 => GenOp::Creat(f),
                1 => GenOp::Write(f, (rng.next_u32() % 255) as u8),
                2 => GenOp::Rename(f, (rng.next_u32() % 4) as u8),
                3 => GenOp::Unlink(f),
                4 => GenOp::Fsync(f),
                _ => GenOp::Close(f),
            }
        })
        .collect()
}

fn run_calls(fs: FsKind, params: &Params, calls: &[PfsCall]) -> Stack {
    let mut stack = Stack::new(fs.build(params));
    // Preamble: one pre-existing file so renames/overwrites have targets.
    stack.posix(0, PfsCall::Creat { path: "/f0".into() });
    stack.posix(
        0,
        PfsCall::Pwrite {
            path: "/f0".into(),
            offset: 0,
            data: b"seed-content".to_vec(),
        },
    );
    stack.posix(0, PfsCall::Close { path: "/f0".into() });
    stack.seal_preamble();
    for call in calls {
        stack.posix(0, call.clone());
    }
    stack
}

/// ext4 in data-journaling mode has no inconsistent crash states —
/// for *any* program (the Figure 8 control, universally).
#[test]
fn ext4_is_always_crash_consistent() {
    run(
        "ext4_is_always_crash_consistent",
        &Config::with_cases(24),
        arb_ops,
        |ops| {
            let params = Params::quick();
            let mut calls = lower(ops);
            // The preamble creates /f0; drop duplicate creation.
            calls.retain(|c| !matches!(c, PfsCall::Creat { path } if path == "/f0"));
            let stack = run_calls(FsKind::Ext4, &params, &calls);
            let factory = FsKind::Ext4.factory(&params);
            let outcome = check_stack(&stack, &factory, &CheckConfig::paper_default());
            prop_assert_eq!(outcome.raw_inconsistent_states, 0);
            Ok(())
        },
    );
}

/// Lustre's aggregation + barriers keep every random POSIX program
/// crash-consistent (§6.3.1).
#[test]
fn lustre_is_posix_crash_consistent() {
    run(
        "lustre_is_posix_crash_consistent",
        &Config::with_cases(24),
        arb_ops,
        |ops| {
            let params = Params::quick();
            let mut calls = lower(ops);
            calls.retain(|c| !matches!(c, PfsCall::Creat { path } if path == "/f0"));
            let stack = run_calls(FsKind::Lustre, &params, &calls);
            let factory = FsKind::Lustre.factory(&params);
            let outcome = check_stack(&stack, &factory, &CheckConfig::paper_default());
            prop_assert_eq!(outcome.raw_inconsistent_states, 0);
            Ok(())
        },
    );
}

/// Every FS materializes random programs losslessly: applying the
/// full trace onto the baseline reproduces the live state, and
/// recovery of the uncrashed state changes nothing.
#[test]
fn replay_is_lossless_everywhere() {
    run(
        "replay_is_lossless_everywhere",
        &Config::with_cases(24),
        arb_ops,
        |ops| {
            let params = Params::quick();
            let mut calls = lower(ops);
            calls.retain(|c| !matches!(c, PfsCall::Creat { path } if path == "/f0"));
            for fs in FsKind::all() {
                let stack = run_calls(fs, &params, &calls);
                let mut states = stack.pfs.baseline().clone();
                states.apply_events(&stack.rec, stack.rec.lowermost_events());
                prop_assert_eq!(
                    stack.pfs.client_view(&states),
                    stack.pfs.client_view(stack.pfs.live())
                );
                let mut live = stack.pfs.live().clone();
                let before = stack.pfs.client_view(&live);
                stack.pfs.recover(&mut live);
                prop_assert_eq!(before, stack.pfs.client_view(&live));
            }
            Ok(())
        },
    );
}
