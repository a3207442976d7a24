//! `paracrash selftest <plane> [args]` — the tool checking itself: the
//! gate helpers `scripts/verify.sh` drives.
//!
//! ```sh
//! paracrash selftest obs                        # the obs plane's disabled-overhead budget
//! paracrash selftest explain reports/ [MIN]      # --explain-out bundles
//! paracrash selftest events --canonical-diff a.jsonl b.jsonl
//! paracrash selftest scale                      # engine ratios, measured live
//! ```
//!
//! `obs` asserts the observability plane's disabled-overhead budget
//! ([`super::overhead`]); `explain DIR` validates a bundle directory and
//! `events --canonical-diff` compares two streams' deterministic content
//! (the stream and trace files themselves are validated by
//! `paracrash report`, which reads each with its writer's reader).
//! `scale` reads no artifact: it measures live.
//! Every check exits 0 when it holds and 1 with a one-line diagnostic
//! otherwise; a malformed command line exits 2.

use super::figures::fig11_params;
use super::overhead::{self, Fixture};
use paracrash::{check_stack, prepare_states, BugExplanation};
use pc_rt::obs::stream::read_stream;
use pfs::{recover_and_mount, PfsView};
use std::fmt::Display;
use std::hint::black_box;
use std::time::Instant;
use workloads::{Params, Program};

/// The planes, as `usage()` and the unknown-plane error print them.
pub const PLANES: &str = "obs|explain|events|scale";

/// The verdict of every selftest. Deliberately `eprintln!`, not
/// `pc_error!`: it is this tool's user-facing output and must print
/// regardless of `PC_LOG`.
pub fn fail(msg: impl Display) -> ! {
    eprintln!("selftest: FAIL: {msg}");
    std::process::exit(1);
}

fn bad_usage(msg: impl Display) -> ! {
    eprintln!("selftest: {msg}\nusage: paracrash selftest <{PLANES}> [args]");
    std::process::exit(2);
}

// --- shared reader -----------------------------------------------------------

fn read(path: &str) -> String {
    std::fs::read_to_string(path).unwrap_or_else(|e| fail(format_args!("cannot read {path}: {e}")))
}

// --- events: the determinism contract of `--events-out` streams -----------

/// Compare the deterministic projection
/// (`pc_rt::obs::stream::Stream::canonical_lines`) of two streams — the
/// check the determinism contract rests on: two runs of the same sweep
/// must project identically even though their timestamps differ.
fn check_canonical_diff(a_path: &str, b_path: &str) {
    let project = |path: &str| {
        let stream = read_stream(&read(path)).unwrap_or_else(|e| fail(format_args!("{path}: {e}")));
        stream.canonical_lines()
    };
    let (a, b) = (project(a_path), project(b_path));
    if let Some(i) = (0..a.len().max(b.len())).find(|&i| a.get(i) != b.get(i)) {
        let at = |lines: &[String]| lines.get(i).cloned().unwrap_or("(no such line)".into());
        let (la, lb) = (at(&a), at(&b));
        fail(format_args!(
            "canonical projections diverge at line {i}:\n  {a_path}: {la}\n  {b_path}: {lb}"
        ));
    }
    println!(
        "selftest events: OK — canonical projections equal ({} lines): {a_path} == {b_path}",
        a.len()
    );
}

// --- explain: `--explain-out` bundle directories ----------------------------

/// Per bundle stem: the `.md` and `.dot` siblings both exist (equal
/// counts), the `.dot` is structurally sound and the `.md` opens with
/// the bug heading. `min_bundles` guards against a silently empty run.
fn check_explain(dir: &str, min_bundles: usize) {
    let mut stems: Vec<String> = Vec::new();
    let entries =
        std::fs::read_dir(dir).unwrap_or_else(|e| fail(format_args!("cannot read {dir}: {e}")));
    let mut md = 0usize;
    for entry in entries {
        let path = entry
            .unwrap_or_else(|e| fail(format_args!("{dir}: {e}")))
            .path();
        let (Some(stem), Some(ext)) = (
            path.file_stem().and_then(|s| s.to_str()),
            path.extension().and_then(|s| s.to_str()),
        ) else {
            continue;
        };
        match ext {
            "md" => md += 1,
            "dot" => stems.push(stem.to_string()),
            _ => {}
        }
    }
    let dot = stems.len();
    if md != dot {
        fail(format_args!(
            "bundle siblings out of step: {md} .md, {dot} .dot"
        ));
    }
    if dot < min_bundles {
        fail(format_args!(
            "only {dot} bundles found, expected >= {min_bundles}"
        ));
    }
    stems.sort_unstable();
    for stem in &stems {
        let sibling = |ext: &str| format!("{dir}/{stem}.{ext}");
        if let Err(e) = BugExplanation::lint_dot(&read(&sibling("dot"))) {
            fail(format_args!("{stem}.dot: {e}"));
        }
        if !read(&sibling("md")).starts_with("# Bug: ") {
            fail(format_args!("{stem}.md does not open with the bug heading"));
        }
    }
    println!(
        "selftest explain: OK — {dir}: {} bundles, DOT lint clean",
        stems.len()
    );
}

// --- scale: same-machine ratios, measured live -------------------------------

/// Fastest of `reps` alternating runs of `a` and `b`, in seconds, each
/// result passed through `black_box`. Min is the right statistic against
/// noise on a shared box, and alternating puts a load burst on both
/// sides of the ratio.
fn min_secs_pair<A, B>(
    reps: u32,
    mut a: impl FnMut() -> A,
    mut b: impl FnMut() -> B,
) -> (f64, f64) {
    let mut best = (f64::INFINITY, f64::INFINITY);
    for _ in 0..reps {
        let t = Instant::now();
        black_box(a());
        best.0 = best.0.min(t.elapsed().as_secs_f64());
        let t = Instant::now();
        black_box(b());
        best.1 = best.1.min(t.elapsed().as_secs_f64());
    }
    best
}

/// The two invariants of the extreme-scale engine, as ratios of two
/// measurements taken in this process (no absolute threshold, so a slow
/// or loaded box moves both sides alike):
///
/// * on the 16-server ARVR/BeeGFS cell the batched engine — one shared
///   prefix tree of COW forks, one recovery per subtree representative
///   — turns crash states into mounted views at least 2× as fast as the
///   per-state `deep_clone → apply_events → recover_and_mount` loop
///   (what `paracrash::check_reference` does per state);
/// * `check_stack` on a traced `H5-create`/BeeGFS run costs what the
///   crash wrote, not the cluster size: the cost per checked state at
///   256 servers is less than 1.5× the cost at 64, though the cluster
///   grew 4×.
///
/// Both 16-server loops fold every state's view digest through
/// `black_box`, so neither can skip verdict work.
fn check_scale() {
    let cell = |program, servers| Fixture::new(program, fig11_params(&Params::quick(), servers));
    let Fixture { stack, states, .. } = cell(Program::Arvr, 16);
    let batched_loop = || {
        let plan = prepare_states(&stack.rec, stack.pfs.baseline(), &states);
        let mut views: Vec<Option<PfsView>> = (0..states.len()).map(|_| None).collect();
        let mut digest = 0u64;
        for &rep in &plan.rep {
            if views[rep].is_none() {
                let mut st = plan.prepared[rep].fork();
                let view = recover_and_mount(stack.pfs.as_ref(), &mut st);
                views[rep] = Some(view);
            }
            digest ^= views[rep].as_ref().expect("recovered above").digest();
        }
        digest
    };
    let per_state_loop = || {
        let mut digest = 0u64;
        for state in &states {
            let mut st = stack.pfs.baseline().deep_clone();
            st.apply_events(&stack.rec, state.persisted.iter());
            let view = recover_and_mount(stack.pfs.as_ref(), &mut st);
            digest ^= view.digest();
        }
        digest
    };
    let (batched, per_state) = min_secs_pair(25, batched_loop, per_state_loop);
    let speedup = per_state / batched;
    let rate = |secs: f64| states.len() as f64 / secs;
    if speedup < 2.0 {
        fail(format_args!(
            "batched engine is only {speedup:.2}x the per-state loop at 16 servers \
             ({:.0} vs {:.0} states/sec; need >= 2x)",
            rate(batched),
            rate(per_state)
        ));
    }

    // The check of an already-traced run: tracing the cell is set-up,
    // linear in the server count by construction (one store per server).
    let check = |fx: &Fixture| check_stack(&fx.stack, &fx.factory, &fx.cfg);
    let (c64, c256) = (cell(Program::H5Create, 64), cell(Program::H5Create, 256));
    let (secs64, secs256) = min_secs_pair(5, || check(&c64), || check(&c256));
    let per_check =
        |fx: &Fixture, secs: f64| secs * 1e9 / check(fx).stats.states_checked.max(1) as f64;
    let (pc64, pc256) = (per_check(&c64, secs64), per_check(&c256, secs256));
    let growth = pc256 / pc64;
    if growth >= 1.5 {
        fail(format_args!(
            "per-check cost grows {growth:.2}x from 64 to 256 servers \
             ({pc64:.0} -> {pc256:.0} ns; need < 1.5x: a check costs what the crash \
             wrote, not the server count)"
        ));
    }
    println!(
        "selftest scale: OK — batched {speedup:.2}x per-state at 16 servers \
         ({:.0} vs {:.0} states/sec), per-check growth 64->256 {growth:.2}x \
         ({pc64:.0} -> {pc256:.0} ns)",
        rate(batched),
        rate(per_state)
    );
}

// --- dispatch ---------------------------------------------------------------

fn number<T: std::str::FromStr>(what: &str, s: &str) -> T {
    s.parse()
        .unwrap_or_else(|_| bad_usage(format_args!("bad {what} {s}")))
}

/// The `selftest` subcommand.
pub fn run(args: &[String]) -> ! {
    let Some((plane, rest)) = args.split_first() else {
        bad_usage("selftest needs a plane");
    };
    let rest: Vec<&str> = rest.iter().map(String::as_str).collect();
    match (plane.as_str(), rest.as_slice()) {
        ("obs", []) => overhead::disabled_obs(),
        ("explain", [dir]) => check_explain(dir, 15),
        ("explain", [dir, min]) => check_explain(dir, number("min-bundles", min)),
        ("events", ["--canonical-diff", a, b]) => check_canonical_diff(a, b),
        ("scale", []) => check_scale(),
        _ => bad_usage(format_args!(
            "no selftest matches `{plane} {}`",
            rest.join(" ")
        )),
    }
    std::process::exit(0);
}
