//! `paracrash table3|fig8|fig9|fig10|fig11 [--paper]` — regenerate the
//! paper's evaluation artifacts. `--paper` runs the full Table 2
//! configuration; the default runs the scaled-down configuration with
//! identical cross-server structure.

use paracrash::model::Model;
use paracrash::stack::replay_pfs;
use paracrash::{CheckConfig, CheckOutcome, ExploreMode, LayerVerdict};
use pc_bench::{generate, render_bug, run_program, run_program_swept};
use std::collections::BTreeSet;
use tracer::CausalityGraph;
use workloads::ground_truth::BugLayer;
use workloads::{table3 as ground_truth, FsKind, Params, Program};

/// A figure subcommand: its name and what it prints.
type Figure = (&'static str, fn(Params));

/// The figure subcommands, by name.
pub const FIGURES: [Figure; 5] = [
    ("table3", table3),
    ("fig8", fig8),
    ("fig9", fig9),
    ("fig10", fig10),
    ("fig11", fig11),
];

/// Table 3: the crash-consistency bugs discovered across the full
/// `program × file-system` matrix — per (program, FS) the unique bugs
/// with their layer attribution, violated model and Table 1
/// classification, then a summary against the paper's 15 ground-truth
/// rows (`workloads::ground_truth`).
fn table3(params: Params) {
    let cfg = CheckConfig::paper_default();
    println!("ParaCrash reproduction — Table 3 regeneration");
    println!(
        "config: stripe={} dims={} servers={}+{} clients={} k={} mode={}\n",
        params.stripe,
        params.dims,
        params.meta,
        params.storage,
        params.clients,
        cfg.k,
        cfg.mode.as_str()
    );

    let mut found: Vec<(Program, FsKind, String, LayerVerdict)> = Vec::new();
    for program in Program::paper_eleven() {
        for fs in FsKind::all() {
            // The default parameters run under the §6.2 dimension sweep;
            // the bug-14 sensitivity additionally needs the B-tree-split
            // dimension for H5-resize (run unswept — it exists solely to
            // cross the split threshold).
            let mut variants: Vec<(Params, bool)> = vec![(params.clone(), true)];
            if matches!(program, Program::H5Resize) {
                variants.push((params.clone().with_dims(params.split_dims()), false));
            }
            let mut printed_header = false;
            let mut seen = BTreeSet::new();
            for (v, sweep) in variants {
                let cell = if sweep {
                    run_program_swept(program, fs, &v, &cfg)
                } else {
                    run_program(program, fs, &v, &cfg)
                };
                for bug in &cell.outcome.bugs {
                    if !seen.insert((bug.signature.clone(), bug.layer)) {
                        continue;
                    }
                    if !printed_header {
                        println!("== {} on {} ==", program.name(), fs.name());
                        printed_header = true;
                    }
                    println!("   {}", render_bug(bug));
                    found.push((program, fs, bug.signature.to_string(), bug.layer));
                }
            }
        }
    }

    println!("\n---- summary vs. the paper ----");
    println!(
        "total unique (program, fs, signature) findings: {}",
        found.len()
    );
    let pfs_found = found
        .iter()
        .filter(|(_, _, _, l)| *l == LayerVerdict::PfsBug)
        .count();
    let iolib_found = found.len() - pfs_found;
    println!("attributed to the PFS layer:        {pfs_found}");
    println!("attributed to the I/O library layer: {iolib_found}");

    println!("\npaper ground truth coverage:");
    for bug in ground_truth() {
        let hit = bug.programs.iter().any(|p| {
            found.iter().any(|(fp, ffs, _, layer)| {
                fp.name() == *p
                    && (bug.file_systems.contains(&ffs.name()) || bug.file_systems == ["HDF5"])
                    && match bug.layer {
                        BugLayer::Pfs | BugLayer::IoLibPfsRooted => *layer == LayerVerdict::PfsBug,
                        BugLayer::IoLib => *layer == LayerVerdict::IoLibBug,
                    }
            })
        });
        println!(
            "  bug {:>2} ({:<18} {:<30}) {}",
            bug.no,
            bug.programs.join("/"),
            bug.file_systems.join(","),
            if hit { "REPRODUCED" } else { "missing" }
        );
    }
}

/// Figure 8: number of inconsistent crash states (unique root causes
/// after §5.2 aggregation) per test program per file system, plus the
/// line series — HDF5-level inconsistencies for which the PFS state was
/// correct.
fn fig8(params: Params) {
    let cfg = CheckConfig::paper_default();
    let systems = FsKind::all();

    println!("Figure 8 — number of inconsistent crash states (unique causes)");
    println!("line series (in parentheses): HDF5 inconsistencies with correct PFS state\n");
    print!("{:<20}", "program");
    for fs in systems {
        print!("{:>12}", fs.name());
    }
    println!();
    for program in Program::paper_eleven() {
        print!("{:<20}", program.name());
        for fs in systems {
            let cell = run_program_swept(program, fs, &params, &cfg);
            let bars = cell.outcome.bugs.len();
            if program.uses_iolib() {
                let line = cell.outcome.iolib_bugs();
                print!("{:>9}({:>1})", bars, line);
            } else {
                print!("{:>12}", bars);
            }
        }
        println!();
    }
    println!(
        "\nexpected shape (paper): ext4 all-zero for POSIX programs; BeeGFS bars on every\n\
         POSIX program; OrangeFS/GlusterFS on ARVR/WAL subsets; GPFS on ARVR/CR/RC;\n\
         Lustre zero for POSIX; every PFS nonzero for the HDF5/NetCDF programs."
    );
}

/// Figure 9: the ARVR program's traces on BeeGFS, OrangeFS, GlusterFS
/// and GPFS, and the legal storage states under causal consistency.
fn fig9(params: Params) {
    // (a) Legal PFS states under causal consistency.
    println!("(a) legal PFS states of ARVR under causal crash consistency\n");
    let fs = FsKind::BeeGfs;
    let stack = generate(|| Program::Arvr.run(fs, &params));
    let factory = fs.factory(&params);
    let legal_replay = pc_rt::obs::span_cat("check.legal_replay", "check");
    let graph = CausalityGraph::build(&stack.rec);
    let ops = stack.calls.event_ids();
    let mut seen = BTreeSet::new();
    for set in Model::Causal.preserved_sets(&graph, &ops, &[]) {
        let subset = stack.calls.subset(&set);
        let names: Vec<String> = subset.iter().map(|(_, c)| c.name().to_string()).collect();
        if let Some(view) = replay_pfs(&factory, &stack.pre_calls, &subset) {
            if seen.insert(view.digest()) {
                println!("preserved {{{}}}:", names.join(", "));
                for line in view.to_string().lines() {
                    println!("    {line}");
                }
            }
        }
    }
    drop(legal_replay);

    // (b)–(d) traces per PFS.
    for fs in [
        FsKind::BeeGfs,
        FsKind::OrangeFs,
        FsKind::GlusterFs,
        FsKind::Gpfs,
    ] {
        println!(
            "\n({}) ARVR trace on {}\n",
            fs.name().to_lowercase(),
            fs.name()
        );
        let stack = generate(|| Program::Arvr.run(fs, &params));
        let _render = pc_rt::obs::span_cat("trace.render", "trace");
        print!("{}", stack.rec.render());
    }
}

/// One cell under the paper's default configuration with an explicit
/// exploration mode.
fn run_with_mode(program: Program, fs: FsKind, params: &Params, mode: ExploreMode) -> CheckOutcome {
    let cfg = CheckConfig {
        mode,
        ..CheckConfig::paper_default()
    };
    run_program(program, fs, params, &cfg).outcome
}

/// Figure 10: exploration time per test program under the three
/// crash-state exploration strategies (brute-force, pruning,
/// optimized), for BeeGFS, OrangeFS and GlusterFS. Times are the cost
/// model's simulated seconds (per-PFS restart costs × reconstruction
/// counts — see `paracrash::explore::CostModel`). Pruning alone makes
/// the optimized mode's decisions with a restart per state, so one
/// optimized check prices both of those columns.
fn fig10(params: Params) {
    for fs in [FsKind::BeeGfs, FsKind::OrangeFs, FsKind::GlusterFs] {
        println!("\n=== ({}) ===", fs.name());
        println!(
            "{:<20} {:>12} {:>12} {:>12} {:>9} {:>9} {:>8}",
            "program", "brute(s)", "pruning(s)", "optim.(s)", "states", "pruned", "speedup"
        );
        let mut totals = [0.0f64; 3];
        for program in Program::paper_eleven() {
            let brute = run_with_mode(program, fs, &params, ExploreMode::BruteForce);
            let optim = run_with_mode(program, fs, &params, ExploreMode::Optimized);
            totals[0] += brute.stats.sim_seconds;
            totals[1] += optim.stats.restart_seconds;
            totals[2] += optim.stats.sim_seconds;
            println!(
                "{:<20} {:>12.1} {:>12.1} {:>12.1} {:>9} {:>9} {:>7.1}x",
                program.name(),
                brute.stats.sim_seconds,
                optim.stats.restart_seconds,
                optim.stats.sim_seconds,
                brute.stats.states_total,
                optim.stats.states_pruned,
                brute.stats.sim_seconds / optim.stats.sim_seconds.max(0.001),
            );
        }
        println!(
            "{:<20} {:>12.1} {:>12.1} {:>12.1}   overall speedup {:.1}x (pruning {:.1}x)",
            "TOTAL",
            totals[0],
            totals[1],
            totals[2],
            totals[0] / totals[2].max(0.001),
            totals[0] / totals[1].max(0.001),
        );
    }
    println!(
        "\nexpected shape (paper §6.4): pruning alone up to 2.9x (POSIX) / 7.3x (HDF5);\n\
         incremental reconstruction ~4.2x per state; combined ~5x on BeeGFS (largest\n\
         restart cost); up to 12.6x overall."
    );
}

/// The Figure 11 cluster at `servers` servers: half metadata, half
/// storage, the stripe shrinking as servers grow, as in the paper.
pub fn fig11_params(base: &Params, servers: u32) -> Params {
    let stripe = (base.stripe * 4 / u64::from(servers)).max(256);
    base.clone()
        .with_servers(servers / 2, servers - servers / 2)
        .with_stripe(stripe)
}

/// Figure 11: scalability — exploration time for the HDF5 test programs
/// as the number of metadata+storage servers grows from 4 to 32, with
/// the stripe size shrinking proportionally (the paper: 128 KiB at 4
/// servers down to 16 KiB at 32). The paper's claim: without pruning
/// the time would grow exponentially (the file splits into more chunks
/// → more persisted-combination states); ParaCrash grows roughly
/// linearly. Prints both the optimized time and the total crash-state
/// count the brute-force mode would have to reconstruct.
fn fig11(base: Params) {
    let programs = [
        Program::H5Create,
        Program::H5Delete,
        Program::H5Rename,
        Program::H5Resize,
    ];
    println!(
        "{:<12} {:<20} {:>8} {:>10} {:>12} {:>12}",
        "fs", "program", "servers", "stripe", "optim.(s)", "states"
    );
    for fs in [FsKind::BeeGfs, FsKind::GlusterFs, FsKind::OrangeFs] {
        for program in programs {
            for n in [4u32, 6, 8, 16, 32] {
                let params = fig11_params(&base, n);
                let outcome = run_with_mode(program, fs, &params, ExploreMode::Optimized);
                println!(
                    "{:<12} {:<20} {:>8} {:>10} {:>12.1} {:>12}",
                    fs.name(),
                    program.name(),
                    n,
                    params.stripe,
                    outcome.stats.sim_seconds,
                    outcome.stats.states_total,
                );
            }
        }
    }
    println!(
        "\nexpected shape (paper): execution time grows roughly linearly with the\n\
         server count under ParaCrash's pruning; the raw crash-state count (which\n\
         brute force would reconstruct) grows much faster."
    );
}

/// Run the figure subcommand `name` with `args` (only `--paper`); a
/// `PC_TRACE` run (`traced`) ends with its summary table.
pub fn run(figure: fn(Params), name: &str, args: &[String], traced: bool) -> ! {
    let mut paper = false;
    for a in args {
        match a.as_str() {
            "--paper" => paper = true,
            other => {
                pc_rt::pc_error!(
                    "unknown {name} argument: {other} (usage: paracrash {name} [--paper])"
                );
                std::process::exit(2);
            }
        }
    }
    figure(if paper {
        Params::paper()
    } else {
        Params::quick()
    });
    crate::finish_obs(None, traced);
    std::process::exit(0);
}
