//! `paracrash bench [FILTER] [--json [PATH]]` — the wall-clock
//! benchmark driver (a plain subcommand on the vendored `pc-rt` harness
//! instead of `cargo bench`'s criterion targets):
//!
//! ```sh
//! paracrash bench                  # all suites
//! paracrash bench fig10            # name filter
//! paracrash bench --json           # per-group BENCH_*.json
//! paracrash bench --json out.json
//! PC_BENCH_TIME_MS=200 PC_THREADS=4 paracrash bench
//! ```
//!
//! Suites: `fig10-explore` / `trace-generation` / `snapshot-engine`
//! (exploration modes and replay engines), `fig11-scalability`
//! (server-count scaling), `scale` (batched-vs-oracle states/sec and
//! the 64/128/256-server Figure 11 extension — the committed
//! `BENCH_scale.json`), `simfs`/`pfs`/`tracer`/`paracrash`/`h5sim`
//! substrate micro-benches, `ablation-victims` / `ablation-journal`,
//! `telemetry`, `faults`, `explain` (witness-shrinking cost with and
//! without prefix-sharing), `fuzz` (generated-workload enumeration
//! and campaign throughput), and `profiling` (sampler-on vs -off
//! engine throughput and per-stage allocation accounting — the
//! committed `BENCH_profiling.json`).
//!
//! Bare `--json` writes one `BENCH_<group>.json` per registration group
//! (`substrate`, `explore`, `scalability`, `ablation`) at the repo root;
//! `--json PATH` writes every sample to one combined file instead. The
//! format is documented in `EXPERIMENTS.md`.

use pc_bench::{bench_samples_json, benches};
use pc_rt::bench::Bench;

/// Registration groups in registration order: group name → suite.
const SUITES: [(&str, fn(&mut Bench)); 10] = [
    ("substrate", benches::substrate::register),
    ("explore", benches::explore::register),
    ("scalability", benches::scalability::register),
    ("scale", benches::scale::register),
    ("ablation", benches::ablation::register),
    ("telemetry", benches::telemetry::register),
    ("faults", benches::faults::register),
    ("explain", benches::explain::register),
    ("fuzz", benches::fuzz::register),
    ("profiling", benches::profiling::register),
];

/// The `bench` subcommand.
pub fn run(args: &[String]) -> ! {
    // Parse `[FILTER] [--json [PATH]]` ourselves so a `--json` value is
    // never mistaken for the name filter. A bare `--json` (end of args
    // or followed by another flag) selects per-group output.
    let mut filter: Option<String> = None;
    let mut json_combined: Option<String> = None;
    let mut json_per_group = false;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--json" => match args.get(i + 1) {
                Some(path) if !path.starts_with('-') => {
                    json_combined = Some(path.clone());
                    i += 1;
                }
                _ => json_per_group = true,
            },
            flag if flag.starts_with('-') => {
                pc_rt::pc_error!(
                    "unknown flag {flag} (usage: paracrash bench [FILTER] [--json [PATH]])"
                );
                std::process::exit(2);
            }
            name => {
                if filter.is_some() {
                    pc_rt::pc_error!("more than one filter given ({name})");
                    std::process::exit(2);
                }
                filter = Some(name.to_string());
            }
        }
        i += 1;
    }

    let mut cfg = pc_rt::bench::Config::default();
    cfg.filter = filter;
    let mut b = Bench::new(cfg);
    // Remember where each group's samples start so per-group output can
    // slice the one shared sample list.
    let mut bounds = Vec::with_capacity(SUITES.len());
    for (name, register) in SUITES {
        let start = b.samples().len();
        register(&mut b);
        bounds.push((name, start, b.samples().len()));
    }

    print!("{}", b.report());
    if b.samples().is_empty() {
        pc_rt::pc_error!("no benchmark matched the filter");
        std::process::exit(1);
    }

    if let Some(path) = json_combined {
        let doc = bench_samples_json(b.samples());
        std::fs::write(&path, doc.pretty() + "\n").expect("write bench JSON");
        pc_rt::pc_info!("wrote {path}");
    } else if json_per_group {
        // The binary lives in crates/bench; BENCH_*.json go to the repo
        // root so harness runs always land in the same place.
        let root = concat!(env!("CARGO_MANIFEST_DIR"), "/../..");
        for (name, start, end) in bounds {
            if start == end {
                continue; // filtered out entirely — keep old files intact
            }
            let path = format!("{root}/BENCH_{name}.json");
            let doc = bench_samples_json(&b.samples()[start..end]);
            std::fs::write(&path, doc.pretty() + "\n").expect("write bench JSON");
            pc_rt::pc_info!("wrote BENCH_{name}.json");
        }
    }
    std::process::exit(0);
}
