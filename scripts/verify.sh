#!/usr/bin/env bash
# Tier-1 verification for the hermetic, zero-registry-dependency build.
#
# Twelve gates:
#   1. Dependency policy — every dependency in every Cargo.toml is an
#      in-tree `path` crate (or a `*.workspace = true` reference to
#      one); a registry dependency fails *before* cargo runs.
#   2. Tier-1 — `cargo build --release` and `cargo test -q --workspace`
#      (root suite plus every crate's unit tests), fully offline, so a
#      cold, empty ~/.cargo/registry is sufficient.
#   3. Hygiene — `cargo fmt --check`, a warning-free build, a clean
#      `cargo clippy --all-targets -D warnings`, no PFS model
#      re-defining `ModelBase` plumbing or `fork`, hand-rolling the
#      storage-side orphan sweep or spelling its own chunk path, no HDF5
#      signature outside `format.rs`, one image builder per check (the
#      recovery memo's `ProbeImages`), one library stepper (workloads
#      call `Stack::h5`, golden walks build no instance), one cut
#      enumerator (`consistent_cuts`, in `graph.rs`), no artifact wire key read outside
#      the module that writes it, no `BENCH_*.json` or `PC_BENCH`-prefixed
#      second ledger, no test under `crates/` setting its own process's
#      environment.
#   4. Differential — `check_stack` and the straight-line
#      `check_reference` decide identically in debug and in release; with
#      them the golden walk, the pfs fork and the fsck repairs in release;
#      GPFS/H5-resize through the CLI twice — each process seeds its hash
#      maps differently, so gates 4–8 and 11 run a cell twice and diff
#      the pair to show no iteration order leaks into a report; the
#      property suite again in release, more cases; `benchmark/run.sh --smoke`
#      builds `benchmark/` (no other gate does) and reproduces its pins.
#   5. Observability — a PR-tier fuzz run with both sinks attached
#      prints the pinned report in each of two runs, and
#      `paracrash report` reads back and renders each set; the second
#      run, under PC_TRACE=summary, prints one table for the whole sweep
#      (one header, a `check_stack` row of 426 calls), not one per check,
#      and charges under 1 % of its allocated bytes to `(untracked)`;
#      the stream has
#      no span/counter line and the two project alike (`--canonical-diff`);
#      the trace's `stacks` name the stages down to `rpc.message`, `h5.parse`
#      and the golden walk's steps;
#      the dashboard has exactly its three panels (coverage curve,
#      heatmap, flame) and no script or link; the planes'
#      *disabled* sites cost a checked cell under 3% (`selftest obs`).
#   6. Torn writes — one torn-write seed gives bit-identical CLI reports
#      in two runs (torn states recover past the recovery memo, so an
#      iteration order that reached a verdict would show here first), and
#      a fault-free full matrix reproduces exactly the fifteen Table 3
#      bugs.
#   7. Provenance — a full-matrix `--explain-out` run emits one `.md` +
#      `.dot` bundle per bug, byte-identical in two runs and to the
#      pinned checksums, each graph linted (`selftest explain DIR`).
#   8. Fuzz triage — a sampled sweep with `--findings-out` writes its
#      `.repro` bundles (gate 5 holds the PR tier to its pin in two
#      runs). PC_FUZZ_NIGHTLY=1 adds the bound-3 all-FS
#      all-mode sampled sweep, run twice and diffed.
#   9. Rustdoc — `cargo doc --no-deps` builds with -D warnings.
#  10. Flag drift — every `--flag` and every `PC_*` variable printed by
#      `paracrash --help` (the latter from the `pc_rt::env` table every
#      read goes through) is in README.md, which names no other `PC_*`.
#  11. Extreme scale — a 64-server ARVR cell and the 256-server
#      H5-create cell (stripe 256, the benchmark's scale_256) report
#      byte-identically in two runs, and `selftest scale`
#      measures, in one process, the batched engine at >= 2x the
#      per-state loop and per-check growth under 1.5x from 64 to 256
#      servers (a check costs what the crash wrote).
#  12. Crash-safe sweep — a PR-tier `fuzz --state-dir` killed by a real
#      SIGKILL leaves a stream `report` renders as a crash dump, refuses
#      to rerun without `--resume`, and resumes in a new process to the pin.
#      (`tests/campaign_resume.rs`, in gate 2, kills at every durability
#      point with torn tails.)
set -euo pipefail
cd "$(dirname "$0")/.."

# Fail unless FILE contains every pattern on stdin (one a line).
require_in() {
    while read -r pattern; do
        grep -q -- "$pattern" "$1" || { echo "FAIL: $1 has no $pattern"; exit 1; }
    done
}

# Fail unless two runs of the CLI cell ARGS print the same report. Each
# process seeds its HashMaps differently, so the pair guards run-to-run
# determinism. The cells used find bugs, so they exit 1 by design.
run_twice() {
    target/release/paracrash "$@" > "$tmp/run-a.txt" || [ $? -eq 1 ]
    target/release/paracrash "$@" > "$tmp/run-b.txt" || [ $? -eq 1 ]
    diff "$tmp/run-a.txt" "$tmp/run-b.txt"
}

echo "== gate 1: no registry dependencies =="
fail=0
for manifest in Cargo.toml crates/*/Cargo.toml; do
    # Within dependency tables, flag any spec that is neither a `path`
    # dependency nor a workspace inheritance.
    bad=$(awk '
        /^\[/ {
            in_deps = ($0 ~ /^\[(workspace\.)?(dev-|build-)?dependencies/)
            next
        }
        in_deps && /=/ {
            if ($0 !~ /path[ \t]*=/ && $0 !~ /\.workspace[ \t]*=[ \t]*true/ && $0 !~ /^[ \t]*#/) {
                print FILENAME ": " $0
            }
        }
    ' "$manifest")
    if [ -n "$bad" ]; then
        echo "registry dependency detected (hermetic-build policy forbids these):"
        echo "$bad"
        fail=1
    fi
done
if [ "$fail" -ne 0 ]; then
    echo "FAIL: vendor the functionality into crates/rt (pc-rt) or another in-tree crate."
    exit 1
fi
echo "ok: all dependencies are in-tree path crates"

echo "== gate 2: tier-1 build + tests, offline =="
export CARGO_NET_OFFLINE=true
cargo build --release --offline
cargo test -q --offline --workspace

echo "== gate 3: formatting + warning-free build =="
cargo fmt --check
RUSTFLAGS="-D warnings" cargo build --offline --workspace
cargo clippy --all-targets --offline --workspace -- -D warnings
# The plumbing pfs::ModelBase owns must not grow back into a model file,
# nor a hand-written fork (`Clone` is the fork: pfs::Fork's blanket impl).
grep -nE 'fn (emit|net|parent_of|name_of|seal_baseline|baseline|live|fork)\b' \
    crates/pfs/src/{beegfs,orangefs,glusterfs,gpfs,lustre,ext4}.rs && { echo "FAIL: model redefines base plumbing"; exit 1; } || true
# One storage-side orphan sweep: `ModelBase::collect_orphans`.
orphan_gc='unlink\(&format!\("[^"]*/\{[a-z]+\}"\)'
grep -nE "$orphan_gc" crates/pfs/src/*.rs | grep -v '^crates/pfs/src/base.rs:' && { echo "FAIL: a hand-rolled orphan sweep"; exit 1; } || true
grep -qE "$orphan_gc" crates/pfs/src/base.rs || { echo "FAIL: the orphan-sweep fence matches nothing"; exit 1; }
# One chunk-path spelling: `ModelBase::chunk_path`, under the object
# directory a model names once, in its constructor (`mkfs_objects`).
grep -nE 'format!\("/(chunks|bstreams|objects)/' crates/pfs/src/*.rs && { echo "FAIL: a model spells its own chunk path"; exit 1; } || true
grep -qE 'format!\("\{\}/\{object\}\.\{stripe\}"' crates/pfs/src/base.rs || { echo "FAIL: the chunk-path fence matches nothing"; exit 1; }
# The HDF5 layout has one reader: its signatures appear in format.rs only.
grep -rnE 'b"(OHDR|TREE|HEAP|SNOD|DTRE)"' crates | grep -v '^crates/h5sim/src/format.rs:' && { echo "FAIL: a second reader of the HDF5 layout"; exit 1; } || true
# One image builder per check: `RecoveryMemo::new` makes the check's
# `snapshot::ProbeImages`, and every image of the check (crash states,
# classifier and explain probes) is a persisted set asked of that memo.
grep -rn 'ProbeImages::new' crates/core/src | grep -vE '^crates/core/src/(check|snapshot)\.rs:' && { echo "FAIL: a second image builder"; exit 1; } || true
grep -nE 'ProbeImages|prepare_states|apply_events|deep_clone' crates/core/src/{explain,classify}.rs && { echo "FAIL: a probe builds its own image"; exit 1; } || true
[ "$(grep -c 'ProbeImages::new' crates/core/src/check.rs)" = 1 ] || { echo "FAIL: check.rs makes other than one image builder"; exit 1; }
# One library stepper: workloads issue H5Calls through `Stack::h5`, and
# the golden walks fork the sealed pre-test snapshot, never a factory's.
grep -q 'pub fn h5(' crates/core/src/stack.rs || { echo "FAIL: the library-stepper fence matches nothing"; exit 1; }
grep -rnE '(H5File|NcFile)::' crates/workloads/src && { echo "FAIL: a workload drives the library by hand"; exit 1; } || true
grep -n 'factory()' crates/core/src/golden.rs && { echo "FAIL: a golden walk builds its own instance"; exit 1; } || true
# One cut enumerator: `CausalityGraph::consistent_cuts`, on universe-local
# masks. A second one (the old recursion's `extend_cut`) forks the order
# every legal list and report is built in.
cut_fn='fn (extend_cut|consistent_cuts)\b'
grep -rnE "$cut_fn" crates | grep -v '^crates/tracer/src/graph.rs:' && { echo "FAIL: a second cut enumerator"; exit 1; } || true
[ "$(grep -cE "$cut_fn" crates/tracer/src/graph.rs)" = 1 ] || { echo "FAIL: graph.rs defines other than one cut enumerator"; exit 1; }
# So has each artifact: its wire keys are looked up by its writer's module only.
grep -rnE '\.get\("(traceEvents|otherData|ts_ns|published)"\)' crates/*/src | grep -vE '^crates/(core/src/telemetry|rt/src/stream)\.rs:' && { echo "FAIL: a second reader of an artifact"; exit 1; } || true
# benchmark/ is the one perf ledger ([_]: this line must not match itself).
{ ls BENCH_*.json 2> /dev/null || grep -rn 'PC_BENCH[_]' crates scripts README.md; } && { echo "FAIL: second perf ledger"; exit 1; } || true
# A test hook is a pc_rt::inject point, not a variable: a setenv in one
# test thread races every other thread's getenv.
grep -rnE 'env::(set|remove)_var' crates && { echo "FAIL: a test sets its own environment"; exit 1; } || true

echo "== gate 4: check_stack vs check_reference; wide property sweep; benchmark smoke =="
# In debug, then as the code ships, with the golden walk's tests, the
# models' fork, their fsck repairs and their patched mounts, and the
# borrowed views and the HDF5 reader over their chunks.
cargo test -q --offline --test differential
cargo test -q --offline --release --test differential
cargo test -q --offline --release -p paracrash -p pfs -p h5sim -- golden fork fsck mount chunk borrowed
cargo test -q --offline --release --test h5_format_fuzz -- chunked
PC_PROPTEST_CASES=2048 cargo test -q --offline --release --test properties
# The cell whose images collapse most, through the CLI, twice.
cargo build --release --offline -p pc-bench
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
run_twice --fs GPFS --program H5-resize
# An API change that breaks the benchmark's build, or a decision change
# that breaks one of its pins, fails here and not in the perf pipeline.
benchmark/run.sh --smoke > /dev/null

echo "== gate 5: observability — telemetry + event stream from one sweep =="
# The planes observe the fold, never perturb it: stdout is still the
# pinned report, also with PC_TRACE=summary on the second run. Every
# path is nested, exercising each flag's parent creation; `report`
# exits 1 on any file its reader rejects.
obs="$tmp/obs"
for set in a b; do
    d="$obs/$set"
    trace=$([ "$set" = b ] && echo summary || true)
    PC_TRACE=$trace target/release/paracrash fuzz --events-out "$d/events.jsonl" \
        --telemetry-out "$d/telemetry.json" > "$obs-$set.txt" 2> "$obs-$set.err"
    diff "$obs-$set.txt" crates/bench/tests/expected_fuzz_pr_tier.txt
    target/release/paracrash report --events "$d/events.jsonl" --telemetry "$d/telemetry.json" --out "$d/report.html"
done
# One summary of the whole sweep, printed at exit: one header, and a
# `check_stack` row counting all 426 checks.
[ "$(grep -c '── telemetry summary' "$obs-b.err")" -eq 1 ] || { echo "FAIL: PC_TRACE=summary fuzz printed $(grep -c '── telemetry summary' "$obs-b.err") summary tables, want 1"; exit 1; }
grep -qE '^  check_stack +426 ' "$obs-b.err" || { echo "FAIL: the summary's check_stack row does not count the sweep's 426 checks"; exit 1; }
# Every byte has a span: what the sweep allocates outside any span is
# under 1 % of its allocations.
read -r untracked total < <(awk '/"alloc": \{/ { a = 1 } a && /"total": \{/ { k = "total" }
    a && /"\(untracked\)": \{/ { k = "untracked" }
    a && k && /"bytes":/ { gsub(/[^0-9]/, ""); v[k] = $0; k = "" }
    END { print v["untracked"] + 0, v["total"] + 0 }' "$obs/b/telemetry.json")
[ "$total" -gt 0 ] && [ $((untracked * 100)) -lt "$total" ] || { echo "FAIL: $untracked of the sweep's $total allocated bytes are (untracked), want under 1 %"; exit 1; }
# ~1.2 events per cell, not the registry's spans and counters again.
[ "$(wc -l < "$obs/a/events.jsonl")" -lt 1000 ] || { echo "FAIL: event stream over 1000 lines"; exit 1; }
[ "$(grep -c '"kind":"span_\|"kind":"counter"' "$obs/a/events.jsonl")" -eq 0 ] || { echo "FAIL: span/counter events in the stream"; exit 1; }
# Raw streams differ (timestamps); the canonical projection must not.
target/release/paracrash selftest events --canonical-diff \
    "$obs/a/events.jsonl" "$obs/b/events.jsonl"
sed -n '/"stacks": {/,/}/p' "$obs/a/telemetry.json" > "$obs/stacks.txt"
printf '%s\n' snapshot.materialize snapshot.probe recover/ check.enumerate rpc.message h5.parse \
    check.preserved_sets pfs.dispatch h5.step golden.state golden.digest golden.fork | require_in "$obs/stacks.txt"
# Exactly the panels no text output carries (EXPERIMENTS.md names each
# number's text home): a lost panel fails, and so does an extra one.
# And nothing that runs or fetches.
panels=$({ grep -o 'data-metric="[^"]*"' "$obs/a/report.html" || true; } | cut -d'"' -f2 | sort -u | paste -sd' ')
[ "$panels" = "coverage-curve flame heatmap" ] || { echo "FAIL: dashboard panels '$panels', want 'coverage-curve flame heatmap'"; exit 1; }
grep -qE '<script|https?://' "$obs/a/report.html" && { echo "FAIL: the dashboard is not self-contained"; exit 1; } || true
target/release/paracrash selftest obs

echo "== gate 6: torn-write determinism + zero-fault fidelity =="
# Same torn seed => bit-identical CLI report, run after run.
run_twice --fs BeeGFS --program ARVR --torn-seed 7
# Zero-fault runs must still find exactly the paper's fifteen bugs.
target/release/paracrash table3 > "$tmp/table3.txt"
if [ "$(grep -c REPRODUCED "$tmp/table3.txt")" -ne 15 ] || grep -q missing "$tmp/table3.txt"; then
    echo "FAIL: zero-fault matrix does not reproduce the 15 Table 3 bugs"
    grep -E "REPRODUCED|missing" "$tmp/table3.txt"
    exit 1
fi

echo "== gate 7: explain bundles =="
# Full matrix: multi-cell runs always exit 0; bugs land as bundles (192
# files), identical in two runs and to the pin (one `cksum` line per
# file, regenerated with `LC_ALL=C && cksum -- *` in a run's directory
# only for an intended bundle change).
target/release/paracrash --fs all --program all --explain-out "$tmp/explain" > /dev/null
target/release/paracrash --fs all --program all --explain-out "$tmp/explain-b" > /dev/null
diff -r "$tmp/explain" "$tmp/explain-b"
(cd "$tmp/explain" && LC_ALL=C && cksum -- *) | diff - crates/bench/tests/expected_explain_bundles.txt
target/release/paracrash selftest explain "$tmp/explain" 15

echo "== gate 8: fuzz triage (PC_FUZZ_NIGHTLY=1 adds the nightly tier) =="
# Triage smoke: a sampled run with --findings-out must produce bundles.
target/release/paracrash fuzz --sample 25 --fs BeeGFS \
    --findings-out "$tmp/fuzz-findings" > /dev/null 2>&1
ls "$tmp/fuzz-findings"/*.repro > /dev/null || { echo "FAIL: fuzz --findings-out produced no .repro bundles"; exit 1; }
if [ "${PC_FUZZ_NIGHTLY:-0}" = "1" ]; then
    echo "-- nightly tier: bound-3 sampled sweep, all FSs, all modes --"
    nightly=(fuzz --bound 3 --sample 400 --seed 42 --fs all --modes all)
    target/release/paracrash "${nightly[@]}" > "$tmp/fuzz-nightly-a.txt" 2> /dev/null
    target/release/paracrash "${nightly[@]}" > "$tmp/fuzz-nightly-b.txt" 2> /dev/null
    diff "$tmp/fuzz-nightly-a.txt" "$tmp/fuzz-nightly-b.txt"
fi

echo "== gate 9: rustdoc builds warning-free =="
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --offline --workspace > /dev/null

echo "== gate 10: every CLI flag and PC_* variable is documented in README.md =="
# usage() prints to stderr and exits 2; that's the source of truth, for
# the flags and (from the pc_rt::env table) the variables alike.
target/release/paracrash --help 2> "$tmp/help.txt" || true
grep -oE -- '--[a-z-]+|PC_[A-Z_]+' "$tmp/help.txt" | sort -u | require_in README.md
# And back: README.md documents no variable the tool does not read
# (PC_FUZZ_NIGHTLY is this script's own).
grep -oE 'PC_[A-Z_]+' README.md | sort -u | grep -v PC_FUZZ_NIGHTLY | require_in "$tmp/help.txt"

echo "== gate 11: extreme-scale smoke + live scale ratios =="
# 64-server BeeGFS cell (4x the paper's largest configuration): the
# report must not change from run to run.
cat > "$tmp/scale.conf" <<'EOF'
meta_servers = 32
storage_servers = 32
EOF
run_twice --fs BeeGFS --program ARVR --config "$tmp/scale.conf"
# The 256-server scale_256 cell: its verdicts share recovery-memo
# entries and the lazily built baseline index of the dirty-server fsck.
cat > "$tmp/scale256.conf" <<'EOF'
meta_servers = 128
storage_servers = 128
stripe_size = 256
EOF
run_twice --fs BeeGFS --program H5-create --config "$tmp/scale256.conf"
# Same-process ratios, no committed number: batched vs per-state engine
# at 16 servers, per-check cost at 256 vs 64 servers.
target/release/paracrash selftest scale

echo "== gate 12: crash-safe resumable sweep =="
# A real SIGKILL of the pinned PR tier once its log holds the meta record
# and a cell. --events-out creates its missing parent dirs; the stream the
# kill leaves has no trailer, and `report` renders it as a crash dump.
camp=(fuzz --state-dir "$tmp/camp-kill") log="$tmp/camp-kill/corpus.log"
target/release/paracrash "${camp[@]}" --events-out "$tmp/nested/dirs/kill.jsonl" > /dev/null 2>&1 & camp_pid=$!
while kill -0 "$camp_pid" 2> /dev/null && [ "$(stat -c %s "$log" 2> /dev/null || echo 0)" -lt 1024 ]; do sleep 0.01; done
kill -9 "$camp_pid" 2> /dev/null || true
wait "$camp_pid" 2> /dev/null || true
target/release/paracrash report --events "$tmp/nested/dirs/kill.jsonl" --out "$tmp/kill.html"
# Existing state without --resume is refused (exit 2), not clobbered.
rc=0; target/release/paracrash "${camp[@]}" > /dev/null 2>&1 || rc=$?
[ "$rc" -eq 2 ] || { echo "FAIL: rerun without --resume exited $rc, not 2"; exit 1; }
# A resume replays some cells, re-checks the rest, prints the pin.
PC_LOG=info target/release/paracrash "${camp[@]}" --resume \
    > "$tmp/camp-kill.txt" 2> "$tmp/camp-kill.err"
diff crates/bench/tests/expected_fuzz_pr_tier.txt "$tmp/camp-kill.txt"
grep -qE ' [1-9][0-9]*/426 cells this run \([1-9][0-9]* resumed' "$tmp/camp-kill.err" ||
    { echo "FAIL: the SIGKILL did not land mid-sweep"; cat "$tmp/camp-kill.err"; exit 1; }

echo "verify: OK"
