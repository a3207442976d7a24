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
#   3. Hygiene — `cargo fmt --check`, a warning-free build, no PFS model
#      re-defining `ModelBase` plumbing or `fork`, hand-rolling the
#      storage-side orphan sweep or spelling its own chunk path, no HDF5
#      signature outside `format.rs`, no artifact wire key read outside
#      the module that writes it, no `BENCH_*.json` or `PC_BENCH`-prefixed
#      second ledger, no test under `crates/` setting its own process's
#      environment.
#   4. Differential — `check_stack` and the straight-line
#      `check_reference` decide identically in debug and in release (a
#      check reads no PC_THREADS, so once); with them the golden walk,
#      the pfs fork and the fsck repairs in release; GPFS/H5-resize
#      through the CLI at both widths — a check runs on one thread, so
#      gates 4–8 pair the widths to show none leaks into a report, and to
#      guard a sweep that runs cells side by side (ROADMAP item 4); the
#      property suite again in release, more cases; `benchmark/run.sh --smoke`
#      builds `benchmark/` (no other gate does) and reproduces its pins.
#   5. Observability — a PR-tier fuzz run with both sinks attached
#      prints the pinned report at both widths, and
#      `paracrash report` reads back and renders each set; the stream has
#      no span/counter line and projects seq ≡ par (`--canonical-diff`);
#      the trace's `stacks` name the stages down to `rpc.message`, `h5.parse`;
#      the dashboard has every panel and no script or link; the planes'
#      *disabled* sites cost a checked cell under 3% (`selftest obs`).
#   6. Torn writes — one torn-write seed gives bit-identical CLI reports
#      at both widths (torn states recover past the recovery memo, so a
#      schedule that reached a verdict would show here first), and
#      a fault-free full matrix reproduces exactly the fifteen Table 3
#      bugs.
#   7. Provenance — a full-matrix `--explain-out` run emits one `.md` +
#      `.dot` bundle per bug, byte-identical at both widths, each graph
#      linted (`selftest explain DIR`).
#   8. Fuzz triage — a sampled sweep with `--findings-out` writes its
#      `.repro` bundles (gate 5 holds the PR tier to its pin at both
#      widths). PC_FUZZ_NIGHTLY=1 adds the bound-3 all-FS
#      all-mode sampled sweep, run twice and diffed.
#   9. Rustdoc — `cargo doc --no-deps` builds with -D warnings.
#  10. Flag drift — every `--flag` and every `PC_*` variable printed by
#      `paracrash --help` (the latter from the `pc_rt::env` table every
#      read goes through) is in README.md, which names no other `PC_*`.
#  11. Extreme scale — a 64-server ARVR cell and the 256-server
#      H5-create cell (stripe 256, the benchmark's scale_256) report
#      byte-identically sequential vs parallel, and `selftest scale`
#      measures, in one process, the batched engine at >= 2x the
#      per-state loop and per-check growth under 1.5x from 64 to 256
#      servers (a check costs what the crash wrote).
#  12. Crash-safe sweep — a PR-tier `fuzz --state-dir` killed by a real
#      SIGKILL leaves a stream `report` renders as a crash dump, refuses
#      to rerun without `--resume`, and resumes sequentially to the pin.
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

# Fail unless the CLI cell ARGS prints the same report on the pool and
# sequentially. The cells used find bugs, so they exit 1 by design.
seq_eq_par() {
    target/release/paracrash "$@" > "$tmp/par.txt" || [ $? -eq 1 ]
    PC_THREADS=1 target/release/paracrash "$@" > "$tmp/seq.txt" || [ $? -eq 1 ]
    diff "$tmp/par.txt" "$tmp/seq.txt"
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
# So has each artifact: its wire keys are looked up by its writer's module only.
grep -rnE '\.get\("(traceEvents|otherData|ts_ns|published)"\)' crates/*/src | grep -vE '^crates/(core/src/telemetry|rt/src/stream)\.rs:' && { echo "FAIL: a second reader of an artifact"; exit 1; } || true
# benchmark/ is the one perf ledger ([_]: this line must not match itself).
{ ls BENCH_*.json 2> /dev/null || grep -rn 'PC_BENCH[_]' crates scripts README.md; } && { echo "FAIL: second perf ledger"; exit 1; } || true
# A test hook is a pc_rt::inject point, not a variable: a setenv in one
# test thread races every other thread's getenv (PC_THREADS in each pool).
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
# The cell whose images collapse most, through the CLI, at both widths.
cargo build --release --offline -p pc-bench
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
seq_eq_par --fs GPFS --program H5-resize
# An API change that breaks the benchmark's build, or a decision change
# that breaks one of its pins, fails here and not in the perf pipeline.
benchmark/run.sh --smoke > /dev/null

echo "== gate 5: observability — telemetry + event stream from one sweep =="
# The planes observe the fold, never perturb it: stdout is still the
# pinned report. Every path is nested, exercising each flag's parent
# creation; `report` exits 1 on any file its reader rejects.
obs="$tmp/obs"
for set in par seq; do
    d="$obs/$set" pool=-uPC_THREADS; [ "$set" = seq ] && pool=PC_THREADS=1
    env "$pool" target/release/paracrash fuzz --events-out "$d/events.jsonl" \
        --telemetry-out "$d/telemetry.json" > "$obs-$set.txt" 2> /dev/null
    diff "$obs-$set.txt" crates/bench/tests/expected_fuzz_pr_tier.txt
    target/release/paracrash report --events "$d/events.jsonl" --telemetry "$d/telemetry.json" --out "$d/report.html"
done
# ~1.2 events per cell, not the registry's spans and counters again.
[ "$(wc -l < "$obs/par/events.jsonl")" -lt 1000 ] || { echo "FAIL: event stream over 1000 lines"; exit 1; }
[ "$(grep -c '"kind":"span_\|"kind":"counter"' "$obs/par/events.jsonl")" -eq 0 ] || { echo "FAIL: span/counter events in the stream"; exit 1; }
# Raw streams differ (timestamps); the canonical projection must not.
target/release/paracrash selftest events --canonical-diff \
    "$obs/par/events.jsonl" "$obs/seq/events.jsonl"
sed -n '/"stacks": {/,/}/p' "$obs/par/telemetry.json" > "$obs/stacks.txt"
printf '%s\n' snapshot.materialize recover/ check.enumerate rpc.message h5.parse | require_in "$obs/stacks.txt"
# Every panel the dashboard documents, and nothing that runs or fetches.
printf 'data-metric="%s"\n' cells findings behaviors saturation throughput coverage-curve coverage-table \
    stage-breakdown heatmap flame flame-table alloc alloc-count alloc-bytes alloc-peak alloc-table |
    require_in "$obs/par/report.html"
grep -qE '<script|https?://' "$obs/par/report.html" && { echo "FAIL: the dashboard is not self-contained"; exit 1; } || true
target/release/paracrash selftest obs

echo "== gate 6: torn-write determinism + zero-fault fidelity =="
# Same torn seed => bit-identical CLI report, regardless of thread count.
seq_eq_par --fs BeeGFS --program ARVR --torn-seed 7
# Zero-fault runs must still find exactly the paper's fifteen bugs.
target/release/paracrash table3 > "$tmp/table3.txt"
if [ "$(grep -c REPRODUCED "$tmp/table3.txt")" -ne 15 ] || grep -q missing "$tmp/table3.txt"; then
    echo "FAIL: zero-fault matrix does not reproduce the 15 Table 3 bugs"
    grep -E "REPRODUCED|missing" "$tmp/table3.txt"
    exit 1
fi

echo "== gate 7: explain bundles =="
# Full matrix: multi-cell runs always exit 0; bugs land as bundles (192
# files), identical at both widths.
target/release/paracrash --fs all --program all --explain-out "$tmp/explain" > /dev/null
PC_THREADS=1 target/release/paracrash --fs all --program all --explain-out "$tmp/explain-seq" > /dev/null
diff -r "$tmp/explain" "$tmp/explain-seq"
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
    PC_THREADS=1 target/release/paracrash "${nightly[@]}" > "$tmp/fuzz-nightly-b.txt" 2> /dev/null
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
# report must not depend on the thread count.
cat > "$tmp/scale.conf" <<'EOF'
meta_servers = 32
storage_servers = 32
EOF
seq_eq_par --fs BeeGFS --program ARVR --config "$tmp/scale.conf"
# The 256-server scale_256 cell: its verdicts share recovery-memo
# entries and the lazily built baseline index of the dirty-server fsck.
cat > "$tmp/scale256.conf" <<'EOF'
meta_servers = 128
storage_servers = 128
stripe_size = 256
EOF
seq_eq_par --fs BeeGFS --program H5-create --config "$tmp/scale256.conf"
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
# A sequential resume replays some cells, re-checks the rest, prints the pin.
PC_THREADS=1 PC_LOG=info target/release/paracrash "${camp[@]}" --resume \
    > "$tmp/camp-kill.txt" 2> "$tmp/camp-kill.err"
diff crates/bench/tests/expected_fuzz_pr_tier.txt "$tmp/camp-kill.txt"
grep -qE ' [1-9][0-9]*/426 cells this run \([1-9][0-9]* resumed' "$tmp/camp-kill.err" ||
    { echo "FAIL: the SIGKILL did not land mid-sweep"; cat "$tmp/camp-kill.err"; exit 1; }

echo "verify: OK"
