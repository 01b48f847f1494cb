#!/usr/bin/env sh
# Tier-1 CI gate: formatting, lints, rustdoc links, build, the full test
# suite, then smoke-test the sweep executor (bench_sweep --quick also
# verifies that parallel aggregates, metrics sheets and diagnoses are
# byte-identical to the serial run, exiting non-zero if not).
#
# Correctness steps build under the `ci` profile (release optimization
# without LTO, so each test binary links in parallel codegen units);
# steps that measure (throughput, allocations, RSS) keep the fat-LTO
# `release` profile the benchmark and the blessed baselines use.
set -eu

cd "$(dirname "$0")/.."

cargo fmt --check
cargo clippy --workspace --all-targets -- -D warnings
# Rustdoc gate: an intra-doc link to a deleted, renamed or private item
# fails CI instead of rotting silently.
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --offline
cargo build --profile ci --all-targets
# The full suite. The root package `ysinm` is a workspace member, so this
# one run includes the root integration suites:
# - telemetry: parallel metrics/diagnoses must be byte-identical to
#   serial, and every failed trial must land in a concrete §5 vector;
# - golden_traces: the packet-level mechanism of one canonical trial per
#   strategy family, byte-compared against tests/golden/ snapshots, and the
#   whole evaluation's `all --quick` output against
#   tests/golden/all_quick.txt;
# - simcheck: the violation-injection suite must show the shrinker
#   producing a deterministic repro for a known-bad trial;
# - properties: zero-copy substrate invariants. The timing-wheel event
#   queue must pop in exactly the reference (time, insertion-seq) order,
#   COW wire buffers must never alias writes across clones, the wide-word
#   checksum and DPI skip-loop kernels must agree with their scalar
#   references at every length/alignment/split, and arena recycling must
#   be observationally invisible;
# - determinism: sweep outputs byte-identical at 1/2/8 workers, and
#   metropolis outputs at 1/2/8 event domains on 1/2/8 workers.
# Among the crates' own suites:
# - tcpstack stream_invariants: besides stream integrity under loss and
#   reordering, the quiet-snapshot differential. An endpoint woken from
#   its snapshot must answer random segment sequences (resets, dead-port
#   segments, re-opening SYNs, fragments, bad checksums, other hosts'
#   datagrams) byte for byte like the endpoint it was taken from, and no
#   snapshot may exist while a timer, datagram, fragment or accept is
#   pending;
# - experiments metro_footprint: a metropolis domain build holds at most a
#   quarter of the serial build's heap, and the running 16,384-flow serial
#   world holds at most 12.3 MB at the end of its spawn window.
cargo test -q --profile ci --workspace
# Benchmark digest gate: the quick-size workloads of the repository
# benchmark must reproduce their checked digests. ysinm-bench is a
# workspace of its own, so the workspace test run above never builds it,
# and it defines no `ci` profile: it builds under its own `release`.
cargo test -q --release --offline --manifest-path ysinm-bench/Cargo.toml
# Committed evaluation record: EXPERIMENTS.md quotes experiments_output.txt
# as the output of `all --trials 12`. Rerun it and fail on any difference,
# so a change that moves a result must regenerate the file with it.
record="${TMPDIR:-/tmp}/ci_experiments_output.txt"
cargo run -q --profile ci -p intang-experiments --bin all -- --trials 12 >"$record" 2>/dev/null
diff -u experiments_output.txt "$record" || { echo "ci: FAIL: experiments_output.txt differs from a fresh all --trials 12" >&2; exit 1; }
rm -f "$record"
cargo run --profile ci -p intang-experiments --bin bench_sweep -- --quick >/dev/null
# Simcheck gate: the same smoke sweep with the runtime invariant checker
# enabled must report zero violations (bench_sweep exits non-zero and
# drops a minimal-repro artifact into .simcheck/ otherwise).
INTANG_SIMCHECK=1 cargo run --profile ci -p intang-experiments --bin bench_sweep -- --quick >/dev/null
# Kernel microbench smoke: asserts kernel/reference agreement on real
# iterations (`--quick`, 40 ms per case, keeps it a compile-and-agree
# check, not a measurement).
cargo bench -q -p intang-bench --bench kernels -- --quick >/dev/null
# Allocation ceiling: steady-state heap allocations per trial must stay
# under 100 (the shard arenas' reason to exist; the seed was ~307).
INTANG_ALLOC_GATE=100 cargo run --release -p intang-experiments --features alloc-count --bin bench_sweep -- --quick >/dev/null
# Throughput regression gate: the best of 5 serial events/s samples must
# reach 0.75x the blessed median (scripts/bench_smoke_baseline.txt;
# INTANG_BLESS=1 re-blesses after a hardware change; a missing file
# blesses automatically).
cargo run --release -p intang-experiments --bin bench_sweep -- --smoke
# Observability overhead: with the whole observability stack explicitly
# disabled the same smoke gate must still pass — the dormant span sites,
# gauge hooks and flight checks may not cost measurable throughput.
INTANG_SERIES=0 INTANG_SPANS=0 INTANG_FLIGHT=0 \
    cargo run --release -p intang-experiments --bin bench_sweep -- --smoke
# Folded-stack export smoke: the instrumented pass must produce a
# non-empty profile where every line parses as `stack<space>count`.
folded="${TMPDIR:-/tmp}/ci_profile.folded"
cargo run --profile ci -p intang-experiments --bin bench_sweep -- --quick --profile-folded "$folded" >/dev/null
test -s "$folded" || { echo "ci: FAIL: folded profile is empty" >&2; exit 1; }
awk 'NF < 2 || $NF !~ /^[0-9]+$/ { print "ci: FAIL: bad folded line: " $0; bad = 1 } END { exit bad }' "$folded"
rm -f "$folded"
# Fault layer smoke: degradation matrix at all intensities; the 0.00 row
# doubles as a no-op check for the fault plumbing.
cargo run --profile ci -p intang-experiments --bin fault_matrix -- --smoke >/dev/null
# Metropolis smoke: a 1k-flow shared world with the invariant checker on
# must finish with zero simcheck violations, zero per-flow ordering
# regressions, and peak RSS under the ceiling (the binary reads VmHWM and
# exits non-zero past it).
# Every --smoke also runs a parallel leg (multi-domain, 2 workers)
# byte-compared against its serial reference.
# RSS ceilings: each is twice the top of the largest peak that 10 runs of
# its own step read on a 2-vCPU VM. The gate floors VmHWM to whole MB, so
# a 5 MB reading is a peak under 6 MB: the 5 MB steps get 12, and the
# 8-worker step, which read 5-6 MB, gets 14. A doubled footprint fails.
INTANG_SIMCHECK=1 INTANG_METRO_RSS_MB=12 \
    cargo run --release -p intang-experiments --bin metropolis -- --smoke
# Parallel metropolis smoke at full width: 8 event domains on 8 worker
# threads under the invariant checker; exits non-zero on any
# serial/parallel divergence (outcome grid, counters, metrics) or an RSS
# peak past the ceiling.
INTANG_SIMCHECK=1 INTANG_METRO_RSS_MB=14 \
    cargo run --release -p intang-experiments --bin metropolis -- --smoke --domains 8 --workers 8
# Middlebox-enabled metropolis smoke: the seqfw hop behind the censor must
# not cost serial/parallel identity.
INTANG_SIMCHECK=1 INTANG_METRO_RSS_MB=12 \
    cargo run --release -p intang-experiments --bin metropolis -- --smoke --middlebox
# Blockpage-censor metropolis smoke: the Turkmenistan profile answers a
# forbidden request with a spoofed 403 and then resets. Its blockpage path
# must keep zero simcheck violations and serial/parallel identity at
# metropolis scale.
INTANG_SIMCHECK=1 INTANG_METRO_RSS_MB=12 \
    cargo run --release -p intang-experiments --bin metropolis -- --smoke --censor-profile turkmenistan
# Censor profile files: every other --censor-profile step names a
# builtin, so this is the one that runs the profile text parser. The
# gfw_hardened.toml example in EXPERIMENTS.md must run, and a duration
# past one simulated day must exit 2 (it once compiled and then
# overflowed the simulated clock mid-sweep).
profile="${TMPDIR:-/tmp}/ci_gfw_hardened.toml"
awk '/^# gfw_hardened.toml/ { on = 1 } on && /^```/ { exit } on' EXPERIMENTS.md > "$profile"
grep -q '^name = "gfw_hardened"' "$profile" || { echo "ci: FAIL: no gfw_hardened.toml example in EXPERIMENTS.md" >&2; exit 1; }
cargo run --profile ci -p intang-experiments --bin table1 -- --quick --censor-profile "$profile" >/dev/null
printf '[censor]\nname = "ci_overflow"\n[dynamics]\nreaction_delay_us = 18446744073709551615\n' > "$profile"
status=0
cargo run -q --profile ci -p intang-experiments --bin table1 -- --quick --censor-profile "$profile" >/dev/null 2>&1 || status=$?
rm -f "$profile"
[ "$status" -eq 2 ] || { echo "ci: FAIL: a reaction_delay_us past one simulated day exited $status, not 2" >&2; exit 1; }
# Metropolis folded-stack export: the profiled world runs on an executor
# worker, so the profile is the merge of the worker span sheets; it must
# be non-empty and every line must parse as `stack<space>count`.
folded="${TMPDIR:-/tmp}/ci_metro_profile.folded"
cargo run --profile ci -p intang-experiments --bin metropolis -- --quick --profile-folded "$folded" >/dev/null
test -s "$folded" || { echo "ci: FAIL: metropolis folded profile is empty" >&2; exit 1; }
awk 'NF < 2 || $NF !~ /^[0-9]+$/ { print "ci: FAIL: bad folded line: " $0; bad = 1 } END { exit bad }' "$folded"
rm -f "$folded"

echo "ci: OK"
