#!/usr/bin/env bash
# Offline CI gate: build, test, format, lint. External crates resolve to
# the shims under vendor/ (see vendor/README.md), so no registry access is
# needed — CARGO_NET_OFFLINE just makes any accidental network use fail fast.
set -euo pipefail
cd "$(dirname "$0")"
export CARGO_NET_OFFLINE=true

echo "==> cargo build --release"
cargo build --workspace --release

echo "==> cargo test -q"
# Compile first, then run under a hard timeout: query fan-out runs on a
# persistent thread pool, and a pool can hang where the scoped threads it
# replaced could not — a lost wake-up must fail CI in minutes, not wedge it.
# (Once compiled, the whole suite runs in under a minute on two cores.)
cargo test --workspace -q --no-run
timeout 600 cargo test --workspace -q

echo "==> cargo fmt --check"
cargo fmt --all --check

echo "==> cargo clippy -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> saturation smoke (256 concurrent connections on flat threads; 2x overload sheds, not crashes)"
rm -f BENCH_saturation.json
WW_BENCH_REQUIRE_WIN=1 WW_SAT_CONNS=256 timeout 300 \
    cargo bench -p waterwheel-bench --bench saturation
test -s BENCH_saturation.json || { echo "BENCH_saturation.json missing"; exit 1; }
# Stray-thread sweep: the bench asserts its own process returned to its
# thread baseline after teardown; here we also make sure no helper
# process outlived it.
if pgrep -f "deps/saturation-" > /dev/null; then
    echo "stray saturation bench processes after teardown"; pgrep -af "deps/saturation-"; exit 1
fi

echo "==> durability bench smoke (WAL ingest overhead + replay timing)"
rm -f BENCH_durability.json
WW_RECOVERY_BENCH_N=20000 \
    cargo bench -p waterwheel-bench --bench recovery_overhead
test -s BENCH_durability.json || { echo "BENCH_durability.json missing"; exit 1; }

echo "==> kill-9 recovery smoke (scaled-down oracle: SIGKILL mid-ingest, replay, byte-exact answers)"
# The full oracle runs in the default test gate above; this scaled-down
# rerun keeps the crash path exercised even if the gate's filters change,
# under a hard timeout so a hung replay cannot wedge CI.
WW_RECOVERY_N=800 timeout 120 \
    cargo test --release -q -p waterwheel-node --test recovery
# -x: the exact process name. -f would also match this shell's own command
# line whenever it mentions the binary.
if pgrep -x waterwheel-node > /dev/null; then
    echo "stray waterwheel-node processes after kill-9 smoke"; pgrep -ax waterwheel-node; exit 1
fi

echo "==> scale-out bench smoke (1/2/4/8-process clusters, measured only; 2->4 ingest >= 1.6x checked on hosts with >= 6 cores)"
rm -f BENCH_scale.json
WW_BENCH_REQUIRE_WIN=1 WW_SCALE_BENCH_N=2000 timeout 420 \
    cargo bench -p waterwheel-bench --bench scale_out
test -s BENCH_scale.json || { echo "BENCH_scale.json missing"; exit 1; }
if pgrep -f "deps/scale_out-" > /dev/null; then
    echo "stray scale-out bench processes after teardown"; pgrep -af "deps/scale_out-"; exit 1
fi

echo "==> elastic cluster smoke (grow 2->4 indexing processes mid-ingest, byte-exact vs an unmigrated twin)"
timeout 300 cargo test --release -q -p waterwheel-node --test elastic
if pgrep -f "deps/elastic-" > /dev/null; then
    echo "stray elastic test processes after teardown"; pgrep -af "deps/elastic-"; exit 1
fi

echo "==> multi-process loopback smoke (4 node processes, exact answers, scraped counters agree — dumped on mismatch — clean shutdown)"
timeout 120 cargo run --release -p waterwheel-node -- smoke
# The smoke's clean-shutdown check already fails on stragglers; this is a
# belt-and-braces sweep so a regression can't leak processes into CI.
if pgrep -x waterwheel-node > /dev/null; then
    echo "stray waterwheel-node processes after smoke"; pgrep -ax waterwheel-node; exit 1
fi

echo "==> perfbench tests (metric schema vs BENCHMARK.json; same seed, same inputs and count metrics)"
# One rerun: the determinism test's leaf_reads_per_query (a live, timed
# query phase) differs between its two runs about once in 30, at PR 15
# already; the counts a tree change could move (flushes, bytes_per_tuple)
# never have, and a real break fails both runs.
cargo test -q --manifest-path perfbench/Cargo.toml ||
    cargo test -q --manifest-path perfbench/Cargo.toml

echo "==> perfbench quick run (the benchmark package builds against these crates and exits 0)"
timeout 300 cargo run --release --quiet --manifest-path perfbench/Cargo.toml -- --quick --seed 1 > /dev/null

echo "==> examples smoke pass"
for example in adaptive_skew aggregate_dashboard fault_tolerance \
               multi_process network_monitor quickstart taxi_tracking; do
    echo "--> example: ${example}"
    cargo run --release --example "${example}" > /dev/null
done

echo "CI OK"
