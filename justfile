# Common development tasks. Run with `just <target>`.

# Build, test, and lint — the gate every change must pass.
verify: obs profile bench-smoke shard-smoke exchange sentinel
    cargo build --release
    cargo test -q --workspace
    cargo clippy --workspace --all-targets -- -D warnings

# Incremental-solver smoke check: a tiny scale sweep. The binary asserts
# full-vs-incremental bit-identity and that the dirty-set machinery
# actually avoided full re-levels (nonzero speedup counters).
bench-smoke:
    cargo run --release -p bgq-bench --bin scale -- --max-nodes 512 \
        --out results/obs/scale_smoke.json

# Sharded-determinism smoke: run the 512-node scale point at 1, 2, and
# 8 worker threads and byte-diff the wall-clock-free reports. Any
# difference means the shard merge leaked scheduling order into the
# simulated results — the one invariant the parallel engine must hold.
shard-smoke:
    for t in 1 2 8; do \
        cargo run --release -p bgq-bench --bin scale -- --max-nodes 512 \
            --threads $t \
            --out results/obs/scale_t$t.json \
            --report-out results/obs/scale_report_t$t.json; \
    done
    cmp results/obs/scale_report_t1.json results/obs/scale_report_t2.json
    cmp results/obs/scale_report_t1.json results/obs/scale_report_t8.json
    @echo "sharded reports byte-identical at 1/2/8 threads"

# Observability smoke check: run fig5 with artifacts, then validate them
# (JSON parses, CSV sorted/deduplicated, nothing undelivered). Then trace
# the faulted path: the resilience trace is the one representative trace
# with stall instants and undelivered spans (written under target/, it
# is not a pinned artifact).
obs:
    cargo run --release -p bgq-bench --bin fig5 -- --coarse --threads 4 \
        --metrics-out results/obs/fig5.metrics.csv \
        --trace-out results/obs/fig5.trace.json
    cargo run --release -p bgq-bench --bin obs_report -- --check \
        results/obs/fig5.metrics.csv results/obs/fig5.trace.json
    cargo run --release -p bgq-bench --bin resilience -- --coarse --threads 2 \
        --trace-out target/obs/resilience.trace.json
    cargo run --release -p bgq-bench --bin obs_report -- --check \
        target/obs/resilience.trace.json

# Bottleneck-attribution gate: profile fig6's contended coupling, print
# the "why was this slow" report, validate the artifact's accounting,
# and diff it against the committed baseline. After an intentional
# engine/planner change, re-baseline with `UPDATE_GOLDEN=1 just profile`.
profile:
    cargo run --release -p bgq-bench --bin profile -- fig6 \
        --profile-out results/obs/profile_fig6.json
    cargo run --release -p bgq-bench --bin obs_report -- --check \
        results/obs/profile_fig6.json
    @if [ -n "${UPDATE_GOLDEN:-}" ]; then \
        cp results/obs/profile_fig6.json results/BENCH_profile_fig6.json; \
        echo "re-baselined results/BENCH_profile_fig6.json"; \
    else \
        cargo run --release -p bgq-bench --bin obs_report -- --check --diff \
            results/obs/profile_fig6.json results/BENCH_profile_fig6.json; \
    fi

# Sparse-exchange gate: run the full sweep (the binary validates the
# artifact and asserts the ≥1.5× multipath-vs-direct bar on the
# disjoint-heavy pattern at 4,096 nodes), then byte-diff against the
# committed baseline — the artifact is pure simulated time, so any diff
# means the planner or simulator moved. Re-baseline an intentional
# change with `UPDATE_GOLDEN=1 just exchange`. Coffee-break sized
# (~13 min on a 2-vCPU VM; the 512-node slice is separately pinned as
# tests/golden/exchange.csv for the quick path).
exchange:
    cargo run --release -p bgq-bench --bin exchange -- \
        --out results/obs/exchange.json
    @if [ -n "${UPDATE_GOLDEN:-}" ]; then \
        cp results/obs/exchange.json results/BENCH_exchange.json; \
        echo "re-baselined results/BENCH_exchange.json"; \
    else \
        cmp results/obs/exchange.json results/BENCH_exchange.json && \
            echo "results/BENCH_exchange.json reproduced byte-exact"; \
    fi

# Run-ledger + regression sentinel: run the scenario sweep, validate the
# manifest artifact, cross-check it against the committed fig6 profile,
# and diff against the committed baseline — any REGRESSED verdict (with
# its profiler blame attribution) fails the gate. On an unchanged tree
# the manifest byte-matches the baseline. After an intentional model
# change, re-pin with `UPDATE_GOLDEN=1 just sentinel`. Inject a fake
# regression to see the attribution machinery work:
# `cargo run --release -p bgq-bench --bin sentinel -- --degrade-links 0.5 \
#      --out /tmp/degraded.json --no-history`
sentinel:
    @if [ -n "${UPDATE_GOLDEN:-}" ]; then \
        cargo run --release -p bgq-bench --bin sentinel -- --update-baseline; \
        echo "re-pinned results/ledger/baseline.json"; \
    else \
        cargo run --release -p bgq-bench --bin sentinel; \
    fi
    cargo run --release -p bgq-bench --bin obs_report -- --check \
        results/ledger/manifest.json
    cargo run --release -p bgq-bench --bin obs_report -- --check --cross \
        results/ledger/manifest.json results/BENCH_profile_fig6.json fig6
    cmp results/ledger/manifest.json results/ledger/baseline.json && \
        echo "results/ledger/baseline.json reproduced byte-exact"

# Host-time benchmark: build perfbench and run every workload for 10 s
# each, printing one table of setup time, run time and peak RSS.
perf:
    python3 perfbench/run.py --workload all --seconds 10

# Full figure reproduction into results/ (coffee-break sized).
reproduce:
    cargo run --release -p bgq-bench --bin reproduce -- --coarse --max-cores 16384 --threads 4 --timing

# Machinery + ablation benches.
bench:
    cargo bench

# Coverage via cargo-llvm-cov when installed; otherwise fall back to a
# plain verbose test run (this container has no coverage tooling baked in).
cover:
    @if cargo llvm-cov --version >/dev/null 2>&1; then \
        cargo llvm-cov --workspace --summary-only; \
    else \
        echo "cargo-llvm-cov not installed; running plain tests instead"; \
        cargo test --workspace -- --nocapture; \
    fi

# Regenerate the golden reference CSVs (and the pinned fig5 trace and
# profile) after an intentional model change.
update-golden:
    UPDATE_GOLDEN=1 cargo test --release --test golden
    UPDATE_GOLDEN=1 cargo test --release --test observability
    UPDATE_GOLDEN=1 cargo test --release --test profile_golden
    UPDATE_GOLDEN=1 just profile
    UPDATE_GOLDEN=1 just exchange
    UPDATE_GOLDEN=1 just sentinel
