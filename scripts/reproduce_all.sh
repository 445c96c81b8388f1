#!/usr/bin/env bash
# Rebuild the library, run the full test suite and regenerate every
# table/figure of the paper's evaluation (EXPERIMENTS.md describes the
# expected outcomes).
set -euo pipefail
cd "$(dirname "$0")/.."

cmake -B build -G Ninja
cmake --build build
ctest --test-dir build --output-on-failure

# Static analysis over the observability layer: clang-tidy is optional
# (the GPUPM_TIDY CMake option wires it into the build when present);
# here we run the same checks standalone so CI images that carry the
# tool fail on findings while leaner toolchains skip with a notice.
if command -v clang-tidy > /dev/null 2>&1; then
    echo "== clang-tidy: src/obs"
    clang-tidy -p build --quiet src/obs/*.cc
else
    echo "== clang-tidy not found; skipping static analysis pass"
fi

# Sanitizer pass: rebuild the core/linalg test binaries under
# ASan+UBSan and run them, so memory and UB bugs in the numerical
# kernels and the resilience machinery surface in CI. Skip with
# GPUPM_SKIP_SANITIZE=1 (e.g. on toolchains without libasan).
if [ "${GPUPM_SKIP_SANITIZE:-0}" != "1" ]; then
    cmake -B build-asan -G Ninja -DGPUPM_SANITIZE=ON
    cmake --build build-asan --target \
        core_test_metrics core_test_power_model core_test_estimator \
        core_test_campaign core_test_faults core_test_resilient \
        core_test_model_io core_test_validate linalg_test_matrix \
        linalg_test_lstsq linalg_test_isotonic \
        obs_test_trace obs_test_trace_store obs_test_metrics \
        obs_test_convergence \
        obs_test_scoreboard obs_test_http_server \
        obs_test_flight_recorder obs_test_sampler \
        obs_test_profiler obs_test_tsdb obs_test_alerts \
        core_test_scoreboard_io \
        gpupm_fuzz_smoke gpupm_cli gpupm_trace_check gpupm_bench_check \
        gpupm_scrape
    for t in build-asan/tests/core_test_* build-asan/tests/linalg_test_* \
             build-asan/tests/obs_test_*; do
        [ -f "$t" ] && [ -x "$t" ] || continue
        echo "== sanitize: $t"
        "$t"
    done
    # Parser fuzz smoke under ASan+UBSan: corrupt artifacts must come
    # back as typed errors, never as crashes or sanitizer findings.
    echo "== sanitize: gpupm_fuzz_smoke"
    build-asan/tools/gpupm_fuzz_smoke
    # The traced measure->fit pipeline under ASan+UBSan: the tracer,
    # metrics registry and convergence observer run concurrently with
    # the whole stack, then the artifacts are structurally validated.
    echo "== sanitize: traced fit pipeline"
    build-asan/tools/gpupm fit titanx build-asan/obs.model \
        --trace-out=build-asan/obs.trace.json \
        --metrics-out=build-asan/obs.metrics.prom \
        --convergence-out=build-asan/obs.convergence.csv
    build-asan/tools/gpupm_trace_check trace build-asan/obs.trace.json \
        campaign backend sim estimator io cli
    build-asan/tools/gpupm_trace_check metrics build-asan/obs.metrics.prom
    build-asan/tools/gpupm_trace_check convergence \
        build-asan/obs.convergence.csv
    # The accuracy audit under ASan+UBSan: campaign, fit, validation
    # residuals, scoreboard serialization and the regression gate all
    # exercise the same code ctest gates on, now with sanitizers
    # watching.
    echo "== sanitize: accuracy audit + scoreboard gate"
    build-asan/tools/gpupm audit titanx \
        --scoreboard-out=build-asan/titanx.scoreboard > /dev/null
    build-asan/tools/gpupm validate build-asan/titanx.scoreboard --strict
    build-asan/tools/gpupm_bench_check scoreboard \
        build-asan/titanx.scoreboard bench/golden/titanx.scoreboard.json
    # The live-telemetry daemon under ASan+UBSan: the HTTP server,
    # sampling loop and flight recorder run multi-threaded; the scrape
    # selftest starts the daemon, scrapes every endpoint and requires
    # a clean SIGTERM exit with the sanitizers watching.
    echo "== sanitize: gpupm monitor scrape selftest"
    mkdir -p build-asan/monitor_work
    build-asan/tools/gpupm_scrape monitor-selftest \
        build-asan/tools/gpupm titanx --work=build-asan/monitor_work
    # The virtual-clock replays of the same monitor session under
    # ASan+UBSan, with the flag sets of cli_alerts_test.cmake and
    # cli_traces_test.cmake: session build, synchronous ticks, alert
    # engine and trace store, single-threaded.
    echo "== sanitize: gpupm alerts + traces replays"
    build-asan/tools/gpupm alerts titanx --json --ticks=200 \
        --period-ms=50 --rolling-window=16 --inject-drift=40:80:1.5 \
        --drift-window=1s --drift-for=250ms --drift-cooldown=1s \
        --drift-tolerance=9 > /dev/null
    build-asan/tools/gpupm traces titanx --json --ticks=30 \
        --period-ms=50 --rolling-window=16 \
        --inject-drift=5:15:1.5 > /dev/null
    # Profiler smoke under ASan+UBSan: the SIGPROF handler walks raw
    # frame-pointer chains (itself exempted via no_sanitize), but
    # start/stop/collect, symbolization and the span-context push/pop
    # all run instrumented through a real fit.
    echo "== sanitize: profiler smoke"
    build-asan/tools/gpupm fit titanx build-asan/prof.model \
        --profile-out=build-asan/prof.folded
    test -s build-asan/prof.folded
fi

# ThreadSanitizer pass: rebuild the concurrent machinery — the fleet
# work-stealing pool, watchdog and supervisor, plus the HTTP server
# and metrics registry it publishes through — under TSan and run
# their tests. A data race in the fleet stack is an accuracy bug (the
# chaos gate leans on deterministic merges), so this gate is not
# optional for fleet changes. Skip with GPUPM_SKIP_TSAN=1.
if [ "${GPUPM_SKIP_TSAN:-0}" != "1" ]; then
    cmake -B build-tsan -G Ninja -DGPUPM_TSAN=ON
    cmake --build build-tsan --target \
        fleet_test_pool fleet_test_watchdog fleet_test_chaos \
        fleet_test_shard_io fleet_test_supervisor \
        fleet_test_chaos_gate fleet_test_chaos_trace \
        obs_test_http_server obs_test_metrics obs_test_profiler \
        obs_test_tsdb obs_test_trace gpupm_cli
    for t in build-tsan/tests/fleet_test_* \
             build-tsan/tests/obs_test_http_server \
             build-tsan/tests/obs_test_metrics \
             build-tsan/tests/obs_test_profiler \
             build-tsan/tests/obs_test_tsdb \
             build-tsan/tests/obs_test_trace; do
        [ -f "$t" ] && [ -x "$t" ] || continue
        echo "== tsan: $t"
        "$t"
    done
    # A whole fleet campaign through the CLI with TSan watching the
    # pool, watchdog, checkpoint writers and metrics publication.
    echo "== tsan: gpupm fleet"
    build-tsan/tools/gpupm fleet 24 --shards=6 --faults > /dev/null
    # Profiler over the fleet pool under TSan: SIGPROF lands on worker
    # threads mid-task while the span context and sample ring are live.
    echo "== tsan: profiler smoke over fleet"
    build-tsan/tools/gpupm fleet 24 --shards=6 \
        --profile-out=build-tsan/fleet.folded > /dev/null
    test -s build-tsan/fleet.folded
fi

# Traced end-to-end reproduction run: campaign -> fit -> sweep with
# the tracer on, then a per-phase wall-clock table sourced from the
# trace (gpupm_trace_check summary merges overlapping spans, so the
# numbers are true per-category wall-clock).
echo "==================================================="
echo "== traced pipeline timing"
echo "==================================================="
work=build/reproduce_obs
mkdir -p "$work"
build/tools/gpupm campaign titanx "$work/tx.campaign" --retries=2 \
    --trace-out="$work/campaign.trace.json" \
    --metrics-out="$work/campaign.metrics.prom"
build/tools/gpupm fit "$work/tx.campaign" "$work/tx.model" \
    --trace-out="$work/fit.trace.json" \
    --convergence-out="$work/fit.convergence.csv"
build/tools/gpupm sweep "$work/tx.model" BLCKSC \
    --trace-out="$work/sweep.trace.json" > /dev/null
for phase in campaign fit sweep; do
    build/tools/gpupm_trace_check summary "$work/$phase.trace.json"
    # Referential integrity of the correlation ids: one root per
    # trace, no orphan parents, children nested in their parents.
    build/tools/gpupm_trace_check trace "$work/$phase.trace.json"
done

# Offline per-tick trace replay: every tick's measure -> predict ->
# audit chain assembles into one trace, the injected fault surfaces
# as a retained error trace, and the run is deterministic (the
# cli_traces_replay ctest diffs two runs byte for byte).
echo "==================================================="
echo "== per-tick trace replay (gpupm traces titanx)"
echo "==================================================="
build/tools/gpupm traces titanx --ticks=20 --period-ms=50 \
    --inject-drift=5:15:1.5

# Accuracy audit + regression gate: recompute the prediction-error
# scoreboard on the GTX Titan X and diff it against the checked-in
# golden. A model/simulator change that shifts the headline MAE by
# more than the tolerances aborts the reproduction here.
echo "==================================================="
echo "== accuracy audit (gpupm audit titanx)"
echo "==================================================="
build/tools/gpupm audit titanx \
    --scoreboard-out="$work/titanx.scoreboard" \
    --metrics-out="$work/audit.metrics.prom"
build/tools/gpupm_bench_check scoreboard "$work/titanx.scoreboard" \
    bench/golden/titanx.scoreboard.json

# Live-telemetry daemon: start `gpupm monitor` on an ephemeral port,
# scrape /metrics, /healthz, /scoreboard, /tracez, /alertz and
# /api/query with the bundled scrape client (no curl), and require a
# clean SIGTERM shutdown.
echo "==================================================="
echo "== live monitor scrape (gpupm monitor titanx)"
echo "==================================================="
mkdir -p "$work/monitor"
build/tools/gpupm_scrape monitor-selftest build/tools/gpupm titanx \
    --work="$work/monitor"

# Drift alerting end to end against the live daemon: an injected
# accuracy fault must take the built-in drift rule through firing
# (degraded /healthz, gauge at 1) and back to resolved, with the
# transitions in the NDJSON event log.
echo "==================================================="
echo "== drift-alert demo (gpupm monitor --inject-drift)"
echo "==================================================="
mkdir -p "$work/drift"
build/tools/gpupm_scrape drift-demo build/tools/gpupm titanx \
    --work="$work/drift"

# Every experiment binary runs with telemetry on; a non-zero exit or
# invalid telemetry artifact fails the reproduction, and the per-bench
# wall-clock is reported at the end.
bench_json=()
bench_report=""
for b in build/bench/*; do
    [ -f "$b" ] && [ -x "$b" ] || continue
    name=$(basename "$b")
    echo "==================================================="
    echo "== $b"
    echo "==================================================="
    start_ms=$(date +%s%3N)
    case "$name" in
        bm_estimator)
            # google-benchmark rejects unknown flags; no telemetry.
            "$b" || { echo "BENCH FAILED: $name" >&2; exit 1; }
            ;;
        *)
            "$b" --json-out="$work/BENCH_$name.json" \
                || { echo "BENCH FAILED: $name" >&2; exit 1; }
            bench_json+=("$work/BENCH_$name.json")
            ;;
    esac
    elapsed_ms=$(( $(date +%s%3N) - start_ms ))
    bench_report+=$(printf '%-24s %8d ms' "$name" "$elapsed_ms")$'\n'
done
build/tools/gpupm_bench_check validate "${bench_json[@]}"
# The fig7 telemetry is additionally gated against its golden:
# accuracy stats tightly (deterministic), wall-clock generously (the
# golden's timing came from a different machine).
build/tools/gpupm_bench_check bench "$work/BENCH_fig7_validation.json" \
    bench/golden/BENCH_fig7_validation.json --stat-tol=0.5 \
    --time-factor=50
# The fig7 run's CPU-attribution block (sampled while the bench ran)
# is gated against its golden: span attribution must hold the 90%
# floor and no span category may grow its CPU share past the budget.
build/tools/gpupm_bench_check profile "$work/BENCH_fig7_validation.json" \
    bench/golden/BENCH_fig7_validation.json --share-tol=15
# The fleet-campaign telemetry is gated the same way: merged accuracy
# marginals tightly (deterministic by design — the chaos gate depends
# on it), wall-clock generously. A missing golden is a named
# `missing-golden` failure (exit 3), never a silent skip.
build/tools/gpupm_bench_check bench "$work/BENCH_fleet_campaign.json" \
    bench/golden/BENCH_fleet.json --stat-tol=0.5 --time-factor=50
# The monitor-soak telemetry budgets the sampling overhead with the
# time-series store and alert engine on the tick path: deterministic
# accuracy/memory stats tightly, wall-clock generously. The soak
# binary itself exits non-zero if the store ever exceeds its memory
# bound or the injected fault fails to fire and resolve.
build/tools/gpupm_bench_check bench "$work/BENCH_monitor_soak.json" \
    bench/golden/BENCH_monitor_soak.json --stat-tol=0.5 \
    --time-factor=50
echo "==================================================="
echo "== per-bench wall-clock"
echo "==================================================="
printf '%s' "$bench_report"
