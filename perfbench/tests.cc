/**
 * @file
 * Tests of the benchmark's own measurement rules: the tail-percentile
 * rule, the fixed cycle count, open-loop timing from due time with
 * lateness accounting, the stop rule of the capacity search, and the
 * metric tables read from BENCHMARK.json. Dependency-free; exits
 * non-zero when an expectation failed.
 *
 *   cmake --build .bench_build --target perfbench_tests
 *   .bench_build/perfbench_tests
 */

#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>

#include "loadgen.hh"
#include "report.hh"
#include "stats.hh"
#include "tools/json_lite.hh"

namespace
{

int g_failures = 0;

#define EXPECT(cond)                                                    \
    do {                                                                \
        if (!(cond)) {                                                  \
            std::fprintf(stderr, "%s:%d: expected %s\n", __FILE__,      \
                         __LINE__, #cond);                              \
            ++g_failures;                                               \
        }                                                               \
    } while (0)

using namespace perfbench;

void
tailIsTheEleventhLargest()
{
    std::vector<double> v;
    for (int i = 1; i <= 100; ++i)
        v.push_back(i);
    const Tail t = tailOf(v);
    EXPECT(t.ok);
    EXPECT(t.n == 100);
    EXPECT(t.value == 90.0); // 91..100 lie beyond it
    EXPECT(t.percentile == 90.0);

    // The rank from the top stays fixed as N grows, so the reported
    // percentile moves with N and is stated alongside it.
    v.push_back(101);
    const Tail u = tailOf(v);
    EXPECT(u.value == 91.0);
    EXPECT(std::abs(u.percentile - 100.0 * 91.0 / 101.0) < 1e-12);
}

void
tailNeedsMoreThanTenSamples()
{
    std::vector<double> v(10, 1.0);
    EXPECT(!tailOf(v).ok);
    v.push_back(2.0);
    const Tail t = tailOf(v);
    EXPECT(t.ok && t.value == 1.0 && t.n == 11);
}

void
cycleCountIsFixedBySeconds()
{
    // The count depends on the requested seconds only, never on how
    // fast the host runs, and never falls below the minimum.
    EXPECT(cyclesFor(12.0, 2.5, 21) == 30);
    EXPECT(cyclesFor(12.0, 2.5, 21) == cyclesFor(12.0, 2.5, 21));
    EXPECT(cyclesFor(2.0, 2.5, 21) == 21);
    EXPECT(cyclesFor(12.0, 1.15, 11) == 14);
}

void
overrunStopsShortOnlyPastTheMinimum()
{
    // On time: the run makes exactly its target.
    EXPECT(moreCycles(29, 30, 21, 10.0, 12.0));
    EXPECT(!moreCycles(30, 30, 21, 10.0, 12.0));
    // A slow host: past kOverrunFactor x the seconds, the run stops
    // once it has the minimum, never before.
    EXPECT(moreCycles(20, 30, 21, 100.0, 12.0));
    EXPECT(!moreCycles(21, 30, 21, kOverrunFactor * 12.0, 12.0));
    EXPECT(moreCycles(21, 30, 21, kOverrunFactor * 12.0 - 0.1, 12.0));
}

void
metricTablesComeFromBenchmarkJson()
{
    std::string err;
    const std::string text =
            R"({"end_to_end": [{"name": "setup_s", "unit": "s", "bound": 0.25}],
                "per_layer": [{"name": "a.b", "unit": "count"},
                              {"name": "c", "unit": "%"}]})";
    const auto e2e = loadMetricTable(text, "end_to_end", err);
    EXPECT(e2e.size() == 1 && e2e[0].name == "setup_s" &&
           e2e[0].unit == "s");
    const auto layers = loadMetricTable(text, "per_layer", err);
    EXPECT(layers.size() == 2 && layers[1].name == "c" &&
           layers[1].unit == "%");
    EXPECT(loadMetricTable(text, "workloads", err).empty() && !err.empty());
    EXPECT(loadMetricTable("{\"end_to_end\": [{\"name\": \"x\"}]}",
                           "end_to_end", err)
                   .empty());
    EXPECT(loadMetricTable("not json", "end_to_end", err).empty());

    // The repository's own file has both tables, with the metrics every
    // workload reports.
    std::string repo;
    EXPECT(gpupm::jsonlite::readFile(PERFBENCH_BENCHMARK_JSON, repo));
    const auto repo_e2e = loadMetricTable(repo, "end_to_end", err);
    bool has_setup = false;
    for (const MetricDef &m : repo_e2e)
        has_setup = has_setup || (m.name == "setup_s" && m.unit == "s");
    EXPECT(has_setup);
    EXPECT(!loadMetricTable(repo, "per_layer", err).empty());
}

void
reportRejectsMetricsOutsideItsTable()
{
    Report ok(false, {{"x_ms", "ms"}});
    ok.set("x_ms", 1.5);
    EXPECT(ok.finish() == 0);

    Report unknown(false, {{"x_ms", "ms"}});
    unknown.set("x_ms", 1.5);
    unknown.set("y_ms", 2.0);
    EXPECT(unknown.finish() != 0);

    Report missing(false, {{"x_ms", "ms"}, {"z", "count"}});
    missing.set("x_ms", 1.5);
    EXPECT(missing.finish() != 0);

    // A traced run reports a layer it never called as 0.
    Report traced(true, {{"layer.calls", "count"}});
    EXPECT(traced.finish() == 0);
}

void
latencyCountsFromDueTime()
{
    Completion c;
    c.due_s = 10.0;
    c.sent_s = 10.004; // generator sent it 4 ms late
    c.done_s = 10.005;
    EXPECT(std::abs(c.latencyMs() - 5.0) < 1e-9);
    EXPECT(std::abs(c.lateMs() - 4.0) < 1e-9);
    c.sent_s = 9.999; // early sends are not negative lateness
    EXPECT(c.lateMs() == 0.0);
}

void
aStallIsChargedToTheRequestsItDelays()
{
    // 1000 req/s; request 10 stalls for 30 ms. Requests due during the
    // stall are sent late, and their latency counts the wait from
    // their due time.
    const auto done = runOpenLoop(
            1000.0, 0.1, [](std::size_t i, double &done_s) {
                if (i == 10)
                    std::this_thread::sleep_for(
                            std::chrono::milliseconds(30));
                done_s = nowSeconds();
                return true;
            });
    EXPECT(done.size() == 100);
    for (std::size_t i = 0; i < done.size(); ++i)
        EXPECT(done[i].index == i);
    EXPECT(done[10].latencyMs() >= 30.0);
    EXPECT(done[11].lateMs() >= 25.0);   // due 1 ms after the stall began
    EXPECT(done[11].latencyMs() >= 25.0);
    EXPECT(done[99].lateMs() < 5.0);     // the generator caught up
    const StepSummary s = summarize(done, 10.0);
    EXPECT(s.late_max_ms >= 25.0);
    EXPECT(s.keeps_up);
    EXPECT(s.failures == 0);
    EXPECT(!s.passes); // >10 requests beyond the 10 ms limit
    EXPECT(s.tail_ms.value > 10.0);
}

void
dueTimesFollowTheRate()
{
    const auto done = runOpenLoop(
            500.0, 0.05, [](std::size_t, double &done_s) {
                done_s = nowSeconds();
                return true;
            });
    EXPECT(done.size() == 25);
    for (std::size_t i = 1; i < done.size(); ++i)
        EXPECT(std::abs(done[i].due_s - done[i - 1].due_s - 0.002) <
               1e-9);
}

Completion
at(double due, double late_ms, double latency_ms, bool ok = true)
{
    Completion c;
    c.due_s = due;
    c.sent_s = due + late_ms * 1e-3;
    c.done_s = due + latency_ms * 1e-3;
    c.ok = ok;
    return c;
}

void
summaryVerdicts()
{
    std::vector<Completion> calm;
    for (int i = 0; i < 100; ++i)
        calm.push_back(at(i * 0.01, 0.0, 1.0));
    EXPECT(summarize(calm, 10.0).passes);

    // A backlog that grows through the step fails even when the limit
    // would tolerate its latency, because the generator falls behind.
    std::vector<Completion> growing;
    for (int i = 0; i < 100; ++i)
        growing.push_back(at(i * 0.01, i * 0.2, i * 0.2 + 1.0));
    const StepSummary g = summarize(growing, 30.0);
    EXPECT(!g.keeps_up);
    EXPECT(!g.passes);

    // One failed request fails the step.
    calm[50].ok = false;
    const StepSummary f = summarize(calm, 10.0);
    EXPECT(f.failures == 1 && !f.passes);
}

void
searchConvergesOnTheKnee()
{
    // Passes up to 3000 req/s.
    const SearchResult r = searchMaxRate(
            [](double rate) { return rate <= 3000.0; }, 250.0, 64000.0,
            0.05);
    EXPECT(!r.hit_cap);
    EXPECT(r.max_rate <= 3000.0 && r.max_rate >= 3000.0 / 1.05);
    // Doubling 250..4000 (5 passes up to 2000, 4000 fails twice),
    // then bisection within [2000, 4000] down to 5%.
    EXPECT(r.steps[0].rate == 250.0 && r.steps[0].pass);
    EXPECT(r.steps[4].rate == 4000.0 && !r.steps[4].pass);
    EXPECT(r.steps[5].rate == 4000.0 && !r.steps[5].pass);
}

void
aFailureIsConfirmedOnce()
{
    // The first run of 2000 req/s hits a transient stall; its retry
    // passes, so the search carries on doubling.
    int calls_at_2000 = 0;
    const SearchResult r = searchMaxRate(
            [&](double rate) {
                if (rate == 2000.0 && calls_at_2000++ == 0)
                    return false;
                return rate <= 5000.0;
            },
            250.0, 64000.0, 0.1);
    EXPECT(calls_at_2000 == 2);
    EXPECT(r.max_rate > 4000.0 && r.max_rate <= 5000.0);
}

void
searchStopsAtTheCapOrTheFloor()
{
    const SearchResult capped =
            searchMaxRate([](double) { return true; }, 250.0, 1000.0, 0.1);
    EXPECT(capped.hit_cap && capped.max_rate == 1000.0);

    // Start too high: halve until a rate passes, then bisect.
    const SearchResult low = searchMaxRate(
            [](double rate) { return rate <= 100.0; }, 1000.0, 64000.0,
            0.1);
    EXPECT(low.max_rate <= 100.0 && low.max_rate >= 100.0 / 1.1);

    const SearchResult none =
            searchMaxRate([](double) { return false; }, 1000.0, 64000.0,
                          0.1);
    EXPECT(none.max_rate == 0.0);
}

void
seedsAreDerivedDeterministically()
{
    EXPECT(deriveSeed(1, 0) == deriveSeed(1, 0));
    EXPECT(deriveSeed(1, 0) != deriveSeed(1, 1));
    EXPECT(deriveSeed(1, 0) != deriveSeed(2, 0));
}

} // namespace

int
main()
{
    tailIsTheEleventhLargest();
    tailNeedsMoreThanTenSamples();
    cycleCountIsFixedBySeconds();
    overrunStopsShortOnlyPastTheMinimum();
    metricTablesComeFromBenchmarkJson();
    reportRejectsMetricsOutsideItsTable();
    latencyCountsFromDueTime();
    aStallIsChargedToTheRequestsItDelays();
    dueTimesFollowTheRate();
    summaryVerdicts();
    searchConvergesOnTheKnee();
    aFailureIsConfirmedOnce();
    searchStopsAtTheCapOrTheFloor();
    seedsAreDerivedDeterministically();
    if (g_failures) {
        std::fprintf(stderr, "%d expectation(s) failed\n", g_failures);
        return 1;
    }
    std::printf("perfbench_tests: all passed\n");
    return 0;
}
