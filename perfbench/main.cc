/**
 * @file
 * perfbench: the repository benchmark.
 *
 *   perfbench --workload fig7|fleet|monitor_replica|monitor --seed N
 *             --seconds S --trace 0|1 --work DIR --benchmark FILE
 *
 * FILE is BENCHMARK.json, whose metric tables name what is reported. *
 * Usually started through perfbench/run.py, which builds it first.
 */

#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <string>
#include <utility>

#include "common/logging.hh"
#include "tools/json_lite.hh"
#include "workloads.hh"

namespace
{

int
usage()
{
    std::fprintf(stderr,
                 "usage: perfbench --workload "
                 "fig7|fleet|monitor_replica|monitor --seed N --seconds S "
                 "--trace 0|1 --work DIR --benchmark BENCHMARK.json\n");
    return 2;
}

} // namespace

int
main(int argc, char **argv)
{
    using namespace perfbench;
    Options opts;
    opts.gpupm_bin = PERFBENCH_GPUPM_BIN;
    bool have_seed = false;
    std::string benchmark_json;
    for (int i = 1; i + 1 < argc; i += 2) {
        const std::string key = argv[i];
        const std::string val = argv[i + 1];
        char *end = nullptr;
        if (key == "--workload") {
            opts.workload = val;
        } else if (key == "--seed") {
            opts.seed = std::strtoull(val.c_str(), &end, 10);
            have_seed = *end == '\0' && !val.empty();
        } else if (key == "--seconds") {
            opts.seconds = std::strtod(val.c_str(), &end);
            if (*end != '\0' || !(opts.seconds > 0.0))
                return usage();
        } else if (key == "--trace") {
            if (val != "0" && val != "1")
                return usage();
            opts.trace = val == "1";
        } else if (key == "--work") {
            opts.work_dir = val;
        } else if (key == "--benchmark") {
            benchmark_json = val;
        } else {
            return usage();
        }
    }
    if (argc % 2 == 0 || !have_seed || opts.work_dir.empty() ||
        benchmark_json.empty())
        return usage();
    void (*run)(const Options &, Report &) = nullptr;
    if (opts.workload == "fig7")
        run = runFig7;
    else if (opts.workload == "fleet")
        run = runFleet;
    else if (opts.workload == "monitor_replica")
        run = runMonitorReplica;
    else if (opts.workload == "monitor")
        run = runMonitor;
    else
        return usage();

    std::string text, err;
    if (!gpupm::jsonlite::readFile(benchmark_json, text))
        return 2;
    auto metrics = loadMetricTable(
            text, opts.trace ? "per_layer" : "end_to_end", err);
    if (metrics.empty()) {
        std::fprintf(stderr, "perfbench: %s: %s\n", benchmark_json.c_str(),
                     err.c_str());
        return 2;
    }

    // Library progress logging (fleet retries, campaign notes) would
    // interleave with the report; only warnings reach stderr.
    gpupm::setLogLevel(gpupm::LogLevel::Warn);
    std::error_code ec;
    std::filesystem::create_directories(opts.work_dir, ec);

    Report report(opts.trace, std::move(metrics));
    report.line(fmt("perfbench: workload=%s seed=%llu seconds=%g "
                    "trace=%d held_out_seed=%llu",
                    opts.workload.c_str(),
                    static_cast<unsigned long long>(opts.seed),
                    opts.seconds, opts.trace ? 1 : 0,
                    static_cast<unsigned long long>(kHeldOutSeed)));
    try {
        run(opts, report);
    } catch (const std::exception &e) {
        report.check(false, std::string("workload threw: ") + e.what());
    }
    return report.finish();
}
