/**
 * @file
 * Shared by the two monitor workloads: the scrape mix, which the load
 * generator sends to the shipped daemon over HTTP and the traced
 * in-process replica times as library calls, and the traced run both
 * workloads make.
 */

#ifndef PERFBENCH_MONITOR_HH
#define PERFBENCH_MONITOR_HH

#include <cstdint>
#include <string>
#include <vector>

#include "workloads.hh"

namespace perfbench
{

enum class Route
{
    Metrics,
    ApiQuery,
    ApiTraces,
    Scoreboard,
    Healthz,
};
constexpr int kRouteCount = 5;

/** Metric-name fragment of a route ("metrics", "api_query", ...). */
const char *routeName(Route route);

struct ScrapeRequest
{
    Route route = Route::Metrics;
    std::string target; ///< request-target sent to the daemon
    // /api/query parameters
    std::string series;
    double range_s = 0.0;
    double step_s = 0.0;
    // /api/traces parameters
    std::size_t limit = 50; ///< the daemon's default
    std::string category;
};

/**
 * The scrape mix: the successful reads of these five routes in the
 * order the repository's daemon self-test (`gpupm_scrape
 * monitor-selftest`) makes them: /metrics, /healthz, /scoreboard, a
 * 60 s /api/query of the rolling MAE, the default and a filtered
 * /api/traces, and /metrics again. So 2/7 of the requests go to
 * /metrics, 2/7 to /api/traces and 1/7 to each of the others. The
 * returned cycle starts at an offset drawn from the workload seed;
 * the generator repeats it.
 */
std::vector<ScrapeRequest> requestMix(std::uint64_t workload_seed);

/** Daemon sampling period, ms: short, so ticks contend with scrapes. */
constexpr int kPeriodMs = 2;

/**
 * The traced run of both monitor workloads: the replica's per-layer
 * metrics (traceReplica), then the per-route scrape latencies of the
 * shipped daemon at the stated rate.
 */
void traceMonitor(const Options &opts, Report &report);

/**
 * Per-layer metrics of the in-process replica over about `seconds`
 * of work; `covered_s` is the time its timed calls took and `wall_s`
 * the time it ran.
 */
void traceReplica(const Options &opts, Report &report, double seconds,
                  double &covered_s, double &wall_s);

} // namespace perfbench

#endif // PERFBENCH_MONITOR_HH
