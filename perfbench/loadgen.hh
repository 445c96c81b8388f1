/**
 * @file
 * Open-loop load generation and the capacity search behind the
 * monitor workload's highest sustainable scrape rate.
 *
 * Open loop: request i is due at start + i / rate whether or not
 * earlier requests have finished, as with independent users. Each
 * request is timed from its due time, so a stall that delays later
 * sends is charged to every request it delays; how late the generator
 * sent each request is reported separately.
 */

#ifndef PERFBENCH_LOADGEN_HH
#define PERFBENCH_LOADGEN_HH

#include <cstddef>
#include <functional>
#include <vector>

#include "stats.hh"

namespace perfbench
{

/** One request's timestamps, seconds on the steady clock. */
struct Completion
{
    std::size_t index = 0;
    double due_s = 0.0;
    double sent_s = 0.0;
    double done_s = 0.0;
    bool ok = false;

    /** Latency counted from when the request was due. */
    double latencyMs() const { return (done_s - due_s) * 1e3; }
    /** How late the generator sent the request (never negative). */
    double lateMs() const
    {
        return sent_s > due_s ? (sent_s - due_s) * 1e3 : 0.0;
    }
};

/** Steady-clock time in seconds. */
double nowSeconds();

/**
 * Performs request `index`, stores in `done_s` when its response was
 * complete (before any checking of the response) and returns whether
 * the request succeeded.
 */
using SendFn = std::function<bool(std::size_t index, double &done_s)>;

/**
 * Run an open loop at `rate` requests/s for `duration_s` on the calling
 * thread: spin until each request is due, then `send` it. One
 * generator thread keeps at most one request in flight, so a slow
 * response delays the next send; that wait counts from its due time.
 */
std::vector<Completion> runOpenLoop(double rate, double duration_s,
                                    const SendFn &send);

/** Verdict on one open-loop step against a latency limit. */
struct StepSummary
{
    std::size_t n = 0;
    long failures = 0;
    double p50_ms = 0.0;
    Tail tail_ms;
    double late_max_ms = 0.0;
    /** Median lateness of the first and the last tenth of the step's
     *  requests. */
    double late_begin_ms = 0.0;
    double late_end_ms = 0.0;
    /** No growing backlog: the generator ended the step within the
     *  limit of schedule, and no more than half the limit later than
     *  it began. */
    bool keeps_up = false;
    /** No failures, tail within the limit and keeping up. */
    bool passes = false;
};

StepSummary summarize(const std::vector<Completion> &done,
                      double limit_ms);

struct SearchStep
{
    double rate = 0.0;
    bool pass = false;
};

struct SearchResult
{
    /** Highest rate that passed; 0 when no rate down to start/1024
     *  passed. */
    double max_rate = 0.0;
    /** Every step run, in order (failures are confirmed once). */
    std::vector<SearchStep> steps;
    /** The search stopped at `cap` without finding a failing rate. */
    bool hit_cap = false;
};

/**
 * Find the highest rate for which `step(rate)` passes. Stop rule:
 * from `start`, double until a rate fails (or `cap` passes), or halve
 * until one passes; then bisect geometrically between the highest
 * passing and the lowest failing rate until they are within a factor
 * (1 + resolution), and report the passing end. A failing
 * step is re-run once and counts as failed only if both runs fail, so
 * one transient stall does not end the search early.
 */
SearchResult searchMaxRate(const std::function<bool(double)> &step,
                           double start, double cap, double resolution);

} // namespace perfbench

#endif // PERFBENCH_LOADGEN_HH
