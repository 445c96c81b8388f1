/**
 * @file
 * Summary statistics the benchmark reports, and the seed derivation
 * that turns one workload seed into every input stream.
 */

#ifndef PERFBENCH_STATS_HH
#define PERFBENCH_STATS_HH

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/stats.hh"

namespace perfbench
{

using gpupm::stats::median;

/**
 * The tail of a timing sample: the highest percentile that still has
 * at least `beyond` samples above it, i.e. the (beyond+1)-th largest
 * value. Reported with the percentile it sits at and the sample size,
 * so that two runs with slightly different N are compared at the same
 * rank from the top rather than at a percentile that jumps.
 */
struct Tail
{
    double value = 0.0;
    double percentile = 0.0; ///< 100 * (n - beyond) / n
    std::size_t n = 0;
    bool ok = false; ///< false when n <= beyond (no such percentile)
};

Tail tailOf(std::vector<double> v, std::size_t beyond = 10);

/** splitmix64 step: a well-mixed 64-bit value from (seed, stream). */
std::uint64_t deriveSeed(std::uint64_t seed, std::uint64_t stream);

/**
 * How many cycles a run of `seconds` measures: `per_second` cycles per
 * requested second (a little under the development VM's rate, so a
 * run takes a little under `seconds` there), and at least
 * `min_cycles`. A fixed count,
 * not a time budget, so the sample size and the tail's rank are the
 * same on every run, however fast the host is that day.
 */
std::size_t cyclesFor(double seconds, double per_second,
                      std::size_t min_cycles);

/** How far past the requested seconds a run may go before it stops
 *  short of its cycle count. */
constexpr double kOverrunFactor = 1.3;

/**
 * Whether a run that has made `done` of its `target` cycles in
 * `elapsed_s` makes another: until the target, except that a host
 * so slow that the run has taken kOverrunFactor times the requested
 * seconds stops once `min_cycles` are made. This keeps the fixed count
 * on any host near the development VM's speed and still bounds the
 * time of a run (and so of a set of runs) on a much slower one.
 */
bool moreCycles(std::size_t done, std::size_t target,
                std::size_t min_cycles, double elapsed_s, double seconds);

} // namespace perfbench

#endif // PERFBENCH_STATS_HH
