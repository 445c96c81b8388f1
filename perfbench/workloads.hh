/**
 * @file
 * The benchmark's workloads. Each takes every input from the workload
 * seed, measures a fixed amount of work that takes about the
 * requested number of seconds on the development VM, checks its
 * outputs and fills the report.
 */

#ifndef PERFBENCH_WORKLOADS_HH
#define PERFBENCH_WORKLOADS_HH

#include <cstdint>
#include <string>

#include "report.hh"

namespace perfbench
{

struct Options
{
    std::string workload;
    std::uint64_t seed = 0;
    double seconds = 10.0;
    bool trace = false;
    std::string gpupm_bin; ///< the shipped CLI, built alongside
    std::string work_dir;  ///< scratch space inside the checkout
};

/** Seed set aside for confirming later performance claims; never
 *  used while tuning a change. */
constexpr std::uint64_t kHeldOutSeed = 7919;

void runFig7(const Options &opts, Report &report);
void runFleet(const Options &opts, Report &report);
/** The monitor session rebuilt in-process from library calls and
 *  ticked on a virtual clock: the sampler's per-tick cost. */
void runMonitorReplica(const Options &opts, Report &report);
/** The shipped `gpupm monitor` daemon, scraped over loopback. */
void runMonitor(const Options &opts, Report &report);

} // namespace perfbench

#endif // PERFBENCH_WORKLOADS_HH
