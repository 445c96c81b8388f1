/**
 * @file
 * fleet: fleet::runFleetCampaign over 48 simulated devices with
 * nproc / 2 pool workers. Each cycle runs a clean pass, then a seeded
 * chaos pass (shard kills mid-checkpoint, poisoned devices, and a
 * checkpoint directory inside the work directory). It exercises the
 * campaign and estimator layers on small strided mini-campaigns in
 * parallel, plus the pool, supervisor retry, checkpoint writes beside
 * resume reads, and the merge, none of which fig7 touches.
 */

#include <unistd.h>

#include <algorithm>
#include <filesystem>
#include <map>
#include <thread>

#include "fleet/merge.hh"
#include "fleet/shard.hh"
#include "fleet/shard_io.hh"
#include "fleet/supervisor.hh"
#include "loadgen.hh"
#include "proc.hh"
#include "stats.hh"
#include "workloads.hh"

namespace perfbench
{

namespace
{

using namespace gpupm;

constexpr int kSetupRepeats = 31;
// At least 21 cycles, so the tail rule's 11th-largest cycle lies
// above the median.
constexpr std::size_t kMinCycles = 21;
// Cycles per requested second: about 0.9 of the development VM's
// rate, so a run fits its time on a somewhat slower host as well.
constexpr double kCyclesPerSecond = 1.5;
// Distinct fleet and chaos seeds a run rotates through, cycle i using
// plan i % kPlans. The chaos pass's retries, backoff and poisoned
// devices depend on its seed, so its time varies by half between
// seeds; a run averages over kPlans of them instead of repeating one.
constexpr std::size_t kPlans = 10;

struct Plan
{
    fleet::FleetOptions clean;
    fleet::FleetOptions chaos;
    /** Non-poisoned devices of the chaos pass. */
    std::vector<fleet::DeviceSpec> survivors;
    long poisoned = 0;
};

/** Fleet shape and the seeds of plan k, derived from the workload
 *  seed. */
Plan
buildPlan(const Options &opts, std::size_t k)
{
    Plan p;
    p.clean.devices = 48;
    p.clean.shards = 8;
    p.clean.seed = deriveSeed(opts.seed, 100 + 2 * k);
    // Half the vCPUs: a pool as wide as the machine measures how the
    // host schedules it (its wall time is that of the worker that
    // waited longest), and its workers slow each other down.
    const unsigned hw = std::thread::hardware_concurrency();
    p.clean.threads = static_cast<int>(
            std::clamp<unsigned>(hw / 2, 1u, 4u));
    p.chaos = p.clean;
    p.chaos.chaos.seed = deriveSeed(opts.seed, 101 + 2 * k);
    p.chaos.chaos.shard_kill_rate = 0.3;
    p.chaos.chaos.poison_fraction = 0.1;
    p.chaos.checkpoint_dir = opts.work_dir + "/fleet_checkpoints";
    for (const auto &spec : fleet::buildFleetSpecs(p.chaos)) {
        if (spec.poison_nan || spec.poison_config)
            ++p.poisoned;
        else
            p.survivors.push_back(spec);
    }
    return p;
}

/** Start the chaos pass from an empty checkpoint directory, so it
 *  never resumes an earlier cycle's shards. */
void
resetCheckpoints(const Plan &p)
{
    std::filesystem::remove_all(p.chaos.checkpoint_dir);
    std::filesystem::create_directories(p.chaos.checkpoint_dir);
}

struct Cycle
{
    fleet::FleetResult clean, chaos;
    double clean_ms = 0.0, chaos_ms = 0.0;

    double wallMs() const { return clean_ms + chaos_ms; }
    long devicesOk() const
    {
        return clean.scoreboard.devices_ok + chaos.scoreboard.devices_ok;
    }
};

Cycle
runCycle(const Plan &p)
{
    resetCheckpoints(p);
    Cycle c;
    const double t0 = nowSeconds();
    c.clean = fleet::runFleetCampaign(p.clean);
    const double t1 = nowSeconds();
    c.chaos = fleet::runFleetCampaign(p.chaos);
    c.clean_ms = (t1 - t0) * 1e3;
    c.chaos_ms = (nowSeconds() - t1) * 1e3;
    return c;
}

long
attempts(const fleet::FleetResult &r)
{
    long n = 0;
    for (const auto &s : r.shards)
        n += s.attempts;
    return n;
}

/** Timed checkpoint round trip and merge of one clean pass. */
struct IoTiming
{
    std::vector<double> write_us, read_us;
    double bytes = 0.0;
    double merge_ms = 0.0;
    double covered_ms = 0.0;
};

IoTiming
timeCheckpointsAndMerge(const Plan &p, const fleet::FleetResult &clean,
                        const std::string &dir, Report &report)
{
    IoTiming io;
    std::filesystem::create_directories(dir);
    std::map<int, fleet::ShardSpec> specs;
    for (auto &s : fleet::shardDevices(fleet::buildFleetSpecs(p.clean),
                                       p.clean.shards))
        specs[s.index] = s;
    for (const auto &result : clean.shards) {
        const fleet::ShardSpec &spec = specs.at(result.index);
        const std::string path =
                fleet::shardCheckpointPath(dir, result.index);
        double t0 = nowSeconds();
        const auto saved =
                fleet::trySaveShardResult(result, p.clean, spec, path);
        io.write_us.push_back((nowSeconds() - t0) * 1e6);
        t0 = nowSeconds();
        const auto loaded = fleet::tryLoadShardResult(path, p.clean, spec);
        io.read_us.push_back((nowSeconds() - t0) * 1e6);
        report.check(saved.ok() && loaded.ok() &&
                             loaded.value().outcomes == result.outcomes,
                     "a shard checkpoint reads back what was written");
        io.bytes += static_cast<double>(std::filesystem::file_size(path));
    }
    const double t0 = nowSeconds();
    const auto merged = fleet::mergeShardResults(clean.shards);
    io.merge_ms = (nowSeconds() - t0) * 1e3;
    report.check(merged.toJson(true) == clean.scoreboard.toJson(true),
                 "re-merging the clean shards gives the same scoreboard");
    for (double us : io.write_us)
        io.covered_ms += us * 1e-3;
    for (double us : io.read_us)
        io.covered_ms += us * 1e-3;
    io.covered_ms += io.merge_ms;
    return io;
}

/** Serial runDevice over the clean fleet: per-device cost without
 *  the pool, and a cross-check of the pool's outcomes. */
std::vector<double>
serialPass(const Plan &p, const fleet::FleetResult &clean,
           Report &report)
{
    std::map<long, fleet::DeviceOutcome> pooled;
    for (const auto &s : clean.shards)
        for (const auto &o : s.outcomes)
            pooled[o.id] = o;
    std::vector<double> device_ms;
    for (const auto &spec : fleet::buildFleetSpecs(p.clean)) {
        const double t0 = nowSeconds();
        const auto out =
                fleet::runDevice(spec, p.clean, fleet::makeCancelToken());
        device_ms.push_back((nowSeconds() - t0) * 1e3);
        report.check(out == pooled[spec.id],
                     "serial runDevice matches the pooled outcome");
    }
    return device_ms;
}

} // namespace

void
runFleet(const Options &opts, Report &report)
{
    // Set-up: the fleet plans, then a warm-up campaign over one device
    // per shard, which starts a pool and brings in the lazily built
    // suite and validation set before anything is timed. Done several
    // times; the median is reported.
    std::vector<double> setup_s;
    std::vector<Plan> plans;
    for (int i = 0; i < kSetupRepeats; ++i) {
        const double t0 = nowSeconds();
        plans.clear();
        for (std::size_t k = 0; k < kPlans; ++k)
            plans.push_back(buildPlan(opts, k));
        const fleet::FleetOptions &clean = plans.front().clean;
        const auto specs = fleet::buildFleetSpecs(clean);
        fleet::runFleetCampaign(clean,
                                {specs.begin(), specs.begin() + clean.shards});
        setup_s.push_back(nowSeconds() - t0);
    }
    const Plan &plan = plans.front();

    const double start = nowSeconds();
    std::vector<double> device_ms;
    double covered_ms = 0.0;
    std::vector<Cycle> cycles;
    std::vector<IoTiming> io;
    const double cpu0 = cpuSeconds(getpid());
    const std::size_t n = cyclesFor(opts.seconds, kCyclesPerSecond, kMinCycles);
    while (moreCycles(cycles.size(), n, kMinCycles, nowSeconds() - start,
                      opts.seconds)) {
        cycles.push_back(runCycle(plans[cycles.size() % kPlans]));
        covered_ms += cycles.back().wallMs();
        if (!opts.trace)
            continue;
        if (cycles.size() == 1) {
            device_ms = serialPass(plan, cycles[0].clean, report);
            for (double ms : device_ms)
                covered_ms += ms;
        }
        io.push_back(timeCheckpointsAndMerge(
                plans[(cycles.size() - 1) % kPlans], cycles.back().clean,
                opts.work_dir + "/fleet_roundtrip", report));
        covered_ms += io.back().covered_ms;
    }
    const double window_ms = (nowSeconds() - start) * 1e3;
    const double cpu_s = cpuSeconds(getpid()) - cpu0;

    // Output checks: every cycle repeats bit for bit the first cycle of
    // its plan, the clean pass keeps every device, the chaos pass loses
    // exactly the poisoned ones, and its survivors merge bit-identically
    // to a fault-free run over the same devices.
    for (std::size_t i = 0; i < cycles.size(); ++i) {
        const Cycle &c = cycles[i];
        const Cycle &ref = cycles[i % kPlans];
        report.check(c.clean.scoreboard.toJson(false) ==
                                     ref.clean.scoreboard.toJson(false) &&
                             c.chaos.scoreboard.toJson(false) ==
                                     ref.chaos.scoreboard.toJson(false),
                     "every cycle merges to the scoreboards of its plan's "
                     "first cycle");
        const long clean_lost = c.clean.scoreboard.devices_failed;
        const long chaos_lost = std::abs(c.chaos.scoreboard.devices_failed -
                                         plans[i % kPlans].poisoned);
        report.check(clean_lost == 0, "the clean pass keeps every device");
        report.check(chaos_lost == 0,
                     "the chaos pass loses exactly the poisoned devices");
        report.attempted += c.clean.scoreboard.devices_total +
                            c.chaos.scoreboard.devices_total;
        report.failed += clean_lost + chaos_lost;
    }
    for (std::size_t k = 0; k < kPlans; ++k) {
        const auto reference = fleet::runFleetCampaign(plans[k].clean,
                                                       plans[k].survivors);
        report.check(reference.scoreboard.toJson(false) ==
                             cycles[k].chaos.scoreboard.toJson(false),
                     "chaos survivors merge bit-identically to a "
                     "fault-free run over the same devices");
    }

    std::vector<double> cycle_ms, clean_ms, steals;
    long devices_ok = 0;
    double busy_ms = 0.0;
    for (const Cycle &c : cycles) {
        cycle_ms.push_back(c.wallMs());
        clean_ms.push_back(c.clean_ms);
        steals.push_back(static_cast<double>(c.clean.pool_steals +
                                             c.chaos.pool_steals));
        devices_ok += c.devicesOk();
        busy_ms += c.wallMs();
    }
    // Over the whole run rather than a median of per-cycle rates, so
    // that a stretch of slow cycles counts for its share of the run.
    const double fits_per_s =
            static_cast<double>(devices_ok) * 1e3 / busy_ms;
    // Counts and MAE over one cycle of each plan, so they are a
    // function of the workload seed alone.
    long shard_attempts = 0, shard_retries = 0, chaos_failed = 0;
    double mae_sum = 0.0;
    for (std::size_t k = 0; k < kPlans; ++k) {
        const Cycle &c = cycles[k];
        shard_attempts += attempts(c.clean) + attempts(c.chaos);
        shard_retries += c.clean.shard_retries + c.chaos.shard_retries;
        chaos_failed += c.chaos.scoreboard.devices_failed;
        mae_sum += c.clean.scoreboard.overall.mae_pct;
    }
    const Tail tail = tailOf(cycle_ms);
    report.line(fmt("fleet: %zu cycles in %.3f s, %d workers; clean pass "
                    "%.1f ms, chaos pass %.1f ms (medians); over %zu "
                    "plans: %ld retries, %ld devices failed",
                    cycles.size(), window_ms * 1e-3, plan.clean.threads,
                    median(clean_ms),
                    median(cycle_ms) - median(clean_ms), kPlans,
                    shard_retries, chaos_failed));
    if (opts.trace) {
        std::vector<double> write_us, read_us, merge_ms;
        for (const IoTiming &t : io) {
            write_us.insert(write_us.end(), t.write_us.begin(),
                            t.write_us.end());
            read_us.insert(read_us.end(), t.read_us.begin(),
                           t.read_us.end());
            merge_ms.push_back(t.merge_ms);
        }
        double serial_ms = 0.0;
        for (double ms : device_ms)
            serial_ms += ms;
        report.set("fleet.device_ms_p50", median(device_ms));
        report.set("fleet.serial_ms", serial_ms);
        report.set("fleet.parallel_efficiency",
                   serial_ms / (plan.clean.threads * median(clean_ms)));
        report.set("fleet.shard_attempts",
                   static_cast<double>(shard_attempts));
        report.set("fleet.shard_retries",
                   static_cast<double>(shard_retries));
        report.set("fleet.pool_steals", median(steals));
        report.set("fleet.checkpoint_write_us_p50", median(write_us));
        report.set("fleet.checkpoint_read_us_p50", median(read_us));
        report.set("fleet.checkpoint_bytes", io.front().bytes);
        report.set("fleet.merge_ms", median(merge_ms));
        report.set("fleet.devices_failed",
                   static_cast<double>(chaos_failed));
        report.set("unattributed_pct",
                   100.0 * (window_ms - covered_ms) / window_ms);
        return;
    }
    const double mae = mae_sum / static_cast<double>(kPlans);
    report.line(fmt("fleet: fits_per_s=%.4f 1/s cycle_ms_p50=%.3f ms "
                    "cycle_ms_tail=%.3f ms (p%.2f of N=%zu) mae_pct=%.4f "
                    "%% setup_s=%.6f s peak_rss_mb=%.1f MB",
                    fits_per_s, median(cycle_ms), tail.value,
                    tail.percentile, tail.n, mae, median(setup_s),
                    peakRssMb(getpid())));
    report.check(tail.ok, "enough cycles for the tail rule");
    report.set("setup_s", median(setup_s));
    report.set("throughput_per_s", fits_per_s);
    report.set("latency_ms_p50", median(cycle_ms));
    report.set("latency_ms_tail", tail.value);
    report.set("mae_pct", mae);
    report.set("cpu_ms_per_op",
               cpu_s * 1e3 / static_cast<double>(devices_ok));
    report.set("peak_rss_mb", peakRssMb(getpid()));
}

} // namespace perfbench
