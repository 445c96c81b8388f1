#include "merge.hh"

#include <algorithm>
#include <map>
#include <cstdio>
#include <sstream>

#include "common/json.hh"
#include "common/numio.hh"
#include "common/stats.hh"
#include "gpu/device.hh"

namespace gpupm
{
namespace fleet
{

namespace
{

std::string
archOf(gpu::DeviceKind kind)
{
    return std::string(gpu::architectureName(
            gpu::DeviceDescriptor::get(kind).architecture));
}

/** Two-decimal percentage for human summaries. */
std::string
pct(double v)
{
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.2f", v);
    return buf;
}

} // namespace

FleetScoreboard
mergeShardResults(const std::vector<ShardResult> &shards)
{
    // Flatten, then order by device id: the merge may see shards in
    // any completion order and must not care.
    std::vector<const DeviceOutcome *> all;
    for (const ShardResult &shard : shards)
        for (const DeviceOutcome &o : shard.outcomes)
            all.push_back(&o);
    std::sort(all.begin(), all.end(),
              [](const DeviceOutcome *a, const DeviceOutcome *b) {
                  return a->id < b->id;
              });

    FleetScoreboard fs;
    fs.devices_total = static_cast<long>(all.size());

    std::map<std::string, std::vector<const DeviceScore *>> by_arch;
    std::map<std::string, long> fail_counts;
    for (const DeviceOutcome *o : all)
    {
        if (o->ok)
        {
            DeviceScore ds;
            ds.id = o->id;
            ds.kind = o->kind;
            ds.stats = o->stats;
            ds.fit_rmse_w = o->fit_rmse_w;
            ds.fit_iterations = o->fit_iterations;
            fs.devices.push_back(ds);
        }
        else
        {
            fs.failures.push_back(
                    {o->id, o->kind, o->fail, o->message});
            ++fail_counts[std::string(
                    deviceFailKindName(o->fail))];
        }
    }
    fs.devices_ok = static_cast<long>(fs.devices.size());
    fs.devices_failed = static_cast<long>(fs.failures.size());

    // Overall + per-architecture marginals (paper device order).
    std::vector<obs::ScoreStats> all_stats;
    for (const DeviceScore &ds : fs.devices)
    {
        all_stats.push_back(ds.stats);
        by_arch[archOf(ds.kind)].push_back(&ds);
    }
    fs.overall = obs::combineScoreStats(all_stats);
    for (gpu::DeviceKind kind : gpu::kAllDevices)
    {
        const std::string arch = archOf(kind);
        auto it = by_arch.find(arch);
        if (it == by_arch.end())
            continue;
        ArchAggregate agg;
        agg.arch = arch;
        agg.devices_ok = static_cast<long>(it->second.size());
        std::vector<obs::ScoreStats> group;
        for (const DeviceScore *ds : it->second)
            group.push_back(ds->stats);
        agg.stats = obs::combineScoreStats(group);
        fs.per_arch.push_back(std::move(agg));
        by_arch.erase(it);
    }

    // Robust per-device MAE outliers among the healthy population.
    std::vector<double> maes;
    for (const DeviceScore &ds : fs.devices)
        maes.push_back(ds.stats.mae_pct);
    if (maes.size() >= 4)
    {
        const std::vector<bool> mask =
                stats::madOutlierMask(maes, 3.5);
        for (std::size_t i = 0; i < mask.size(); ++i)
            if (mask[i])
                fs.outliers.push_back(fs.devices[i].id);
    }

    for (const auto &[name, count] : fail_counts)
        fs.failures_by_kind.emplace_back(name, count);
    return fs;
}

std::string
FleetScoreboard::toJson(bool include_failures) const
{
    std::ostringstream os;
    os << "{\"schema\":\"gpupm_fleet_v1\",\"devices_ok\":"
       << devices_ok;
    os << ",\"overall\":";
    os << '{' << obs::scoreStatsFields(overall) << '}';
    os << ",\"per_arch\":[";
    for (std::size_t i = 0; i < per_arch.size(); ++i)
    {
        if (i)
            os << ',';
        os << "{\"arch\":" << json::quote(per_arch[i].arch)
           << ",\"devices_ok\":" << per_arch[i].devices_ok
           << ",\"stats\":";
        os << '{' << obs::scoreStatsFields(per_arch[i].stats) << '}';
        os << '}';
    }
    os << "],\"devices\":[";
    for (std::size_t i = 0; i < devices.size(); ++i)
    {
        const DeviceScore &ds = devices[i];
        if (i)
            os << ',';
        os << "{\"id\":" << ds.id << ",\"kind\":"
           << static_cast<int>(ds.kind) << ",\"stats\":";
        os << '{' << obs::scoreStatsFields(ds.stats) << '}';
        os << ",\"fit_rmse_w\":" << numio::formatDouble(ds.fit_rmse_w)
           << ",\"fit_iterations\":" << ds.fit_iterations << '}';
    }
    os << "],\"outliers\":[";
    for (std::size_t i = 0; i < outliers.size(); ++i)
    {
        if (i)
            os << ',';
        os << outliers[i];
    }
    os << ']';
    if (include_failures)
    {
        os << ",\"devices_total\":" << devices_total
           << ",\"devices_failed\":" << devices_failed
           << ",\"failures_by_kind\":{";
        for (std::size_t i = 0; i < failures_by_kind.size(); ++i)
        {
            if (i)
                os << ',';
            os << json::quote(failures_by_kind[i].first) << ':'
               << failures_by_kind[i].second;
        }
        os << "},\"failures\":[";
        for (std::size_t i = 0; i < failures.size(); ++i)
        {
            const DeviceFailure &f = failures[i];
            if (i)
                os << ',';
            os << "{\"id\":" << f.id << ",\"kind\":"
               << static_cast<int>(f.kind) << ",\"fail\":"
               << json::quote(deviceFailKindName(f.fail)) << '}';
        }
        os << ']';
    }
    os << '}';
    return os.str();
}

std::string
FleetScoreboard::summaryText() const
{
    std::ostringstream os;
    os << "fleet: " << devices_ok << "/" << devices_total
       << " devices healthy";
    if (devices_failed > 0)
    {
        os << " (" << devices_failed << " failed:";
        for (const auto &[name, count] : failures_by_kind)
            os << ' ' << name << "=" << count;
        os << ')';
    }
    os << '\n';
    if (devices_ok > 0)
    {
        os << "overall MAE " << pct(overall.mae_pct)
           << "% over " << overall.samples
           << " validation samples\n";
        for (const ArchAggregate &agg : per_arch)
            os << "  " << agg.arch << ": " << agg.devices_ok
               << " devices, MAE " << pct(agg.stats.mae_pct)
               << "%\n";
    }
    if (!outliers.empty())
    {
        os << "outlier devices (MAD on per-device MAE):";
        for (long id : outliers)
            os << ' ' << id;
        os << '\n';
    }
    return os.str();
}

} // namespace fleet
} // namespace gpupm
