#include "tsdb.hh"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <functional>
#include <limits>
#include <sstream>

#include "common/json.hh"
#include "common/numio.hh"
#include "obs/standard.hh"

namespace gpupm
{
namespace obs
{

void
TsBucket::add(double v)
{
    if (count == 0) {
        min = max = sum = v;
        count = 1;
        return;
    }
    min = std::min(min, v);
    max = std::max(max, v);
    sum += v;
    ++count;
}

void
TsBucket::merge(const TsBucket &other)
{
    if (other.count == 0)
        return;
    if (count == 0) {
        const std::int64_t keep = start_us;
        *this = other;
        start_us = keep;
        return;
    }
    min = std::min(min, other.min);
    max = std::max(max, other.max);
    sum += other.sum;
    count += other.count;
}

std::string
TsQueryResult::toJson(const std::string &series) const
{
    std::ostringstream os;
    os << "{\"series\":\"" << json::escape(series) << "\",\"ok\":"
       << (ok ? "true" : "false");
    if (!ok) {
        os << ",\"error\":\"" << json::escape(error) << "\"}";
        return os.str();
    }
    os << ",\"tier\":" << tier << ",\"start_us\":" << start_us
       << ",\"end_us\":" << end_us << ",\"step_us\":" << step_us
       << ",\"points\":[";
    bool first = true;
    for (const TsBucket &b : points) {
        if (!first)
            os << ",";
        first = false;
        os << "{\"t_us\":" << b.start_us << ",\"min\":"
           << numio::formatDouble(b.min) << ",\"max\":"
           << numio::formatDouble(b.max) << ",\"avg\":"
           << numio::formatDouble(b.avg()) << ",\"count\":" << b.count
           << "}";
    }
    os << "]}";
    return os.str();
}

Tsdb::Tsdb(TsdbOptions opts)
    : opts_(opts),
      latest_us_(std::numeric_limits<std::int64_t>::min())
{
    if (opts_.stripes == 0)
        opts_.stripes = 1;
    if (opts_.raw_capacity == 0)
        opts_.raw_capacity = 1;
    if (opts_.tier_capacity == 0)
        opts_.tier_capacity = 1;
    if (opts_.max_series == 0)
        opts_.max_series = 1;
    // Never let lock striping raise the effective cardinality cap: a
    // cap below the stripe count collapses to one stripe so the
    // per-stripe cap can stay exact.
    if (opts_.max_series < opts_.stripes)
        opts_.stripes = opts_.max_series;
    per_stripe_cap_ = opts_.max_series / opts_.stripes;
    if (per_stripe_cap_ == 0)
        per_stripe_cap_ = 1;
    stripes_ = std::vector<Stripe>(opts_.stripes);
}

std::size_t
Tsdb::hashName(const std::string &name)
{
    // FNV-1a: deterministic across processes (std::hash is not
    // guaranteed to be), so stripe assignment — and therefore
    // eviction order under cardinality pressure — is reproducible.
    std::uint64_t h = 1469598103934665603ULL;
    for (unsigned char c : name) {
        h ^= c;
        h *= 1099511628211ULL;
    }
    return static_cast<std::size_t>(h);
}

Tsdb::Stripe &
Tsdb::stripeFor(const std::string &name)
{
    return stripes_[hashName(name) % stripes_.size()];
}

const Tsdb::Stripe &
Tsdb::stripeFor(const std::string &name) const
{
    return stripes_[hashName(name) % stripes_.size()];
}

void
Tsdb::bucketInto(std::deque<TsBucket> &tier, std::int64_t res_us,
                 std::size_t cap, std::int64_t t_us, double value)
{
    const std::int64_t start =
            (t_us >= 0 ? t_us / res_us : (t_us - res_us + 1) / res_us) *
            res_us;
    if (!tier.empty() && tier.back().start_us == start) {
        tier.back().add(value);
        return;
    }
    if (!tier.empty() && start < tier.back().start_us)
        return; // late point: its bucket already sealed
    TsBucket b;
    b.start_us = start;
    b.add(value);
    tier.push_back(b);
    while (tier.size() > cap)
        tier.pop_front();
}

void
Tsdb::appendLocked(Series &s, std::int64_t t_us, double value)
{
    if (s.raw.size() < opts_.raw_capacity)
        s.raw.resize(opts_.raw_capacity);
    const std::size_t slot =
            (s.raw_head + s.raw_size) % opts_.raw_capacity;
    if (s.raw_size == opts_.raw_capacity) {
        s.raw[s.raw_head] = {t_us, value};
        s.raw_head = (s.raw_head + 1) % opts_.raw_capacity;
    } else {
        s.raw[slot] = {t_us, value};
        ++s.raw_size;
    }
    bucketInto(s.tier1, opts_.tier1_res_us, opts_.tier_capacity, t_us,
               value);
    bucketInto(s.tier2, opts_.tier2_res_us, opts_.tier_capacity, t_us,
               value);
    s.last_write_us = t_us;
}

void
Tsdb::append(const std::string &series, std::int64_t t_us,
             double value)
{
    if (!std::isfinite(value)) {
        dropped_not_finite_.fetch_add(1, std::memory_order_relaxed);
        return;
    }
    Stripe &st = stripeFor(series);
    {
        std::lock_guard<std::mutex> lock(st.mu);
        Series *found = nullptr;
        for (Series &s : st.series) {
            if (s.name == series) {
                found = &s;
                break;
            }
        }
        if (!found) {
            if (st.series.size() >= per_stripe_cap_) {
                // Evict the series written to least recently; ties
                // break towards the first in insertion order.
                auto victim = std::min_element(
                        st.series.begin(), st.series.end(),
                        [](const Series &a, const Series &b) {
                            return a.last_write_us < b.last_write_us;
                        });
                st.series.erase(victim);
                evictions_.fetch_add(1, std::memory_order_relaxed);
            }
            Series s;
            s.name = series;
            s.raw.resize(opts_.raw_capacity);
            st.series.push_back(std::move(s));
            found = &st.series.back();
        }
        appendLocked(*found, t_us, value);
    }
    points_appended_.fetch_add(1, std::memory_order_relaxed);
    std::int64_t prev = latest_us_.load(std::memory_order_relaxed);
    while (t_us > prev &&
           !latest_us_.compare_exchange_weak(prev, t_us,
                                             std::memory_order_relaxed))
        ;
}

void
Tsdb::recordRegistry(const Registry &reg, std::int64_t t_us)
{
    // Refresh self-metrics first so this snapshot already carries
    // them; the counts lag one tick behind the append below, which is
    // fine for trend series.
    tsdbSeriesCount().set(static_cast<double>(seriesCount()));
    tsdbMemoryBytes().set(static_cast<double>(memoryBytes()));
    for (const MetricSample &m : reg.collectSamples())
        append(m.name, t_us, m.value);
}

TsQueryResult
Tsdb::query(const TsQuery &q) const
{
    TsQueryResult res;
    res.start_us = q.start_us;
    res.end_us = q.end_us;
    res.step_us = q.step_us;
    if (q.step_us <= 0) {
        res.error = "step must be > 0";
        return res;
    }
    if (q.end_us < q.start_us) {
        res.error = "empty range (end < start)";
        return res;
    }
    // The result is built densely before empty buckets are stripped;
    // refuse queries whose bucket count dwarfs what the store could
    // even hold, so a hostile range/step pair cannot balloon memory.
    // Offsets from start_us are unsigned: end - start of an extreme
    // pair exceeds INT64_MAX, and wrapping would pass the check.
    const std::uint64_t origin = static_cast<std::uint64_t>(q.start_us);
    const std::uint64_t step = static_cast<std::uint64_t>(q.step_us);
    if ((static_cast<std::uint64_t>(q.end_us) - origin) / step >= 100000) {
        res.error = "range/step yields too many buckets";
        return res;
    }

    const Stripe &st = stripeFor(q.series);
    std::lock_guard<std::mutex> lock(st.mu);
    const Series *found = nullptr;
    for (const Series &s : st.series) {
        if (s.name == q.series) {
            found = &s;
            break;
        }
    }
    if (!found) {
        res.error = "unknown series '" + q.series + "'";
        return res;
    }

    // Coarsest tier whose native resolution still fits the step: the
    // query then reads the fewest stored buckets that can answer it,
    // and windows larger than raw retention transparently fall back
    // onto the downsampled history.
    const std::deque<TsBucket> *tier = nullptr;
    if (q.step_us >= opts_.tier2_res_us) {
        tier = &found->tier2;
        res.tier = 2;
    } else if (q.step_us >= opts_.tier1_res_us) {
        tier = &found->tier1;
        res.tier = 1;
    } else {
        res.tier = 0;
    }

    auto outBucketFor = [&](std::int64_t t_us) -> TsBucket * {
        if (t_us < q.start_us || t_us > q.end_us)
            return nullptr;
        const std::size_t idx = static_cast<std::size_t>(
                (static_cast<std::uint64_t>(t_us) - origin) / step);
        while (res.points.size() <= idx) {
            TsBucket b;
            b.start_us = static_cast<std::int64_t>(
                    origin + res.points.size() * step);
            res.points.push_back(b);
        }
        return &res.points[idx];
    };

    if (res.tier == 0) {
        for (std::size_t i = 0; i < found->raw_size; ++i) {
            const TsPoint &p =
                    found->raw[(found->raw_head + i) %
                               opts_.raw_capacity];
            if (TsBucket *b = outBucketFor(p.t_us))
                b->add(p.value);
        }
    } else {
        for (const TsBucket &src : *tier) {
            if (TsBucket *b = outBucketFor(src.start_us))
                b->merge(src);
        }
    }

    // Dense allocation above, sparse result out: callers only see
    // buckets that actually hold data.
    res.points.erase(std::remove_if(res.points.begin(),
                                    res.points.end(),
                                    [](const TsBucket &b) {
                                        return b.count == 0;
                                    }),
                     res.points.end());
    res.ok = true;
    return res;
}

std::vector<std::string>
Tsdb::seriesNames() const
{
    std::vector<std::string> names;
    for (const Stripe &st : stripes_) {
        std::lock_guard<std::mutex> lock(st.mu);
        for (const Series &s : st.series)
            names.push_back(s.name);
    }
    std::sort(names.begin(), names.end());
    return names;
}

std::size_t
Tsdb::seriesCount() const
{
    std::size_t n = 0;
    for (const Stripe &st : stripes_) {
        std::lock_guard<std::mutex> lock(st.mu);
        n += st.series.size();
    }
    return n;
}

std::size_t
Tsdb::memoryBytes() const
{
    // Fixed accounting per live series: the preallocated raw ring,
    // both tiers at configured capacity (deques overshoot slightly;
    // we charge the cap, which is what the soak gate bounds), the
    // name, and the Series bookkeeping itself.
    const std::size_t per_series_fixed =
            opts_.raw_capacity * sizeof(TsPoint) +
            2 * opts_.tier_capacity * sizeof(TsBucket) +
            sizeof(Series);
    std::size_t total = sizeof(Tsdb) + stripes_.size() * sizeof(Stripe);
    for (const Stripe &st : stripes_) {
        std::lock_guard<std::mutex> lock(st.mu);
        for (const Series &s : st.series)
            total += per_series_fixed + s.name.capacity();
    }
    return total;
}

std::int64_t
Tsdb::latestTimestamp() const
{
    return latest_us_.load(std::memory_order_relaxed);
}

} // namespace obs
} // namespace gpupm
