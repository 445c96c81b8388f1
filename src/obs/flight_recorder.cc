#include "flight_recorder.hh"

#include <algorithm>
#include <sstream>

#include "common/json.hh"
#include "common/logging.hh"
#include "common/numio.hh"
#include "obs/trace.hh"

namespace gpupm
{
namespace obs
{

FlightRecorder::FlightRecorder(std::size_t capacity)
    : epoch_(std::chrono::steady_clock::now())
{
    GPUPM_ASSERT(capacity > 0, "flight recorder needs capacity >= 1");
    slots_.resize(capacity);
    for (auto &s : slots_)
        s.seq = -1; // empty
}

std::int64_t
FlightRecorder::recorded() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return next_seq_;
}

std::int64_t
FlightRecorder::nowUs() const
{
    return std::chrono::duration_cast<std::chrono::microseconds>(
                   std::chrono::steady_clock::now() - epoch_)
            .count();
}

void
FlightRecorder::record(FlightRecord r)
{
    if (r.ts_us == 0)
        r.ts_us = nowUs();
    if (r.trace_id == 0)
        r.trace_id = currentTraceContext().trace_id;
    std::lock_guard<std::mutex> lock(mu_);
    r.seq = next_seq_;
    slots_[static_cast<std::size_t>(next_seq_) % slots_.size()] =
            std::move(r);
    ++next_seq_;
}

void
FlightRecorder::recordSpan(const std::string &name,
                           std::int64_t dur_us, std::string detail)
{
    FlightRecord r;
    r.kind = "span";
    r.name = name;
    r.dur_us = dur_us;
    r.detail = std::move(detail);
    record(std::move(r));
}

std::vector<FlightRecord>
FlightRecorder::snapshot() const
{
    std::vector<FlightRecord> out;
    {
        std::lock_guard<std::mutex> lock(mu_);
        out.reserve(slots_.size());
        for (const auto &s : slots_)
            if (s.seq >= 0)
                out.push_back(s);
    }
    std::sort(out.begin(), out.end(),
              [](const FlightRecord &a, const FlightRecord &b) {
                  return a.seq < b.seq;
              });
    return out;
}

std::string
FlightRecorder::renderJson() const
{
    const auto records = snapshot();
    const std::int64_t total = recorded();
    const std::int64_t dropped =
            total - static_cast<std::int64_t>(records.size());
    std::ostringstream os;
    os << "{\"capacity\":" << slots_.size() << ",\"recorded\":"
       << total << ",\"dropped\":" << dropped << ",\"records\":[";
    for (std::size_t i = 0; i < records.size(); ++i) {
        const auto &r = records[i];
        if (i)
            os << ",";
        os << "\n{\"seq\":" << r.seq << ",\"ts_us\":" << r.ts_us
           << ",\"dur_us\":" << r.dur_us << ",\"kind\":\""
           << json::escape(r.kind) << "\",\"name\":\""
           << json::escape(r.name) << "\",\"detail\":\""
           << json::escape(r.detail) << "\",\"trace_id\":\""
           << traceIdHex(r.trace_id) << "\"}";
    }
    os << "]}\n";
    return os.str();
}

void
FlightRecorder::clear()
{
    std::lock_guard<std::mutex> lock(mu_);
    for (auto &s : slots_)
        s.seq = -1;
}

} // namespace obs
} // namespace gpupm
