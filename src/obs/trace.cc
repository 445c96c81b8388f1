#include "trace.hh"

#include <cstdio>
#include <fstream>
#include <sstream>

#include "common/json.hh"
#include "common/numio.hh"
#include "common/provenance.hh"
#include "obs/profiler.hh"
#include "obs/trace_store.hh"

namespace gpupm
{
namespace obs
{

namespace
{

/** splitmix64 output mix — same finalizer the fleet seeder uses. */
std::uint64_t
mix64(std::uint64_t x)
{
    x += 0x9e3779b97f4a7c15ull;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
    return x ^ (x >> 31);
}

/** Buckets of partially assembled traces are bounded: a child whose
 *  root never completes (e.g. the tracer was disabled mid-trace)
 *  must not leak memory forever. */
constexpr std::size_t kPendingTraceCap = 512;

thread_local TraceContext g_trace_ctx;

} // namespace

TraceContext
currentTraceContext()
{
    return g_trace_ctx;
}

std::string
traceIdHex(std::uint64_t id)
{
    char buf[24];
    std::snprintf(buf, sizeof(buf), "%016llx",
                  static_cast<unsigned long long>(id));
    return buf;
}

TraceContextScope::TraceContextScope(TraceContext ctx)
    : saved_(g_trace_ctx)
{
    g_trace_ctx = ctx;
}

TraceContextScope::~TraceContextScope() { g_trace_ctx = saved_; }

Tracer::Tracer() : epoch_(std::chrono::steady_clock::now()) {}

Tracer &
Tracer::global()
{
    static Tracer tracer;
    return tracer;
}

void
Tracer::enable()
{
    std::lock_guard<std::mutex> lock(mu_);
    events_.clear();
    pending_.clear();
    epoch_ = std::chrono::steady_clock::now();
    enabled_.store(true, std::memory_order_relaxed);
}

void
Tracer::disable()
{
    enabled_.store(false, std::memory_order_relaxed);
}

void
Tracer::seedIds(std::uint64_t seed)
{
    std::lock_guard<std::mutex> lock(mu_);
    id_seed_ = seed;
    id_counter_.store(1, std::memory_order_relaxed);
}

std::uint64_t
Tracer::mintId()
{
    const std::uint64_t n =
            id_counter_.fetch_add(1, std::memory_order_relaxed);
    const std::uint64_t id = mix64(id_seed_ + n);
    return id ? id : (n | 1); // 0 means "no ID"; never mint it
}

void
Tracer::attachStore(TraceStore *store)
{
    std::lock_guard<std::mutex> lock(mu_);
    store_ = store;
    pending_.clear();
}

void
Tracer::setRetainEvents(bool retain)
{
    std::lock_guard<std::mutex> lock(mu_);
    retain_events_ = retain;
}

void
Tracer::record(TraceEvent ev)
{
    if (!enabled())
        return;
    std::lock_guard<std::mutex> lock(mu_);
    if (store_ && ev.trace_id)
        assembleLocked(ev);
    if (retain_events_)
        events_.push_back(std::move(ev));
}

void
Tracer::assembleLocked(TraceEvent ev)
{
    // Children complete (and record) before their root, so a root
    // arrival closes the trace: flush its bucket to the store.
    if (ev.parent_span_id != 0) {
        auto it = pending_.find(ev.trace_id);
        if (it == pending_.end()) {
            if (pending_.size() >= kPendingTraceCap)
                pending_.erase(pending_.begin());
            it = pending_.emplace(ev.trace_id,
                                  std::vector<TraceEvent>{})
                         .first;
        }
        it->second.push_back(std::move(ev));
        return;
    }
    StoredTrace trace;
    trace.trace_id = ev.trace_id;
    trace.root_name = ev.name;
    trace.root_cat = ev.cat;
    trace.start_us = ev.ts_us;
    trace.dur_us = ev.dur_us;
    const auto it = pending_.find(ev.trace_id);
    if (it != pending_.end()) {
        for (auto &child : it->second) {
            trace.error = trace.error || child.error;
            StoredSpan s;
            s.name = std::move(child.name);
            s.cat = std::move(child.cat);
            s.ts_us = child.ts_us;
            s.dur_us = child.dur_us;
            s.tid = child.tid;
            s.span_id = child.span_id;
            s.parent_span_id = child.parent_span_id;
            s.error = child.error;
            s.args = std::move(child.args);
            trace.spans.push_back(std::move(s));
        }
        pending_.erase(it);
    }
    StoredSpan root;
    root.name = ev.name;
    root.cat = ev.cat;
    root.ts_us = ev.ts_us;
    root.dur_us = ev.dur_us;
    root.tid = ev.tid;
    root.span_id = ev.span_id;
    root.parent_span_id = 0;
    root.error = ev.error;
    root.args = ev.args;
    trace.error = trace.error || ev.error;
    trace.spans.push_back(std::move(root));
    store_->offer(std::move(trace));
}

std::int64_t
Tracer::nowUs() const
{
    return std::chrono::duration_cast<std::chrono::microseconds>(
                   std::chrono::steady_clock::now() - epoch_)
            .count();
}

int
Tracer::threadOrdinal()
{
    std::lock_guard<std::mutex> lock(mu_);
    const auto id = std::this_thread::get_id();
    auto it = tids_.find(id);
    if (it == tids_.end())
        it = tids_.emplace(id, static_cast<int>(tids_.size())).first;
    return it->second;
}

std::vector<TraceEvent>
Tracer::snapshot() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return events_;
}

std::size_t
Tracer::eventCount() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return events_.size();
}

void
Tracer::clear()
{
    std::lock_guard<std::mutex> lock(mu_);
    events_.clear();
    pending_.clear();
}

std::string
Tracer::renderChromeTrace() const
{
    const auto events = snapshot();
    std::ostringstream os;
    os << "{\"traceEvents\":[";
    for (std::size_t i = 0; i < events.size(); ++i) {
        const TraceEvent &e = events[i];
        if (i)
            os << ",";
        os << "\n{\"name\":\"" << json::escape(e.name)
           << "\",\"cat\":\"" << json::escape(e.cat)
           << "\",\"ph\":\"X\",\"pid\":1,\"tid\":" << e.tid
           << ",\"ts\":" << numio::formatLong(e.ts_us)
           << ",\"dur\":" << numio::formatLong(e.dur_us);
        // 64-bit IDs travel as hex strings: JSON numbers are doubles
        // in most readers and would silently lose low bits.
        if (e.trace_id) {
            os << ",\"trace_id\":\"" << traceIdHex(e.trace_id)
               << "\",\"span_id\":\"" << traceIdHex(e.span_id)
               << "\"";
            if (e.parent_span_id)
                os << ",\"parent_span_id\":\""
                   << traceIdHex(e.parent_span_id) << "\"";
        }
        if (e.error)
            os << ",\"error\":true";
        if (!e.args.empty())
            os << ",\"args\":" << json::stringObject(e.args);
        os << "}";
    }
    os << "\n],\"displayTimeUnit\":\"ms\",\"provenance\":"
       << common::toJson(common::collectProvenance()) << "}\n";
    return os.str();
}

bool
Tracer::writeChromeTrace(const std::string &path) const
{
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    if (!out)
        return false;
    out << renderChromeTrace();
    return static_cast<bool>(out);
}

SpanGuard::SpanGuard(const char *cat, std::string name)
{
    if (Profiler::contextEnabled()) {
        profilerPushSpan(cat, name.c_str());
        ctx_pushed_ = true;
    }
    Tracer &t = Tracer::global();
    if (!t.enabled())
        return;
    armed_ = true;
    ev_.cat = cat;
    ev_.name = std::move(name);
    ev_.tid = t.threadOrdinal();
    ev_.span_id = t.mintId();
    saved_ctx_ = g_trace_ctx;
    if (saved_ctx_.trace_id) {
        ev_.trace_id = saved_ctx_.trace_id;
        ev_.parent_span_id = saved_ctx_.span_id;
    } else {
        // Root: the trace is named after its root span's ID.
        ev_.trace_id = ev_.span_id;
    }
    g_trace_ctx = TraceContext{ev_.trace_id, ev_.span_id};
    ctx_installed_ = true;
    start_us_ = t.nowUs();
}

SpanGuard::~SpanGuard()
{
    if (ctx_pushed_)
        profilerPopSpan();
    if (ctx_installed_)
        g_trace_ctx = saved_ctx_;
    if (!armed_)
        return;
    Tracer &t = Tracer::global();
    ev_.ts_us = start_us_;
    ev_.dur_us = t.nowUs() - start_us_;
    if (ev_.dur_us < 0)
        ev_.dur_us = 0;
    t.record(std::move(ev_));
}

void
SpanGuard::arg(std::string key, std::string value)
{
    if (!armed_)
        return;
    ev_.args.emplace_back(std::move(key), std::move(value));
}

void
SpanGuard::markError()
{
    if (!armed_)
        return;
    ev_.error = true;
}

} // namespace obs
} // namespace gpupm
