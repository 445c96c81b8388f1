#include "loadgen.hh"

#include <algorithm>
#include <chrono>
#include <cmath>

namespace perfbench
{

double
nowSeconds()
{
    return std::chrono::duration<double>(
                   std::chrono::steady_clock::now().time_since_epoch())
            .count();
}

namespace
{

/** Spin-wait hint: lets an SMT sibling run while this thread spins. */
inline void
cpuRelax()
{
#if defined(__x86_64__) || defined(__i386__)
    __builtin_ia32_pause();
#endif
}

} // namespace

std::vector<Completion>
runOpenLoop(double rate, double duration_s, const SendFn &send)
{
    const std::size_t total = static_cast<std::size_t>(
            std::max(1.0, std::floor(rate * duration_s)));
    std::vector<Completion> done(total);
    const double start = nowSeconds() + 0.002;
    for (std::size_t i = 0; i < total; ++i) {
        Completion &c = done[i];
        c.index = i;
        c.due_s = start + static_cast<double>(i) / rate;
        // Spin rather than sleep until the due time: a sleeping
        // generator lets its CPU idle, and on a virtual machine the
        // wake-up can come milliseconds late, which would be charged
        // to the system under test.
        while (nowSeconds() < c.due_s)
            cpuRelax();
        c.sent_s = nowSeconds();
        c.ok = send(i, c.done_s);
    }
    return done;
}

StepSummary
summarize(const std::vector<Completion> &done, double limit_ms)
{
    StepSummary s;
    s.n = done.size();
    std::vector<double> lat, late_begin, late_end;
    lat.reserve(done.size());
    const std::size_t tenth = std::max<std::size_t>(1, done.size() / 10);
    const std::size_t end_from = done.size() - std::min(tenth, done.size());
    for (std::size_t i = 0; i < done.size(); ++i) {
        const Completion &c = done[i];
        if (!c.ok)
            ++s.failures;
        lat.push_back(c.latencyMs());
        s.late_max_ms = std::max(s.late_max_ms, c.lateMs());
        if (i < tenth)
            late_begin.push_back(c.lateMs());
        if (i >= end_from)
            late_end.push_back(c.lateMs());
    }
    s.p50_ms = median(lat);
    s.tail_ms = tailOf(lat);
    s.late_begin_ms = median(late_begin);
    s.late_end_ms = median(late_end);
    s.keeps_up = s.late_end_ms <= limit_ms &&
                 s.late_end_ms - s.late_begin_ms <= 0.5 * limit_ms;
    s.passes = s.n > 0 && s.failures == 0 && s.tail_ms.ok &&
               s.tail_ms.value <= limit_ms && s.keeps_up;
    return s;
}

SearchResult
searchMaxRate(const std::function<bool(double)> &step, double start,
              double cap, double resolution)
{
    SearchResult res;
    auto run = [&](double rate) {
        bool pass = step(rate);
        res.steps.push_back({rate, pass});
        if (!pass) {
            pass = step(rate);
            res.steps.push_back({rate, pass});
        }
        return pass;
    };
    // Bracket: [lo, hi] with lo passing and hi failing (hi = 0 while
    // no failing rate is known, lo = 0 while no passing one is).
    double lo = 0.0, hi = 0.0;
    if (run(start)) {
        lo = start;
        while (hi == 0.0) {
            const double r = std::min(2.0 * lo, cap);
            if (r <= lo) {
                res.hit_cap = true;
                res.max_rate = lo;
                return res;
            }
            (run(r) ? lo : hi) = r;
        }
    } else {
        hi = start;
        for (double r = start / 2.0; lo == 0.0; r /= 2.0) {
            if (r < start / 1024.0)
                return res;
            (run(r) ? lo : hi) = r;
        }
    }
    while (hi / lo > 1.0 + resolution) {
        const double mid = std::sqrt(lo * hi);
        (run(mid) ? lo : hi) = mid;
    }
    res.max_rate = lo;
    return res;
}

} // namespace perfbench
