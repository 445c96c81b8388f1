#include "watchdog.hh"

namespace gpupm
{
namespace fleet
{

Watchdog::Watchdog()
{
    scanner_ = std::thread([this] { scanLoop(); });
}

Watchdog::~Watchdog()
{
    {
        std::lock_guard<std::mutex> lock(mu_);
        stop_ = true;
    }
    cv_.notify_all();
    scanner_.join();
}

long
Watchdog::arm(double deadline_s, CancelToken token)
{
    const auto deadline =
            Clock::now() +
            std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double>(
                            deadline_s < 0.0 ? 0.0 : deadline_s));
    long id;
    {
        std::lock_guard<std::mutex> lock(mu_);
        id = next_id_++;
        armed_.emplace(id, Entry{deadline, std::move(token),
                                 obs::currentTraceContext()});
    }
    cv_.notify_all();
    return id;
}

bool
Watchdog::disarm(long id)
{
    std::lock_guard<std::mutex> lock(mu_);
    return armed_.erase(id) > 0;
}

void
Watchdog::scanLoop()
{
    std::unique_lock<std::mutex> lock(mu_);
    while (!stop_)
    {
        // Sleep until the earliest armed deadline (or indefinitely
        // when nothing is armed); arm() and the destructor notify.
        auto next = Clock::time_point::max();
        for (const auto &[id, entry] : armed_)
            if (entry.deadline < next)
                next = entry.deadline;
        if (next == Clock::time_point::max())
            cv_.wait(lock);
        else
            cv_.wait_until(lock, next);
        if (stop_)
            return;

        const auto now = Clock::now();
        for (auto it = armed_.begin(); it != armed_.end();)
        {
            if (it->second.deadline <= now)
            {
                // Count the fire before publishing the cancellation:
                // whoever sees the token set (acquire) then also sees
                // firedCount() include it.
                fired_.fetch_add(1, std::memory_order_relaxed);
                if (it->second.token)
                    it->second.token->store(
                            true, std::memory_order_release);
                // An instant error span inside the stalled shard's
                // trace: the cancellation shows up (tail-kept) when
                // asking /api/traces?error=1 what the watchdog did.
                {
                    obs::TraceContextScope attributed(it->second.ctx);
                    obs::SpanGuard fire("fleet",
                                        "fleet.watchdog_fire");
                    fire.markError();
                }
                it = armed_.erase(it);
            }
            else
            {
                ++it;
            }
        }
    }
}

} // namespace fleet
} // namespace gpupm
