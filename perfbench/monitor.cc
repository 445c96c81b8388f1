/**
 * @file
 * monitor: the shipped `gpupm monitor titanx` daemon with a 2 ms
 * sampling period, scraped over loopback in an open loop. This is the
 * paper's run-time use case: the sampler, tsdb, alerts, trace store,
 * metrics render and HTTP do all the work, the estimator runs only in
 * set-up, and tick writes contend with scrape reads.
 *
 * Phases: set-up starts the daemon three times (time to a 200 from
 * /healthz, which includes its in-process training; the median is
 * setup_s) and keeps the last one. The measured window starts once the
 * trace store has reached its bound (it evicts) and the tsdb series
 * count is stable. A window without scrapes gives the daemon's CPU
 * cost per sampler tick; open loops at the fixed rates kRates give the
 * scrape latency (the end-to-end figures are those at kStatedRate); a
 * capacity search gives the highest rate whose tail meets kLimitMs
 * without a growing backlog.
 *
 * Not gated by BENCHMARK.json: on a shared VM each 0.2 ms scrape waits
 * on vCPU wake-ups, and its latency and capacity spread too widely
 * across runs. monitor_replica is the gated, steady part of the
 * monitor session.
 */

#include "monitor.hh"

#include <fcntl.h>
#include <signal.h>
#include <spawn.h>
#include <sys/wait.h>
#include <unistd.h>

#include <array>
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <initializer_list>
#include <optional>
#include <sstream>
#include <thread>

#include "http_client.hh"
#include "loadgen.hh"
#include "proc.hh"
#include "stats.hh"
#include "tools/json_lite.hh"
#include "workloads.hh"

extern char **environ;

namespace perfbench
{

const char *
routeName(Route route)
{
    static const char *const names[kRouteCount] = {
            "metrics", "api_query", "api_traces", "scoreboard",
            "healthz"};
    return names[static_cast<int>(route)];
}

std::vector<ScrapeRequest>
requestMix(std::uint64_t workload_seed)
{
    auto plain = [](Route route, const char *target) {
        ScrapeRequest r;
        r.route = route;
        r.target = target;
        return r;
    };
    ScrapeRequest query = plain(
            Route::ApiQuery, "/api/query?series=gpupm_accuracy_rolling_mae_"
                             "pct&range=60s&step=1s");
    query.series = "gpupm_accuracy_rolling_mae_pct";
    query.range_s = 60.0;
    query.step_s = 1.0;
    ScrapeRequest filtered = plain(
            Route::ApiTraces, "/api/traces?category=monitor&min_ms=0&limit=2");
    filtered.category = "monitor";
    filtered.limit = 2;
    const std::vector<ScrapeRequest> cycle = {
            plain(Route::Metrics, "/metrics"),
            plain(Route::Healthz, "/healthz"),
            plain(Route::Scoreboard, "/scoreboard"),
            query,
            plain(Route::ApiTraces, "/api/traces"),
            filtered,
            plain(Route::Metrics, "/metrics"),
    };
    const std::size_t offset = deriveSeed(workload_seed, 201) % cycle.size();
    std::vector<ScrapeRequest> mix;
    for (std::size_t i = 0; i < cycle.size(); ++i)
        mix.push_back(cycle[(offset + i) % cycle.size()]);
    return mix;
}

namespace
{

using gpupm::jsonlite::JsonValue;

constexpr int kSetupStarts = 3;
// Open-loop rates, requests/s: 0.1, 0.4 and 1.6 scrapes per 2 ms
// sampler tick, so reads go from rarer than the tick writes to
// outnumbering them, all below the capacity the search finds (1000
// to 4000 req/s on the development VM). The end-to-end latency is the
// one at kStatedRate.
constexpr double kRates[] = {50.0, 200.0, 800.0};
constexpr double kStatedRate = 200.0;
// Share of --seconds each fixed rate runs for.
constexpr double kRateShare = 0.15;
constexpr double kLimitMs = 10.0;     // tail latency limit
constexpr double kSearchStart = 1000.0;
constexpr double kSearchCap = 64000.0;
constexpr double kSearchResolution = 0.03;
constexpr double kStepSeconds = 0.3;

/** The body parsed as one JSON value; nullopt when it is not one. */
std::optional<JsonValue>
parseJson(const std::string &body)
{
    JsonValue v;
    std::string err;
    if (!gpupm::jsonlite::JsonParser(body).parse(v, err))
        return std::nullopt;
    return v;
}

/** The number at `path` (object keys, outermost first) of a JSON
 *  body; NaN when the body is not JSON or has no number there. */
double
jsonNumber(const std::string &body, std::initializer_list<const char *> path)
{
    const auto doc = parseJson(body);
    if (!doc)
        return NAN;
    const JsonValue *v = &*doc;
    for (const char *key : path)
        if (!(v = v->find(key)))
            return NAN;
    return v->kind == JsonValue::Kind::Number ? v->number : NAN;
}

/** Value of an unlabelled Prometheus sample; NaN when absent. */
double
promValue(const std::string &body, const std::string &name)
{
    const auto at = body.find("\n" + name + " ");
    if (at == std::string::npos)
        return NAN;
    return std::strtod(body.c_str() + at + name.size() + 2, nullptr);
}

/** Every sample line of a Prometheus text body ends in a number. */
bool
wellFormedPrometheus(const std::string &body)
{
    std::istringstream is(body);
    std::string line;
    long samples = 0;
    while (std::getline(is, line)) {
        if (line.empty() || line[0] == '#')
            continue;
        const auto sp = line.rfind(' ');
        if (sp == std::string::npos)
            return false;
        const std::string v = line.substr(sp + 1);
        char *end = nullptr;
        std::strtod(v.c_str(), &end);
        if (v.empty() || *end != '\0')
            return false;
        ++samples;
    }
    return samples > 0;
}

bool
validBody(Route route, const HttpResult &res)
{
    if (res.status != 200)
        return false;
    if (route == Route::Metrics)
        return wellFormedPrometheus(res.body);
    const auto doc = parseJson(res.body);
    if (!doc)
        return false;
    const JsonValue *key = nullptr;
    switch (route) {
    case Route::ApiQuery:
        key = doc->find("ok");
        return key && key->kind == JsonValue::Kind::Bool && key->boolean;
    case Route::Healthz:
        key = doc->find("status");
        return key && key->kind == JsonValue::Kind::String;
    default:
        return doc->kind == JsonValue::Kind::Object;
    }
}

/** One child `gpupm monitor` process, stopped on destruction. */
class Daemon
{
  public:
    Daemon(const Options &opts, int index)
        : port_file_(opts.work_dir + "/monitor.port." +
                     std::to_string(index))
    {
        std::remove(port_file_.c_str());
        const std::string log =
                opts.work_dir + "/monitor." + std::to_string(index) +
                ".log";
        const std::vector<std::string> args = {
                opts.gpupm_bin,
                "monitor",
                "titanx",
                "--port=0",
                "--port-file=" + port_file_,
                "--period-ms=" + std::to_string(kPeriodMs),
                "--fault-seed=" +
                        std::to_string(deriveSeed(opts.seed, 200) >> 1),
        };
        std::vector<char *> argv;
        for (const auto &a : args)
            argv.push_back(const_cast<char *>(a.c_str()));
        argv.push_back(nullptr);
        posix_spawn_file_actions_t fa;
        posix_spawn_file_actions_init(&fa);
        posix_spawn_file_actions_addopen(&fa, 1, log.c_str(),
                                         O_WRONLY | O_CREAT | O_TRUNC,
                                         0644);
        posix_spawn_file_actions_adddup2(&fa, 1, 2);
        started_s_ = nowSeconds();
        if (posix_spawn(&pid_, argv[0], &fa, nullptr, argv.data(),
                        environ) != 0)
            pid_ = -1;
        posix_spawn_file_actions_destroy(&fa);
    }

    ~Daemon()
    {
        if (pid_ > 0)
            stop();
    }

    Daemon(const Daemon &) = delete;
    Daemon &operator=(const Daemon &) = delete;

    pid_t pid() const { return pid_; }
    int port() const { return port_; }

    /** Seconds from spawn until /healthz answered 200; negative on
     *  timeout or if the daemon died. */
    double waitReady(double timeout_s)
    {
        while (pid_ > 0 && nowSeconds() - started_s_ < timeout_s) {
            if (port_ == 0) {
                std::ifstream pf(port_file_);
                int p = 0;
                if (pf >> p)
                    port_ = p;
            }
            if (port_ > 0 && httpGet(port_, "/healthz", 1000).status == 200)
                return nowSeconds() - started_s_;
            if (waitpid(pid_, nullptr, WNOHANG) == pid_) {
                pid_ = -1;
                break;
            }
            std::this_thread::sleep_for(std::chrono::milliseconds(1));
        }
        return -1.0;
    }

    /** SIGTERM, then wait (SIGKILL after 10 s); true on exit code 0. */
    bool stop()
    {
        if (pid_ <= 0)
            return false;
        // The daemon serves /healthz before it installs its SIGTERM
        // handler (after starting the sampler); a SIGTERM in between
        // kills it by signal. Its first ticks mark the handler as set.
        const double wait_until = nowSeconds() + 1.0;
        while (port_ > 0 && nowSeconds() < wait_until &&
               !(jsonNumber(httpGet(port_, "/healthz").body, {"ticks"}) >= 3))
            std::this_thread::sleep_for(std::chrono::milliseconds(1));
        ::kill(pid_, SIGTERM);
        int status = 0;
        const double deadline = nowSeconds() + 10.0;
        while (waitpid(pid_, &status, WNOHANG) == 0) {
            if (nowSeconds() > deadline) {
                ::kill(pid_, SIGKILL);
                waitpid(pid_, &status, 0);
                break;
            }
            std::this_thread::sleep_for(std::chrono::milliseconds(2));
        }
        pid_ = -1;
        return WIFEXITED(status) && WEXITSTATUS(status) == 0;
    }

  private:
    std::string port_file_;
    pid_t pid_ = -1;
    int port_ = 0;
    double started_s_ = 0.0;
};

/**
 * Wait until the trace store has reached its bound (it has evicted)
 * and the tsdb series count held still across two polls.
 */
bool
waitSteady(int port, double timeout_s)
{
    const double start = nowSeconds();
    double last_series = -1.0;
    while (nowSeconds() - start < timeout_s) {
        const auto traces = httpGet(port, "/api/traces?limit=1");
        const auto metrics = httpGet(port, "/metrics");
        const double evicted = jsonNumber(traces.body, {"evicted"});
        const double series = promValue(metrics.body, "gpupm_tsdb_series");
        if (evicted > 0 && series > 0 && series == last_series)
            return true;
        last_series = series;
        std::this_thread::sleep_for(std::chrono::milliseconds(250));
    }
    return false;
}

/** Daemon sampler ticks so far, from /healthz; NaN on failure. */
double
daemonTicks(int port)
{
    return jsonNumber(httpGet(port, "/healthz").body, {"ticks"});
}

/** Sends the seeded mix to one daemon and records each request's
 *  route; counts every request and failure into the report. */
class Scraper
{
  public:
    Scraper(int port, std::uint64_t seed)
        : port_(port), mix_(requestMix(seed))
    {}

    /** One open-loop step; returns completions with their routes.
     *  Bodies are checked after the step, so parsing them never
     *  delays a send. */
    std::vector<Completion> run(double rate, double seconds,
                                std::vector<Route> &routes, Report &report)
    {
        const std::size_t base = sent_;
        std::vector<HttpResult> responses(
                static_cast<std::size_t>(rate * seconds) + 1);
        auto send = [&](std::size_t i, double &done_s) {
            const ScrapeRequest &r = mix_[(base + i) % mix_.size()];
            responses[i] = httpGet(port_, r.target);
            done_s = nowSeconds();
            return responses[i].status == 200;
        };
        auto done = runOpenLoop(rate, seconds, send);
        routes.clear();
        for (Completion &c : done) {
            const Route route = mix_[(base + c.index) % mix_.size()].route;
            c.ok = c.ok && validBody(route, responses[c.index]);
            routes.push_back(route);
            ++report.attempted;
            report.failed += c.ok ? 0 : 1;
        }
        sent_ += done.size();
        return done;
    }

  private:
    int port_;
    std::vector<ScrapeRequest> mix_;
    std::size_t sent_ = 0;
};

/** Final state checks on a daemon about to be stopped. */
void
checkDaemonState(int port, Report &report)
{
    const auto traces = httpGet(port, "/api/traces?limit=1");
    const double errors_evicted = jsonNumber(traces.body, {"errors_evicted"});
    const double mem = jsonNumber(traces.body, {"memory_bytes"});
    const double bound = jsonNumber(traces.body, {"memory_bound_bytes"});
    report.check(errors_evicted == 0.0, "no error trace was evicted");
    report.check(mem > 0 && mem <= bound,
                 fmt("trace store within its byte bound (%.0f of %.0f B)",
                     mem, bound));
}

std::string
stepLine(double rate, const StepSummary &s)
{
    return fmt("  %8.1f req/s: p50 %.3f ms, tail %.3f ms (p%.2f of "
               "N=%zu), late max %.3f ms, %s",
               rate, s.p50_ms, s.tail_ms.value, s.tail_ms.percentile,
               s.n, s.late_max_ms, s.passes ? "pass" : "FAIL");
}

/**
 * Start the daemon `starts` times, each after stopping the one before,
 * recording each start's time to ready in `setup_s`, then wait until
 * the last one, left running, is steady. False when a start never
 * became ready.
 */
bool
startDaemon(const Options &opts, int starts, std::optional<Daemon> &daemon,
            std::vector<double> &setup_s, Report &report)
{
    for (int i = 0; i < starts; ++i) {
        if (daemon)
            report.check(daemon->stop(), "SIGTERM stops the daemon with "
                                         "exit code 0");
        daemon.emplace(opts, i);
        const double ready = daemon->waitReady(60.0);
        report.check(ready > 0, "the daemon became ready");
        if (ready <= 0)
            return false;
        setup_s.push_back(ready);
    }
    report.check(waitSteady(daemon->port(), 30.0),
                 "trace store full and tsdb series stable");
    return true;
}

} // namespace

void
traceMonitor(const Options &opts, Report &report)
{
    double replica_covered_s = 0.0, replica_wall_s = 0.0;
    traceReplica(opts, report, 0.5 * opts.seconds, replica_covered_s,
                 replica_wall_s);

    std::optional<Daemon> daemon;
    std::vector<double> setup_s;
    if (!startDaemon(opts, 1, daemon, setup_s, report))
        return;
    Scraper scraper(daemon->port(), opts.seed);
    std::vector<Route> routes;
    const auto stated =
            scraper.run(kStatedRate, 0.4 * opts.seconds, routes, report);
    const StepSummary s = summarize(stated, kLimitMs);
    report.line("monitor: daemon at the stated rate:");
    report.line(stepLine(kStatedRate, s));
    std::array<std::vector<double>, kRouteCount> per_route;
    for (std::size_t i = 0; i < stated.size(); ++i)
        per_route[static_cast<int>(routes[i])].push_back(
                stated[i].latencyMs());
    for (int r = 0; r < kRouteCount; ++r)
        report.set(fmt("scrape.%s_ms_p50", routeName(static_cast<Route>(r))),
                   median(per_route[r]));
    report.set("loadgen.late_ms_max", s.late_max_ms);
    report.set("unattributed_pct",
               100.0 * (replica_wall_s - replica_covered_s) /
                       replica_wall_s);
    checkDaemonState(daemon->port(), report);
    report.check(daemon->stop(), "SIGTERM stops the daemon with exit "
                                 "code 0");
}

void
runMonitor(const Options &opts, Report &report)
{
    if (opts.trace) {
        traceMonitor(opts, report);
        return;
    }
    std::optional<Daemon> daemon;
    std::vector<double> setup_s;
    if (!startDaemon(opts, kSetupStarts, daemon, setup_s, report))
        return;
    const int port = daemon->port();

    // The daemon's own cost per sampler tick, over a window with no
    // scrapes, so it reads the tick path alone.
    const double cpu0 = cpuSeconds(daemon->pid());
    const double ticks0 = daemonTicks(port);
    const double q0 = nowSeconds();
    std::this_thread::sleep_for(
            std::chrono::duration<double>(0.25 * opts.seconds));
    const double quiet_wall_s = nowSeconds() - q0;
    const double ticks = daemonTicks(port) - ticks0;
    const double cpu_s = cpuSeconds(daemon->pid()) - cpu0;

    Scraper scraper(port, opts.seed);
    std::vector<Route> routes;
    StepSummary s;
    report.line("monitor: fixed rates:");
    for (double rate : kRates) {
        const StepSummary st = summarize(
                scraper.run(rate, kRateShare * opts.seconds, routes, report),
                kLimitMs);
        report.line(stepLine(rate, st));
        if (rate == kStatedRate)
            s = st;
    }

    report.line("monitor: capacity search:");
    auto step = [&](double rate) {
        const StepSummary st =
                summarize(scraper.run(rate, kStepSeconds, routes, report),
                          kLimitMs);
        report.line(stepLine(rate, st));
        return st.passes;
    };
    const SearchResult search =
            searchMaxRate(step, kSearchStart, kSearchCap, kSearchResolution);
    report.check(!search.hit_cap, "the capacity search found a limit");

    const double mae = jsonNumber(httpGet(port, "/scoreboard").body,
                                  {"summary", "mae_pct"});
    const double rss = peakRssMb(daemon->pid());
    checkDaemonState(port, report);
    report.check(daemon->stop(), "SIGTERM stops the daemon with exit "
                                 "code 0");

    const double cpu_pct = 100.0 * cpu_s / quiet_wall_s;
    report.line(fmt("monitor: scrape_ms_p50=%.4f ms scrape_ms_tail=%.4f ms "
                    "(p%.2f of N=%zu) at %.0f req/s scrape_max_rps=%.1f "
                    "req/s daemon_cpu_pct=%.2f %% (%.1f us per tick over "
                    "%.0f unscraped ticks) mae_pct=%.4f %% setup_s=%.4f s "
                    "peak_rss_mb=%.1f MB",
                    s.p50_ms, s.tail_ms.value, s.tail_ms.percentile,
                    s.tail_ms.n, kStatedRate, search.max_rate, cpu_pct,
                    cpu_s * 1e6 / ticks, ticks, mae, median(setup_s), rss));
    report.check(s.tail_ms.ok, "enough scrapes for the tail rule");
    report.set("setup_s", median(setup_s));
    report.set("throughput_per_s", search.max_rate);
    report.set("latency_ms_p50", s.p50_ms);
    report.set("latency_ms_tail", s.tail_ms.value);
    report.set("mae_pct", mae);
    report.set("cpu_ms_per_op", cpu_s * 1e3 / ticks);
    report.set("peak_rss_mb", rss);
}

} // namespace perfbench
