/**
 * @file
 * monitor_replica: the `gpupm monitor titanx` session rebuilt
 * in-process from library calls. It has the same training, schedule,
 * probe, tsdb, drift rule, sampler and trace store that cmdMonitor in
 * tools/gpupm_cli.cc wires together (about 60 lines of that wiring are
 * copied here), and ticks the sampler with Sampler::tickSynchronously
 * on a virtual clock. No HTTP and no sleeping sampler thread: every
 * tick does the daemon's per-tick work (probe, tsdb append, alert
 * evaluation, trace store admission) back to back, so the run measures
 * the sampler's per-tick cost, steadily. The end-to-end numbers of the
 * daemon itself come from the `monitor` workload.
 *
 * Untraced: set-up (training, wiring, warm-up until the trace store
 * evicts and the tsdb series count settles) three times, median as
 * setup_s; then a fixed number of blocks of ticks. Traced: the
 * per-layer metrics of the sampler, tsdb, trace store and read paths,
 * then the daemon's per-route scrape latencies (traceMonitor).
 */

#include <unistd.h>

#include <cmath>
#include <map>
#include <memory>
#include <optional>

#include "core/campaign.hh"
#include "core/metrics.hh"
#include "core/predictor.hh"
#include "cupti/profiler.hh"
#include "layers.hh"
#include "monitor.hh"
#include "nvml/device.hh"
#include "obs/alerts.hh"
#include "obs/flight_recorder.hh"
#include "obs/http_server.hh"
#include "obs/metrics.hh"
#include "obs/sampler.hh"
#include "obs/standard.hh"
#include "obs/trace.hh"
#include "obs/trace_store.hh"
#include "obs/tsdb.hh"
#include "proc.hh"
#include "stats.hh"
#include "workloads.hh"
#include "workloads/workloads.hh"

namespace perfbench
{

namespace
{

using namespace gpupm;

constexpr int kSetupRepeats = 9;
/** Ticks per timed block (50 ms of ticks). A block, not a tick, is the
 *  latency sample: a single 100 us tick is too short to time apart
 *  from the scheduler stalls of a shared VM, which would set the tail
 *  on their own. The traced run reports the per-tick tail. */
constexpr int kBlockTicks = 500;
/** Blocks per requested second: about the development VM's rate. */
constexpr double kBlocksPerSecond = 20.0;
/** Traced run: pairs of store-attached and bare blocks, and reads,
 *  per requested second. */
constexpr double kPairsPerSecond = 18.0;
constexpr double kReadsPerSecond = 1500.0;
/** The session's MAE must lie within the GTX Titan X Fig. 7 envelope
 *  (obs::fig7EnvelopePct) give or take this many percentage points. */
constexpr double kEnvelopeSlackPp = 5.0;

/** Attaches the tracer to the store for the daemon's configuration,
 *  and detaches it on every exit path. */
struct TracerAttachment
{
    TracerAttachment(obs::TraceStore &store, std::uint64_t seed)
    {
        auto &tracer = obs::Tracer::global();
        tracer.seedIds(seed);
        tracer.attachStore(&store);
        tracer.setRetainEvents(false);
        tracer.enable();
    }
    ~TracerAttachment()
    {
        auto &tracer = obs::Tracer::global();
        tracer.disable();
        tracer.attachStore(nullptr);
        tracer.setRetainEvents(true);
    }
    TracerAttachment(const TracerAttachment &) = delete;
    TracerAttachment &operator=(const TracerAttachment &) = delete;
};

/** Instruments of the traced run; all null in the untraced one. */
struct Instruments
{
    BackendCounters *backend = nullptr;
    TimingObserver *observer = nullptr;
    std::vector<double> *at_ns = nullptr; ///< Predictor::at per probe
};

/**
 * One replica of the daemon's session: construction trains the model
 * as cmdMonitor does and wires the sampler to it.
 */
class Session
{
  public:
    Session(std::uint64_t seed, Instruments inst)
        : tracing_(store, deriveSeed(seed, 300)), inst_(inst),
          board_(gpu::DeviceKind::GtxTitanX), recorder_(256), dev_(board_)
    {
        obs::registerStandardMetrics();
        const auto &desc = board_.descriptor();
        model::CampaignOptions copts;
        copts.power_repetitions = 3;
        double t0 = nowSeconds();
        model::TrainingData data;
        if (inst_.backend) {
            TimingBackend backend(board_, copts.seed, *inst_.backend);
            data = model::runTrainingCampaign(backend, ubench::buildSuite(),
                                              copts);
        } else {
            data = model::runTrainingCampaign(board_, ubench::buildSuite(),
                                              copts);
        }
        campaign_ms = (nowSeconds() - t0) * 1e3;
        model::EstimatorOptions eopts;
        eopts.observer = inst_.observer;
        t0 = nowSeconds();
        if (inst_.observer)
            inst_.observer->begin();
        auto fit = model::ModelEstimator(eopts).tryEstimate(data);
        fit_ms = (nowSeconds() - t0) * 1e3;
        if (!fit.ok())
            return;
        model_.emplace(fit.value().model);
        predictor_.emplace(*model_); // holds a reference to the model

        // Schedule and probe, copied from cmdMonitor.
        const auto configs = desc.allConfigs();
        const auto ref = desc.referenceConfig();
        const std::vector<gpu::FreqConfig> points{configs.front(), ref,
                                                  configs.back()};
        std::vector<obs::SchedulePoint> schedule;
        {
            cupti::Profiler profiler(board_, 11);
            for (const auto &w : workloads::fullValidationSet()) {
                const auto rm = profiler.profile(w.demand, ref);
                utils_[w.name] =
                        model::utilizationsFromMetrics(rm, desc, ref);
                demands_[w.name] = w.demand;
                for (const auto &cfg : points)
                    schedule.push_back({w.name, cfg});
            }
        }
        auto probe = [this](const std::string &app,
                            const gpu::FreqConfig &cfg) {
            const double p0 = inst_.at_ns ? nowSeconds() : 0.0;
            obs::MonitorSample s;
            s.app = app;
            s.cfg = cfg;
            dev_.setApplicationClocks(cfg.mem_mhz, cfg.core_mhz);
            s.measured_w = dev_.measureKernelPower(demands_.at(app), 2, 0.05)
                                   .power_w;
            if (!inst_.at_ns) {
                s.predicted_w = predictor_->at(utils_.at(app), cfg).total_w;
                return s;
            }
            const double a = nowSeconds();
            s.predicted_w = predictor_->at(utils_.at(app), cfg).total_w;
            const double b = nowSeconds();
            inst_.at_ns->push_back((b - a) * 1e9);
            probe_us = (b - p0) * 1e6;
            return s;
        };
        engine_ = std::make_unique<obs::AlertEngine>(
                tsdb,
                std::vector<obs::AlertRule>{obs::makeDriftRule(
                        "titanx", 5.0, 30'000'000, 10'000'000,
                        30'000'000)},
                &recorder_);
        obs::SamplerOptions sopts;
        sopts.period_ms = kPeriodMs;
        sopts.rolling_window = 64;
        sopts.device = static_cast<int>(desc.kind);
        sopts.device_name = desc.name;
        sopts.reference = ref;
        sampler = std::make_unique<obs::Sampler>(
                probe, std::move(schedule), sopts, &recorder_, &tsdb,
                engine_.get());
    }

    Session(const Session &) = delete;
    Session &operator=(const Session &) = delete;

    bool ok() const { return sampler != nullptr; }

    /** One sampler tick, one period later on the virtual clock. */
    void tick()
    {
        t_us_ += kPeriodMs * 1000;
        sampler->tickSynchronously(t_us_);
    }

    /** Tick until the trace store has reached its bound (it evicts)
     *  and the tsdb series count held still over a block. */
    void warmUp()
    {
        std::size_t series = 0;
        while (store.evictedTotal() == 0 || tsdb.seriesCount() != series) {
            series = tsdb.seriesCount();
            for (int i = 0; i < kBlockTicks; ++i)
                tick();
        }
    }

    /** The output checks every run makes on its session. */
    void check(Report &report) const
    {
        report.check(store.errorsEvictedTotal() == 0,
                     "the replica's trace store evicted no error trace");
        report.check(store.memoryBytes() <= store.memoryBoundBytes(),
                     fmt("the replica's trace store is within its byte "
                         "bound (%zu of %zu B)",
                         static_cast<std::size_t>(store.memoryBytes()),
                         static_cast<std::size_t>(store.memoryBoundBytes())));
    }

    // Members in dependency order, so each outlives what uses it.
    obs::TraceStore store;

  private:
    TracerAttachment tracing_;
    Instruments inst_;
    sim::PhysicalGpu board_;
    obs::FlightRecorder recorder_;
    nvml::Device dev_;
    std::map<std::string, gpu::ComponentArray> utils_;
    std::map<std::string, sim::KernelDemand> demands_;
    std::optional<model::DvfsPowerModel> model_;
    std::optional<model::Predictor> predictor_;

  public:
    obs::Tsdb tsdb;

  private:
    std::unique_ptr<obs::AlertEngine> engine_;

  public:
    std::unique_ptr<obs::Sampler> sampler;
    double campaign_ms = 0.0; ///< training campaign, incl. backend
    double fit_ms = 0.0;      ///< the estimator's fit
    double probe_us = 0.0;    ///< the last probe (traced runs)

  private:
    std::int64_t t_us_ = 0;
};

} // namespace

void
runMonitorReplica(const Options &opts, Report &report)
{
    if (opts.trace) {
        traceMonitor(opts, report);
        return;
    }
    std::vector<double> setup_s;
    std::unique_ptr<Session> session;
    for (int i = 0; i < kSetupRepeats; ++i) {
        session.reset();
        const double t0 = nowSeconds();
        session = std::make_unique<Session>(opts.seed, Instruments{});
        report.check(session->ok(), "the replica's model fit succeeded");
        if (!session->ok())
            return;
        session->warmUp();
        setup_s.push_back(nowSeconds() - t0);
    }

    const std::size_t blocks =
            cyclesFor(opts.seconds, kBlocksPerSecond, 11);
    std::vector<double> tick_ms;
    tick_ms.reserve(blocks);
    const double cpu0 = cpuSeconds(getpid());
    const double start = nowSeconds();
    while (moreCycles(tick_ms.size(), blocks, 11, nowSeconds() - start,
                      opts.seconds)) {
        const double t0 = nowSeconds();
        for (int i = 0; i < kBlockTicks; ++i)
            session->tick();
        tick_ms.push_back((nowSeconds() - t0) * 1e3 / kBlockTicks);
    }
    const double window_s = nowSeconds() - start;
    const double cpu_s = cpuSeconds(getpid()) - cpu0;
    const double ticks = static_cast<double>(tick_ms.size() * kBlockTicks);

    session->check(report);
    const double mae = session->sampler->scoreboardSnapshot().overall.mae_pct;
    const double envelope = *obs::fig7EnvelopePct("titanx");
    report.check(std::abs(mae - envelope) <= kEnvelopeSlackPp,
                 fmt("the session's MAE %.3f%% is within %.1f +- %.1f pp",
                     mae, envelope, kEnvelopeSlackPp));
    report.attempted += static_cast<long>(ticks);
    const Tail tail = tailOf(tick_ms);
    report.line(fmt("monitor_replica: %.0f ticks in %zu blocks, %.3f s; "
                    "ticks_per_s=%.1f 1/s tick_ms_p50=%.5f ms "
                    "tick_ms_tail=%.5f ms (p%.2f of N=%zu blocks) "
                    "cpu_us_per_tick=%.2f us mae_pct=%.4f %% "
                    "setup_s=%.4f s (training %.0f ms) peak_rss_mb=%.1f MB",
                    ticks, tick_ms.size(), window_s, ticks / window_s,
                    median(tick_ms), tail.value, tail.percentile, tail.n,
                    cpu_s * 1e6 / ticks, mae, median(setup_s),
                    session->campaign_ms + session->fit_ms,
                    peakRssMb(getpid())));
    report.check(tail.ok, "enough blocks for the tail rule");
    report.set("setup_s", median(setup_s));
    report.set("throughput_per_s", ticks / window_s);
    report.set("latency_ms_p50", median(tick_ms));
    report.set("latency_ms_tail", tail.value);
    report.set("mae_pct", mae);
    report.set("cpu_ms_per_op", cpu_s * 1e3 / ticks);
    report.set("peak_rss_mb", peakRssMb(getpid()));
}

void
traceReplica(const Options &opts, Report &report, double seconds,
             double &covered_s, double &wall_s)
{
    const double start = nowSeconds();
    BackendCounters backend_counters;
    TimingObserver observer;
    std::vector<double> at_ns;
    Session session(opts.seed, {&backend_counters, &observer, &at_ns});
    report.check(session.ok(), "the replica's model fit succeeded");
    if (!session.ok())
        return;
    covered_s = (session.campaign_ms + session.fit_ms) * 1e-3;
    session.warmUp();

    // Alternate blocks of ticks with the store attached (the daemon's
    // configuration) and with tracing off.
    std::vector<double> tick_us, probe_tick_us, self_us, bare_us;
    auto tick = [&](std::vector<double> *into) {
        const double a = nowSeconds();
        session.tick();
        const double us = (nowSeconds() - a) * 1e6;
        covered_s += us * 1e-6;
        if (into == &tick_us) {
            probe_tick_us.push_back(session.probe_us);
            self_us.push_back(us - session.probe_us);
        }
        if (into)
            into->push_back(us);
    };
    auto &tracer = obs::Tracer::global();
    const std::size_t pairs = cyclesFor(0.7 * seconds, kPairsPerSecond, 1);
    for (std::size_t p = 0; p < pairs; ++p) {
        for (int i = 0; i < kBlockTicks; ++i)
            tick(&tick_us);
        tracer.disable();
        for (int i = 0; i < kBlockTicks; ++i)
            tick(&bare_us);
        tracer.enable();
    }

    // Read paths, timed as library calls with the request mix the
    // load generator sends (one tick between reads keeps them fresh).
    std::vector<double> render_us, render_bytes, query_us, traces_us,
            scoreboard_us, parse_ns;
    const auto mix = requestMix(opts.seed);
    const std::size_t reads = cyclesFor(0.3 * seconds, kReadsPerSecond, 1);
    for (std::size_t i = 0; i < reads; ++i) {
        tick(nullptr);
        const ScrapeRequest &r = mix[i % mix.size()];
        const std::string head = "GET " + r.target +
                                 " HTTP/1.1\r\nHost: 127.0.0.1\r\n"
                                 "Connection: close\r\n\r\n";
        double a = nowSeconds();
        obs::HttpRequest parsed;
        const auto verdict = obs::parseHttpRequest(head, parsed);
        double dt = nowSeconds() - a;
        parse_ns.push_back(dt * 1e9);
        report.check(verdict == obs::HttpParse::Ok,
                     "the request head parses");
        // Each case times what the daemon's handler does for the
        // route, including serializing the response body.
        a = nowSeconds();
        switch (r.route) {
        case Route::Metrics: {
            obs::touchProcessMetrics();
            const std::string body =
                    obs::Registry::global().renderPrometheus();
            dt = nowSeconds() - a;
            render_us.push_back(dt * 1e6);
            render_bytes.push_back(static_cast<double>(body.size()));
            break;
        }
        case Route::ApiQuery: {
            obs::TsQuery q;
            q.series = r.series;
            q.end_us = session.tsdb.latestTimestamp();
            q.start_us = q.end_us -
                         static_cast<std::int64_t>(r.range_s * 1e6);
            q.step_us = static_cast<std::int64_t>(r.step_s * 1e6);
            const auto res = session.tsdb.query(q);
            const std::string body = res.toJson(r.series);
            dt = nowSeconds() - a;
            query_us.push_back(dt * 1e6);
            report.check(res.ok && !body.empty(), "the tsdb query succeeds");
            break;
        }
        case Route::ApiTraces: {
            obs::TraceQuery q;
            q.category = r.category;
            q.limit = r.limit;
            const std::string body = session.store.renderJson(q);
            dt = nowSeconds() - a;
            traces_us.push_back(dt * 1e6);
            report.check(!body.empty(), "the trace query renders");
            break;
        }
        case Route::Scoreboard: {
            const std::string body =
                    session.sampler->scoreboardSnapshot().toJson(false);
            dt = nowSeconds() - a;
            scoreboard_us.push_back(dt * 1e6);
            report.check(!body.empty(), "the scoreboard renders");
            break;
        }
        case Route::Healthz:
            dt = 0.0; // served from counters; nothing to time in-process
            break;
        }
        covered_s += dt + parse_ns.back() * 1e-9;
    }
    wall_s = nowSeconds() - start;
    session.check(report);

    report.set("cupti.profile_calls",
               static_cast<double>(backend_counters.profile_calls));
    report.set("cupti.busy_ms", backend_counters.profile_ms);
    report.set("nvml.measure_calls",
               static_cast<double>(backend_counters.measure_calls));
    report.set("nvml.measure_us_p50", median(backend_counters.measure_us));
    report.set("nvml.busy_ms", backend_counters.measure_ms);
    report.set("nvml.idle_calls",
               static_cast<double>(backend_counters.idle_calls));
    report.set("nvml.idle_busy_ms", backend_counters.idle_ms);
    report.set("campaign.self_ms",
               session.campaign_ms - backend_counters.busyMs());
    report.set("estimator.fit_ms_p50", session.fit_ms);
    report.set("estimator.busy_ms", session.fit_ms);
    report.set("estimator.iterations",
               static_cast<double>(observer.iterations));
    report.set("estimator.iteration_us_p50", median(observer.iteration_us));
    report.set("estimator.converged_ratio",
               static_cast<double>(observer.converged_fits) /
                       static_cast<double>(observer.fits));
    report.set("predictor.calls", static_cast<double>(at_ns.size()));
    report.set("predictor.at_ns_p50", median(at_ns));
    const Tail tail = tailOf(tick_us);
    report.set("sampler.tick_us_p50", median(tick_us));
    report.set("sampler.tick_us_tail", tail.value);
    report.set("sampler.probe_us_p50", median(probe_tick_us));
    report.set("sampler.self_us_p50", median(self_us));
    report.set("trace_store.cost_us_per_tick",
               median(tick_us) - median(bare_us));
    report.set("trace_store.offered",
               static_cast<double>(session.store.offeredTotal()));
    report.set("trace_store.evicted",
               static_cast<double>(session.store.evictedTotal()));
    report.set("trace_store.errors_evicted",
               static_cast<double>(session.store.errorsEvictedTotal()));
    report.set("trace_store.memory_bytes",
               static_cast<double>(session.store.memoryBytes()));
    report.set("tsdb.points",
               static_cast<double>(session.tsdb.pointsAppended()));
    report.set("tsdb.series", static_cast<double>(session.tsdb.seriesCount()));
    report.set("tsdb.evictions",
               static_cast<double>(session.tsdb.evictions()));
    report.set("tsdb.memory_bytes",
               static_cast<double>(session.tsdb.memoryBytes()));
    report.set("metrics.render_us_p50", median(render_us));
    report.set("metrics.render_bytes", median(render_bytes));
    report.set("tsdb.query_us_p50", median(query_us));
    report.set("trace_store.query_us_p50", median(traces_us));
    report.set("scoreboard.render_us_p50", median(scoreboard_us));
    report.set("http.parse_ns_p50", median(parse_ns));
    report.line(fmt("monitor replica: %zu traced + %zu bare ticks: tick "
                    "p50 %.1f us (tail %.1f us, p%.2f of N=%zu), bare "
                    "%.1f us, probe %.1f us; training %.0f ms",
                    tick_us.size(), bare_us.size(), median(tick_us),
                    tail.value, tail.percentile, tail.n, median(bare_us),
                    median(probe_tick_us),
                    session.campaign_ms + session.fit_ms));
}

} // namespace perfbench
