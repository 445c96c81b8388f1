/**
 * @file
 * Outside-in instruments for the traced run. They sit on the
 * library's public extension points, so no program code is changed
 * to measure it:
 *
 *  - TimingBackend decorates model::SimulatedBackend (constructed with
 *    the same seed the campaign would use) and times each call into
 *    the cupti (profileKernel) and nvml (measurePower,
 *    measureIdlePower) layers, both of which run the simulator;
 *  - TimingObserver is an obs::EstimatorObserver passed through
 *    EstimatorOptions::observer and times the gaps between the
 *    estimator's per-iteration callbacks.
 */

#ifndef PERFBENCH_LAYERS_HH
#define PERFBENCH_LAYERS_HH

#include <vector>

#include "core/backend.hh"
#include "loadgen.hh"
#include "obs/convergence.hh"

namespace perfbench
{

/** Call counts and busy time of the measurement backend. */
struct BackendCounters
{
    long profile_calls = 0;
    double profile_ms = 0.0;
    long measure_calls = 0;
    double measure_ms = 0.0;
    std::vector<double> measure_us; ///< one entry per measurePower
    long idle_calls = 0;
    double idle_ms = 0.0;

    double busyMs() const { return profile_ms + measure_ms + idle_ms; }
};

class TimingBackend final : public gpupm::model::MeasurementBackend
{
  public:
    TimingBackend(const gpupm::sim::PhysicalGpu &board,
                  std::uint64_t seed, BackendCounters &counters)
        : inner_(board, seed), c_(counters)
    {}

    const gpupm::gpu::DeviceDescriptor &descriptor() const override
    {
        return inner_.descriptor();
    }

    gpupm::cupti::RawMetrics
    profileKernel(const gpupm::sim::KernelDemand &kernel,
                  const gpupm::gpu::FreqConfig &cfg) override
    {
        const double t0 = nowSeconds();
        auto r = inner_.profileKernel(kernel, cfg);
        ++c_.profile_calls;
        c_.profile_ms += (nowSeconds() - t0) * 1e3;
        return r;
    }

    gpupm::nvml::PowerMeasurement
    measurePower(const gpupm::sim::KernelDemand &kernel,
                 const gpupm::gpu::FreqConfig &cfg, int repetitions,
                 double min_duration_s) override
    {
        const double t0 = nowSeconds();
        auto r = inner_.measurePower(kernel, cfg, repetitions,
                                     min_duration_s);
        const double dt = nowSeconds() - t0;
        ++c_.measure_calls;
        c_.measure_ms += dt * 1e3;
        c_.measure_us.push_back(dt * 1e6);
        return r;
    }

    double measureIdlePower(const gpupm::gpu::FreqConfig &cfg) override
    {
        const double t0 = nowSeconds();
        const double w = inner_.measureIdlePower(cfg);
        ++c_.idle_calls;
        c_.idle_ms += (nowSeconds() - t0) * 1e3;
        return w;
    }

    void reseed(std::uint64_t seed) override { inner_.reseed(seed); }

  private:
    gpupm::model::SimulatedBackend inner_;
    BackendCounters &c_;
};

/** Per-iteration timing and convergence counts of estimator fits. */
class TimingObserver final : public gpupm::obs::EstimatorObserver
{
  public:
    /** Call right before ModelEstimator::estimate. */
    void begin() { last_s_ = nowSeconds(); }

    void onIteration(const gpupm::obs::IterationRecord &rec) override
    {
        const double t = nowSeconds();
        if (rec.iteration > 0)
            iteration_us.push_back((t - last_s_) * 1e6);
        last_s_ = t;
    }

    void onDone(bool converged, int iterations) override
    {
        ++fits;
        converged_fits += converged ? 1 : 0;
        this->iterations += iterations;
    }

    std::vector<double> iteration_us;
    long fits = 0;
    long converged_fits = 0;
    long iterations = 0;

  private:
    double last_s_ = 0.0;
};

} // namespace perfbench

#endif // PERFBENCH_LAYERS_HH
