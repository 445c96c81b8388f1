/**
 * @file
 * The accuracy scoreboard: residual samples (residuals.hh) aggregated
 * into the model-quality views the paper's evaluation reports —
 * overall and per-application MAE/RMSE/max error (Table III, Fig. 7),
 * a per-configuration error heatmap over the (f_core, f_mem) grid
 * with per-domain marginals (Fig. 8), and baseline deltas against
 * src/baselines (Sec. VI). `gpupm audit` produces one, model_io
 * persists it under the v2 envelope, and tools/gpupm_bench_check
 * diffs a run against a checked-in golden to gate regressions.
 */

#ifndef GPUPM_OBS_SCOREBOARD_HH
#define GPUPM_OBS_SCOREBOARD_HH

#include <string>
#include <vector>

#include "common/provenance.hh"
#include "gpu/device.hh"
#include "obs/residuals.hh"

namespace gpupm
{
namespace obs
{

/** Error summary over one group of residual samples. */
struct ScoreStats
{
    long samples = 0;
    double mae_pct = 0.0;         ///< mean |err|/meas, percent
    double rmse_w = 0.0;          ///< RMSE in watts
    double max_err_pct = 0.0;     ///< largest |err|, percent
    double mean_measured_w = 0.0; ///< group's mean measured power

    bool operator==(const ScoreStats &) const = default;
};

/** Compute ScoreStats over a span of samples. */
ScoreStats scoreOf(const std::vector<const ResidualSample *> &group);

/** A ScoreStats as JSON object members, without the braces
 *  (`"samples":..,"mae_pct":..,...`); the fleet report reuses it. */
std::string scoreStatsFields(const ScoreStats &st);

/**
 * Combine already-aggregated groups into one ScoreStats without the
 * underlying samples: MAE and mean measured power are sample-weighted
 * means, RMSE the sample-weighted root of mean squares, max error the
 * maximum. Exact (equal to scoreOf over the union) because each input
 * carries its sample count. Fleet merges use this to roll per-device
 * scores into per-architecture and overall marginals.
 */
ScoreStats combineScoreStats(const std::vector<ScoreStats> &groups);

/** Per-application row (Fig. 7). */
struct AppScore
{
    std::string app;
    ScoreStats stats;
};

/** Per-configuration heatmap cell (Fig. 8). */
struct ConfigScore
{
    gpu::FreqConfig cfg{};
    ScoreStats stats;
};

/** Per-domain marginal: all samples at one core (or memory) clock. */
struct MarginalScore
{
    int mhz = 0;
    ScoreStats stats;
};

/** One baseline's overall MAE next to the proposed model's. */
struct BaselineScore
{
    std::string name;
    double mae_pct = 0.0;
};

/** Aggregated prediction-audit result for one device. */
struct Scoreboard
{
    int device = 0;          ///< gpu::DeviceKind as int
    std::string device_name; ///< marketing name, for humans
    gpu::FreqConfig reference{};
    common::Provenance provenance;

    /** Raw residuals; may be empty for a summary-only scoreboard. */
    std::vector<ResidualSample> samples;

    ScoreStats overall;
    std::vector<AppScore> per_app;
    std::vector<ConfigScore> per_config;
    std::vector<MarginalScore> core_marginal;
    std::vector<MarginalScore> mem_marginal;
    std::vector<BaselineScore> baselines;

    /** Build from samples; aggregates and provenance filled in. */
    static Scoreboard fromSamples(int device, std::string device_name,
                                  gpu::FreqConfig reference,
                                  std::vector<ResidualSample> samples);

    /** Recompute every aggregate view from `samples`. */
    void recomputeAggregates();

    /**
     * JSON payload (schema gpupm_scoreboard_version 1), without the
     * file envelope — model::serializeScoreboard wraps it. Summary-only
     * when include_samples is false (golden scoreboards keep just the
     * aggregates).
     */
    std::string toJson(bool include_samples) const;

    /** Human-readable per-app + marginal + baseline tables. */
    std::string summaryText() const;

    /** Per-sample CSV (residualCsvHeader/Row). */
    std::string samplesCsv() const;

    /** Publish gpupm_accuracy_* metrics to Registry::global(). */
    void publishMetrics() const;
};

/** Tolerances of the regression gate (percentage points). */
struct ScoreboardTolerances
{
    double overall_mae_pp = 0.5; ///< overall MAE drift allowed
    double per_app_mae_pp = 2.0; ///< any single app's MAE drift
    double max_err_pp = 5.0;     ///< worst-sample error drift
};

/** Outcome of diffing a run against a golden scoreboard. */
struct ScoreboardDiff
{
    bool ok = true;
    std::vector<std::string> regressions; ///< gate-failing findings
    std::vector<std::string> notes;       ///< informational deltas

    /** Multi-line report, regressions first. */
    std::string summary() const;
};

/**
 * Gate a run against a golden: overall MAE, overall max error and
 * per-application MAE may not exceed the golden by more than the
 * given tolerances. Apps present on only one side are noted but do
 * not fail the gate (the workload set may legitimately grow).
 */
ScoreboardDiff compareScoreboards(const Scoreboard &run,
                                  const Scoreboard &golden,
                                  const ScoreboardTolerances &tol = {});

} // namespace obs
} // namespace gpupm

#endif // GPUPM_OBS_SCOREBOARD_HH
