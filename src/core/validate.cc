#include "validate.hh"

#include <algorithm>
#include <cmath>
#include <map>
#include <sstream>

#include "common/json.hh"
#include "common/logging.hh"
#include "common/numio.hh"
#include "gpu/components.hh"

namespace gpupm
{
namespace model
{

std::string_view
valSeverityName(ValSeverity severity)
{
    return severity == ValSeverity::Error ? "error" : "warning";
}

void
ValidationReport::addError(std::string code, std::string message)
{
    issues.push_back({ValSeverity::Error, std::move(code),
                      std::move(message)});
}

void
ValidationReport::addWarning(std::string code, std::string message)
{
    issues.push_back({ValSeverity::Warning, std::move(code),
                      std::move(message)});
}

std::size_t
ValidationReport::errorCount() const
{
    return static_cast<std::size_t>(std::count_if(
            issues.begin(), issues.end(), [](const auto &i) {
                return i.severity == ValSeverity::Error;
            }));
}

std::size_t
ValidationReport::warningCount() const
{
    return issues.size() - errorCount();
}

std::string
ValidationReport::summary() const
{
    std::ostringstream os;
    os << subject << ": ";
    if (issues.empty()) {
        os << "OK\n";
        return os.str();
    }
    os << errorCount() << " error(s), " << warningCount()
       << " warning(s)\n";
    for (const auto &i : issues)
        os << "  " << valSeverityName(i.severity) << " [" << i.code
           << "] " << i.message << "\n";
    return os.str();
}

std::string
ValidationReport::toJson() const
{
    std::ostringstream os;
    os << "{\"subject\":" << json::quote(subject);
    os << ",\"ok\":" << (ok() ? "true" : "false");
    os << ",\"errors\":" << numio::formatLong(
            static_cast<long>(errorCount()));
    os << ",\"warnings\":" << numio::formatLong(
            static_cast<long>(warningCount()));
    os << ",\"issues\":[";
    for (std::size_t i = 0; i < issues.size(); ++i) {
        if (i)
            os << ",";
        os << "{\"severity\":\"" << valSeverityName(issues[i].severity)
           << "\",\"code\":" << json::quote(issues[i].code)
           << ",\"message\":" << json::quote(issues[i].message) << "}";
    }
    os << "]}\n";
    return os.str();
}

namespace
{

std::string
cfgStr(const gpu::FreqConfig &cfg)
{
    return detail::concat("(", cfg.core_mhz, ", ", cfg.mem_mhz, ")");
}

/** Shared grid checks for campaigns (reported into `r`). */
void
checkConfigGrid(ValidationReport &r,
                const std::vector<gpu::FreqConfig> &configs)
{
    if (configs.empty()) {
        r.addError("no-configs", "no measured configurations");
        return;
    }
    std::map<std::pair<int, int>, int> seen;
    for (const auto &cfg : configs) {
        if (cfg.core_mhz <= 0 || cfg.mem_mhz <= 0)
            r.addError("config-nonpositive",
                       detail::concat("non-positive clock in config ",
                                      cfgStr(cfg)));
        if (++seen[{cfg.core_mhz, cfg.mem_mhz}] == 2)
            r.addError("config-duplicate",
                       detail::concat("configuration ", cfgStr(cfg),
                                      " appears more than once"));
    }
}

} // namespace

ValidationReport
validateTrainingData(const TrainingData &data)
{
    ValidationReport r;
    r.subject = "campaign";

    checkConfigGrid(r, data.configs);

    const auto ref_ci = data.configIndex(data.reference);
    if (!data.configs.empty() && !ref_ci)
        r.addError("reference-missing",
                   detail::concat("reference configuration ",
                                  cfgStr(data.reference),
                                  " is not in the measured grid"));

    if (data.utils.empty())
        r.addError("no-benchmarks", "no microbenchmark rows");
    if (data.power_w.size() != data.utils.size())
        r.addError("row-count-mismatch",
                   detail::concat("power rows (", data.power_w.size(),
                                  ") != utilization rows (",
                                  data.utils.size(), ")"));

    // Per-benchmark row completeness.
    for (std::size_t b = 0; b < data.power_w.size(); ++b) {
        if (data.power_w[b].size() != data.configs.size()) {
            r.addError("row-size-mismatch",
                       detail::concat("benchmark ", b, " has ",
                                      data.power_w[b].size(),
                                      " power cells for ",
                                      data.configs.size(),
                                      " configurations"));
        }
    }

    // Utilizations are rates in [0, 1] by Eq. 8-10.
    bool any_idle = false;
    for (std::size_t b = 0; b < data.utils.size(); ++b) {
        bool idle = true;
        for (std::size_t i = 0; i < gpu::kNumComponents; ++i) {
            const double u = data.utils[b][i];
            if (!std::isfinite(u)) {
                r.addError("util-not-finite",
                           detail::concat("benchmark ", b,
                                          " component ", i,
                                          ": non-finite utilization"));
                idle = false;
                continue;
            }
            if (u < 0.0 || u > 1.0 + 1e-6)
                r.addError(
                        "util-out-of-range",
                        detail::concat("benchmark ", b, " component ",
                                       i, ": utilization ",
                                       numio::formatDouble(u),
                                       " outside [0, 1]"));
            if (u != 0.0)
                idle = false;
        }
        any_idle = any_idle || idle;
    }
    if (!data.utils.empty() && !any_idle)
        r.addWarning("no-idle-row",
                     "no all-zero-utilization (idle) row: per-level "
                     "constant terms are pinned by noisy rows only");

    // Power must be finite and non-negative.
    for (std::size_t b = 0; b < data.power_w.size(); ++b) {
        for (std::size_t c = 0; c < data.power_w[b].size(); ++c) {
            const double p = data.power_w[b][c];
            if (!std::isfinite(p))
                r.addError("power-not-finite",
                           detail::concat("benchmark ", b, " config ",
                                          c, ": non-finite power"));
            else if (p < 0.0)
                r.addError("power-negative",
                           detail::concat("benchmark ", b, " config ",
                                          c, ": negative power ",
                                          numio::formatDouble(p)));
        }
    }

    // Identifiability of the bilinear system (mirrors the estimator's
    // DegenerateGrid guardrail): with several configurations, at
    // least one must perturb exactly one clock domain relative to the
    // reference or the Eq. 11 initialization has nothing to hold on.
    if (ref_ci && data.configs.size() >= 2) {
        bool axis_aligned = false;
        for (const auto &cfg : data.configs) {
            if (cfg == data.reference)
                continue;
            if ((cfg.mem_mhz == data.reference.mem_mhz &&
                 cfg.core_mhz < data.reference.core_mhz) ||
                (cfg.core_mhz == data.reference.core_mhz &&
                 cfg.mem_mhz != data.reference.mem_mhz))
                axis_aligned = true;
        }
        if (!axis_aligned)
            r.addError("grid-underidentified",
                       "no configuration perturbs a single clock "
                       "domain of the reference: the bilinear "
                       "voltage/coefficient system cannot be "
                       "initialized (Eq. 11)");
    }

    // Power should broadly rise with core frequency at a fixed memory
    // clock. A mild dip is measurement noise; a strong inversion
    // suggests scrambled rows or mislabeled configurations.
    if (ref_ci && r.ok() && !data.utils.empty()) {
        std::map<int, std::vector<std::size_t>> by_mem;
        for (std::size_t ci = 0; ci < data.configs.size(); ++ci)
            by_mem[data.configs[ci].mem_mhz].push_back(ci);
        for (auto &[fm, group] : by_mem) {
            std::sort(group.begin(), group.end(),
                      [&](std::size_t x, std::size_t y) {
                          return data.configs[x].core_mhz <
                                 data.configs[y].core_mhz;
                      });
            double prev_mean = -1.0;
            for (std::size_t ci : group) {
                double mean = 0.0;
                for (std::size_t b = 0; b < data.power_w.size(); ++b)
                    mean += data.power_w[b][ci];
                mean /= static_cast<double>(data.power_w.size());
                if (prev_mean >= 0.0 && mean < 0.8 * prev_mean) {
                    r.addWarning(
                            "power-nonmonotone",
                            detail::concat(
                                    "mean power drops by more than "
                                    "20% between adjacent core "
                                    "clocks at fmem=",
                                    fm, " MHz (config ",
                                    cfgStr(data.configs[ci]), ")"));
                }
                prev_mean = mean;
            }
        }
    }

    return r;
}

ValidationReport
validateModel(const DvfsPowerModel &model)
{
    ValidationReport r;
    r.subject = "model";

    const auto &p = model.params();
    const auto check_coeff = [&](const char *name, double v) {
        if (!std::isfinite(v))
            r.addError("param-not-finite",
                       detail::concat("coefficient ", name,
                                      " is non-finite"));
        else if (v < -1e-9)
            r.addError("coefficient-negative",
                       detail::concat("coefficient ", name, " = ",
                                      numio::formatDouble(v),
                                      " is negative (physical "
                                      "capacitance/leakage aggregates "
                                      "cannot be)"));
    };
    check_coeff("beta0", p.beta0);
    check_coeff("beta1", p.beta1);
    check_coeff("beta2", p.beta2);
    check_coeff("beta3", p.beta3);
    for (std::size_t i = 0; i < gpu::kNumComponents; ++i)
        check_coeff(std::string(gpu::componentName(
                            static_cast<gpu::Component>(i)))
                            .c_str(),
                    p.omega[i]);

    const auto ref = model.reference();
    if (ref.core_mhz <= 0 || ref.mem_mhz <= 0)
        r.addError("reference-nonpositive",
                   detail::concat("non-positive reference clocks ",
                                  cfgStr(ref)));

    const auto &table = model.voltageTable();
    if (table.empty()) {
        r.addError("voltage-table-empty",
                   "model has no fitted voltage pairs");
        return r;
    }

    for (const auto &[key, v] : table) {
        const gpu::FreqConfig cfg{key.first, key.second};
        if (!std::isfinite(v.core) || !std::isfinite(v.mem))
            r.addError("voltage-not-finite",
                       detail::concat("non-finite voltage at ",
                                      cfgStr(cfg)));
        else if (v.core <= 0.0 || v.mem <= 0.0)
            r.addError("voltage-nonpositive",
                       detail::concat("non-positive voltage at ",
                                      cfgStr(cfg)));
        else if (v.core < 0.3 || v.core > 3.0 || v.mem < 0.3 ||
                 v.mem > 3.0)
            r.addWarning("voltage-implausible",
                         detail::concat(
                                 "normalized voltage at ", cfgStr(cfg),
                                 " is (",
                                 numio::formatDouble(v.core), ", ",
                                 numio::formatDouble(v.mem),
                                 "), far from any plausible silicon "
                                 "operating point"));
    }

    if (!model.hasVoltages(ref)) {
        r.addError("reference-voltages-missing",
                   detail::concat("no fitted voltages at the "
                                  "reference configuration ",
                                  cfgStr(ref)));
    } else {
        const auto v = model.voltages(ref);
        if (std::abs(v.core - 1.0) > 1e-6 ||
            std::abs(v.mem - 1.0) > 1e-6)
            r.addWarning("reference-not-normalized",
                         detail::concat(
                                 "reference voltages are (",
                                 numio::formatDouble(v.core), ", ",
                                 numio::formatDouble(v.mem),
                                 "), not the Eq. 5 normalization "
                                 "(1, 1)"));
    }

    // Eq. 12 monotonicity: V̄core non-decreasing in fcore within each
    // memory clock, V̄mem non-decreasing in fmem within each core
    // clock. (The table is keyed (core, mem) in sorted order.)
    std::map<int, std::vector<std::pair<int, double>>> core_by_mem;
    std::map<int, std::vector<std::pair<int, double>>> mem_by_core;
    for (const auto &[key, v] : table) {
        core_by_mem[key.second].emplace_back(key.first, v.core);
        mem_by_core[key.first].emplace_back(key.second, v.mem);
    }
    const auto check_monotone = [&](auto &groups, const char *what) {
        for (auto &[fixed, pts] : groups) {
            std::sort(pts.begin(), pts.end());
            for (std::size_t i = 1; i < pts.size(); ++i) {
                if (pts[i].second < pts[i - 1].second - 1e-6) {
                    r.addError(
                            "voltage-nonmonotone",
                            detail::concat(
                                    what, " voltage drops from ",
                                    numio::formatDouble(
                                            pts[i - 1].second),
                                    " to ",
                                    numio::formatDouble(pts[i].second),
                                    " between ", pts[i - 1].first,
                                    " and ", pts[i].first,
                                    " MHz (violates Eq. 12)"));
                }
            }
        }
    };
    check_monotone(core_by_mem, "core");
    check_monotone(mem_by_core, "memory");

    return r;
}

ValidationReport
validateCheckpoint(const CampaignCheckpoint &ck)
{
    ValidationReport r;
    r.subject = "checkpoint";

    checkConfigGrid(r, ck.configs);

    const std::size_t nb = ck.benchmark_names.size();
    const std::size_t nc = ck.configs.size();
    if (nb == 0)
        r.addError("no-benchmarks", "no microbenchmark rows");

    const auto size_check = [&](const char *what, std::size_t got,
                                std::size_t want) {
        if (got != want)
            r.addError("row-count-mismatch",
                       detail::concat(what, " has ", got,
                                      " entries for ", want,
                                      " benchmarks"));
    };
    size_check("utils_done", ck.utils_done.size(), nb);
    size_check("utils", ck.utils.size(), nb);
    size_check("power_done", ck.power_done.size(), nb);
    size_check("power_w", ck.power_w.size(), nb);

    for (std::size_t b = 0; b < ck.power_done.size(); ++b)
        if (ck.power_done[b].size() != nc)
            r.addError("row-size-mismatch",
                       detail::concat("power_done row ", b, " has ",
                                      ck.power_done[b].size(),
                                      " cells for ", nc,
                                      " configurations"));
    for (std::size_t b = 0; b < ck.power_w.size(); ++b)
        if (ck.power_w[b].size() != nc)
            r.addError("row-size-mismatch",
                       detail::concat("power_w row ", b, " has ",
                                      ck.power_w[b].size(),
                                      " cells for ", nc,
                                      " configurations"));

    for (std::size_t b = 0; b < ck.utils.size(); ++b)
        for (double u : ck.utils[b])
            if (!std::isfinite(u))
                r.addError("util-not-finite",
                           detail::concat("benchmark ", b,
                                          ": non-finite utilization"));
    for (std::size_t b = 0; b < ck.power_w.size(); ++b)
        for (double p : ck.power_w[b])
            if (!std::isfinite(p))
                r.addError("power-not-finite",
                           detail::concat("benchmark ", b,
                                          ": non-finite power"));

    if (ck.report.cells_done > ck.report.cells_total)
        r.addWarning("report-inconsistent",
                     detail::concat("report claims ",
                                    ck.report.cells_done,
                                    " cells done of ",
                                    ck.report.cells_total));
    if (!ck.report.benchmarks.empty() &&
        ck.report.benchmarks.size() != nb)
        r.addWarning("report-inconsistent",
                     detail::concat("report has ",
                                    ck.report.benchmarks.size(),
                                    " benchmark entries for ", nb,
                                    " benchmarks"));

    return r;
}

ValidationReport
validateScoreboard(const obs::Scoreboard &sb)
{
    ValidationReport r;
    r.subject = "scoreboard";

    auto checkStats = [&r](const std::string &where,
                           const obs::ScoreStats &st) {
        if (st.samples < 0)
            r.addError("stats-negative-count",
                       detail::concat(where, ": negative sample "
                                             "count ",
                                      st.samples));
        const std::pair<const char *, double> fields[] = {
            {"MAE", st.mae_pct},
            {"RMSE", st.rmse_w},
            {"max error", st.max_err_pct},
            {"mean measured power", st.mean_measured_w},
        };
        for (const auto &[what, v] : fields) {
            if (!std::isfinite(v))
                r.addError("stats-not-finite",
                           detail::concat(where, ": non-finite ",
                                          what));
            else if (v < 0.0)
                r.addError("stats-negative",
                           detail::concat(where, ": negative ", what,
                                          " (", v, ")"));
        }
    };

    checkStats("summary", sb.overall);
    long app_samples = 0;
    for (const obs::AppScore &a : sb.per_app) {
        checkStats(detail::concat("app '", a.app, "'"), a.stats);
        app_samples += a.stats.samples;
    }
    if (!sb.per_app.empty() && app_samples != sb.overall.samples)
        r.addWarning("per-app-count-mismatch",
                     detail::concat("per-app sample counts add up to ",
                                    app_samples, " but the summary "
                                                 "claims ",
                                    sb.overall.samples));
    for (const obs::ConfigScore &c : sb.per_config) {
        checkStats(detail::concat("config ", c.cfg.core_mhz, "/",
                                  c.cfg.mem_mhz),
                   c.stats);
        if (c.cfg.core_mhz <= 0 || c.cfg.mem_mhz <= 0)
            r.addError("config-implausible",
                       detail::concat("non-positive clocks ",
                                      c.cfg.core_mhz, "/",
                                      c.cfg.mem_mhz));
    }
    for (const auto *marginal : {&sb.core_marginal, &sb.mem_marginal})
        for (const obs::MarginalScore &m : *marginal)
            checkStats(detail::concat("marginal ", m.mhz, " MHz"),
                       m.stats);
    for (const obs::BaselineScore &b : sb.baselines)
        if (!std::isfinite(b.mae_pct) || b.mae_pct < 0.0)
            r.addError("baseline-mae-implausible",
                       detail::concat("baseline '", b.name,
                                      "': bad MAE"));
    if (sb.reference.core_mhz <= 0 || sb.reference.mem_mhz <= 0)
        r.addWarning("reference-implausible",
                     detail::concat("reference clocks ",
                                    sb.reference.core_mhz, "/",
                                    sb.reference.mem_mhz));

    if (!sb.samples.empty()) {
        if (static_cast<long>(sb.samples.size()) !=
            sb.overall.samples)
            r.addError("summary-samples-inconsistent",
                       detail::concat("summary claims ",
                                      sb.overall.samples,
                                      " samples but ",
                                      sb.samples.size(),
                                      " residuals are present"));
        for (const obs::ResidualSample &s : sb.samples) {
            if (!std::isfinite(s.measured_w) || s.measured_w < 0.0 ||
                !std::isfinite(s.predicted_w) || s.predicted_w < 0.0) {
                r.addError("residual-implausible",
                           detail::concat("app '", s.app, "' at ",
                                          s.cfg.core_mhz, "/",
                                          s.cfg.mem_mhz,
                                          ": bad power values"));
                break;
            }
        }
        // The stored summary must agree with one recomputed from the
        // residuals; a tampered headline number fails validation.
        obs::Scoreboard copy = sb;
        copy.recomputeAggregates();
        const double tol = 1e-6 +
                           1e-9 * std::abs(sb.overall.mae_pct);
        if (std::abs(copy.overall.mae_pct - sb.overall.mae_pct) > tol)
            r.addError("summary-samples-inconsistent",
                       detail::concat("stored overall MAE ",
                                      sb.overall.mae_pct,
                                      "% does not match the value "
                                      "recomputed from the residuals (",
                                      copy.overall.mae_pct, "%)"));
    }
    return r;
}

} // namespace model
} // namespace gpupm
