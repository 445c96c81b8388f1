#include "alerts.hh"

#include <algorithm>
#include <cmath>
#include <limits>
#include <sstream>

#include "common/json.hh"
#include "common/numio.hh"
#include "obs/standard.hh"
#include "obs/trace.hh"

namespace gpupm
{
namespace obs
{

namespace
{

constexpr std::size_t kHistoryCap = 16;

std::string
jsonNumberOrNull(double v)
{
    if (!std::isfinite(v))
        return "null";
    return numio::formatDouble(v);
}

const char *
kindName(AlertKind k)
{
    switch (k) {
      case AlertKind::Threshold: return "threshold";
      case AlertKind::Rate: return "rate";
      case AlertKind::Drift: return "drift";
    }
    return "threshold";
}

} // namespace

const char *
alertStateName(AlertState s)
{
    switch (s) {
      case AlertState::Inactive: return "inactive";
      case AlertState::Pending: return "pending";
      case AlertState::Firing: return "firing";
      case AlertState::Resolved: return "resolved";
    }
    return "inactive";
}

std::optional<double>
fig7EnvelopePct(const std::string &device)
{
    // The paper's Fig. 7 mean-absolute-error headline per device.
    if (device == "titanxp")
        return 6.6;
    if (device == "titanx")
        return 5.5;
    if (device == "k40c")
        return 12.2;
    return std::nullopt;
}

AlertRule
makeDriftRule(const std::string &device, double tolerance_pp,
              std::int64_t window_us, std::int64_t for_us,
              std::int64_t cooldown_us,
              std::optional<double> envelope_override)
{
    AlertRule r;
    r.name = "accuracy_drift_" + device;
    r.series = "gpupm_accuracy_rolling_mae_pct";
    r.kind = AlertKind::Drift;
    r.op = AlertOp::Gt;
    r.envelope_pct =
            envelope_override.value_or(fig7EnvelopePct(device).value_or(
                    10.0)); // conservative default for unknown devices
    r.tolerance_pp = tolerance_pp;
    r.threshold = r.envelope_pct + r.tolerance_pp;
    r.window_us = window_us;
    r.for_us = for_us;
    r.cooldown_us = cooldown_us;
    // A rolling MAE over one or two samples is noise, not drift: the
    // very first tick after startup can sit far above the envelope
    // and would flash the rule pending before any history exists.
    r.min_count = 3;
    return r;
}

AlertEngine::AlertEngine(const Tsdb &tsdb, std::vector<AlertRule> rules,
                         FlightRecorder *recorder)
    : tsdb_(tsdb), recorder_(recorder)
{
    rules_.reserve(rules.size());
    for (AlertRule &r : rules) {
        RuleState rs;
        rs.rule = std::move(r);
        rs.last_value = std::numeric_limits<double>::quiet_NaN();
        rules_.push_back(std::move(rs));
        // Pre-register the firing gauge so /metrics shows the rule
        // (at 0) from the first scrape, not the first transition.
        alertsFiring(rules_.back().rule.name).set(0.0);
    }
}

void
AlertEngine::setEventSink(std::function<void(const std::string &)> sink)
{
    std::lock_guard<std::mutex> lock(mu_);
    sink_ = std::move(sink);
}

bool
AlertEngine::evaluateValue(const AlertRule &rule, std::int64_t now_us,
                           double &out) const
{
    TsQuery q;
    q.series = rule.series;
    q.start_us = now_us - rule.window_us;
    q.end_us = now_us;

    if (rule.kind == AlertKind::Rate) {
        // Quarter-window buckets: the rate is taken between the first
        // and last non-empty bucket, so a stale stretch inside the
        // window does not zero the slope.
        q.step_us = std::max<std::int64_t>(rule.window_us / 4, 1);
        const TsQueryResult res = tsdb_.query(q);
        if (!res.ok || res.points.size() < 2)
            return false;
        std::int64_t n = 0;
        for (const TsBucket &b : res.points)
            n += b.count;
        if (n < rule.min_count)
            return false;
        const TsBucket &a = res.points.front();
        const TsBucket &b = res.points.back();
        const double dt_s =
                static_cast<double>(b.start_us - a.start_us) * 1e-6;
        if (dt_s <= 0.0)
            return false;
        out = (b.avg() - a.avg()) / dt_s;
        return true;
    }

    // Threshold / drift: one bucket spanning the whole window, the
    // rule compares its mean.
    q.step_us = std::max<std::int64_t>(rule.window_us, 1) + 1;
    const TsQueryResult res = tsdb_.query(q);
    if (!res.ok || res.points.empty())
        return false;
    TsBucket all;
    all.start_us = q.start_us;
    for (const TsBucket &b : res.points)
        all.merge(b);
    if (all.count < rule.min_count)
        return false;
    out = all.avg();
    return true;
}

void
AlertEngine::transition(RuleState &rs, AlertState to,
                        std::int64_t now_us)
{
    rs.state = to;
    rs.since_us = now_us;
    AlertTransition tr;
    tr.t_us = now_us;
    tr.state = to;
    tr.value = rs.last_value;
    rs.history.push_back(tr);
    while (rs.history.size() > kHistoryCap)
        rs.history.pop_front();

    alertTransitionsTotal().inc();
    alertsFiring(rs.rule.name)
            .set(to == AlertState::Firing ? 1.0 : 0.0);

    const std::string detail =
            rs.rule.name + " -> " + alertStateName(to) + " (value " +
            jsonNumberOrNull(rs.last_value) + ", threshold " +
            numio::formatDouble(rs.rule.threshold) + ")";
    if (recorder_) {
        FlightRecord rec;
        rec.kind = "alert";
        rec.name = "alert." + std::string(alertStateName(to));
        rec.detail = detail;
        recorder_->record(std::move(rec));
    }
    if (sink_) {
        std::ostringstream os;
        os << "{\"event\":\"alert\",\"rule\":\""
           << json::escape(rs.rule.name) << "\",\"state\":\""
           << alertStateName(to) << "\",\"t_us\":" << now_us
           << ",\"value\":" << jsonNumberOrNull(rs.last_value)
           << ",\"threshold\":"
           << numio::formatDouble(rs.rule.threshold);
        // evaluate() runs on the tick path inside the tick's trace
        // context, so the transition line joins that tick's trace.
        if (const auto ctx = currentTraceContext(); ctx.trace_id)
            os << ",\"trace_id\":\"" << traceIdHex(ctx.trace_id)
               << "\"";
        os << "}";
        sink_(os.str());
    }
}

void
AlertEngine::evaluate(std::int64_t now_us)
{
    std::lock_guard<std::mutex> lock(mu_);
    last_evaluated_us_ = now_us;
    for (RuleState &rs : rules_) {
        double value = 0.0;
        const bool have = evaluateValue(rs.rule, now_us, value);
        if (!have) {
            // Empty window: a pending alert loses its evidence and
            // returns to inactive; a firing alert is frozen — missing
            // data must not quietly resolve a real problem.
            if (rs.state == AlertState::Pending) {
                rs.cond_true_since_us = -1;
                transition(rs, AlertState::Inactive, now_us);
            }
            rs.cond_false_since_us = -1;
            continue;
        }

        rs.evaluated = true;
        rs.last_value = value;
        const bool cond = rs.rule.op == AlertOp::Gt
                                  ? value > rs.rule.threshold
                                  : value < rs.rule.threshold;
        if (cond) {
            rs.cond_false_since_us = -1;
            if (rs.cond_true_since_us < 0)
                rs.cond_true_since_us = now_us;
            if (rs.state == AlertState::Inactive ||
                rs.state == AlertState::Resolved) {
                transition(rs, AlertState::Pending, now_us);
            }
            if (rs.state == AlertState::Pending &&
                now_us - rs.cond_true_since_us >= rs.rule.for_us) {
                transition(rs, AlertState::Firing, now_us);
            }
        } else {
            rs.cond_true_since_us = -1;
            if (rs.state == AlertState::Pending) {
                transition(rs, AlertState::Inactive, now_us);
            } else if (rs.state == AlertState::Firing) {
                if (rs.cond_false_since_us < 0)
                    rs.cond_false_since_us = now_us;
                if (now_us - rs.cond_false_since_us >=
                    rs.rule.cooldown_us) {
                    transition(rs, AlertState::Resolved, now_us);
                    rs.cond_false_since_us = -1;
                }
            }
        }
    }
}

std::vector<AlertStatus>
AlertEngine::snapshot() const
{
    std::lock_guard<std::mutex> lock(mu_);
    std::vector<AlertStatus> out;
    out.reserve(rules_.size());
    for (const RuleState &rs : rules_) {
        AlertStatus st;
        st.rule = rs.rule;
        st.state = rs.state;
        st.since_us = rs.since_us;
        st.last_value = rs.last_value;
        st.evaluated = rs.evaluated;
        st.history = rs.history;
        out.push_back(std::move(st));
    }
    return out;
}

std::vector<std::string>
AlertEngine::firingRuleNames() const
{
    std::lock_guard<std::mutex> lock(mu_);
    std::vector<std::string> out;
    for (const RuleState &rs : rules_)
        if (rs.state == AlertState::Firing)
            out.push_back(rs.rule.name);
    return out;
}

std::int64_t
AlertEngine::lastEvaluatedUs() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return last_evaluated_us_;
}

std::string
AlertEngine::renderJson(std::int64_t now_us) const
{
    std::lock_guard<std::mutex> lock(mu_);
    std::ostringstream os;
    os << "{\"now_us\":" << now_us << ",\"firing\":[";
    bool first = true;
    for (const RuleState &rs : rules_) {
        if (rs.state != AlertState::Firing)
            continue;
        if (!first)
            os << ",";
        first = false;
        os << "\"" << json::escape(rs.rule.name) << "\"";
    }
    os << "],\"rules\":[";
    first = true;
    for (const RuleState &rs : rules_) {
        if (!first)
            os << ",";
        first = false;
        os << "{\"name\":\"" << json::escape(rs.rule.name)
           << "\",\"kind\":\"" << kindName(rs.rule.kind)
           << "\",\"series\":\"" << json::escape(rs.rule.series)
           << "\",\"op\":\""
           << (rs.rule.op == AlertOp::Gt ? ">" : "<")
           << "\",\"threshold\":"
           << numio::formatDouble(rs.rule.threshold);
        if (rs.rule.kind == AlertKind::Drift) {
            os << ",\"envelope_pct\":"
               << numio::formatDouble(rs.rule.envelope_pct)
               << ",\"tolerance_pp\":"
               << numio::formatDouble(rs.rule.tolerance_pp);
        }
        os << ",\"window_us\":" << rs.rule.window_us
           << ",\"for_us\":" << rs.rule.for_us
           << ",\"cooldown_us\":" << rs.rule.cooldown_us
           << ",\"state\":\"" << alertStateName(rs.state)
           << "\",\"since_us\":" << rs.since_us
           << ",\"last_value\":" << jsonNumberOrNull(rs.last_value)
           << ",\"evaluated\":" << (rs.evaluated ? "true" : "false")
           << ",\"history\":[";
        bool hfirst = true;
        for (const AlertTransition &tr : rs.history) {
            if (!hfirst)
                os << ",";
            hfirst = false;
            os << "{\"t_us\":" << tr.t_us << ",\"state\":\""
               << alertStateName(tr.state)
               << "\",\"value\":" << jsonNumberOrNull(tr.value) << "}";
        }
        os << "]}";
    }
    os << "]}";
    return os.str();
}

std::string
AlertEngine::renderText(std::int64_t now_us) const
{
    std::lock_guard<std::mutex> lock(mu_);
    std::ostringstream os;
    os << "alerts @ " << now_us << " us\n";
    if (rules_.empty()) {
        os << "(no rules configured)\n";
        return os.str();
    }
    for (const RuleState &rs : rules_) {
        os << "  " << rs.rule.name << " [" << kindName(rs.rule.kind)
           << "] " << rs.rule.series
           << (rs.rule.op == AlertOp::Gt ? " > " : " < ")
           << numio::formatDouble(rs.rule.threshold) << ": "
           << alertStateName(rs.state);
        if (rs.evaluated && std::isfinite(rs.last_value))
            os << " (last " << numio::formatDouble(rs.last_value)
               << ")";
        else
            os << " (no data)";
        os << "\n";
    }
    return os.str();
}

} // namespace obs
} // namespace gpupm
