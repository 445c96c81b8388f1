#include "report.hh"

#include <cmath>
#include <cstdarg>
#include <cstdio>

#include "tools/json_lite.hh"

namespace perfbench
{

std::vector<MetricDef>
loadMetricTable(const std::string &benchmark_json, const std::string &table,
                std::string &err)
{
    using gpupm::jsonlite::JsonValue;
    JsonValue root;
    if (!gpupm::jsonlite::JsonParser(benchmark_json).parse(root, err))
        return {};
    const JsonValue *list = root.find(table);
    if (!list || list->kind != JsonValue::Kind::Array || list->array.empty()) {
        err = "no metric table \"" + table + "\"";
        return {};
    }
    std::vector<MetricDef> out;
    for (const JsonValue &entry : list->array) {
        const JsonValue *name = entry.find("name");
        const JsonValue *unit = entry.find("unit");
        if (!name || name->kind != JsonValue::Kind::String || !unit ||
            unit->kind != JsonValue::Kind::String) {
            err = "an entry of \"" + table + "\" lacks a name or unit";
            return {};
        }
        out.push_back({name->str, unit->str});
    }
    return out;
}

std::string
fmt(const char *format, ...)
{
    char buf[1024];
    va_list ap;
    va_start(ap, format);
    std::vsnprintf(buf, sizeof(buf), format, ap);
    va_end(ap);
    return buf;
}

void
Report::set(const std::string &name, double value)
{
    check(std::isfinite(value), "metric " + name + " is finite");
    values_[name] = std::isfinite(value) ? value : 0.0;
}

void
Report::line(const std::string &text) const
{
    std::printf("%s\n", text.c_str());
    std::fflush(stdout);
}

void
Report::check(bool ok, const std::string &what)
{
    if (ok)
        return;
    failures_.push_back(what);
    std::fprintf(stderr, "perfbench: CHECK FAILED: %s\n", what.c_str());
}

int
Report::finish()
{
    std::string body;
    for (const auto &[name, value] : values_) {
        bool known = false;
        for (const MetricDef &m : metrics_)
            known = known || m.name == name;
        check(known, "metric " + name + " is in the " +
                             (traced_ ? "per-layer" : "end-to-end") +
                             " table of BENCHMARK.json");
    }
    for (const MetricDef &m : metrics_) {
        const auto it = values_.find(m.name);
        if (!traced_) {
            check(it != values_.end(),
                  "end-to-end metric " + m.name + " was measured");
            check(it == values_.end() || it->second > 0.0,
                  "end-to-end metric " + m.name + " is positive");
        }
        body += fmt("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                    body.empty() ? "" : ", ", m.name.c_str(),
                    it == values_.end() ? 0.0 : it->second,
                    m.unit.c_str());
    }
    std::printf("{\"correct\": %s, \"attempted\": %ld, \"failed\": %ld, "
                "\"metrics\": {%s}}\n",
                correct() ? "true" : "false", attempted, failed,
                body.c_str());
    std::fflush(stdout);
    return correct() ? 0 : 1;
}

} // namespace perfbench
