/**
 * @file
 * The benchmark's output: human-readable report lines while it runs,
 * then one JSON object as the last line of standard output,
 *
 *   {"correct": true, "attempted": N, "failed": F,
 *    "metrics": {"<name>": {"value": v, "unit": "<unit>"}, ...}}
 *
 * An untraced run prints every end-to-end metric, a traced run every
 * per-layer metric. The metric names and units are read from the
 * `end_to_end` and `per_layer` tables of BENCHMARK.json, so they live
 * in one place; a workload that sets a metric outside its table fails
 * its run. A per-layer metric of a layer the workload never calls is
 * reported as 0. Failed output checks are collected here; any
 * failed check makes `correct` false and the exit status non-zero.
 */

#ifndef PERFBENCH_REPORT_HH
#define PERFBENCH_REPORT_HH

#include <map>
#include <string>
#include <utility>
#include <vector>

namespace perfbench
{

struct MetricDef
{
    std::string name;
    std::string unit;
};

/**
 * The metric table `table` ("end_to_end" or "per_layer") of the text
 * of BENCHMARK.json. Empty, with `err` set, when the text is not JSON
 * or the table is missing, empty or has an entry without a name or
 * unit.
 */
std::vector<MetricDef> loadMetricTable(const std::string &benchmark_json,
                                       const std::string &table,
                                       std::string &err);

class Report
{
  public:
    /** `metrics`: the end-to-end table for an untraced run, the
     *  per-layer table for a traced one. */
    Report(bool traced, std::vector<MetricDef> metrics)
        : traced_(traced), metrics_(std::move(metrics))
    {}

    bool traced() const { return traced_; }

    /** Set one metric of the active table (end-to-end or per-layer). */
    void set(const std::string &name, double value);

    /** Print one human-readable line now (never the last line). */
    void line(const std::string &text) const;

    /** Record an output check; a false `ok` fails the run. */
    void check(bool ok, const std::string &what);

    long attempted = 0;
    long failed = 0;

    bool correct() const { return failures_.empty(); }

    /** Print the JSON line; returns the process exit status. */
    int finish();

  private:
    bool traced_;
    std::vector<MetricDef> metrics_;
    std::map<std::string, double> values_;
    std::vector<std::string> failures_;
};

/** printf-style formatting into a std::string. */
std::string fmt(const char *format, ...)
        __attribute__((format(printf, 1, 2)));

} // namespace perfbench

#endif // PERFBENCH_REPORT_HH
