/**
 * @file
 * gpupm_bench_check: regression gate over the accuracy/telemetry
 * artifacts the bench harness and `gpupm audit` emit, so ctest and
 * scripts/reproduce_all.sh can fail a build on an accuracy or runtime
 * regression without a Python or jq dependency.
 *
 *   gpupm_bench_check validate <BENCH_*.json>...
 *       Structurally validate bench telemetry files (version, name,
 *       provenance, finite non-negative wall-clock and stats).
 *
 *   gpupm_bench_check bench <run.json> <golden.json>
 *                     [--stat-tol=<pp>] [--time-factor=<x>]
 *       Diff one bench telemetry run against a golden: every stat
 *       whose key contains "_pct" (an error metric, lower is better)
 *       may not exceed the golden by more than --stat-tol
 *       (default 2.0 percentage points), and the run's wall-clock may
 *       not exceed --time-factor (default 2.0) times the golden's.
 *
 *   gpupm_bench_check scoreboard <run> <golden>
 *                     [--mae-tol=<pp>] [--app-tol=<pp>]
 *                     [--max-tol=<pp>]
 *       Diff two accuracy scoreboards (v2 envelope or raw JSON)
 *       through obs::compareScoreboards: overall MAE, per-app MAE and
 *       max error are gated by the tolerances (defaults 0.5 / 2.0 /
 *       5.0 percentage points).
 *
 *   gpupm_bench_check profile <run.json> <golden.json>
 *                     [--share-tol=<pp>] [--min-attributed=<pct>]
 *       Gate the `cpu` attribution block (sampling-profiler summary)
 *       of a bench telemetry run: span attribution must reach
 *       --min-attributed (default 90%), and no span category's CPU
 *       share may exceed the golden's by more than --share-tol
 *       (default 10 percentage points) — the per-phase CPU budget a
 *       hot-path regression trips even when wall-clock noise hides it.
 *
 * Exit status: 0 pass, 1 regression or invalid artifact, 2 usage,
 * 3 missing or unreadable golden (named `missing-golden` error): a
 * gate whose golden vanished must fail loudly, never skip.
 */

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <vector>

#include "common/json.hh"
#include "core/model_io.hh"
#include "obs/scoreboard.hh"

namespace
{

using namespace gpupm;
using JsonValue = json::Value;
using json::readFile;
constexpr auto kNumber = JsonValue::Kind::Number;
constexpr auto kString = JsonValue::Kind::String;
constexpr auto kObject = JsonValue::Kind::Object;

/** Parsed `cpu` attribution block of a bench telemetry file. */
struct CpuBlock
{
    bool present = false;
    double samples = 0.0;
    double dropped = 0.0;
    double attributed_pct = 0.0;
    /** category -> CPU share in percent of all samples. */
    std::vector<std::pair<std::string, double>> shares;
};

/** Parsed essentials of one BENCH_<name>.json telemetry file. */
struct BenchRun
{
    std::string name;
    double wall_ms = 0.0;
    std::vector<std::pair<std::string, double>> stats;
    CpuBlock cpu;
};

/**
 * Exit status for a missing/unreadable golden reference. Distinct
 * from a regression (1) so callers can tell "the gate fired" from
 * "the gate could not run at all".
 */
constexpr int kMissingGoldenExit = 3;

/**
 * Named error for an absent or unreadable golden file. The gate must
 * not silently pass (or be skipped) just because the golden is gone —
 * that is exactly when a regression would slip through.
 */
int
missingGolden(const std::string &path)
{
    std::fprintf(stderr,
                 "error [missing-golden]: golden file '%s' is "
                 "missing or unreadable; refusing to skip the gate\n",
                 path.c_str());
    return kMissingGoldenExit;
}

/** True when the path is a regular file whose bytes can be read. */
bool
readable(const std::string &path)
{
    std::error_code ec;
    if (!std::filesystem::is_regular_file(path, ec) || ec)
        return false;
    std::string text;
    return readFile(path, text);
}

/** Load + structurally validate one bench telemetry file. */
bool
loadBenchRun(const std::string &path, BenchRun &run)
{
    std::string text;
    if (!readFile(path, text)) {
        std::fprintf(stderr, "%s: cannot read file\n", path.c_str());
        return false;
    }
    JsonValue root;
    json::Error err;
    if (!json::parse(text, root, err)) {
        std::fprintf(stderr, "%s: invalid JSON: %s\n", path.c_str(),
                     err.message().c_str());
        return false;
    }
    auto bad = [&](const std::string &what) {
        std::fprintf(stderr, "%s: %s\n", path.c_str(), what.c_str());
        return false;
    };
    if (root.kind != kObject)
        return bad("top level is not an object");
    const JsonValue *ver = root.find("gpupm_bench_version", kNumber);
    if (!ver || ver->number != 1.0)
        return bad("missing or unsupported gpupm_bench_version");
    const JsonValue *name = root.find("name", kString);
    if (!name || name->str.empty())
        return bad("missing name");
    run.name = name->str;
    const JsonValue *prov = root.find("provenance", kObject);
    if (!prov)
        return bad("missing provenance object");
    for (const char *key :
         {"version", "build_type", "device", "timestamp"}) {
        if (!prov->find(key, kString))
            return bad(std::string("provenance missing '") + key +
                       "'");
    }
    const JsonValue *wall = root.find("wall_ms", kNumber);
    if (!wall || wall->number < 0)
        return bad("missing or implausible wall_ms");
    run.wall_ms = wall->number;
    const JsonValue *phases = root.find("phases_ms", kObject);
    if (!phases)
        return bad("missing phases_ms object");
    for (const auto &kv : phases->object)
        if (kv.second.kind != kNumber || kv.second.number < 0)
            return bad("implausible phase duration '" + kv.first +
                       "'");
    const JsonValue *stats = root.find("stats", kObject);
    if (!stats)
        return bad("missing stats object");
    for (const auto &kv : stats->object) {
        if (kv.second.kind != kNumber)
            return bad("non-finite stat '" + kv.first + "'");
        run.stats.emplace_back(kv.first, kv.second.number);
    }
    // The `cpu` block (sampling-profiler summary) is optional — older
    // goldens predate it — but when present it must be well-formed so
    // `profile` gates never compare garbage.
    const JsonValue *cpu = root.find("cpu");
    if (cpu) {
        if (cpu->kind != kObject)
            return bad("cpu block is not an object");
        auto num = [&](const char *key, double &out) {
            const JsonValue *f = cpu->find(key, kNumber);
            if (!f || f->number < 0)
                return false;
            out = f->number;
            return true;
        };
        if (!num("samples", run.cpu.samples) ||
            !num("dropped", run.cpu.dropped) ||
            !num("attributed_pct", run.cpu.attributed_pct))
            return bad("cpu block missing samples/dropped/"
                       "attributed_pct");
        const JsonValue *cats = cpu->find("categories", kObject);
        if (!cats)
            return bad("cpu block missing categories object");
        for (const auto &kv : cats->object) {
            if (kv.second.kind != kObject)
                return bad("cpu category '" + kv.first +
                           "' is not an object");
            const JsonValue *share = kv.second.find("share_pct", kNumber);
            if (!share || share->number < 0)
                return bad("cpu category '" + kv.first +
                           "' missing share_pct");
            run.cpu.shares.emplace_back(kv.first, share->number);
        }
        run.cpu.present = true;
    }
    return true;
}

int
cmdValidate(const std::vector<std::string> &paths)
{
    int rc = 0;
    for (const auto &path : paths) {
        BenchRun run;
        if (!loadBenchRun(path, run)) {
            rc = 1;
            continue;
        }
        std::printf("%s: OK (%s, %zu stats, %.0f ms)\n", path.c_str(),
                    run.name.c_str(), run.stats.size(), run.wall_ms);
    }
    return rc;
}

/**
 * Gate a bench run against its golden. Error stats (keys containing
 * "_pct" — MAE-style, lower is better) may not exceed the golden by
 * more than stat_tol percentage points; wall-clock may not exceed
 * time_factor times the golden's. Stats present on only one side are
 * noted.
 */
int
cmdBench(const std::string &run_path, const std::string &golden_path,
         double stat_tol, double time_factor)
{
    if (!readable(golden_path))
        return missingGolden(golden_path);
    BenchRun run, golden;
    if (!loadBenchRun(run_path, run) ||
        !loadBenchRun(golden_path, golden))
        return 1;
    if (run.name != golden.name)
        std::fprintf(stderr,
                     "note: comparing different benches "
                     "('%s' vs '%s')\n",
                     run.name.c_str(), golden.name.c_str());

    int regressions = 0;
    for (const auto &gkv : golden.stats) {
        const double *rv = nullptr;
        for (const auto &rkv : run.stats)
            if (rkv.first == gkv.first)
                rv = &rkv.second;
        if (!rv) {
            std::printf("note: stat '%s' absent from run\n",
                        gkv.first.c_str());
            continue;
        }
        const bool error_stat =
                gkv.first.find("_pct") != std::string::npos;
        if (error_stat && *rv > gkv.second + stat_tol) {
            std::printf("REGRESSION: %s %.3f -> %.3f "
                        "(tolerance +%.2f pp)\n",
                        gkv.first.c_str(), gkv.second, *rv, stat_tol);
            ++regressions;
        }
    }
    if (golden.wall_ms > 0 &&
        run.wall_ms > golden.wall_ms * time_factor) {
        std::printf("REGRESSION: wall-clock %.0f ms exceeds %.1fx "
                    "the golden's %.0f ms\n",
                    run.wall_ms, time_factor, golden.wall_ms);
        ++regressions;
    }
    std::printf("%s vs %s: %s (%d regression(s))\n", run_path.c_str(),
                golden_path.c_str(), regressions ? "FAIL" : "PASS",
                regressions);
    return regressions ? 1 : 0;
}

/**
 * Gate the run's CPU-attribution block against the golden's. Two
 * checks, both on ratios so they hold across machine speeds:
 *  - span attribution (percent of samples tagged with a taxonomy
 *    category) must not fall below min_attributed — instrumentation
 *    rot (a hot path losing its span) shows up here;
 *  - each category's CPU share may not exceed the golden's by more
 *    than share_tol percentage points — a phase silently eating a
 *    bigger slice of the pie is a budget breach even when total
 *    wall-clock still fits under `bench`'s time-factor.
 * Categories that shrank or are new-but-small are fine; a new
 * category is gated against a zero baseline.
 */
int
cmdProfile(const std::string &run_path,
           const std::string &golden_path, double share_tol,
           double min_attributed)
{
    if (!readable(golden_path))
        return missingGolden(golden_path);
    BenchRun run, golden;
    if (!loadBenchRun(run_path, run) ||
        !loadBenchRun(golden_path, golden))
        return 1;
    if (!run.cpu.present) {
        std::fprintf(stderr,
                     "%s: no cpu block (bench must run with "
                     "--json-out to embed the profiler summary)\n",
                     run_path.c_str());
        return 1;
    }
    if (!golden.cpu.present) {
        std::fprintf(stderr,
                     "%s: golden has no cpu block; refresh it from a "
                     "run that embeds the profiler summary\n",
                     golden_path.c_str());
        return kMissingGoldenExit;
    }
    if (run.cpu.samples < 1) {
        std::fprintf(stderr,
                     "%s: cpu block has zero samples; profiler never "
                     "fired\n",
                     run_path.c_str());
        return 1;
    }

    int regressions = 0;
    if (run.cpu.attributed_pct < min_attributed) {
        std::printf("REGRESSION: span attribution %.2f%% below the "
                    "%.2f%% floor\n",
                    run.cpu.attributed_pct, min_attributed);
        ++regressions;
    }
    auto goldenShare = [&](const std::string &cat) {
        for (const auto &kv : golden.cpu.shares)
            if (kv.first == cat)
                return kv.second;
        return 0.0; // new category: budget starts at zero
    };
    for (const auto &rkv : run.cpu.shares) {
        const double budget = goldenShare(rkv.first) + share_tol;
        if (rkv.second > budget) {
            std::printf("REGRESSION: category '%s' CPU share %.2f%% "
                        "exceeds budget %.2f%% (golden %.2f%% + "
                        "%.2f pp)\n",
                        rkv.first.c_str(), rkv.second, budget,
                        goldenShare(rkv.first), share_tol);
            ++regressions;
        }
    }
    for (const auto &gkv : golden.cpu.shares) {
        bool found = false;
        for (const auto &rkv : run.cpu.shares)
            if (rkv.first == gkv.first)
                found = true;
        if (!found)
            std::printf("note: category '%s' absent from run\n",
                        gkv.first.c_str());
    }
    std::printf("%s vs %s: %s (%.0f samples, %.2f%% attributed, "
                "%d regression(s))\n",
                run_path.c_str(), golden_path.c_str(),
                regressions ? "FAIL" : "PASS", run.cpu.samples,
                run.cpu.attributed_pct, regressions);
    return regressions ? 1 : 0;
}

int
cmdScoreboard(const std::string &run_path,
              const std::string &golden_path,
              const obs::ScoreboardTolerances &tol)
{
    if (!readable(golden_path))
        return missingGolden(golden_path);
    auto run = model::tryLoadScoreboard(run_path);
    if (!run.ok()) {
        std::fprintf(stderr, "%s: load failed [%s]: %s\n",
                     run_path.c_str(),
                     std::string(model::ioErrcName(run.error().code))
                             .c_str(),
                     run.error().message.c_str());
        return 1;
    }
    auto golden = model::tryLoadScoreboard(golden_path);
    if (!golden.ok()) {
        std::fprintf(stderr, "%s: load failed [%s]: %s\n",
                     golden_path.c_str(),
                     std::string(
                             model::ioErrcName(golden.error().code))
                             .c_str(),
                     golden.error().message.c_str());
        return 1;
    }
    const auto diff = obs::compareScoreboards(run.value(),
                                              golden.value(), tol);
    std::printf("%s", diff.summary().c_str());
    return diff.ok ? 0 : 1;
}

int
usage()
{
    std::fprintf(
            stderr,
            "usage:\n"
            "  gpupm_bench_check validate <BENCH.json>...\n"
            "  gpupm_bench_check bench <run.json> <golden.json> "
            "[--stat-tol=<pp>] [--time-factor=<x>]\n"
            "  gpupm_bench_check scoreboard <run> <golden> "
            "[--mae-tol=<pp>] [--app-tol=<pp>] [--max-tol=<pp>]\n"
            "  gpupm_bench_check profile <run.json> <golden.json> "
            "[--share-tol=<pp>] [--min-attributed=<pct>]\n");
    return 2;
}

} // namespace

int
main(int argc, char **argv)
{
    std::vector<std::string> positional;
    double stat_tol = 2.0, time_factor = 2.0;
    double share_tol = 10.0, min_attributed = 90.0;
    obs::ScoreboardTolerances tol;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg.rfind("--", 0) != 0) {
            positional.push_back(arg);
            continue;
        }
        const auto eq = arg.find('=');
        const std::string key = arg.substr(0, eq);
        const double val = eq == std::string::npos
                                   ? 0.0
                                   : std::atof(arg.c_str() + eq + 1);
        if (key == "--stat-tol")
            stat_tol = val;
        else if (key == "--time-factor")
            time_factor = val;
        else if (key == "--mae-tol")
            tol.overall_mae_pp = val;
        else if (key == "--app-tol")
            tol.per_app_mae_pp = val;
        else if (key == "--max-tol")
            tol.max_err_pp = val;
        else if (key == "--share-tol")
            share_tol = val;
        else if (key == "--min-attributed")
            min_attributed = val;
        else {
            std::fprintf(stderr, "unknown flag '%s'\n", key.c_str());
            return usage();
        }
    }
    if (positional.size() < 2)
        return usage();
    const std::string cmd = positional.front();
    if (cmd == "validate")
        return cmdValidate(
                {positional.begin() + 1, positional.end()});
    if (cmd == "bench" && positional.size() == 3)
        return cmdBench(positional[1], positional[2], stat_tol,
                        time_factor);
    if (cmd == "scoreboard" && positional.size() == 3)
        return cmdScoreboard(positional[1], positional[2], tol);
    if (cmd == "profile" && positional.size() == 3)
        return cmdProfile(positional[1], positional[2], share_tol,
                          min_attributed);
    return usage();
}
