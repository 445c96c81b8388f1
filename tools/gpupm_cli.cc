/**
 * @file
 * gpupm command-line tool.
 *
 * Drives the pipeline stages the way a host-side deployment would:
 *
 *   gpupm campaign  <device> <out.campaign>   run the training campaign
 *   gpupm fit       <in.campaign> <out.model> fit the DVFS-aware model
 *   gpupm train     <device> <out.model>      campaign + fit in one go
 *   gpupm info      <in.model>                summarize a fitted model
 *   gpupm predict   <in.model> <app> [fc fm]  predict an application
 *   gpupm sweep     <in.model> <app>          full V-F sweep table
 *   gpupm devices                             list supported devices
 *   gpupm export-cuda <out.cu>                emit the suite as CUDA
 *   gpupm validate  <file>...                 check artifact integrity
 *   gpupm metrics   [--json]                  dump the metric catalog
 *   gpupm audit     <model|device>            replay the validation set
 *                                             and score prediction error
 *
 * `audit` reproduces the paper's accuracy evaluation (Table III,
 * Figs. 7-8) as an operational artifact: it measures every validation
 * application over the device's full V-F grid, predicts each cell with
 * the model and the Sec. VI baselines, and aggregates the residuals
 * into a scoreboard (overall / per-app / per-config error). Output is
 * human tables by default, --json for the summary payload, --csv for
 * raw residuals, and --scoreboard-out=<file> persists the full
 * scoreboard for tools/gpupm_bench_check to gate against a golden.
 *
 * Observability flags (every command):
 *   --trace-out=<file>        write a Chrome trace-event JSON of the
 *                             run (open in chrome://tracing/Perfetto)
 *   --metrics-out=<file>      write Prometheus text metrics on exit
 *   --convergence-out=<file>  write a per-iteration estimator
 *                             convergence CSV (fit/train)
 *   --verbose / --quiet       log level (also GPUPM_LOG=debug|warn|..)
 *
 * `fit` also accepts a device name in place of a campaign file: it
 * then runs the bundled synthetic resilient campaign in-process and
 * fits from it, exercising the whole measure→fit→save pipeline in one
 * traced command.
 *
 * File-trust flags (validate, and every command that loads a file):
 *   --strict            reject legacy (pre-envelope) files and run
 *                       physical-plausibility validation on load
 *   --allow-legacy      with --strict, still accept legacy files
 *   --json              machine-readable `validate` output
 *
 * campaign/train accept resilience flags:
 *   --faults=<rate>     inject faults at the given per-call rate
 *   --fault-seed=<n>    seed of the fault-injection stream
 *   --retries=<n>       retry budget per measurement call
 *   --resume=<file>     checkpoint campaign progress to <file> and
 *                       resume from it when it already exists
 *
 * Any of these selects the resilient campaign runner (typed errors,
 * retry/backoff, MAD outlier rejection, quarantine) and prints its
 * CampaignReport; without them the legacy fail-fast path runs.
 *
 * <device> is one of: titanxp, titanx, k40c. <app> is a Table III
 * abbreviation (e.g. BLCKSC) — the tool profiles it on a fresh
 * simulated board at the reference configuration before predicting.
 */

#include <algorithm>
#include <chrono>
#include <cmath>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <functional>
#include <iostream>
#include <limits>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <thread>

#include <string>
#include <vector>

#include "baselines/baselines.hh"
#include "common/json.hh"
#include "common/logging.hh"
#include "common/numio.hh"
#include "common/provenance.hh"
#include "common/table.hh"
#include "core/campaign.hh"
#include "core/faults.hh"
#include "core/metrics.hh"
#include "core/model_io.hh"
#include "core/predictor.hh"
#include "core/validate.hh"
#include "fleet/supervisor.hh"
#include "obs/alerts.hh"
#include "obs/convergence.hh"
#include "obs/flight_recorder.hh"
#include "obs/http_server.hh"
#include "obs/metrics.hh"
#include "obs/profiler.hh"
#include "obs/sampler.hh"
#include "obs/standard.hh"
#include "obs/trace.hh"
#include "obs/trace_store.hh"
#include "obs/tsdb.hh"
#include "ubench/cuda_source.hh"
#include "workloads/workloads.hh"

namespace
{

using namespace gpupm;

/** Resilience-related flags shared by campaign/train. */
struct CliFlags
{
    bool resilient = false;      ///< any flag below was given
    double fault_rate = 0.0;
    std::uint64_t fault_seed = 2026;
    int retries = -1;            ///< -1 = policy default
    std::string checkpoint;
    bool strict = false;         ///< reject legacy files, validate
    bool allow_legacy = false;   ///< soften --strict for old files
    bool json = false;           ///< machine-readable output
    bool csv = false;            ///< per-sample CSV (audit)
    std::string scoreboard_out;  ///< audit scoreboard file path
    std::string trace_out;       ///< Chrome trace-event JSON path
    std::string metrics_out;     ///< Prometheus text dump path
    std::string convergence_out; ///< estimator convergence CSV path
    std::string profile_out;     ///< collapsed-stack CPU profile path
    bool verbose = false;        ///< log level: debug
    bool quiet = false;          ///< log level: warnings and errors
    bool show_version = false;   ///< --version anywhere on the line

    // `monitor` flags.
    int port = 9090;          ///< HTTP port; 0 = ephemeral
    int period_ms = 250;      ///< sampling period
    double duration_s = 0.0;  ///< stop after this long; 0 = forever
    std::string events_out;   ///< NDJSON event log path
    std::string port_file;    ///< write the bound port here (tests)

    // `monitor`/`alerts` history + alerting flags.
    long events_max_bytes = 0;    ///< rotate event log past this; 0=off
    int events_max_files = 1;     ///< rotated generations kept (.1..N)
    bool healthz_degraded_503 = false; ///< firing alerts -> HTTP 503
    std::vector<std::string> alert_specs; ///< --alert rule specs
    bool no_drift_rule = false;   ///< drop the built-in drift rule
    // The monitor schedule visits the V-F corners (slowest/ref/
    // fastest), where model error runs above the full-grid Fig. 7
    // MAE, so the default tolerance leaves the live baseline
    // (~8.5/8.7/15 pct for titanxp/titanx/k40c) comfortably inside
    // the envelope+tolerance threshold.
    double drift_tolerance = 5.0; ///< pp over the fig7 envelope
    double drift_window_s = 30.0; ///< drift rule window
    double drift_for_s = 10.0;    ///< pending -> firing
    double drift_cooldown_s = 30.0; ///< clear -> resolved
    std::string drift_golden;     ///< fig7 golden refreshing envelope
    long rolling_window = 64;     ///< rolling-MAE residual window
    std::string inject_drift;     ///< from:to:scale fault injection
    long alert_ticks = 120;       ///< `alerts` one-shot tick count

    // `fleet` flags.
    int shards = 4;           ///< shard count
    int threads = 0;          ///< pool workers; 0 = auto
    double chaos_kill = 0.0;  ///< shard kill probability per attempt
    double chaos_stall = 0.0; ///< shard stall probability per attempt
    double chaos_poison = 0.0; ///< poisoned-device fraction
    double deadline_s = 120.0; ///< watchdog deadline per attempt
    std::string fleet_out;    ///< merged fleet report file path
};

/**
 * Scoped trace-store attachment: the store plus the global-tracer
 * wiring a long-lived daemon wants — deterministic ids seeded from the
 * fault seed, completed traces offered to the store, and, unless
 * --trace-out asked for the full Chrome dump, no unbounded in-memory
 * event list. The destructor detaches, so no early return can leave
 * the tracer pointing at a dead store. The tracer is enabled (and
 * later disabled) only when --trace-out did not already enable it:
 * enable() clears the buffer and would corrupt the straddling
 * `cli.<cmd>` root span.
 */
struct TraceStoreAttachment
{
    obs::TraceStore store;
    bool enabled_here;

    explicit TraceStoreAttachment(
            const CliFlags &flags,
            obs::TraceStoreOptions opts = obs::TraceStoreOptions{})
        : store(opts), enabled_here(!obs::Tracer::global().enabled())
    {
        auto &tracer = obs::Tracer::global();
        tracer.seedIds(flags.fault_seed);
        tracer.attachStore(&store);
        if (flags.trace_out.empty())
            tracer.setRetainEvents(false);
        if (enabled_here)
            tracer.enable();
    }
    ~TraceStoreAttachment()
    {
        auto &tracer = obs::Tracer::global();
        if (enabled_here)
            tracer.disable();
        tracer.attachStore(nullptr);
        tracer.setRetainEvents(true);
    }

    TraceStoreAttachment(const TraceStoreAttachment &) = delete;
    TraceStoreAttachment &
    operator=(const TraceStoreAttachment &) = delete;
};

/** Loader policy implied by the file-trust flags. */
model::LoadOptions
loadOptionsOf(const CliFlags &flags)
{
    model::LoadOptions opts;
    opts.allow_legacy = !flags.strict || flags.allow_legacy;
    opts.validate = flags.strict;
    return opts;
}

/**
 * Longest accepted duration: its whole microseconds must fit an
 * int64_t, the unit the tsdb, the alert rules and /api/query count in.
 */
constexpr double kMaxDurationS = 9.2e12;

/**
 * Parse a human duration: "2s", "500ms", "1m", or a bare number of
 * seconds. Negative on malformed, non-finite or out-of-range input.
 */
double
parseDuration(const std::string &text)
{
    char *end = nullptr;
    const double value = std::strtod(text.c_str(), &end);
    if (end == text.c_str() || !(value >= 0.0))
        return -1.0;
    const std::string unit(end);
    double seconds = -1.0;
    if (unit.empty() || unit == "s")
        seconds = value;
    else if (unit == "ms")
        seconds = value * 1e-3;
    else if (unit == "m")
        seconds = value * 60.0;
    return seconds <= kMaxDurationS ? seconds : -1.0;
}

/** parseDuration in whole microseconds; false on malformed input. */
bool
parseDurationUs(const std::string &text, std::int64_t &out)
{
    const double d = parseDuration(text);
    if (d < 0.0)
        return false;
    out = static_cast<std::int64_t>(d * 1e6);
    return true;
}

/** True when the flag consumes a value (`--key=v` or `--key v`). */
bool
flagTakesValue(const std::string &key)
{
    // `--faults` is absent on purpose: it accepts an optional rate
    // (`--faults=0.08`) but also works bare as a chaos shorthand.
    static const char *value_flags[] = {
            "--fault-seed",     "--retries",
            "--resume",         "--checkpoint",  "--scoreboard-out",
            "--trace-out",      "--metrics-out", "--convergence-out",
            "--profile-out",
            "--port",           "--period-ms",   "--duration",
            "--events-out",     "--port-file",   "--shards",
            "--threads",        "--chaos-kill-rate",
            "--chaos-stall-rate", "--chaos-poison", "--deadline",
            "--fleet-out",      "--events-max-bytes",
            "--events-max-files", "--alert",
            "--drift-tolerance", "--drift-window", "--drift-for",
            "--drift-cooldown", "--drift-golden", "--rolling-window",
            "--inject-drift",   "--ticks",
    };
    for (const char *f : value_flags)
        if (key == f)
            return true;
    return false;
}

/** The CliFlags field a duration flag sets; nullptr for other keys. */
double CliFlags::*
durationFlag(const std::string &key)
{
    static const std::pair<const char *, double CliFlags::*> fields[] = {
            {"--duration", &CliFlags::duration_s},
            {"--deadline", &CliFlags::deadline_s},
            {"--drift-window", &CliFlags::drift_window_s},
            {"--drift-for", &CliFlags::drift_for_s},
            {"--drift-cooldown", &CliFlags::drift_cooldown_s},
    };
    for (const auto &[name, field] : fields)
        if (key == name)
            return field;
    return nullptr;
}

/**
 * Strip `--key=value` / `--key value` flags from the argument list,
 * returning the positional arguments. Flags may appear anywhere,
 * including before the subcommand or positionals. An unknown flag (or
 * a value flag missing its value) is reported by name on stderr and
 * the sentinel "--bad-flag" is returned as the only positional; the
 * caller exits 2 without the generic usage text, so the message names
 * the actual problem.
 */
std::vector<std::string>
parseFlags(int argc, char **argv, CliFlags &flags)
{
    const auto bad = [](const char *what, const std::string &key) {
        std::fprintf(stderr, "gpupm: %s '%s' (run 'gpupm' with no "
                             "arguments for usage)\n",
                     what, key.c_str());
        return std::vector<std::string>{"--bad-flag"};
    };

    std::vector<std::string> positional;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg.rfind("--", 0) != 0) {
            positional.push_back(arg);
            continue;
        }
        const auto eq = arg.find('=');
        const std::string key = arg.substr(0, eq);
        std::string val =
                eq == std::string::npos ? "" : arg.substr(eq + 1);
        if (eq == std::string::npos && flagTakesValue(key)) {
            if (i + 1 >= argc)
                return bad("flag is missing its value", key);
            val = argv[++i];
        }
        if (double CliFlags::*field = durationFlag(key)) {
            flags.*field = parseDuration(val);
            if (flags.*field < 0.0)
                return bad("bad duration for flag", key);
        } else if (key == "--faults") {
            // Bare --faults means "inject at a sensible demo rate".
            flags.fault_rate =
                    val.empty() ? 0.1 : std::atof(val.c_str());
            flags.resilient = true;
        } else if (key == "--fault-seed") {
            flags.fault_seed = std::strtoull(val.c_str(), nullptr, 10);
            flags.resilient = true;
        } else if (key == "--retries") {
            flags.retries = std::atoi(val.c_str());
            flags.resilient = true;
        } else if (key == "--resume" || key == "--checkpoint") {
            flags.checkpoint = val;
            flags.resilient = true;
        } else if (key == "--strict") {
            flags.strict = true;
        } else if (key == "--allow-legacy") {
            flags.allow_legacy = true;
        } else if (key == "--json") {
            flags.json = true;
        } else if (key == "--csv") {
            flags.csv = true;
        } else if (key == "--scoreboard-out") {
            flags.scoreboard_out = val;
        } else if (key == "--trace-out") {
            flags.trace_out = val;
        } else if (key == "--metrics-out") {
            flags.metrics_out = val;
        } else if (key == "--convergence-out") {
            flags.convergence_out = val;
        } else if (key == "--profile-out") {
            flags.profile_out = val;
        } else if (key == "--verbose") {
            flags.verbose = true;
        } else if (key == "--quiet") {
            flags.quiet = true;
        } else if (key == "--version") {
            flags.show_version = true;
        } else if (key == "--port") {
            flags.port = std::atoi(val.c_str());
        } else if (key == "--period-ms") {
            flags.period_ms = std::atoi(val.c_str());
        } else if (key == "--events-out") {
            flags.events_out = val;
        } else if (key == "--port-file") {
            flags.port_file = val;
        } else if (key == "--shards") {
            flags.shards = std::atoi(val.c_str());
        } else if (key == "--threads") {
            flags.threads = std::atoi(val.c_str());
        } else if (key == "--chaos-kill-rate") {
            flags.chaos_kill = std::atof(val.c_str());
        } else if (key == "--chaos-stall-rate") {
            flags.chaos_stall = std::atof(val.c_str());
        } else if (key == "--chaos-poison") {
            flags.chaos_poison = std::atof(val.c_str());
        } else if (key == "--fleet-out") {
            flags.fleet_out = val;
        } else if (key == "--events-max-bytes") {
            flags.events_max_bytes = std::atol(val.c_str());
        } else if (key == "--events-max-files") {
            flags.events_max_files = std::atoi(val.c_str());
            if (flags.events_max_files < 1)
                return bad("bad value for flag", key);
        } else if (key == "--healthz-degraded-503") {
            flags.healthz_degraded_503 = true;
        } else if (key == "--alert") {
            flags.alert_specs.push_back(val);
        } else if (key == "--no-drift-rule") {
            flags.no_drift_rule = true;
        } else if (key == "--drift-tolerance") {
            flags.drift_tolerance = std::atof(val.c_str());
        } else if (key == "--drift-golden") {
            flags.drift_golden = val;
        } else if (key == "--rolling-window") {
            flags.rolling_window = std::atol(val.c_str());
            if (flags.rolling_window <= 0)
                return bad("bad value for flag", key);
        } else if (key == "--inject-drift") {
            flags.inject_drift = val;
        } else if (key == "--ticks") {
            flags.alert_ticks = std::atol(val.c_str());
            if (flags.alert_ticks <= 0)
                return bad("bad value for flag", key);
        } else {
            return bad("unknown flag", key);
        }
    }
    return positional;
}

std::optional<gpu::DeviceKind>
parseDevice(const std::string &name)
{
    if (name == "titanxp")
        return gpu::DeviceKind::TitanXp;
    if (name == "titanx")
        return gpu::DeviceKind::GtxTitanX;
    if (name == "k40c")
        return gpu::DeviceKind::TeslaK40c;
    return std::nullopt;
}

/** CLI token of a device kind (inverse of parseDevice). */
const char *
deviceToken(gpu::DeviceKind kind)
{
    switch (kind) {
      case gpu::DeviceKind::TitanXp: return "titanxp";
      case gpu::DeviceKind::GtxTitanX: return "titanx";
      case gpu::DeviceKind::TeslaK40c: return "k40c";
    }
    return "unknown";
}

std::optional<workloads::Workload>
findApp(const std::string &name)
{
    for (const auto &w : workloads::fullValidationSet())
        if (w.name == name)
            return w;
    return std::nullopt;
}

int
usage()
{
    std::fprintf(stderr,
                 "usage:\n"
                 "  gpupm devices\n"
                 "  gpupm campaign <titanxp|titanx|k40c> <out>\n"
                 "  gpupm fit <campaign-file|device> <out-model>\n"
                 "  gpupm train <titanxp|titanx|k40c> <out-model>\n"
                 "      campaign/train flags: --faults=<rate> "
                 "--fault-seed=<n> --retries=<n> --resume=<file>\n"
                 "  gpupm metrics [--json]\n"
                 "  gpupm info <model-file>\n"
                 "  gpupm predict <model-file> <APP> [fcore fmem]\n"
                 "  gpupm sweep <model-file> <APP>\n"
                 "  gpupm export-cuda <out.cu>\n"
                 "  gpupm audit <model-file|device> [--json|--csv] "
                 "[--scoreboard-out=<file>]\n"
                 "  gpupm monitor <titanxp|titanx|k40c> "
                 "[--port=<n>] [--period-ms=<n>] "
                 "[--duration=<2s|500ms>] [--events-out=<file>]\n"
                 "      [--events-max-bytes=<n>] "
                 "[--events-max-files=<n>] "
                 "[--rolling-window=<n>] [--healthz-degraded-503]\n"
                 "  gpupm alerts <titanxp|titanx|k40c> [--json] "
                 "[--ticks=<n>] [--period-ms=<n>] "
                 "[--rolling-window=<n>]\n"
                 "  gpupm traces <titanxp|titanx|k40c> [--json] "
                 "[--ticks=<n>] [--period-ms=<n>] "
                 "[--inject-drift=FROM:TO:SCALE]\n"
                 "      (offline per-tick trace replay; deterministic "
                 "output, error traces always retained)\n"
                 "      alerting flags (monitor/alerts): "
                 "--alert=NAME:KIND:SERIES:OP:THRESH[:WIN[:FOR[:COOL]]] "
                 "--no-drift-rule\n"
                 "      --drift-tolerance=<pp> --drift-window=<dur> "
                 "--drift-for=<dur> --drift-cooldown=<dur> "
                 "--drift-golden=<file>\n"
                 "      --inject-drift=FROM:TO:SCALE   "
                 "(scale measured power for ticks in [FROM,TO))\n"
                 "  gpupm fleet <num-devices> [--shards=<k>] "
                 "[--threads=<n>] [--resume=<dir>] "
                 "[--deadline=<dur>]\n"
                 "      [--chaos-kill-rate=<p>] "
                 "[--chaos-stall-rate=<p>] [--chaos-poison=<frac>] "
                 "[--faults=<rate>]\n"
                 "      [--fleet-out=<file>] [--json] [--port=<n> "
                 "--duration=<dur>]   (serve /metrics and /fleet)\n"
                 "  gpupm version [--json]   (also: gpupm --version)\n"
                 "  gpupm validate [--json] <file>...\n"
                 "      file-trust flags (all loading commands): "
                 "--strict --allow-legacy\n"
                 "      observability flags (all commands): "
                 "--trace-out=<file> --metrics-out=<file> "
                 "--convergence-out=<file> --profile-out=<file> "
                 "--verbose --quiet\n");
    return 2;
}

model::TrainingData
runCampaign(gpu::DeviceKind kind)
{
    sim::PhysicalGpu board(kind);
    std::fprintf(stderr, "running campaign on %s...\n",
                 board.descriptor().name.c_str());
    return model::runTrainingCampaign(board, ubench::buildSuite());
}

/**
 * Run the fault-tolerant campaign path selected by any resilience
 * flag. Prints the CampaignReport; exits non-zero when a max_cells /
 * checkpoint split stopped the run before the grid was complete.
 */
std::optional<model::TrainingData>
runResilientCampaign(gpu::DeviceKind kind, const CliFlags &flags)
{
    sim::PhysicalGpu board(kind);
    model::SimulatedBackend backend(board);
    std::optional<model::FaultInjectingBackend> faulty;
    model::MeasurementBackend *target = &backend;
    if (flags.fault_rate > 0.0) {
        faulty.emplace(backend,
                       model::FaultSpec::uniform(flags.fault_rate,
                                                 flags.fault_seed));
        target = &*faulty;
    }

    model::ResilientCampaignOptions opts;
    if (flags.retries >= 0)
        opts.resilience.max_retries = flags.retries;
    opts.checkpoint_path = flags.checkpoint;

    std::fprintf(stderr, "running resilient campaign on %s...\n",
                 board.descriptor().name.c_str());
    auto result = model::runResilientTrainingCampaign(
            *target, ubench::buildSuite(), opts);
    std::fprintf(stderr, "%s", result.report.summary().c_str());
    if (flags.json)
        std::printf("%s\n", result.report.toJson().c_str());
    if (!result.complete) {
        std::fprintf(stderr,
                     "campaign interrupted; progress saved to %s\n",
                     flags.checkpoint.c_str());
        return std::nullopt;
    }
    return std::move(result.data);
}

/** Print a typed load failure and return the CLI exit code. */
int
reportLoadFailure(const model::IoStatus &status)
{
    std::fprintf(stderr, "error [%s]: %s\n",
                 std::string(model::ioErrcName(status.code)).c_str(),
                 status.message.c_str());
    return 1;
}

// -- validate --------------------------------------------------------

/** Outcome of checking one file: either a load failure or a report. */
struct FileCheck
{
    bool loaded = false;
    std::string kind;
    model::IoStatus load_error;
    model::ValidationReport report;
};

FileCheck
checkFile(const std::string &path, const model::LoadOptions &opts)
{
    FileCheck fc;
    const auto read = model::tryReadFileText(path);
    if (!read.ok()) {
        fc.load_error = read.error();
        return fc;
    }
    const std::string &text = read.value();
    const auto kind = model::detectFileKind(text);
    if (!kind.ok()) {
        fc.load_error = kind.error();
        return fc;
    }
    fc.kind = std::string(model::fileKindName(kind.value()));
    const auto check = [&fc](const auto &res, auto validate) {
        if (!res.ok()) {
            fc.load_error = res.error();
            return;
        }
        fc.loaded = true;
        fc.report = validate(res.value());
    };
    switch (kind.value()) {
      case model::FileKind::Model:
        check(model::tryParseModel(text, opts), model::validateModel);
        break;
      case model::FileKind::Campaign:
        check(model::tryParseTrainingData(text, opts),
              model::validateTrainingData);
        break;
      case model::FileKind::Checkpoint:
        check(model::tryParseCampaignCheckpoint(text, opts),
              model::validateCheckpoint);
        break;
      case model::FileKind::Scoreboard:
        check(model::tryParseScoreboard(text, opts),
              model::validateScoreboard);
        break;
      case model::FileKind::FleetShard:
      case model::FileKind::Fleet: {
        // Fleet artifacts are envelope-checked here (magic, kind,
        // size, CRC32); the payload can only be interpreted against
        // its fleet configuration, which the supervisor does on
        // resume via the embedded fingerprint.
        auto payload = model::tryUnwrapEnvelope(text, kind.value());
        if (!payload.ok())
            fc.load_error = payload.error();
        fc.loaded = payload.ok();
        break;
      }
    }
    return fc;
}

int
cmdValidate(const std::vector<std::string> &paths,
            const CliFlags &flags)
{
    // Deliberately no `validate` in the LoadOptions: the checks run
    // explicitly below so the full report is printed, not just the
    // first-error summary a strict load would produce.
    model::LoadOptions opts;
    opts.allow_legacy = !flags.strict || flags.allow_legacy;

    int rc = 0;
    if (flags.json)
        std::printf("[");
    for (std::size_t i = 0; i < paths.size(); ++i) {
        const FileCheck fc = checkFile(paths[i], opts);
        if (!fc.loaded || !fc.report.ok())
            rc = 1;
        if (flags.json) {
            std::string line = "{\"file\":" + json::quote(paths[i]);
            if (!fc.kind.empty())
                line += ",\"kind\":\"" + fc.kind + "\"";
            if (fc.loaded) {
                std::string rep = fc.report.toJson();
                while (!rep.empty() &&
                       (rep.back() == '\n' || rep.back() == '\r'))
                    rep.pop_back();
                line += ",\"loaded\":true,\"report\":" + rep;
            } else {
                line += ",\"loaded\":false,\"error\":{\"code\":\"" +
                        std::string(model::ioErrcName(fc.load_error.code)) +
                        "\",\"message\":" +
                        json::quote(fc.load_error.message) + "}";
            }
            line += "}";
            std::printf("%s%s", i ? "," : "", line.c_str());
        } else if (!fc.loaded) {
            std::printf("%s: load failed [%s]: %s\n",
                        paths[i].c_str(),
                        std::string(model::ioErrcName(
                                fc.load_error.code)).c_str(),
                        fc.load_error.message.c_str());
        } else {
            std::printf("%s: %s", paths[i].c_str(),
                        fc.report.summary().c_str());
        }
    }
    if (flags.json)
        std::printf("]\n");
    return rc;
}

int
cmdInfo(const std::string &path, const CliFlags &flags)
{
    auto res = model::tryLoadModel(path, loadOptionsOf(flags));
    if (!res.ok())
        return reportLoadFailure(res.error());
    const auto m = res.value();
    const auto &desc = gpu::DeviceDescriptor::get(m.deviceKind());
    std::printf("device: %s\n", desc.name.c_str());
    std::printf("reference: (%d, %d) MHz\n", m.reference().core_mhz,
                m.reference().mem_mhz);
    const auto &p = m.params();
    std::printf("beta: %.2f %.2f %.2f %.2f (W | W/GHz)\n", p.beta0,
                p.beta1, p.beta2, p.beta3);
    std::printf("omega (W/GHz):");
    for (std::size_t i = 0; i < gpu::kNumComponents; ++i)
        std::printf(" %s=%.1f",
                    std::string(gpu::componentName(
                            static_cast<gpu::Component>(i))).c_str(),
                    p.omega[i]);
    std::printf("\nfitted configurations: %zu\n",
                m.voltageTable().size());
    std::printf("core voltage at fmem=%d: %.3f (min clock) .. %.3f "
                "(max clock)\n",
                m.reference().mem_mhz,
                m.voltages({desc.minCoreMhz(), m.reference().mem_mhz})
                        .core,
                m.voltages({desc.maxCoreMhz(), m.reference().mem_mhz})
                        .core);
    return 0;
}

gpu::ComponentArray
profileApp(const model::DvfsPowerModel &m,
           const workloads::Workload &app)
{
    sim::PhysicalGpu board(m.deviceKind());
    cupti::Profiler profiler(board, 11);
    const auto rm = profiler.profile(app.demand, m.reference());
    return model::utilizationsFromMetrics(rm, board.descriptor(),
                                          m.reference());
}

int
cmdPredict(const std::string &path, const std::string &app_name,
           std::optional<gpu::FreqConfig> cfg, const CliFlags &flags)
{
    auto res = model::tryLoadModel(path, loadOptionsOf(flags));
    if (!res.ok())
        return reportLoadFailure(res.error());
    const auto m = res.value();
    const auto app = findApp(app_name);
    if (!app) {
        std::fprintf(stderr, "unknown application '%s'\n",
                     app_name.c_str());
        return 2;
    }
    const auto util = profileApp(m, *app);
    const gpu::FreqConfig target = cfg.value_or(m.reference());
    const auto p = m.hasVoltages(target)
                           ? m.predict(util, target)
                           : m.predictInterpolated(util, target);
    std::printf("%s @ (%d, %d) MHz: %.1f W total (constant %.1f W)\n",
                app->name.c_str(), target.core_mhz, target.mem_mhz,
                p.total_w, p.constant_w);
    for (std::size_t i = 0; i < gpu::kNumComponents; ++i)
        std::printf("  %-7s %.1f W\n",
                    std::string(gpu::componentName(
                            static_cast<gpu::Component>(i))).c_str(),
                    p.component_w[i]);
    return 0;
}

int
cmdSweep(const std::string &path, const std::string &app_name,
         const CliFlags &flags)
{
    auto res = model::tryLoadModel(path, loadOptionsOf(flags));
    if (!res.ok())
        return reportLoadFailure(res.error());
    const auto m = res.value();
    const auto app = findApp(app_name);
    if (!app) {
        std::fprintf(stderr, "unknown application '%s'\n",
                     app_name.c_str());
        return 2;
    }
    const auto util = profileApp(m, *app);
    model::Predictor pred(m);
    TextTable t({"fcore", "fmem", "predicted W"});
    t.setTitle(app->name + " across the fitted V-F grid");
    for (const auto &pt : pred.sweep(util))
        t.addRow({std::to_string(pt.cfg.core_mhz),
                  std::to_string(pt.cfg.mem_mhz),
                  TextTable::num(pt.prediction.total_w, 1)});
    t.print(std::cout);
    return 0;
}

/**
 * Fit a model from campaign data through the typed estimator path and
 * persist it: numerical failures print their error code and iteration
 * trace instead of aborting. With --convergence-out, a per-iteration
 * telemetry CSV is written whether or not the fit succeeded.
 */
int
fitAndSave(const model::TrainingData &data, const std::string &out,
           const CliFlags &flags)
{
    obs::ConvergenceRecorder recorder;
    model::EstimatorOptions eopts;
    if (!flags.convergence_out.empty())
        eopts.observer = &recorder;
    auto res = model::ModelEstimator(eopts).tryEstimate(data);
    if (!flags.convergence_out.empty()) {
        if (recorder.writeCsv(flags.convergence_out))
            std::fprintf(stderr, "convergence CSV written to %s\n",
                         flags.convergence_out.c_str());
        else
            std::fprintf(stderr, "cannot write %s\n",
                         flags.convergence_out.c_str());
    }
    if (!res.ok()) {
        const auto &fe = res.error();
        std::fprintf(stderr, "fit failed [%s]: %s\n",
                     std::string(
                             model::fitErrcName(fe.code)).c_str(),
                     fe.message.c_str());
        for (std::size_t i = 0; i < fe.sse_history.size(); ++i)
            std::fprintf(stderr, "  iteration %zu: SSE %.6g\n",
                         i + 1, fe.sse_history[i]);
        return 1;
    }
    const auto &fit = res.value();
    std::fprintf(stderr,
                 "fit: %d iterations, RMSE %.2f W (design rank %zu, "
                 "condition %.1e)\n",
                 fit.iterations, fit.rmse_w, fit.design_rank,
                 fit.condition_number);
    model::saveModel(fit.model, out);
    std::fprintf(stderr, "model written to %s\n", out.c_str());
    return 0;
}

/** True when `path` names a readable file. */
bool
fileExists(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    return static_cast<bool>(in);
}

/**
 * `gpupm audit <model-file|device>`: replay the full validation set
 * over the device's V-F grid and score the model's prediction error —
 * the paper's Table III / Figs. 7-8 evaluation as a repeatable
 * operational check. With a device name, the bundled campaign is run
 * and the model fitted in-process (the exact bench/fig7_validation
 * procedure, 5 power repetitions); with a model file, the stored model
 * is audited on its own device. The campaign additionally trains the
 * Sec. VI baselines so the scoreboard carries their deltas.
 */
int
cmdAudit(const std::string &target, const CliFlags &flags)
{
    // Same repetition count as the Fig. 7 reproduction, so the audit
    // MAE is comparable against bench_csv/fig7_summary.csv.
    model::CampaignOptions copts;
    copts.power_repetitions = 5;

    auto kind = parseDevice(target);
    std::optional<model::DvfsPowerModel> m;
    if (!kind || fileExists(target)) {
        auto res = model::tryLoadModel(target, loadOptionsOf(flags));
        if (!res.ok())
            return reportLoadFailure(res.error());
        m = res.value();
        kind = m->deviceKind();
    }
    common::setProvenanceDevice(deviceToken(*kind));

    sim::PhysicalGpu board(*kind);
    const auto &desc = board.descriptor();
    const auto configs = desc.allConfigs();
    const auto ref = desc.referenceConfig();
    std::fprintf(stderr,
                 "auditing %s: %zu validation apps x %zu V-F "
                 "configs...\n",
                 desc.name.c_str(),
                 workloads::fullValidationSet().size(),
                 configs.size());

    // The training campaign fits the proposed model when none was
    // given, and always trains the Sec. VI baselines.
    model::TrainingData data;
    {
        GPUPM_TRACE_SPAN("audit", "audit.campaign");
        data = model::runTrainingCampaign(board, ubench::buildSuite(),
                                          copts);
    }
    if (!m) {
        GPUPM_TRACE_SPAN("audit", "audit.fit");
        auto fit = model::ModelEstimator().tryEstimate(data);
        if (!fit.ok()) {
            std::fprintf(stderr, "fit failed [%s]: %s\n",
                         std::string(model::fitErrcName(
                                 fit.error().code)).c_str(),
                         fit.error().message.c_str());
            return 1;
        }
        m = fit.value().model;
    }
    const auto abe = baselines::AbeLinearModel::train(data);
    const auto cubic = baselines::CubicScalingModel::train(data);
    const auto refscale = baselines::RefScalingModel::train(data);

    model::Predictor predictor(*m);
    std::vector<obs::ResidualSample> samples;
    samples.reserve(workloads::fullValidationSet().size() *
                    configs.size());
    for (const auto &w : workloads::fullValidationSet()) {
        GPUPM_TRACE_SPAN("audit", "audit.measure." + w.name);
        const auto meas =
                model::measureApp(board, w.demand, configs, copts);
        double ref_power_w = 0.0;
        for (std::size_t i = 0; i < meas.configs.size(); ++i)
            if (meas.configs[i] == ref)
                ref_power_w = meas.power_w[i];
        for (std::size_t i = 0; i < meas.configs.size(); ++i) {
            const auto &cfg = meas.configs[i];
            const auto p = predictor.at(meas.util, cfg);
            obs::ResidualSample s;
            s.app = w.name;
            s.cfg = cfg;
            s.measured_w = meas.power_w[i];
            s.predicted_w = p.total_w;
            s.constant_w = p.constant_w;
            s.component_w = p.component_w;
            s.baseline_w = {
                    {"abe", abe.predict(meas.util, cfg)},
                    {"cubic", cubic.predict(meas.util, cfg)},
                    {"refscale", refscale.predict(ref_power_w, cfg)},
            };
            samples.push_back(std::move(s));
        }
    }

    const auto sb = obs::Scoreboard::fromSamples(
            static_cast<int>(*kind), desc.name, ref,
            std::move(samples));
    sb.publishMetrics();
    std::fprintf(stderr,
                 "audit: %ld samples, overall MAE %.2f%%, RMSE "
                 "%.2f W, max error %.2f%%\n",
                 sb.overall.samples, sb.overall.mae_pct,
                 sb.overall.rmse_w, sb.overall.max_err_pct);

    if (!flags.scoreboard_out.empty()) {
        auto saved = model::trySaveScoreboard(sb,
                                              flags.scoreboard_out);
        if (!saved.ok())
            return reportLoadFailure(saved.error());
        std::fprintf(stderr, "scoreboard written to %s\n",
                     flags.scoreboard_out.c_str());
    }
    if (flags.json)
        std::printf("%s", sb.toJson(false).c_str());
    else if (flags.csv)
        std::printf("%s", sb.samplesCsv().c_str());
    else
        std::printf("%s", sb.summaryText().c_str());
    return 0;
}

/** `gpupm metrics`: dump the full pre-registered metric catalog. */
int
cmdMetrics(const CliFlags &flags)
{
    obs::registerStandardMetrics();
    obs::touchProcessMetrics();
    auto &reg = obs::Registry::global();
    std::printf("%s", flags.json ? reg.renderJson().c_str()
                                 : reg.renderPrometheus().c_str());
    return 0;
}

/** `gpupm version` / `gpupm --version`: the build-info block. */
int
cmdVersion(const CliFlags &flags)
{
    const auto p = common::collectProvenance();
    if (flags.json) {
        std::printf("%s\n", common::toJson(p).c_str());
        return 0;
    }
    std::printf("gpupm %s (%s)\n", p.version.c_str(),
                p.build_type.c_str());
    std::printf("git sha:  %s\n", p.git_sha.c_str());
    std::printf("compiler: %s\n", p.compiler.c_str());
    if (!p.device.empty())
        std::printf("device:   %s\n", p.device.c_str());
    return 0;
}

// -- monitor ---------------------------------------------------------

/** Set by SIGINT/SIGTERM; the monitor main loop polls it. */
volatile std::sig_atomic_t g_monitor_stop = 0;

/** Set by SIGUSR1; the main loop dumps a live diagnostic and clears. */
volatile std::sig_atomic_t g_monitor_dump = 0;

extern "C" void
monitorSignalHandler(int sig)
{
    (sig == SIGUSR1 ? g_monitor_dump : g_monitor_stop) = 1;
}

/** JSON number or -1 when not finite (age before the first sample). */
std::string
jsonFiniteOr(double v, const char *fallback)
{
    if (!std::isfinite(v))
        return fallback;
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.3f", v);
    return buf;
}

/**
 * Parse one `--alert` rule spec. Grammar (DESIGN.md §14):
 *
 *   NAME:KIND:SERIES:OP:THRESHOLD[:WINDOW[:FOR[:COOLDOWN]]]
 *
 * KIND is `threshold` or `rate` (rate compares the per-second slope
 * over the window), OP is `gt` or `lt`, durations use the usual
 * `30s`/`500ms`/`1m` forms. Series names carry no colons, so a plain
 * split is unambiguous.
 */
bool
parseAlertSpec(const std::string &spec, obs::AlertRule &rule,
               std::string &err)
{
    std::vector<std::string> parts;
    std::string cur;
    std::istringstream is(spec);
    while (std::getline(is, cur, ':'))
        parts.push_back(cur);
    if (parts.size() < 5 || parts.size() > 8) {
        err = "expected NAME:KIND:SERIES:OP:THRESHOLD"
              "[:WINDOW[:FOR[:COOLDOWN]]], got '" +
              spec + "'";
        return false;
    }
    rule.name = parts[0];
    if (rule.name.empty()) {
        err = "rule name must not be empty";
        return false;
    }
    if (parts[1] == "threshold") {
        rule.kind = obs::AlertKind::Threshold;
    } else if (parts[1] == "rate") {
        rule.kind = obs::AlertKind::Rate;
    } else {
        err = "unknown rule kind '" + parts[1] +
              "' (expected threshold or rate)";
        return false;
    }
    rule.series = parts[2];
    if (parts[3] == "gt") {
        rule.op = obs::AlertOp::Gt;
    } else if (parts[3] == "lt") {
        rule.op = obs::AlertOp::Lt;
    } else {
        err = "unknown op '" + parts[3] + "' (expected gt or lt)";
        return false;
    }
    if (!numio::parseDouble(parts[4], rule.threshold)) {
        err = "bad threshold '" + parts[4] + "'";
        return false;
    }
    if (parts.size() > 5 && !parseDurationUs(parts[5], rule.window_us)) {
        err = "bad window duration '" + parts[5] + "'";
        return false;
    }
    if (parts.size() > 6 && !parseDurationUs(parts[6], rule.for_us)) {
        err = "bad for duration '" + parts[6] + "'";
        return false;
    }
    if (parts.size() > 7 &&
        !parseDurationUs(parts[7], rule.cooldown_us)) {
        err = "bad cooldown duration '" + parts[7] + "'";
        return false;
    }
    return true;
}

/**
 * Per-device MAE envelope from a bench/golden fig7 telemetry file
 * (`stats.mae_pct_<device>`); nullopt (with a warning) when the file
 * or the key is missing, falling back to the hard-coded envelope.
 */
std::optional<double>
driftEnvelopeFromGolden(const std::string &path,
                        const std::string &device)
{
    std::string text;
    if (!json::readFile(path, text))
        return std::nullopt;
    json::Value root;
    json::Error err;
    if (!json::parse(text, root, err)) {
        std::fprintf(stderr, "drift golden '%s': %s\n", path.c_str(),
                     err.message().c_str());
        return std::nullopt;
    }
    const auto *stats = root.find("stats");
    if (!stats) {
        std::fprintf(stderr, "drift golden '%s': no stats block\n",
                     path.c_str());
        return std::nullopt;
    }
    const auto *mae =
            stats->find("mae_pct_" + device, json::Value::Kind::Number);
    if (!mae) {
        std::fprintf(stderr,
                     "drift golden '%s': no mae_pct_%s stat\n",
                     path.c_str(), device.c_str());
        return std::nullopt;
    }
    return mae->number;
}

/**
 * Assemble the alert rule set for a monitor/alerts run: the built-in
 * drift rule (unless --no-drift-rule) plus every --alert spec.
 * Returns false after printing the offending spec.
 */
bool
buildAlertRules(const CliFlags &flags, const std::string &device,
                std::vector<obs::AlertRule> &rules)
{
    if (!flags.no_drift_rule) {
        std::optional<double> envelope;
        if (!flags.drift_golden.empty())
            envelope = driftEnvelopeFromGolden(flags.drift_golden,
                                               device);
        rules.push_back(obs::makeDriftRule(
                device, flags.drift_tolerance,
                static_cast<std::int64_t>(flags.drift_window_s * 1e6),
                static_cast<std::int64_t>(flags.drift_for_s * 1e6),
                static_cast<std::int64_t>(flags.drift_cooldown_s *
                                          1e6),
                envelope));
    }
    for (const std::string &spec : flags.alert_specs) {
        obs::AlertRule rule;
        std::string err;
        if (!parseAlertSpec(spec, rule, err)) {
            std::fprintf(stderr, "bad --alert spec: %s\n",
                         err.c_str());
            return false;
        }
        rules.push_back(std::move(rule));
    }
    return true;
}

/** Parsed --inject-drift=FROM:TO:SCALE (ticks, measured-W factor). */
struct DriftInjection
{
    long from_tick = 0;
    long to_tick = 0;
    double scale = 1.0;
};

std::optional<DriftInjection>
parseInjectDrift(const std::string &spec)
{
    DriftInjection inj;
    char extra = 0;
    if (std::sscanf(spec.c_str(), "%ld:%ld:%lf%c", &inj.from_tick,
                    &inj.to_tick, &inj.scale, &extra) != 3 ||
        inj.from_tick < 0 || inj.to_tick < inj.from_tick ||
        !(inj.scale > 0.0 && std::isfinite(inj.scale)))
        return std::nullopt;
    return inj;
}

/** Stop the global profiler, count the run in its metrics, collect. */
obs::CpuProfile
finishProfile()
{
    auto &profiler = obs::Profiler::global();
    profiler.stop();
    auto prof = profiler.collect();
    obs::profilerRunsTotal().inc();
    obs::profilerSamplesTotal().inc(static_cast<double>(prof.samples));
    obs::profilerSamplesDroppedTotal().inc(
            static_cast<double>(prof.dropped));
    obs::profilerLastAttributedPct().set(prof.attributedPct());
    return prof;
}

/** An application/json response. */
obs::HttpResponse
jsonResponse(std::string body, int status = 200)
{
    obs::HttpResponse resp;
    resp.status = status;
    resp.content_type = "application/json";
    resp.body = std::move(body);
    return resp;
}

/** `/metrics` body: process gauges refreshed, then the registry. */
obs::HttpResponse
metricsResponse()
{
    obs::touchProcessMetrics();
    obs::HttpResponse resp;
    resp.content_type = "text/plain; version=0.0.4; charset=utf-8";
    resp.body = obs::Registry::global().renderPrometheus();
    return resp;
}

/** `key=value` pairs of a URL query string; pairs without '=' skip. */
std::vector<std::pair<std::string, std::string>>
queryParams(const std::string &query)
{
    std::vector<std::pair<std::string, std::string>> params;
    std::istringstream qs(query);
    std::string kv;
    while (std::getline(qs, kv, '&')) {
        const auto eq = kv.find('=');
        if (eq != std::string::npos)
            params.emplace_back(kv.substr(0, eq), kv.substr(eq + 1));
    }
    return params;
}

/**
 * `/api/query` handler over a time-series store. Query parameters:
 * `series` (required), `range`/`step` (durations, default 60s / 1s),
 * or explicit `start_us`/`end_us` for reproducible test queries; the
 * implicit end is the store's newest timestamp. Non-finite, negative
 * or out-of-int64 times are a 400, never a query.
 */
obs::HttpServer::Handler
makeQueryHandler(const obs::Tsdb &tsdb)
{
    return [&tsdb](const obs::HttpRequest &req) {
        std::string series;
        std::int64_t range_us = 60'000'000;
        std::int64_t step_us = 1'000'000;
        long start_us = -1;
        long end_us = -1;
        bool bad = false;
        for (const auto &[key, val] : queryParams(req.query)) {
            if (key == "series") {
                series = val;
            } else if (key == "range") {
                bad = bad || !parseDurationUs(val, range_us);
            } else if (key == "step") {
                bad = bad || !parseDurationUs(val, step_us) ||
                      step_us <= 0;
            } else if (key == "start_us") {
                bad = bad || !numio::parseLong(val, start_us) ||
                      start_us < 0;
            } else if (key == "end_us") {
                bad = bad || !numio::parseLong(val, end_us) ||
                      end_us < 0;
            }
        }
        if (series.empty() || bad)
            return jsonResponse("{\"ok\":false,\"error\":\"usage: "
                                "/api/query?series=<name>&range=60s&"
                                "step=1s (or start_us/end_us)\"}\n",
                                400);
        obs::TsQuery q;
        q.series = series;
        q.end_us = end_us >= 0 ? end_us : tsdb.latestTimestamp();
        if (q.end_us == std::numeric_limits<std::int64_t>::min())
            return jsonResponse(
                    "{\"ok\":false,\"error\":\"store is empty\"}\n",
                    404);
        q.start_us = start_us >= 0 ? start_us : q.end_us - range_us;
        q.step_us = step_us;
        const obs::TsQueryResult res = tsdb.query(q);
        return jsonResponse(res.toJson(series) + "\n",
                            res.ok ? 200 : 404);
    };
}

/**
 * `/api/traces` handler over a tail-sampled trace store. Query
 * parameters (all optional): `category` (root span category),
 * `min_ms` (minimum root duration), `error` (0/1 — error traces
 * only), `trace_id` (16-hex-digit id), `limit` (max traces, default
 * 50). Malformed values are a 400, never a silent empty result.
 */
obs::HttpServer::Handler
makeTracesHandler(const obs::TraceStore &store)
{
    return [&store](const obs::HttpRequest &req) {
        obs::TraceQuery q;
        bool bad = false;
        for (const auto &[key, val] : queryParams(req.query)) {
            if (key == "category") {
                q.category = val;
            } else if (key == "min_ms") {
                double ms = -1.0;
                if (numio::parseDouble(val, ms) && ms >= 0.0 &&
                    ms * 1e-3 <= kMaxDurationS)
                    q.min_dur_us = static_cast<std::int64_t>(ms * 1e3);
                else
                    bad = true;
            } else if (key == "error") {
                bad = bad || (val != "0" && val != "1");
                q.error_only = val == "1";
            } else if (key == "trace_id") {
                char *end = nullptr;
                q.trace_id =
                        std::strtoull(val.c_str(), &end, 16);
                bad = bad || val.empty() || *end != '\0' ||
                      q.trace_id == 0;
            } else if (key == "limit") {
                long n = 0;
                bad = bad || !numio::parseLong(val, n) || n <= 0;
                q.limit = static_cast<std::size_t>(n > 0 ? n : 1);
            } else {
                bad = true;
            }
        }
        if (bad)
            return jsonResponse("{\"ok\":false,\"error\":\"usage: "
                                "/api/traces?category=<cat>&min_ms=<ms>&"
                                "error=1&trace_id=<hex>&limit=<n>\"}\n",
                                400);
        return jsonResponse(store.renderJson(q));
    };
}

/**
 * The route set `monitor` and `fleet --duration` share: /api/query
 * over `tsdb` and /api/traces over `store` join the caller's routes,
 * then the server starts on --port and the bound port goes to
 * --port-file, the readiness signal tests and scripts poll for.
 * False after printing why the server did not start.
 */
bool
serveQueryRoutes(obs::HttpServer &server, const char *cmd,
                 const obs::Tsdb &tsdb, const obs::TraceStore &store,
                 const CliFlags &flags)
{
    server.route("/api/query", makeQueryHandler(tsdb));
    server.route("/api/traces", makeTracesHandler(store));
    std::string err;
    if (!server.start(flags.port, &err)) {
        std::fprintf(stderr, "%s: cannot start HTTP server: %s\n", cmd,
                     err.c_str());
        return false;
    }
    if (!flags.port_file.empty()) {
        std::ofstream pf(flags.port_file, std::ios::trunc);
        pf << server.port() << "\n";
        if (!pf)
            std::fprintf(stderr, "%s: cannot write %s\n", cmd,
                         flags.port_file.c_str());
    }
    return true;
}

/** Print the newest `show` flight-recorder records, oldest first. */
void
printRecorderTail(const obs::FlightRecorder &recorder, std::size_t show)
{
    const auto tail = recorder.snapshot();
    show = std::min(show, tail.size());
    std::fprintf(stderr,
                 "monitor: flight recorder tail (%zu of %lld "
                 "recorded):\n",
                 show, static_cast<long long>(recorder.recorded()));
    for (std::size_t i = tail.size() - show; i < tail.size(); ++i)
        std::fprintf(stderr, "  #%lld +%.3fs [%s] %s: %s\n",
                     static_cast<long long>(tail[i].seq),
                     static_cast<double>(tail[i].ts_us) * 1e-6,
                     tail[i].kind.c_str(), tail[i].name.c_str(),
                     tail[i].detail.c_str());
}

/**
 * One monitor session: the paper's run-time use case (Sec. III-E) —
 * train once, profile every scheduled app once at the reference
 * configuration, then measure and predict on every tick. `monitor`
 * drives it on the sampler's wall-clock thread behind HTTP; `alerts`
 * and `traces` drive it on a virtual clock (replayTicks). Built only
 * by openMonitorSession; the probe and sampler point into it, so it
 * lives on the heap and never moves.
 */
struct MonitorSession
{
    MonitorSession(gpu::DeviceKind kind, std::vector<obs::AlertRule> rules)
        : board(kind), dev(board), engine(tsdb, std::move(rules), &recorder)
    {
    }
    MonitorSession(const MonitorSession &) = delete;
    MonitorSession &operator=(const MonitorSession &) = delete;

    /** Measure `app` at `cfg` and predict it from the trained model. */
    obs::MonitorSample probe(const std::string &app,
                             const gpu::FreqConfig &cfg)
    {
        obs::MonitorSample s;
        s.app = app;
        s.cfg = cfg;
        dev.setApplicationClocks(cfg.mem_mhz, cfg.core_mhz);
        s.measured_w =
                dev.measureKernelPower(demands.at(app), 2, 0.05).power_w;
        // Seeded accuracy fault: scale the measurement inside the
        // tick window so the residuals — and the rolling MAE the
        // drift rule watches — degrade and recover deterministically.
        const long tick = probe_ticks++;
        if (injection && tick >= injection->from_tick &&
            tick < injection->to_tick)
            s.measured_w *= injection->scale;
        s.predicted_w = predictor->at(utils.at(app), cfg).total_w;
        return s;
    }

    sim::PhysicalGpu board;
    std::optional<DriftInjection> injection;
    std::optional<model::DvfsPowerModel> model;
    std::optional<model::Predictor> predictor; ///< refers to *model
    std::map<std::string, gpu::ComponentArray> utils;
    std::map<std::string, sim::KernelDemand> demands;
    std::size_t schedule_points = 0;
    long probe_ticks = 0; ///< probes so far; only the probe touches it
    obs::FlightRecorder recorder{256};
    nvml::Device dev;
    obs::Tsdb tsdb;
    obs::AlertEngine engine;
    std::optional<obs::Sampler> sampler;
};

/**
 * Build the session `monitor`, `alerts` and `traces` share. Every
 * flag it reads (device, --period-ms, --inject-drift, --alert and the
 * drift-rule knobs) is checked before the training campaign, so a bad
 * flag costs no training time. Then it trains the model in-process
 * (the `gpupm fit <device>` procedure at 3 power repetitions) and
 * profiles the schedule: every validation app at the slowest,
 * reference and fastest V-F configuration, round-robinned, its
 * utilizations profiled once at the reference configuration and never
 * again. Returns nullptr after printing why, with `rc` the exit code
 * (2 for a bad flag, 1 for a failed fit).
 */
std::unique_ptr<MonitorSession>
openMonitorSession(const char *cmd, const std::string &device,
                   const CliFlags &flags, int &rc)
{
    rc = 2;
    const auto kind = parseDevice(device);
    if (!kind) {
        std::fprintf(stderr,
                     "unknown device '%s' (expected titanxp, titanx "
                     "or k40c)\n",
                     device.c_str());
        return nullptr;
    }
    if (flags.period_ms <= 0) {
        std::fprintf(stderr, "--period-ms must be positive\n");
        return nullptr;
    }
    std::optional<DriftInjection> injection;
    if (!flags.inject_drift.empty()) {
        injection = parseInjectDrift(flags.inject_drift);
        if (!injection) {
            std::fprintf(stderr,
                         "bad --inject-drift spec '%s' (expected "
                         "FROM:TO:SCALE)\n",
                         flags.inject_drift.c_str());
            return nullptr;
        }
    }
    std::vector<obs::AlertRule> rules;
    if (!buildAlertRules(flags, deviceToken(*kind), rules))
        return nullptr;
    common::setProvenanceDevice(deviceToken(*kind));
    obs::registerStandardMetrics();

    auto session = std::make_unique<MonitorSession>(*kind,
                                                    std::move(rules));
    MonitorSession &s = *session;
    s.injection = injection;
    const auto &desc = s.board.descriptor();
    std::fprintf(stderr, "%s: training %s model in-process...\n", cmd,
                 desc.name.c_str());
    model::CampaignOptions copts;
    copts.power_repetitions = 3;
    const auto data = model::runTrainingCampaign(
            s.board, ubench::buildSuite(), copts);
    auto fit = model::ModelEstimator().tryEstimate(data);
    if (!fit.ok()) {
        std::fprintf(stderr, "fit failed [%s]: %s\n",
                     std::string(model::fitErrcName(
                             fit.error().code)).c_str(),
                     fit.error().message.c_str());
        rc = 1;
        return nullptr;
    }
    s.model = fit.value().model;
    s.predictor.emplace(*s.model);

    const auto configs = desc.allConfigs();
    const auto ref = desc.referenceConfig();
    const std::vector<gpu::FreqConfig> points{configs.front(), ref,
                                              configs.back()};
    std::vector<obs::SchedulePoint> schedule;
    {
        cupti::Profiler profiler(s.board, 11);
        for (const auto &w : workloads::fullValidationSet()) {
            const auto rm = profiler.profile(w.demand, ref);
            s.utils[w.name] =
                    model::utilizationsFromMetrics(rm, desc, ref);
            s.demands[w.name] = w.demand;
            for (const auto &cfg : points)
                schedule.push_back({w.name, cfg});
        }
    }
    s.schedule_points = schedule.size();

    obs::SamplerOptions sopts;
    sopts.period_ms = flags.period_ms;
    sopts.duration_s = flags.duration_s;
    sopts.events_out = flags.events_out;
    sopts.events_max_bytes = flags.events_max_bytes;
    sopts.events_max_files = flags.events_max_files;
    sopts.rolling_window =
            static_cast<std::size_t>(flags.rolling_window);
    sopts.device = static_cast<int>(*kind);
    sopts.device_name = desc.name;
    sopts.reference = ref;
    s.sampler.emplace(std::bind_front(&MonitorSession::probe, &s),
                      std::move(schedule), sopts, &s.recorder, &s.tsdb,
                      &s.engine);
    rc = 0;
    return session;
}

/**
 * The virtual-clock driver `alerts` and `traces` share: --ticks
 * synchronous ticks, tick i at t = (i + 1) * period, on the calling
 * thread with no sleeps. Virtual time plus the seeded simulated device
 * make a replay a pure function of its flags. False after printing
 * why the event log did not open.
 */
bool
replayTicks(MonitorSession &s, const char *cmd, const CliFlags &flags)
{
    std::string err;
    if (!s.sampler->openEvents(&err)) {
        std::fprintf(stderr, "%s: %s\n", cmd, err.c_str());
        return false;
    }
    const std::int64_t period_us =
            static_cast<std::int64_t>(flags.period_ms) * 1000;
    for (long tick = 0; tick < flags.alert_ticks; ++tick)
        s.sampler->tickSynchronously((tick + 1) * period_us);
    return true;
}

/**
 * `gpupm monitor <device>`: the long-running telemetry daemon. Opens
 * the monitor session, then runs its sampler on a wall-clock thread —
 * measure the simulated NVML device, predict with the model, feed the
 * residual into the live aggregators — while an embedded HTTP server
 * exposes /metrics, /healthz, /scoreboard, /tracez and the query
 * routes on loopback. SIGINT or SIGTERM (or --duration elapsing)
 * shuts everything down cleanly and dumps the flight recorder's
 * recent past to stderr.
 */
int
cmdMonitor(const std::string &device, const CliFlags &flags)
{
    // Request tracing is always on for the daemon, training included:
    // every tick becomes one assembled trace in the tail-sampled store
    // behind /api/traces. Declared before session and server so
    // neither the sampler's spans nor the HTTP handlers outlive the
    // store.
    TraceStoreAttachment tracing(flags);
    int rc = 0;
    const auto session = openMonitorSession("monitor", device, flags, rc);
    if (!session)
        return rc;
    obs::Sampler &sampler = *session->sampler;
    obs::AlertEngine &engine = session->engine;
    obs::FlightRecorder &recorder = session->recorder;

    const auto started = std::chrono::steady_clock::now();
    obs::HttpServer server;
    server.route("/", [](const obs::HttpRequest &) {
        obs::HttpResponse resp;
        resp.body = "gpupm monitor endpoints:\n"
                    "  /metrics     Prometheus text exposition\n"
                    "  /healthz     JSON liveness + provenance\n"
                    "  /scoreboard  live accuracy scoreboard JSON\n"
                    "  /tracez      flight recorder (recent spans)\n"
                    "  /profilez    on-demand CPU profile "
                    "(?seconds=N, collapsed-stack text)\n"
                    "  /api/query   tsdb range query (?series=...&"
                    "range=60s&step=1s)\n"
                    "  /api/traces  tail-sampled request traces "
                    "(?category=...&min_ms=...&error=1&trace_id=...)\n"
                    "  /alertz      alert rules + firing state "
                    "(?format=text for human output)\n";
        return resp;
    });
    server.route("/metrics", [&](const obs::HttpRequest &) {
        const double age = sampler.lastSampleAgeSeconds();
        if (std::isfinite(age))
            obs::monitorSampleAgeSeconds().set(age);
        return metricsResponse();
    });
    server.route("/healthz", [&](const obs::HttpRequest &) {
        const bool stale = sampler.stale();
        const auto firing = engine.firingRuleNames();
        // Staleness outranks degradation: a wedged sampler can no
        // longer evaluate its own rules, so report the harder fault.
        const char *status = stale ? "stale"
                             : firing.empty() ? "ok"
                                              : "degraded";
        const double uptime =
                std::chrono::duration<double>(
                        std::chrono::steady_clock::now() - started)
                        .count();
        std::ostringstream os;
        os << "{\"status\":\"" << status
           << "\",\"uptime_seconds\":" << jsonFiniteOr(uptime, "0")
           << ",\"ticks\":" << sampler.ticks()
           << ",\"last_sample_age_seconds\":"
           << jsonFiniteOr(sampler.lastSampleAgeSeconds(), "-1")
           << ",\"firing\":[";
        for (std::size_t i = 0; i < firing.size(); ++i)
            os << (i ? "," : "") << json::quote(firing[i]);
        os << "],\"provenance\":"
           << common::toJson(common::collectProvenance()) << "}\n";
        const bool unhealthy =
                stale || (!firing.empty() && flags.healthz_degraded_503);
        return jsonResponse(os.str(), unhealthy ? 503 : 200);
    });
    server.route("/alertz", [&](const obs::HttpRequest &req) {
        const std::int64_t now = engine.lastEvaluatedUs();
        obs::HttpResponse resp;
        if (req.query.find("format=text") != std::string::npos) {
            resp.content_type = "text/plain; charset=utf-8";
            resp.body = engine.renderText(now);
        } else {
            resp.content_type = "application/json";
            resp.body = engine.renderJson(now) + "\n";
        }
        return resp;
    });
    server.route("/scoreboard", [&](const obs::HttpRequest &) {
        return jsonResponse(sampler.scoreboardSnapshot().toJson(false));
    });
    server.route("/tracez", [&](const obs::HttpRequest &) {
        return jsonResponse(recorder.renderJson());
    });
    server.route("/profilez", [&](const obs::HttpRequest &req) {
        // On-demand profile: sample the live daemon for N seconds
        // (?seconds=N, clamped to [0.1, 30], default 1) and return
        // the collapsed-stack text. Wall-clock sampling by default —
        // a healthy monitor is mostly idle, and CPU-time sampling of
        // an idle process truthfully returns nothing; ?mode=cpu
        // selects it anyway for busy daemons. The sampling sleep runs
        // on the HTTP worker, so other endpoints queue for the
        // duration — acceptable for a diagnostic; ?json=1 returns the
        // summary instead of the folded stacks.
        double seconds = 1.0;
        bool as_json = false;
        obs::ProfilerOptions popts;
        popts.wall = true;
        popts.hz = 499;
        std::istringstream qs(req.query);
        std::string kv;
        while (std::getline(qs, kv, '&')) {
            if (kv.rfind("seconds=", 0) == 0)
                seconds = std::atof(kv.c_str() + 8);
            else if (kv == "json" || kv == "json=1")
                as_json = true;
            else if (kv == "mode=cpu") {
                popts.wall = false;
                popts.hz = 997;
            }
        }
        seconds = std::min(30.0, std::max(0.1, seconds));
        obs::HttpResponse resp;
        auto &profiler = obs::Profiler::global();
        std::string err;
        if (!profiler.start(popts, &err)) {
            resp.status = 409;
            resp.body = "profiler unavailable: " + err + "\n";
            return resp;
        }
        recorder.recordSpan("monitor.profile", 0,
                            "sampling " + std::to_string(seconds) +
                                    "s");
        std::this_thread::sleep_for(
                std::chrono::duration<double>(seconds));
        const auto prof = finishProfile();
        if (as_json) {
            resp.content_type = "application/json";
            resp.body = prof.renderJson() + "\n";
        } else {
            resp.content_type = "text/plain; charset=utf-8";
            resp.body = prof.renderFolded();
        }
        return resp;
    });

    // Handlers go in before the server starts: a SIGTERM sent the
    // moment the port file appears still takes the clean path below.
    g_monitor_stop = 0;
    g_monitor_dump = 0;
    std::signal(SIGINT, monitorSignalHandler);
    std::signal(SIGTERM, monitorSignalHandler);
    std::signal(SIGUSR1, monitorSignalHandler);
    if (!serveQueryRoutes(server, "monitor", session->tsdb, tracing.store,
                          flags))
        return 1;
    std::string err;
    if (!sampler.start(&err)) {
        std::fprintf(stderr, "monitor: %s\n", err.c_str());
        return 1;
    }
    const std::string &name = session->board.descriptor().name;
    recorder.recordSpan("monitor.start", 0,
                        name + " on 127.0.0.1:" +
                                std::to_string(server.port()));
    std::fprintf(stderr,
                 "monitor: listening on 127.0.0.1:%d (period %d ms, "
                 "%zu schedule points)\n",
                 server.port(), flags.period_ms,
                 session->schedule_points);

    while (!g_monitor_stop && sampler.running()) {
        if (g_monitor_dump) {
            // SIGUSR1 diagnostic: everything a stuck daemon's operator
            // needs, dumped to stderr without stopping anything. The
            // handler only sets a flag; the dump runs here.
            g_monitor_dump = 0;
            std::fprintf(stderr,
                         "monitor: === live diagnostic (SIGUSR1) ===\n");
            std::fprintf(stderr,
                         "monitor: %ld ticks, %ld requests served\n",
                         sampler.ticks(), server.requestsServed());
            printRecorderTail(recorder, 10);
            obs::touchProcessMetrics();
            std::fprintf(stderr, "monitor: metrics snapshot:\n%s",
                         obs::Registry::global().renderJson().c_str());
            std::fprintf(stderr,
                         "monitor: === end live diagnostic ===\n");
        }
        // A fresh span per iteration (not one for the whole loop):
        // /profilez arms the profiler mid-run, and only spans opened
        // while it runs land in its thread-local context — so an
        // on-demand wall profile attributes the idle wait too.
        GPUPM_TRACE_SPAN("monitor", "monitor.wait");
        std::this_thread::sleep_for(std::chrono::milliseconds(50));
    }

    std::fprintf(stderr,
                 "monitor: shutting down (%ld ticks, %ld requests "
                 "served)\n",
                 sampler.ticks(), server.requestsServed());
    sampler.stop();
    server.stop();
    std::signal(SIGINT, SIG_DFL);
    std::signal(SIGTERM, SIG_DFL);
    std::signal(SIGUSR1, SIG_DFL);
    recorder.recordSpan("monitor.stop", 0, "clean shutdown");
    // Post-mortem: a crash log always ends with what just happened.
    printRecorderTail(recorder, 5);
    return 0;
}

/**
 * `gpupm alerts <device>`: one-shot alert evaluation. Replays the
 * monitor session on the virtual clock for --ticks ticks (no HTTP
 * server, no sleeps) and prints the alert engine's report: two
 * invocations emit byte-identical JSON, which the cli_alerts_drift
 * ctest gate asserts. Exit code 1 when any rule is still firing at the
 * final tick, else 0 — scriptable as a health probe.
 */
int
cmdAlerts(const std::string &device, const CliFlags &flags)
{
    int rc = 0;
    const auto session = openMonitorSession("alerts", device, flags, rc);
    if (!session)
        return rc;
    if (!replayTicks(*session, "alerts", flags))
        return 1;

    const obs::AlertEngine &engine = session->engine;
    const std::int64_t now = engine.lastEvaluatedUs();
    if (flags.json)
        std::printf("%s\n", engine.renderJson(now).c_str());
    else
        std::printf("%s", engine.renderText(now).c_str());
    const auto firing = engine.firingRuleNames();
    if (!firing.empty()) {
        std::fprintf(stderr, "alerts: %zu rule(s) firing after %ld "
                             "ticks\n",
                     firing.size(), flags.alert_ticks);
        return 1;
    }
    return 0;
}

/**
 * `gpupm traces <device>`: offline request-trace replay. Replays the
 * monitor session on the virtual clock like `gpupm alerts`, with
 * request tracing on for the ticks (trace IDs seeded from
 * --fault-seed), and prints the assembled traces from the
 * tail-sampled store — one trace per tick, spans in completion order
 * with parent links. Only deterministic fields are printed (IDs,
 * names, categories, error flags, args — no wall-clock timestamps or
 * durations), so two invocations with the same flags emit
 * byte-identical output; the cli_traces ctest gate asserts it. Exit 1
 * when the store violated its error-retention invariant (an error
 * trace was evicted), else 0.
 */
int
cmdTraces(const std::string &device, const CliFlags &flags)
{
    int rc = 0;
    const auto session = openMonitorSession("traces", device, flags, rc);
    if (!session)
        return rc;
    // Tracing turns on here, after training, so the store holds
    // exactly the tick traces: seedIds() inside resets the ID counter
    // and makes the minted IDs a pure function of the fault seed and
    // the (single-threaded) span order.
    TraceStoreAttachment tracing(flags);
    if (!replayTicks(*session, "traces", flags))
        return 1;

    obs::TraceQuery all;
    all.limit = static_cast<std::size_t>(flags.alert_ticks) + 16;
    auto traces = tracing.store.query(all); // newest first
    std::reverse(traces.begin(), traces.end()); // arrival order

    const auto &store = tracing.store;
    if (flags.json) {
        std::ostringstream os;
        os << "{\"device\":\"" << device
           << "\",\"ticks\":" << flags.alert_ticks
           << ",\"offered\":" << store.offeredTotal()
           << ",\"stored\":" << traces.size()
           << ",\"errors_offered\":" << store.errorsOfferedTotal()
           << ",\"errors_evicted\":" << store.errorsEvictedTotal()
           << ",\"traces\":[";
        for (std::size_t i = 0; i < traces.size(); ++i) {
            const auto &t = traces[i];
            os << (i ? ",\n" : "\n") << "{\"trace_id\":\""
               << obs::traceIdHex(t.trace_id) << "\",\"root\":\""
               << json::escape(t.root_name) << "\",\"cat\":\""
               << json::escape(t.root_cat) << "\",\"error\":"
               << (t.error ? "true" : "false") << ",\"spans\":[";
            for (std::size_t k = 0; k < t.spans.size(); ++k) {
                const auto &s = t.spans[k];
                os << (k ? "," : "") << "{\"name\":\""
                   << json::escape(s.name) << "\",\"cat\":\""
                   << json::escape(s.cat) << "\",\"span_id\":\""
                   << obs::traceIdHex(s.span_id) << "\"";
                if (s.parent_span_id)
                    os << ",\"parent_span_id\":\""
                       << obs::traceIdHex(s.parent_span_id) << "\"";
                if (s.error)
                    os << ",\"error\":true";
                if (!s.args.empty())
                    os << ",\"args\":" << json::stringObject(s.args);
                os << "}";
            }
            os << "]}";
        }
        os << "\n]}\n";
        std::printf("%s", os.str().c_str());
    } else {
        std::printf("%zu trace(s) stored of %ld offered (%ld error "
                    "trace(s), %ld evicted)\n",
                    traces.size(), store.offeredTotal(),
                    store.errorsOfferedTotal(),
                    store.evictedTotal());
        for (const auto &t : traces) {
            std::printf("trace %s %s [%s]%s %zu span(s)\n",
                        obs::traceIdHex(t.trace_id).c_str(),
                        t.root_name.c_str(), t.root_cat.c_str(),
                        t.error ? " ERROR" : "", t.spans.size());
            for (const auto &s : t.spans) {
                std::printf("  %s", obs::traceIdHex(s.span_id).c_str());
                if (s.parent_span_id)
                    std::printf(" <- %s",
                                obs::traceIdHex(s.parent_span_id)
                                        .c_str());
                else
                    std::printf(" (root)");
                std::printf(" %s [%s]%s", s.name.c_str(),
                            s.cat.c_str(), s.error ? " ERROR" : "");
                for (const auto &a : s.args)
                    std::printf(" %s=%s", a.first.c_str(),
                                a.second.c_str());
                std::printf("\n");
            }
        }
    }

    if (store.errorsEvictedTotal() > 0) {
        std::fprintf(stderr,
                     "traces: tail-sampling invariant violated: %ld "
                     "error trace(s) evicted\n",
                     store.errorsEvictedTotal());
        return 1;
    }
    return 0;
}


/**
 * `gpupm fleet <N>`: the fault-tolerant fleet campaign. N simulated
 * device instances (three architectures, per-instance ground-truth
 * jitter) are sharded across the work-stealing pool; each shard runs
 * under a watchdog deadline with seeded retry/backoff, checkpoints
 * crash-safely when --resume names a directory, and is quarantined —
 * with explicit per-device accounting — past its retry budget. Chaos
 * flags inject shard kills, stalls and poisoned devices; --faults is
 * shorthand for kills + poison at one rate. With --port/--duration
 * the merged result is served on /fleet next to /metrics for the
 * monitor's scrape interval.
 */
int
cmdFleet(const std::string &count, const CliFlags &flags)
{
    const long n = std::atol(count.c_str());
    if (n <= 0) {
        std::fprintf(stderr,
                     "fleet needs a positive device count, got "
                     "'%s'\n",
                     count.c_str());
        return 2;
    }
    obs::registerStandardMetrics();

    // The campaign runs under one root trace (fleet.campaign) with
    // every shard attempt, pool hop and watchdog fire inside it;
    // assembled traces land here and are served on /api/traces while
    // --duration keeps the process up. One campaign is one giant
    // request (~350 spans per device), so the fleet store is sized
    // for a few hundred devices where the monitor's per-tick store
    // keeps its tight 1 MiB default.
    obs::TraceStoreOptions tsopts;
    tsopts.max_bytes = 32u << 20;
    TraceStoreAttachment tracing(flags, tsopts);

    fleet::FleetOptions fopts;
    fopts.devices = n;
    fopts.shards = flags.shards;
    fopts.threads = flags.threads;
    fopts.watchdog_deadline_s = flags.deadline_s;
    fopts.checkpoint_dir = flags.checkpoint;
    fopts.chaos.seed = flags.fault_seed;
    fopts.chaos.shard_kill_rate = flags.chaos_kill;
    fopts.chaos.shard_stall_rate = flags.chaos_stall;
    fopts.chaos.poison_fraction = flags.chaos_poison;
    if (flags.fault_rate > 0.0) {
        if (fopts.chaos.shard_kill_rate == 0.0)
            fopts.chaos.shard_kill_rate = flags.fault_rate;
        if (fopts.chaos.poison_fraction == 0.0)
            fopts.chaos.poison_fraction = flags.fault_rate;
    }

    const fleet::FleetResult result = fleet::runFleetCampaign(fopts);
    std::fprintf(stderr, "%s", result.summary().c_str());

    if (!flags.fleet_out.empty()) {
        auto saved = model::tryWriteFileAtomic(
                flags.fleet_out,
                model::wrapEnvelope(model::FileKind::Fleet,
                                    result.toJson() + "\n"));
        if (!saved.ok())
            return reportLoadFailure(saved.error());
        std::fprintf(stderr, "fleet report written to %s\n",
                     flags.fleet_out.c_str());
    }
    if (flags.json)
        std::printf("%s\n", result.toJson().c_str());

    if (flags.duration_s > 0.0) {
        // Per-architecture aggregate series: fleet-level drift
        // (outlier devices, arch marginals moving) is queryable from
        // the same /api/query shape the monitor serves. Declared
        // before the server so handlers never outlive the store.
        obs::Tsdb fleet_tsdb;
        fleet::publishFleetSeries(result, fleet_tsdb);

        obs::HttpServer server;
        server.route("/metrics", [](const obs::HttpRequest &) {
            return metricsResponse();
        });
        const std::string fleet_json = result.toJson();
        server.route("/fleet", [fleet_json](const obs::HttpRequest &) {
            return jsonResponse(fleet_json);
        });
        if (!serveQueryRoutes(server, "fleet", fleet_tsdb, tracing.store,
                              flags))
            return 1;
        std::fprintf(stderr,
                     "fleet: serving /metrics and /fleet on "
                     "127.0.0.1:%d for %.1fs\n",
                     server.port(), flags.duration_s);
        std::this_thread::sleep_for(
                std::chrono::duration<double>(flags.duration_s));
    }

    // Graceful degradation is success; a fleet with zero healthy
    // devices is not.
    return result.scoreboard.devices_ok > 0 ? 0 : 1;
}

/**
 * Write the observability artifacts requested by --trace-out,
 * --metrics-out and --profile-out. Runs after the command (and its
 * root span) finished so the trace and profile are complete; the
 * metric catalog is pre-registered so every standard counter appears
 * even when its path never ran.
 */
void
writeObservabilityArtifacts(const CliFlags &flags)
{
    if (!flags.profile_out.empty() &&
        obs::Profiler::global().running()) {
        const auto prof = finishProfile();
        if (prof.writeFolded(flags.profile_out))
            std::fprintf(stderr,
                         "cpu profile (%ld samples, %.1f%% "
                         "span-attributed) written to %s\n",
                         prof.samples, prof.attributedPct(),
                         flags.profile_out.c_str());
        else
            std::fprintf(stderr, "cannot write %s\n",
                         flags.profile_out.c_str());
    }
    if (!flags.trace_out.empty()) {
        auto &tracer = obs::Tracer::global();
        tracer.disable();
        if (tracer.writeChromeTrace(flags.trace_out))
            std::fprintf(stderr, "trace (%zu spans) written to %s\n",
                         tracer.eventCount(),
                         flags.trace_out.c_str());
        else
            std::fprintf(stderr, "cannot write %s\n",
                         flags.trace_out.c_str());
    }
    if (!flags.metrics_out.empty()) {
        obs::registerStandardMetrics();
        obs::touchProcessMetrics();
        if (obs::Registry::global().writePrometheus(flags.metrics_out))
            std::fprintf(stderr, "metrics written to %s\n",
                         flags.metrics_out.c_str());
        else
            std::fprintf(stderr, "cannot write %s\n",
                         flags.metrics_out.c_str());
    }
}

/** Positional of the monitor-family commands, for arity errors. */
constexpr const char *kDeviceArg =
        "device argument (titanxp, titanx or k40c)";

int
dispatch(const std::vector<std::string> &args, const CliFlags &flags)
{
    const std::string cmd = args.front();
    const int nargs = static_cast<int>(args.size());

    {
        if (cmd == "devices") {
            for (auto kind : gpu::kAllDevices) {
                const auto &d = gpu::DeviceDescriptor::get(kind);
                std::printf("%-8s %s (%s, %zu V-F configs)\n",
                            deviceToken(kind), d.name.c_str(),
                            std::string(architectureName(
                                    d.architecture)).c_str(),
                            d.allConfigs().size());
            }
            return 0;
        }
        if (cmd == "campaign" && nargs == 3) {
            const auto kind = parseDevice(args[1]);
            if (!kind)
                return usage();
            if (flags.resilient) {
                const auto data = runResilientCampaign(*kind, flags);
                if (!data)
                    return 3;
                model::saveTrainingData(*data, args[2]);
            } else {
                model::saveTrainingData(runCampaign(*kind), args[2]);
            }
            std::fprintf(stderr, "campaign written to %s\n",
                         args[2].c_str());
            return 0;
        }
        if (cmd == "fit" && nargs == 3) {
            // Device name instead of a campaign file: run the bundled
            // synthetic resilient campaign in-process, then fit —
            // the whole measure→fit→save pipeline in one command.
            const auto kind = parseDevice(args[1]);
            if (kind && !fileExists(args[1])) {
                std::fprintf(stderr,
                             "no campaign file '%s'; running the "
                             "bundled synthetic campaign\n",
                             args[1].c_str());
                const auto data = runResilientCampaign(*kind, flags);
                if (!data)
                    return 3;
                return fitAndSave(*data, args[2], flags);
            }
            auto data = model::tryLoadTrainingData(
                    args[1], loadOptionsOf(flags));
            if (!data.ok())
                return reportLoadFailure(data.error());
            return fitAndSave(data.value(), args[2], flags);
        }
        if (cmd == "train" && nargs == 3) {
            const auto kind = parseDevice(args[1]);
            if (!kind)
                return usage();
            std::optional<model::TrainingData> data;
            if (flags.resilient) {
                data = runResilientCampaign(*kind, flags);
                if (!data)
                    return 3;
            } else {
                data = runCampaign(*kind);
            }
            return fitAndSave(*data, args[2], flags);
        }
        if (cmd == "info" && nargs == 2)
            return cmdInfo(args[1], flags);
        if (cmd == "predict" && (nargs == 3 || nargs == 5)) {
            std::optional<gpu::FreqConfig> cfg;
            if (nargs == 5)
                cfg = gpu::FreqConfig{std::atoi(args[3].c_str()),
                                      std::atoi(args[4].c_str())};
            return cmdPredict(args[1], args[2], cfg, flags);
        }
        if (cmd == "sweep" && nargs == 3)
            return cmdSweep(args[1], args[2], flags);
        if (cmd == "validate" && nargs >= 2)
            return cmdValidate({args.begin() + 1, args.end()},
                               flags);
        if (cmd == "metrics" && nargs == 1)
            return cmdMetrics(flags);
        if (cmd == "version" && nargs == 1)
            return cmdVersion(flags);
        // One-positional commands. Flags are stripped by parseFlags
        // wherever they appear, so a wrong count here is a wrong
        // positional count — say so instead of the generic usage.
        static const struct
        {
            const char *name;
            const char *arg;
            int (*run)(const std::string &, const CliFlags &);
        } one_arg_cmds[] = {
                {"monitor", kDeviceArg, cmdMonitor},
                {"alerts", kDeviceArg, cmdAlerts},
                {"traces", kDeviceArg, cmdTraces},
                {"fleet", "<num-devices> argument", cmdFleet},
                {"audit", "<model-file|device> argument", cmdAudit},
        };
        for (const auto &c : one_arg_cmds) {
            if (cmd != c.name)
                continue;
            if (nargs != 2) {
                std::fprintf(stderr, "%s needs exactly one %s, got %d\n",
                             c.name, c.arg, nargs - 1);
                return 2;
            }
            return c.run(args[1], flags);
        }
        if (cmd == "export-cuda" && nargs == 2) {
            std::ofstream out(args[1]);
            if (!out) {
                std::fprintf(stderr, "cannot write %s\n",
                             args[1].c_str());
                return 1;
            }
            out << ubench::cudaSuiteSource();
            std::fprintf(stderr,
                         "microbenchmark suite written to %s\n",
                         args[1].c_str());
            return 0;
        }
    }
    return usage();
}

} // namespace

int
main(int argc, char **argv)
{
    CliFlags flags;
    const auto args = parseFlags(argc, argv, flags);
    if (!args.empty() && args.front() == "--bad-flag")
        return 2; // parseFlags already named the offending flag
    if (flags.show_version)
        return cmdVersion(flags);
    if (args.empty())
        return usage();

    if (flags.verbose)
        gpupm::setLogLevel(gpupm::LogLevel::Debug);
    else if (flags.quiet)
        gpupm::setLogLevel(gpupm::LogLevel::Warn);
    if (!flags.trace_out.empty())
        gpupm::obs::Tracer::global().enable();
    if (!flags.profile_out.empty()) {
        std::string err;
        if (!gpupm::obs::Profiler::global().start({}, &err))
            std::fprintf(stderr, "cpu profiler unavailable: %s\n",
                         err.c_str());
    }

    int rc = 1;
    try {
        // Scoped so the root span completes before the trace is
        // written.
        GPUPM_TRACE_SPAN_NAMED(root, "cli", "cli." + args.front());
        rc = dispatch(args, flags);
    } catch (const std::exception &e) {
        std::fprintf(stderr, "error: %s\n", e.what());
        rc = 1;
    }
    writeObservabilityArtifacts(flags);
    return rc;
}
