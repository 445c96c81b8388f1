#include "model_io.hh"

#include <cmath>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <utility>
#include <vector>

#include "common/checksum.hh"
#include "common/json.hh"
#include "common/logging.hh"
#include "common/numio.hh"
#include "core/validate.hh"
#include "obs/standard.hh"
#include "obs/trace.hh"

namespace gpupm
{
namespace model
{

std::string_view
ioErrcName(IoErrc code)
{
    switch (code) {
      case IoErrc::IoError: return "io-error";
      case IoErrc::ParseError: return "parse-error";
      case IoErrc::VersionMismatch: return "version-mismatch";
      case IoErrc::ChecksumMismatch: return "checksum-mismatch";
      case IoErrc::ValidationError: return "validation-error";
    }
    return "unknown";
}

std::string_view
fileKindName(FileKind kind)
{
    switch (kind) {
      case FileKind::Model: return "model";
      case FileKind::Campaign: return "campaign";
      case FileKind::Checkpoint: return "checkpoint";
      case FileKind::Scoreboard: return "scoreboard";
      case FileKind::FleetShard: return "fleetshard";
      case FileKind::Fleet: return "fleet";
    }
    return "unknown";
}

namespace
{

/**
 * Internal unwinding channel of the parsers: parsing is deeply
 * recursive and almost every step can fail, so the failure travels as
 * an exception and is converted to an IoExpected error exactly once,
 * at the try* boundary. It never escapes this translation unit.
 */
struct ParseFail
{
    IoStatus status;
};

template <typename... Args>
[[noreturn]] void
failParse(IoErrc code, Args &&...args)
{
    throw ParseFail{
        {code, detail::concat(std::forward<Args>(args)...)}};
}

/**
 * Upper bound on any count declared inside a file. Honest artifacts
 * are far below it (83 benchmarks, a few hundred V-F configurations);
 * a fuzzed size field must not be able to drive allocation.
 */
constexpr std::size_t kMaxCount = 100000;
/** Upper bound on benchmarks x configurations cells. */
constexpr std::size_t kMaxCells = 10000000;

/** Whitespace-token scanner for the text payloads. */
class TokenScanner
{
  public:
    explicit TokenScanner(const std::string &text) : text_(text) {}

    bool
    atEnd()
    {
        skipSpace();
        return pos_ == text_.size();
    }

    std::string_view
    next(const char *what)
    {
        skipSpace();
        if (pos_ == text_.size())
            failParse(IoErrc::ParseError,
                      "unexpected end of input while reading ", what);
        const std::size_t start = pos_;
        while (pos_ < text_.size() && !isSpace(text_[pos_]))
            ++pos_;
        return std::string_view(text_).substr(start, pos_ - start);
    }

    void
    expect(std::string_view word)
    {
        const auto tok = next(
                detail::concat("keyword '", word, "'").c_str());
        if (tok != word)
            failParse(IoErrc::ParseError, "expected '", word,
                      "', got '", tok, "'");
    }

    /** A finite double ("nan"/"inf" tokens are a parse error). */
    double
    number(const char *what)
    {
        const auto tok = next(what);
        double v = 0.0;
        if (!numio::parseDouble(tok, v) || !std::isfinite(v))
            failParse(IoErrc::ParseError,
                      "bad or non-finite number for ", what, ": '",
                      tok, "'");
        return v;
    }

    long
    integer(const char *what)
    {
        const auto tok = next(what);
        long v = 0;
        if (!numio::parseLong(tok, v))
            failParse(IoErrc::ParseError, "bad integer for ", what,
                      ": '", tok, "'");
        return v;
    }

    int
    intValue(const char *what)
    {
        const long v = integer(what);
        if (v < -2147483647L || v > 2147483647L)
            failParse(IoErrc::ParseError, what, " out of range: ", v);
        return static_cast<int>(v);
    }

    /** A declared element count, bounded so it cannot drive OOM. */
    std::size_t
    count(const char *what, std::size_t max = kMaxCount)
    {
        const long v = integer(what);
        if (v < 0 || static_cast<std::size_t>(v) > max)
            failParse(IoErrc::ParseError, "implausible ", what, ": ",
                      v);
        return static_cast<std::size_t>(v);
    }

  private:
    static bool
    isSpace(char c)
    {
        return c == ' ' || c == '\t' || c == '\n' || c == '\r';
    }

    void
    skipSpace()
    {
        while (pos_ < text_.size() && isSpace(text_[pos_]))
            ++pos_;
    }

    const std::string &text_;
    std::size_t pos_ = 0;
};

gpu::DeviceKind
deviceKindOf(long kind)
{
    if (kind < 0 || kind > 2)
        failParse(IoErrc::ParseError, "bad device kind ", kind);
    return static_cast<gpu::DeviceKind>(kind);
}

// -- v2 envelope -----------------------------------------------------

constexpr std::string_view kEnvelopeMagic = "gpupm-file";

struct Envelope
{
    FileKind kind = FileKind::Model;
    std::string payload;
};

bool
hasEnvelope(const std::string &text)
{
    return text.rfind(kEnvelopeMagic, 0) == 0;
}

FileKind
fileKindOf(std::string_view token)
{
    for (FileKind k : {FileKind::Model, FileKind::Campaign,
                       FileKind::Checkpoint, FileKind::Scoreboard,
                       FileKind::FleetShard, FileKind::Fleet})
        if (token == fileKindName(k))
            return k;
    failParse(IoErrc::ParseError, "unknown artifact kind '", token,
              "' in envelope");
}

/**
 * Verify and strip the envelope, in trust order: kind, version,
 * declared payload size (truncation), checksum (corruption). Only
 * then does the payload reach a parser.
 */
Envelope
unwrapEnvelope(const std::string &text)
{
    const std::size_t eol = text.find('\n');
    if (eol == std::string::npos)
        failParse(IoErrc::ParseError,
                  "envelope header line is not terminated");
    const std::string header = text.substr(0, eol);

    TokenScanner s(header);
    s.expect(kEnvelopeMagic);
    Envelope env;
    env.kind = fileKindOf(s.next("artifact kind"));
    const auto version = s.next("format version");
    if (version != "v2")
        failParse(IoErrc::VersionMismatch, "unsupported ",
                  fileKindName(env.kind), " file version '", version,
                  "' (this build reads v2 and legacy v0)");
    s.expect("crc32");
    std::uint32_t declared_crc = 0;
    const auto crc_tok = s.next("crc32 value");
    if (!checksum::parseCrc32Hex(crc_tok, declared_crc))
        failParse(IoErrc::ParseError, "bad crc32 field '", crc_tok,
                  "'");
    s.expect("bytes");
    const long declared_bytes = s.integer("payload size");
    if (!s.atEnd())
        failParse(IoErrc::ParseError,
                  "trailing tokens in envelope header");

    env.payload = text.substr(eol + 1);
    if (declared_bytes < 0 ||
        static_cast<std::size_t>(declared_bytes) != env.payload.size())
        failParse(IoErrc::ParseError, "envelope declares ",
                  declared_bytes, " payload bytes but ",
                  env.payload.size(), " are present (truncated or "
                  "trailing data)");

    const std::uint32_t actual_crc = checksum::crc32(env.payload);
    if (actual_crc != declared_crc)
        failParse(IoErrc::ChecksumMismatch, "payload crc32 ",
                  checksum::crc32Hex(actual_crc),
                  " does not match declared ",
                  checksum::crc32Hex(declared_crc));
    return env;
}

// -- File access -----------------------------------------------------

IoExpected<std::string>
tryReadFile(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        return IoStatus{IoErrc::IoError,
                        detail::concat("cannot open '", path,
                                       "' for reading")};
    std::ostringstream os;
    os << in.rdbuf();
    if (in.bad())
        return IoStatus{IoErrc::IoError,
                        detail::concat("read from '", path,
                                       "' failed")};
    return os.str();
}

IoExpected<bool>
tryWriteFile(const std::string &path, const std::string &text)
{
    GPUPM_TRACE_SPAN_NAMED(span, "io", "io.write");
    span.arg("path", path);
    span.arg("bytes", numio::formatLong((long)text.size()));
    std::ofstream out(path, std::ios::binary);
    if (!out) {
        obs::ioSaveFailuresTotal().inc();
        return IoStatus{IoErrc::IoError,
                        detail::concat("cannot open '", path,
                                       "' for writing")};
    }
    out << text;
    out.flush();
    if (!out) {
        obs::ioSaveFailuresTotal().inc();
        return IoStatus{IoErrc::IoError,
                        detail::concat("write to '", path,
                                       "' failed")};
    }
    obs::ioSavesTotal().inc();
    return true;
}

// -- Model payload ---------------------------------------------------

DvfsPowerModel
parseModelPayload(const std::string &payload)
{
    TokenScanner s(payload);
    s.expect("gpupm-model");
    const auto version = s.next("model payload version");
    if (version != "v1")
        failParse(IoErrc::VersionMismatch,
                  "unsupported model payload version '", version,
                  "'");

    s.expect("device");
    const gpu::DeviceKind kind =
            deviceKindOf(s.integer("device kind"));

    s.expect("reference");
    gpu::FreqConfig ref;
    ref.core_mhz = s.intValue("reference core MHz");
    ref.mem_mhz = s.intValue("reference memory MHz");

    s.expect("beta");
    ModelParams p;
    p.beta0 = s.number("beta0");
    p.beta1 = s.number("beta1");
    p.beta2 = s.number("beta2");
    p.beta3 = s.number("beta3");

    s.expect("omega");
    for (double &w : p.omega)
        w = s.number("omega coefficient");

    s.expect("voltages");
    const std::size_t n = s.count("voltage pair count");
    DvfsPowerModel m(kind, ref, p);
    for (std::size_t i = 0; i < n; ++i) {
        gpu::FreqConfig cfg;
        cfg.core_mhz = s.intValue("voltage-table core MHz");
        cfg.mem_mhz = s.intValue("voltage-table memory MHz");
        VoltagePair v;
        v.core = s.number("core voltage");
        v.mem = s.number("memory voltage");
        if (v.core <= 0.0 || v.mem <= 0.0)
            failParse(IoErrc::ParseError,
                      "non-positive voltage at (", cfg.core_mhz,
                      ", ", cfg.mem_mhz, ") MHz");
        m.setVoltages(cfg, v);
    }
    if (!s.atEnd())
        failParse(IoErrc::ParseError,
                  "trailing content after the voltage table");
    return m;
}

// -- Campaign payload ------------------------------------------------

TrainingData
parseCampaignPayload(const std::string &payload)
{
    TokenScanner s(payload);
    s.expect("gpupm-campaign");
    const auto version = s.next("campaign payload version");
    if (version != "v1")
        failParse(IoErrc::VersionMismatch,
                  "unsupported campaign payload version '", version,
                  "'");

    TrainingData data;
    s.expect("device");
    data.device = deviceKindOf(s.integer("device kind"));

    s.expect("reference");
    data.reference.core_mhz = s.intValue("reference core MHz");
    data.reference.mem_mhz = s.intValue("reference memory MHz");

    s.expect("configs");
    const std::size_t nc = s.count("configuration count");
    data.configs.resize(nc);
    for (auto &cfg : data.configs) {
        cfg.core_mhz = s.intValue("config core MHz");
        cfg.mem_mhz = s.intValue("config memory MHz");
    }

    s.expect("benchmarks");
    const std::size_t nb = s.count("benchmark count");
    if (nb != 0 && nc > kMaxCells / nb)
        failParse(IoErrc::ParseError, "implausible campaign size: ",
                  nb, " benchmarks x ", nc, " configurations");
    data.utils.resize(nb);
    data.power_w.assign(nb, std::vector<double>(nc));
    for (std::size_t b = 0; b < nb; ++b) {
        for (double &u : data.utils[b])
            u = s.number("utilization");
        for (double &p : data.power_w[b])
            p = s.number("power sample");
    }
    if (!s.atEnd())
        failParse(IoErrc::ParseError,
                  "trailing content after the benchmark rows");
    return data;
}

// ---------------------------------------------------------------------
// Campaign checkpoints and scoreboards: JSON through common/json, so
// checkpoints stay readable by standard tooling (`tail -n +2 ck | jq
// .`) and edits by such tooling stay readable by us.
// ---------------------------------------------------------------------

/** Parse a JSON payload; a rejected document is a ParseError. */
json::Value
parseJson(const std::string &payload)
{
    json::Value root;
    json::Error err;
    if (!json::parse(payload, root, err))
        failParse(IoErrc::ParseError, "json: ", err.message());
    return root;
}

/**
 * Throwing accessors that hold a parsed value to the checkpoint and
 * scoreboard schemas: a missing field or a wrong type is a
 * ParseError.
 */
class Field
{
  public:
    Field(const json::Value &v) : v_(v) {}

    Field
    at(const char *name) const
    {
        const json::Value *f = v_.find(name);
        if (!f)
            failParse(IoErrc::ParseError, "json: missing field '", name,
                      "'");
        return *f;
    }

    /** An optional member; nullptr when absent. */
    const json::Value *find(const char *name) const
    {
        return v_.find(name);
    }

    double num() const { return as(Kind::Number, "a number").number; }

    long
    integer() const
    {
        const double d = num();
        if (!(d >= -9.2e18 && d <= 9.2e18))
            failParse(IoErrc::ParseError,
                      "json: integer field out of range");
        return static_cast<long>(d);
    }

    const std::string &
    str() const
    {
        return as(Kind::String, "a string").str;
    }

    /** An array of at most `max_len` elements, so a fuzzed file
     *  cannot pass off an implausible row count. */
    const std::vector<json::Value> &
    arr(std::size_t max_len = kMaxCells) const
    {
        const auto &a = as(Kind::Array, "an array").array;
        if (a.size() > max_len)
            failParse(IoErrc::ParseError, "json: implausible array of ",
                      a.size(), " elements");
        return a;
    }

  private:
    using Kind = json::Value::Kind;

    const json::Value &
    as(Kind kind, const char *what) const
    {
        if (v_.kind != kind)
            failParse(IoErrc::ParseError, "json: expected ", what);
        return v_;
    }

    const json::Value &v_;
};

void
putConfig(std::ostringstream &os, const gpu::FreqConfig &cfg)
{
    os << "[" << std::to_string(cfg.core_mhz) << ","
       << std::to_string(cfg.mem_mhz) << "]";
}

gpu::FreqConfig
configOf(Field v)
{
    if (v.arr().size() != 2)
        failParse(IoErrc::ParseError,
                  "checkpoint: a config is a [core, mem] pair");
    const long core = Field(v.arr()[0]).integer();
    const long mem = Field(v.arr()[1]).integer();
    if (core < -2147483647L || core > 2147483647L ||
        mem < -2147483647L || mem > 2147483647L)
        failParse(IoErrc::ParseError,
                  "checkpoint: clock value out of range");
    return {static_cast<int>(core), static_cast<int>(mem)};
}

CampaignCheckpoint
parseCheckpointPayload(const std::string &payload)
{
    const json::Value doc = parseJson(payload);
    const Field root(doc);
    if (root.at("format").str() != "gpupm-checkpoint" ||
        root.at("version").integer() != 1)
        failParse(IoErrc::VersionMismatch,
                  "not a gpupm campaign checkpoint (or unsupported "
                  "checkpoint schema version)");

    CampaignCheckpoint ck;
    const double seed = root.at("seed").num();
    if (!(seed >= 0.0 && seed < 18446744073709551616.0))
        failParse(IoErrc::ParseError, "checkpoint: bad seed");
    ck.seed = static_cast<std::uint64_t>(seed);
    ck.device = deviceKindOf(root.at("device").integer());
    ck.reference = configOf(root.at("reference"));
    for (const Field v : root.at("configs").arr(kMaxCount))
        ck.configs.push_back(configOf(v));
    for (const Field v : root.at("benchmarks").arr())
        ck.benchmark_names.push_back(v.str());

    const std::size_t nb = ck.benchmark_names.size();
    const std::size_t nc = ck.configs.size();
    if (nb > kMaxCount || (nb != 0 && nc > kMaxCells / nb))
        failParse(IoErrc::ParseError,
                  "checkpoint: implausible campaign size");

    for (const Field v : root.at("utils_done").arr())
        ck.utils_done.push_back(v.num() != 0.0 ? 1 : 0);
    if (ck.utils_done.size() != nb)
        failParse(IoErrc::ParseError,
                  "checkpoint: utils_done size mismatch");

    for (const Field row : root.at("utils").arr()) {
        if (row.arr().size() != gpu::kNumComponents)
            failParse(IoErrc::ParseError,
                      "checkpoint: bad utilization row");
        gpu::ComponentArray u{};
        for (std::size_t i = 0; i < gpu::kNumComponents; ++i)
            u[i] = Field(row.arr()[i]).num();
        ck.utils.push_back(u);
    }
    if (ck.utils.size() != nb)
        failParse(IoErrc::ParseError,
                  "checkpoint: utils size mismatch");

    for (const Field row : root.at("power_done").arr()) {
        std::vector<char> flags;
        for (const Field v : row.arr())
            flags.push_back(v.num() != 0.0 ? 1 : 0);
        if (flags.size() != nc)
            failParse(IoErrc::ParseError,
                      "checkpoint: power_done row size mismatch");
        ck.power_done.push_back(std::move(flags));
    }
    if (ck.power_done.size() != nb)
        failParse(IoErrc::ParseError,
                  "checkpoint: power_done size mismatch");

    for (const Field row : root.at("power_w").arr()) {
        std::vector<double> vals;
        for (const Field v : row.arr())
            vals.push_back(v.num());
        if (vals.size() != nc)
            failParse(IoErrc::ParseError,
                      "checkpoint: power row size mismatch");
        ck.power_w.push_back(std::move(vals));
    }
    if (ck.power_w.size() != nb)
        failParse(IoErrc::ParseError,
                  "checkpoint: power size mismatch");

    const Field r = root.at("report");
    ck.report.cells_total = r.at("cells_total").integer();
    ck.report.cells_done = r.at("cells_done").integer();
    ck.report.cells_resumed = r.at("cells_resumed").integer();
    ck.report.cells_failed = r.at("cells_failed").integer();
    ck.report.faults_injected = r.at("faults_injected").integer();
    ck.report.totals.attempts = r.at("attempts").integer();
    ck.report.totals.retries = r.at("retries").integer();
    ck.report.totals.timeouts = r.at("timeouts").integer();
    ck.report.totals.call_failures = r.at("call_failures").integer();
    ck.report.totals.corrupt_samples =
            r.at("corrupt_samples").integer();
    ck.report.totals.outliers_rejected =
            r.at("outliers_rejected").integer();
    ck.report.totals.quarantined_calls =
            r.at("quarantined_calls").integer();
    ck.report.totals.backoff_total_s = r.at("backoff_total_s").num();
    for (const Field v : r.at("quarantined").arr())
        ck.report.quarantined.push_back(configOf(v));
    for (const Field v : r.at("benchmark_reports").arr()) {
        BenchmarkReport br;
        br.name = v.at("name").str();
        br.retries = v.at("retries").integer();
        br.call_failures = v.at("call_failures").integer();
        br.timeouts = v.at("timeouts").integer();
        br.outliers_rejected = v.at("outliers_rejected").integer();
        br.corrupt_samples = v.at("corrupt_samples").integer();
        br.faults_injected = v.at("faults_injected").integer();
        ck.report.benchmarks.push_back(std::move(br));
    }
    if (ck.report.benchmarks.size() != nb)
        failParse(IoErrc::ParseError,
                  "checkpoint: benchmark report size mismatch");
    return ck;
}

// -- Scoreboard payload (JSON, schema gpupm_scoreboard_version 1) ----

int
intOf(Field v, const char *what)
{
    const long x = v.integer();
    if (x < -2147483647L || x > 2147483647L)
        failParse(IoErrc::ParseError, "scoreboard: ", what,
                  " out of range");
    return static_cast<int>(x);
}

obs::ScoreStats
scoreStatsOf(Field v)
{
    obs::ScoreStats st;
    const long n = v.at("samples").integer();
    if (n < 0 || static_cast<std::size_t>(n) > kMaxCells)
        failParse(IoErrc::ParseError,
                  "scoreboard: implausible sample count ", n);
    st.samples = n;
    st.mae_pct = v.at("mae_pct").num();
    st.rmse_w = v.at("rmse_w").num();
    st.max_err_pct = v.at("max_err_pct").num();
    st.mean_measured_w = v.at("mean_measured_w").num();
    return st;
}

obs::Scoreboard
parseScoreboardPayload(const std::string &payload)
{
    const json::Value doc = parseJson(payload);
    const Field root(doc);
    if (root.at("gpupm_scoreboard_version").integer() != 1)
        failParse(IoErrc::VersionMismatch,
                  "unsupported scoreboard schema version (this build "
                  "reads version 1)");

    obs::Scoreboard sb;
    const Field prov = root.at("provenance");
    sb.provenance.version = prov.at("version").str();
    sb.provenance.build_type = prov.at("build_type").str();
    sb.provenance.device = prov.at("device").str();
    sb.provenance.timestamp = prov.at("timestamp").str();
    // Optional: scoreboards written before the build-info extension
    // carry neither field.
    if (const auto *git = prov.find("git_sha"))
        sb.provenance.git_sha = Field(*git).str();
    if (const auto *cxx = prov.find("compiler"))
        sb.provenance.compiler = Field(*cxx).str();

    sb.device = static_cast<int>(
            deviceKindOf(root.at("device").integer()));
    sb.device_name = root.at("device_name").str();
    sb.reference = configOf(root.at("reference"));
    sb.overall = scoreStatsOf(root.at("summary"));

    for (const Field v : root.at("per_app").arr(kMaxCount))
        sb.per_app.push_back({v.at("app").str(), scoreStatsOf(v)});

    for (const Field v : root.at("per_config").arr(kMaxCount))
        sb.per_config.push_back(
                {gpu::FreqConfig{intOf(v.at("core_mhz"), "core clock"),
                                 intOf(v.at("mem_mhz"), "mem clock")},
                 scoreStatsOf(v)});

    for (const auto &[key, out] :
         {std::pair<const char *, std::vector<obs::MarginalScore> *>{
                  "core_marginal", &sb.core_marginal},
          std::pair<const char *, std::vector<obs::MarginalScore> *>{
                  "mem_marginal", &sb.mem_marginal}}) {
        for (const Field v : root.at(key).arr(kMaxCount))
            out->push_back({intOf(v.at("mhz"), "marginal clock"),
                            scoreStatsOf(v)});
    }

    for (const Field v : root.at("baselines").arr(kMaxCount))
        sb.baselines.push_back(
                {v.at("name").str(), v.at("mae_pct").num()});

    // Raw residuals are optional: golden scoreboards are summary-only.
    if (const auto *raw = root.find("samples")) {
        for (const Field v : Field(*raw).arr()) {
            obs::ResidualSample s;
            s.app = v.at("app").str();
            s.cfg = {intOf(v.at("core_mhz"), "core clock"),
                     intOf(v.at("mem_mhz"), "mem clock")};
            s.measured_w = v.at("measured_w").num();
            s.predicted_w = v.at("predicted_w").num();
            s.constant_w = v.at("constant_w").num();
            const auto &comp = v.at("component_w").arr();
            if (comp.size() != gpu::kNumComponents)
                failParse(IoErrc::ParseError,
                          "scoreboard: bad component vector size ",
                          comp.size());
            for (std::size_t i = 0; i < gpu::kNumComponents; ++i)
                s.component_w[i] = Field(comp[i]).num();
            if (const auto *bw = v.find("baseline_w"))
                for (const Field b : Field(*bw).arr())
                    s.baseline_w.emplace_back(b.at("name").str(),
                                              b.at("w").num());
            sb.samples.push_back(std::move(s));
        }
    }
    return sb;
}

// -- Shared load policy ----------------------------------------------

/**
 * The one place the loading policy lives: unwrap (or accept legacy),
 * parse, optionally validate, and convert the internal unwinding
 * channel into a typed result.
 */
template <typename T>
IoExpected<T>
parseWithPolicy(const std::string &text, FileKind want,
                const LoadOptions &opts,
                T (*parse_payload)(const std::string &),
                ValidationReport (*validate)(const T &))
{
    try {
        std::string payload;
        if (hasEnvelope(text)) {
            Envelope env = unwrapEnvelope(text);
            if (env.kind != want)
                failParse(IoErrc::ParseError, "file holds a ",
                          fileKindName(env.kind), ", expected a ",
                          fileKindName(want));
            payload = std::move(env.payload);
        } else {
            if (!opts.allow_legacy)
                failParse(IoErrc::VersionMismatch,
                          "legacy (pre-envelope) ",
                          fileKindName(want),
                          " file: no version or checksum to verify");
            payload = text;
        }
        T value = parse_payload(payload);
        if (opts.validate) {
            GPUPM_TRACE_SPAN("io", "io.validate");
            const ValidationReport report = validate(value);
            if (!report.ok())
                failParse(IoErrc::ValidationError, report.summary());
        }
        return value;
    } catch (const ParseFail &f) {
        return f.status;
    } catch (const std::exception &e) {
        // A parser slipping through on hostile input (e.g. an assert
        // in a constructor) still surfaces as a typed error, never as
        // an aborted process.
        return IoStatus{IoErrc::ParseError, e.what()};
    }
}

template <typename T>
IoExpected<T>
loadWithPolicy(const std::string &path, FileKind want,
               const LoadOptions &opts,
               T (*parse_payload)(const std::string &),
               ValidationReport (*validate)(const T &))
{
    GPUPM_TRACE_SPAN_NAMED(span, "io", "io.load");
    span.arg("path", path);
    span.arg("kind", std::string(fileKindName(want)));
    auto text = tryReadFile(path);
    if (!text.ok()) {
        obs::ioLoadFailuresTotal().inc();
        return text.error();
    }
    auto res = parseWithPolicy<T>(text.value(), want, opts,
                                  parse_payload, validate);
    if (!res.ok()) {
        obs::ioLoadFailuresTotal().inc();
        return IoStatus{res.error().code,
                        detail::concat("'", path, "': ",
                                       res.error().message)};
    }
    obs::ioLoadsTotal().inc();
    return res;
}

} // namespace

std::string
wrapEnvelope(FileKind kind, const std::string &payload)
{
    std::string out(kEnvelopeMagic);
    out += " ";
    out += fileKindName(kind);
    out += " v2 crc32 ";
    out += checksum::crc32Hex(checksum::crc32(payload));
    out += " bytes ";
    out += std::to_string(payload.size());
    out += "\n";
    out += payload;
    return out;
}

IoExpected<std::string>
tryUnwrapEnvelope(const std::string &text, FileKind want)
{
    try {
        Envelope env = unwrapEnvelope(text);
        if (env.kind != want)
            failParse(IoErrc::ParseError, "file holds a ",
                      fileKindName(env.kind), ", expected a ",
                      fileKindName(want));
        return std::move(env.payload);
    } catch (const ParseFail &f) {
        return f.status;
    } catch (const std::exception &e) {
        return IoStatus{IoErrc::ParseError, e.what()};
    }
}

IoExpected<std::string>
tryReadFileText(const std::string &path)
{
    return tryReadFile(path);
}

IoExpected<bool>
tryWriteFileAtomic(const std::string &path, const std::string &text)
{
    const std::string tmp = path + ".tmp";
    const auto written = tryWriteFile(tmp, text);
    if (!written.ok())
        return written;
    std::error_code ec;
    std::filesystem::rename(tmp, path, ec);
    if (ec)
        return IoStatus{IoErrc::IoError,
                        detail::concat("cannot move '", tmp,
                                       "' into place at '", path,
                                       "': ", ec.message())};
    return true;
}

IoExpected<FileKind>
detectFileKind(const std::string &text)
{
    try {
        if (hasEnvelope(text)) {
            const std::size_t eol = text.find('\n');
            const std::string header =
                    eol == std::string::npos ? text
                                             : text.substr(0, eol);
            TokenScanner s(header);
            s.expect(kEnvelopeMagic);
            return fileKindOf(s.next("artifact kind"));
        }
        if (text.rfind("gpupm-model", 0) == 0)
            return FileKind::Model;
        if (text.rfind("gpupm-campaign", 0) == 0)
            return FileKind::Campaign;
        const std::size_t first =
                text.find_first_not_of(" \t\r\n");
        if (first != std::string::npos && text[first] == '{') {
            // Both legacy JSON payloads start with '{'; a scoreboard
            // leads with its version key, a checkpoint with "format".
            const auto probe = text.find(
                    "\"gpupm_scoreboard_version\"", first);
            if (probe != std::string::npos && probe < first + 40)
                return FileKind::Scoreboard;
            return FileKind::Checkpoint;
        }
        failParse(IoErrc::ParseError,
                  "unrecognized file content (neither a v2 envelope "
                  "nor a legacy gpupm artifact)");
    } catch (const ParseFail &f) {
        return f.status;
    }
}

// -- Models ----------------------------------------------------------

std::string
serializeModel(const DvfsPowerModel &model)
{
    return wrapEnvelope(FileKind::Model, model.serialize());
}

IoExpected<DvfsPowerModel>
tryParseModel(const std::string &text, const LoadOptions &opts)
{
    return parseWithPolicy<DvfsPowerModel>(
            text, FileKind::Model, opts, parseModelPayload,
            validateModel);
}

IoExpected<DvfsPowerModel>
tryLoadModel(const std::string &path, const LoadOptions &opts)
{
    return loadWithPolicy<DvfsPowerModel>(
            path, FileKind::Model, opts, parseModelPayload,
            validateModel);
}

IoExpected<bool>
trySaveModel(const DvfsPowerModel &model, const std::string &path)
{
    return tryWriteFile(path, serializeModel(model));
}

void
saveModel(const DvfsPowerModel &model, const std::string &path)
{
    const auto res = trySaveModel(model, path);
    GPUPM_FATAL_IF(!res.ok(), res.error().message);
}

DvfsPowerModel
loadModel(const std::string &path)
{
    auto res = tryLoadModel(path);
    GPUPM_FATAL_IF(!res.ok(), "cannot load model [",
                   ioErrcName(res.error().code), "]: ",
                   res.error().message);
    return res.value();
}

// -- Training campaigns ----------------------------------------------

std::string
serializeTrainingData(const TrainingData &data)
{
    std::ostringstream os;
    os << "gpupm-campaign v1\n";
    os << "device " << std::to_string(static_cast<int>(data.device))
       << "\n";
    os << "reference " << std::to_string(data.reference.core_mhz)
       << " " << std::to_string(data.reference.mem_mhz) << "\n";
    os << "configs " << std::to_string(data.configs.size()) << "\n";
    for (const auto &cfg : data.configs)
        os << std::to_string(cfg.core_mhz) << " "
           << std::to_string(cfg.mem_mhz) << "\n";
    os << "benchmarks " << std::to_string(data.utils.size()) << "\n";
    for (std::size_t b = 0; b < data.utils.size(); ++b) {
        for (double u : data.utils[b])
            os << numio::formatDouble(u) << " ";
        os << "\n";
        for (double p : data.power_w[b])
            os << numio::formatDouble(p) << " ";
        os << "\n";
    }
    return wrapEnvelope(FileKind::Campaign, os.str());
}

IoExpected<TrainingData>
tryParseTrainingData(const std::string &text, const LoadOptions &opts)
{
    return parseWithPolicy<TrainingData>(
            text, FileKind::Campaign, opts, parseCampaignPayload,
            validateTrainingData);
}

IoExpected<TrainingData>
tryLoadTrainingData(const std::string &path, const LoadOptions &opts)
{
    return loadWithPolicy<TrainingData>(
            path, FileKind::Campaign, opts, parseCampaignPayload,
            validateTrainingData);
}

IoExpected<bool>
trySaveTrainingData(const TrainingData &data, const std::string &path)
{
    return tryWriteFile(path, serializeTrainingData(data));
}

TrainingData
deserializeTrainingData(const std::string &text)
{
    auto res = tryParseTrainingData(text);
    GPUPM_FATAL_IF(!res.ok(), "cannot parse campaign [",
                   ioErrcName(res.error().code), "]: ",
                   res.error().message);
    return res.value();
}

void
saveTrainingData(const TrainingData &data, const std::string &path)
{
    const auto res = trySaveTrainingData(data, path);
    GPUPM_FATAL_IF(!res.ok(), res.error().message);
}

TrainingData
loadTrainingData(const std::string &path)
{
    auto res = tryLoadTrainingData(path);
    GPUPM_FATAL_IF(!res.ok(), "cannot load campaign [",
                   ioErrcName(res.error().code), "]: ",
                   res.error().message);
    return res.value();
}

// -- Campaign checkpoints --------------------------------------------

std::string
serializeCampaignCheckpoint(const CampaignCheckpoint &ck)
{
    std::ostringstream os;
    os << "{\n";
    os << "\"format\":\"gpupm-checkpoint\",\n\"version\":1,\n";
    os << "\"seed\":" << std::to_string(ck.seed) << ",\n";
    os << "\"device\":"
       << std::to_string(static_cast<int>(ck.device)) << ",\n";
    os << "\"reference\":";
    putConfig(os, ck.reference);
    os << ",\n\"configs\":[";
    for (std::size_t i = 0; i < ck.configs.size(); ++i) {
        if (i)
            os << ",";
        putConfig(os, ck.configs[i]);
    }
    os << "],\n\"benchmarks\":[";
    for (std::size_t i = 0; i < ck.benchmark_names.size(); ++i) {
        if (i)
            os << ",";
        os << json::quote(ck.benchmark_names[i]);
    }
    os << "],\n\"utils_done\":[";
    for (std::size_t i = 0; i < ck.utils_done.size(); ++i)
        os << (i ? "," : "") << (ck.utils_done[i] ? 1 : 0);
    os << "],\n\"utils\":[";
    for (std::size_t b = 0; b < ck.utils.size(); ++b) {
        os << (b ? ",[" : "[");
        for (std::size_t i = 0; i < gpu::kNumComponents; ++i) {
            if (i)
                os << ",";
            os << numio::formatDouble(ck.utils[b][i]);
        }
        os << "]";
    }
    os << "],\n\"power_done\":[";
    for (std::size_t b = 0; b < ck.power_done.size(); ++b) {
        os << (b ? ",[" : "[");
        for (std::size_t c = 0; c < ck.power_done[b].size(); ++c)
            os << (c ? "," : "") << (ck.power_done[b][c] ? 1 : 0);
        os << "]";
    }
    os << "],\n\"power_w\":[";
    for (std::size_t b = 0; b < ck.power_w.size(); ++b) {
        os << (b ? ",\n[" : "\n[");
        for (std::size_t c = 0; c < ck.power_w[b].size(); ++c) {
            if (c)
                os << ",";
            os << numio::formatDouble(ck.power_w[b][c]);
        }
        os << "]";
    }
    const CampaignReport &r = ck.report;
    os << "],\n\"report\":{";
    os << "\"cells_total\":" << r.cells_total << ",";
    os << "\"cells_done\":" << r.cells_done << ",";
    os << "\"cells_resumed\":" << r.cells_resumed << ",";
    os << "\"cells_failed\":" << r.cells_failed << ",";
    os << "\"faults_injected\":" << r.faults_injected << ",\n";
    os << "\"attempts\":" << r.totals.attempts << ",";
    os << "\"retries\":" << r.totals.retries << ",";
    os << "\"timeouts\":" << r.totals.timeouts << ",";
    os << "\"call_failures\":" << r.totals.call_failures << ",";
    os << "\"corrupt_samples\":" << r.totals.corrupt_samples << ",";
    os << "\"outliers_rejected\":" << r.totals.outliers_rejected
       << ",";
    os << "\"quarantined_calls\":" << r.totals.quarantined_calls
       << ",";
    os << "\"backoff_total_s\":"
       << numio::formatDouble(r.totals.backoff_total_s);
    os << ",\n\"quarantined\":[";
    for (std::size_t i = 0; i < r.quarantined.size(); ++i) {
        if (i)
            os << ",";
        putConfig(os, r.quarantined[i]);
    }
    os << "],\n\"benchmark_reports\":[";
    for (std::size_t b = 0; b < r.benchmarks.size(); ++b) {
        const BenchmarkReport &br = r.benchmarks[b];
        os << (b ? ",\n{" : "\n{");
        os << "\"name\":" << json::quote(br.name);
        os << ",\"retries\":" << br.retries;
        os << ",\"call_failures\":" << br.call_failures;
        os << ",\"timeouts\":" << br.timeouts;
        os << ",\"outliers_rejected\":" << br.outliers_rejected;
        os << ",\"corrupt_samples\":" << br.corrupt_samples;
        os << ",\"faults_injected\":" << br.faults_injected;
        os << "}";
    }
    os << "]}\n}\n";
    return wrapEnvelope(FileKind::Checkpoint, os.str());
}

IoExpected<CampaignCheckpoint>
tryParseCampaignCheckpoint(const std::string &text,
                           const LoadOptions &opts)
{
    return parseWithPolicy<CampaignCheckpoint>(
            text, FileKind::Checkpoint, opts, parseCheckpointPayload,
            validateCheckpoint);
}

IoExpected<CampaignCheckpoint>
tryLoadCampaignCheckpoint(const std::string &path,
                          const LoadOptions &opts)
{
    return loadWithPolicy<CampaignCheckpoint>(
            path, FileKind::Checkpoint, opts, parseCheckpointPayload,
            validateCheckpoint);
}

IoExpected<bool>
trySaveCampaignCheckpoint(const CampaignCheckpoint &ck,
                          const std::string &path)
{
    // Write-then-rename so an interrupted write never corrupts an
    // existing checkpoint (rename within a directory is atomic on
    // POSIX filesystems).
    return tryWriteFileAtomic(path, serializeCampaignCheckpoint(ck));
}

CampaignCheckpoint
deserializeCampaignCheckpoint(const std::string &text)
{
    auto res = tryParseCampaignCheckpoint(text);
    GPUPM_FATAL_IF(!res.ok(), "cannot parse checkpoint [",
                   ioErrcName(res.error().code), "]: ",
                   res.error().message);
    return res.value();
}

void
saveCampaignCheckpoint(const CampaignCheckpoint &ck,
                       const std::string &path)
{
    const auto res = trySaveCampaignCheckpoint(ck, path);
    GPUPM_FATAL_IF(!res.ok(), res.error().message);
}

CampaignCheckpoint
loadCampaignCheckpoint(const std::string &path)
{
    auto res = tryLoadCampaignCheckpoint(path);
    GPUPM_FATAL_IF(!res.ok(), "cannot load checkpoint [",
                   ioErrcName(res.error().code), "]: ",
                   res.error().message);
    return res.value();
}

// -- Accuracy scoreboards --------------------------------------------

std::string
serializeScoreboard(const obs::Scoreboard &sb, bool include_samples)
{
    return wrapEnvelope(FileKind::Scoreboard,
                        sb.toJson(include_samples));
}

IoExpected<obs::Scoreboard>
tryParseScoreboard(const std::string &text, const LoadOptions &opts)
{
    return parseWithPolicy<obs::Scoreboard>(
            text, FileKind::Scoreboard, opts, parseScoreboardPayload,
            validateScoreboard);
}

IoExpected<obs::Scoreboard>
tryLoadScoreboard(const std::string &path, const LoadOptions &opts)
{
    return loadWithPolicy<obs::Scoreboard>(
            path, FileKind::Scoreboard, opts, parseScoreboardPayload,
            validateScoreboard);
}

IoExpected<bool>
trySaveScoreboard(const obs::Scoreboard &sb, const std::string &path,
                  bool include_samples)
{
    return tryWriteFile(path, serializeScoreboard(sb, include_samples));
}

} // namespace model
} // namespace gpupm
