/**
 * @file
 * Deterministic parser fuzz smoke test.
 *
 * The file loaders are a trust boundary: a corrupt artifact must come
 * back as a typed error, never as a crash, an assertion abort, an OOM
 * from a fuzzed size field, or a sanitizer finding. This tool applies
 * N seeded mutations (truncation, bit flips, byte stomps, splices,
 * "nan" smuggling, deletions, garbage) to golden copies of all three
 * file formats — both the v2 envelope and the legacy payload form —
 * and feeds every mutant to the matching try* parser and to
 * detectFileKind. Any exception escaping the typed API fails the run.
 * The shared JSON reader gets the same treatment on its own, with
 * mutants of the fig7 bench golden (bench/golden/, located through
 * GPUPM_GOLDEN_DIR) and of a Chrome trace, plus nesting bombs: each
 * must parse or come back as a typed json::Error.
 *
 * Runs as a plain test and, via scripts/reproduce_all.sh, under the
 * ASan+UBSan build. Fully deterministic: fixed seed, no time or
 * environment dependence.
 */

#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "common/json.hh"
#include "common/random.hh"
#include "core/model_io.hh"
#include "core/validate.hh"
#include "obs/scoreboard.hh"
#include "obs/trace.hh"

#ifndef GPUPM_GOLDEN_DIR
#error "GPUPM_GOLDEN_DIR must be defined by the build"
#endif

namespace
{

using namespace gpupm;

constexpr int kMutantsPerFormat = 1000;
constexpr std::uint64_t kSeed = 0xF0221u;

model::DvfsPowerModel
goldenModel()
{
    model::ModelParams p;
    p.beta0 = 52.0;
    p.beta1 = 10.5;
    p.beta2 = 15.0;
    p.beta3 = 7.25;
    for (std::size_t i = 0; i < gpu::kNumComponents; ++i)
        p.omega[i] = 3.0 + static_cast<double>(i);
    model::DvfsPowerModel m(gpu::DeviceKind::GtxTitanX, {975, 3505},
                            p);
    m.setVoltages({975, 3505}, {1.0, 1.0});
    m.setVoltages({595, 3505}, {0.85, 1.0});
    m.setVoltages({975, 810}, {1.0, 0.9});
    m.setVoltages({595, 810}, {0.85, 0.9});
    return m;
}

model::TrainingData
goldenCampaign()
{
    model::TrainingData data;
    data.device = gpu::DeviceKind::GtxTitanX;
    data.reference = {975, 3505};
    data.configs = {{975, 3505}, {595, 3505}, {975, 810},
                    {595, 810}};
    for (int b = 0; b < 3; ++b) {
        gpu::ComponentArray u{};
        for (std::size_t i = 0; i < gpu::kNumComponents; ++i)
            u[i] = b == 0 ? 0.0 : 0.1 * static_cast<double>(b + i);
        data.utils.push_back(u);
        std::vector<double> row;
        for (std::size_t c = 0; c < data.configs.size(); ++c)
            row.push_back(80.0 + 10.0 * b +
                          5.0 * static_cast<double>(c));
        data.power_w.push_back(row);
    }
    return data;
}

model::CampaignCheckpoint
goldenCheckpoint()
{
    model::CampaignCheckpoint ck;
    ck.seed = 7;
    ck.device = gpu::DeviceKind::GtxTitanX;
    ck.reference = {975, 3505};
    ck.configs = {{975, 3505}, {595, 3505}};
    ck.benchmark_names = {"add-sweep", "dram-stream"};
    ck.utils_done.push_back(1);
    ck.utils_done.push_back(0);
    for (int b = 0; b < 2; ++b) {
        gpu::ComponentArray u{};
        u[0] = 0.5 * b;
        ck.utils.push_back(u);
        std::vector<char> done;
        done.push_back(1);
        done.push_back(b == 0 ? 1 : 0);
        ck.power_done.push_back(done);
        ck.power_w.push_back({120.5, b == 0 ? 97.25 : 0.0});
    }
    ck.report.cells_total = 4;
    ck.report.cells_done = 3;
    for (const auto &name : ck.benchmark_names) {
        model::BenchmarkReport br;
        br.name = name;
        ck.report.benchmarks.push_back(br);
    }
    return ck;
}

obs::Scoreboard
goldenScoreboard()
{
    std::vector<obs::ResidualSample> samples;
    for (const char *app : {"stream", "dgemm"})
        for (int core : {595, 975})
            for (int mem : {810, 3505}) {
                obs::ResidualSample s;
                s.app = app;
                s.cfg = {core, mem};
                s.measured_w = 100.0 + core * 0.05 + mem * 0.01;
                s.predicted_w = s.measured_w * 1.05;
                s.constant_w = 40.0;
                for (std::size_t i = 0; i < s.component_w.size(); ++i)
                    s.component_w[i] = 0.5 * static_cast<double>(i);
                s.baseline_w = {{"abe", s.measured_w * 1.15}};
                samples.push_back(std::move(s));
            }
    return obs::Scoreboard::fromSamples(1, "GTX Titan X", {975, 3505},
                                        std::move(samples));
}

std::string
mutate(const std::string &orig, Rng &rng)
{
    std::string s = orig;
    switch (rng.next() % 7) {
      case 0: // truncate
        s = s.substr(0, rng.next() % (s.size() + 1));
        break;
      case 1: // single bit flip
        if (!s.empty())
            s[rng.next() % s.size()] ^=
                    static_cast<char>(1 << (rng.next() % 8));
        break;
      case 2: // byte stomp
        if (!s.empty())
            s[rng.next() % s.size()] =
                    static_cast<char>(rng.next() % 256);
        break;
      case 3: { // splice a block of the file over another
        if (s.size() >= 2) {
            const std::size_t len = 1 + rng.next() % (s.size() / 2);
            const std::size_t from =
                    rng.next() % (s.size() - len + 1);
            const std::size_t to = rng.next() % (s.size() - len + 1);
            s.replace(to, len, s.substr(from, len));
        }
        break;
      }
      case 4: { // NaN smuggling over an arbitrary position
        if (!s.empty()) {
            const std::size_t pos = rng.next() % s.size();
            s.replace(pos, std::min<std::size_t>(3, s.size() - pos),
                      rng.next() % 2 ? "nan" : "inf");
        }
        break;
      }
      case 5: { // delete a range
        if (!s.empty()) {
            const std::size_t a = rng.next() % s.size();
            const std::size_t len = 1 + rng.next() % (s.size() - a);
            s.erase(a, len);
        }
        break;
      }
      case 6: // empty or pure garbage
        if (rng.next() % 2) {
            s.clear();
        } else {
            s.assign(rng.next() % 64,
                     static_cast<char>(rng.next() % 256));
        }
        break;
    }
    return s;
}

/**
 * Feed mutants of one golden text to one typed parser. Returns 0 when
 * every mutant came back as a value or a typed error; 1 when anything
 * escaped as an exception.
 */
template <typename ParseFn, typename ValidateFn>
int
fuzzFormat(const char *name, const std::string &golden,
           ParseFn parse, ValidateFn validate)
{
    // The unmutated golden must parse.
    {
        auto res = parse(golden);
        if (!res.ok()) {
            std::fprintf(stderr, "%s: golden does not parse: %s\n",
                         name, res.error().message.c_str());
            return 1;
        }
    }

    Rng rng(kSeed);
    int accepted = 0;
    for (int i = 0; i < kMutantsPerFormat; ++i) {
        const std::string mutant = mutate(golden, rng);
        try {
            auto res = parse(mutant);
            if (res.ok()) {
                ++accepted;
                // A surviving mutant still goes through validation;
                // the report must build without throwing.
                (void)validate(res.value()).summary();
            }
            (void)model::detectFileKind(mutant);
        } catch (const std::exception &e) {
            std::fprintf(stderr,
                         "%s: mutant %d escaped the typed API: %s\n",
                         name, i, e.what());
            return 1;
        } catch (...) {
            std::fprintf(stderr,
                         "%s: mutant %d threw a non-std exception\n",
                         name, i);
            return 1;
        }
    }
    std::printf("%s: %d mutants, %d parsed clean\n", name,
                kMutantsPerFormat, accepted);
    return 0;
}

/** A small Chrome trace through the real exporter: a root span with
 *  a child, an error span and args that need escaping. */
std::string
chromeTrace()
{
    obs::Tracer &tracer = obs::Tracer::global();
    tracer.clear();
    tracer.enable();
    const auto span = [](const char *name, const char *cat,
                         std::uint64_t trace, std::uint64_t id,
                         std::uint64_t parent) {
        obs::TraceEvent ev;
        ev.name = name;
        ev.cat = cat;
        ev.ts_us = static_cast<std::int64_t>(id % 1000);
        ev.dur_us = 12;
        ev.trace_id = trace;
        ev.span_id = id;
        ev.parent_span_id = parent;
        return ev;
    };
    obs::TraceEvent root = span("monitor.tick", "monitor", 0x12, 0x12, 0);
    obs::TraceEvent child = span("predict", "model", 0x12, 0x56, 0x12);
    child.args = {{"app", "BLCKSC"}, {"note", "quote \" tab\t \x01"}};
    obs::TraceEvent fault =
            span("fleet.watchdog_fire", "fleet", 0x9a, 0x9a, 0);
    fault.error = true;
    tracer.record(child);
    tracer.record(root);
    tracer.record(fault);
    std::string text = tracer.renderChromeTrace();
    tracer.disable();
    tracer.clear();
    return text;
}

/**
 * Feed mutants of one JSON document to the shared reader. Returns 0
 * when every mutant parsed or came back as a typed error pointing
 * inside the mutant; 1 otherwise.
 */
int
fuzzJson(const char *name, const std::string &golden)
{
    json::Value doc;
    json::Error err;
    if (!json::parse(golden, doc, err)) {
        std::fprintf(stderr, "%s: golden does not parse: %s\n", name,
                     err.message().c_str());
        return 1;
    }
    Rng rng(kSeed);
    int accepted = 0;
    for (int i = 0; i < kMutantsPerFormat; ++i) {
        const std::string mutant = mutate(golden, rng);
        if (json::parse(mutant, doc, err)) {
            ++accepted;
        } else if (err.offset > mutant.size() ||
                   json::errcName(err.code) == "unknown") {
            std::fprintf(stderr, "%s: mutant %d: untyped error %s\n",
                         name, i, err.message().c_str());
            return 1;
        }
    }
    std::printf("%s: %d mutants, %d parsed clean\n", name,
                kMutantsPerFormat, accepted);
    return 0;
}

/** Nesting far past the cap must stop at it with a typed error. */
int
fuzzNestingBombs()
{
    std::string objects, mixed;
    for (int i = 0; i < 100000; ++i) {
        objects += "{\"k\":";
        mixed += i % 2 ? "[" : "{\"k\":";
    }
    for (const std::string &bomb :
         {std::string(200000, '['), objects, mixed}) {
        json::Value doc;
        json::Error err;
        if (json::parse(bomb, doc, err) ||
            err.code != json::Errc::Nesting) {
            std::fprintf(stderr, "json.nesting: bomb not rejected as "
                                 "nesting: %s\n",
                         err.message().c_str());
            return 1;
        }
    }
    std::printf("json.nesting: 3 bombs, all rejected at depth %d\n",
                json::kMaxDepth);
    return 0;
}

} // namespace

int
main()
{
    const auto model_text = model::serializeModel(goldenModel());
    const auto campaign_text =
            model::serializeTrainingData(goldenCampaign());
    const auto checkpoint_text =
            model::serializeCampaignCheckpoint(goldenCheckpoint());
    const auto scoreboard_text =
            model::serializeScoreboard(goldenScoreboard());
    // Legacy (pre-envelope) forms exercise the v0 compatibility path.
    const auto legacy_model = goldenModel().serialize();
    const auto legacy_campaign =
            campaign_text.substr(campaign_text.find('\n') + 1);
    const auto legacy_checkpoint =
            checkpoint_text.substr(checkpoint_text.find('\n') + 1);
    // A scoreboard's legacy form is the raw JSON payload (what
    // `gpupm audit --json` prints and bench/golden/ stores).
    const auto legacy_scoreboard = goldenScoreboard().toJson(true);

    const auto parse_model = [](const std::string &t) {
        return model::tryParseModel(t);
    };
    const auto parse_campaign = [](const std::string &t) {
        return model::tryParseTrainingData(t);
    };
    const auto parse_checkpoint = [](const std::string &t) {
        return model::tryParseCampaignCheckpoint(t);
    };
    const auto parse_scoreboard = [](const std::string &t) {
        return model::tryParseScoreboard(t);
    };

    int rc = 0;
    rc |= fuzzFormat("model.v2", model_text, parse_model,
                     model::validateModel);
    rc |= fuzzFormat("model.legacy", legacy_model, parse_model,
                     model::validateModel);
    rc |= fuzzFormat("campaign.v2", campaign_text, parse_campaign,
                     model::validateTrainingData);
    rc |= fuzzFormat("campaign.legacy", legacy_campaign,
                     parse_campaign, model::validateTrainingData);
    rc |= fuzzFormat("checkpoint.v2", checkpoint_text,
                     parse_checkpoint, model::validateCheckpoint);
    rc |= fuzzFormat("checkpoint.legacy", legacy_checkpoint,
                     parse_checkpoint, model::validateCheckpoint);
    rc |= fuzzFormat("scoreboard.v2", scoreboard_text,
                     parse_scoreboard, model::validateScoreboard);
    rc |= fuzzFormat("scoreboard.legacy", legacy_scoreboard,
                     parse_scoreboard, model::validateScoreboard);

    std::string bench_golden;
    if (!json::readFile(std::string(GPUPM_GOLDEN_DIR) +
                                "/BENCH_fig7_validation.json",
                        bench_golden))
        return 1;
    rc |= fuzzJson("json.bench_golden", bench_golden);
    rc |= fuzzJson("json.chrome_trace", chromeTrace());
    rc |= fuzzNestingBombs();
    return rc;
}
