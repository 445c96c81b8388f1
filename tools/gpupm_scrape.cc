/**
 * @file
 * Minimal HTTP scrape client for the `gpupm monitor` endpoints.
 *
 * Exists so the test suite can exercise the live-telemetry daemon
 * without external tools (no curl dependency in CI). Two modes:
 *
 *   gpupm_scrape get <port> <path> [--expect=<substr>]...
 *                    [--status=<code>] [--method=<verb>]
 *                    [--timeout-ms=<n>]
 *       one GET (or <verb>) against 127.0.0.1:<port>, body on
 *       stdout; exits non-zero when the status or any expected
 *       substring does not match. Without an explicit --status any
 *       HTTP error (status >= 400) fails, so a scripted scrape
 *       cannot mistake an error page for data; --timeout-ms bounds
 *       each socket operation (default 5000).
 *
 *   gpupm_scrape monitor-selftest <gpupm-binary> <device>
 *                    --work=<dir>
 *       the full acceptance flow of the cli_monitor_scrape ctest:
 *       fork/exec `gpupm monitor <device>` on an ephemeral port,
 *       wait for the port file, scrape /metrics, /healthz,
 *       /scoreboard, /tracez, /profilez, /alertz and /api/query
 *       (asserting the JSON bodies parse in full and the folded
 *       profile parses), fire SIGUSR1 and require the live
 *       diagnostic dump on the daemon's stderr, assert the 400/404/
 *       405 error paths (non-finite query times must answer promptly
 *       while the sampler keeps ticking), SIGTERM the daemon and
 *       require a clean exit 0; then SIGTERM a second daemon the
 *       moment its port file appears and require the same clean exit
 *       with its post-mortem dump.
 *       A cmake -P script cannot background a process, so the
 *       orchestration lives here.
 *
 *   gpupm_scrape drift-demo <gpupm-binary> <device> --work=<dir>
 *       end-to-end drift alerting: start the monitor with a seeded
 *       accuracy fault (--inject-drift), watch the rolling-MAE
 *       series degrade through /api/query, require the drift rule
 *       to go firing on /alertz (with gpupm_alerts_firing=1 in
 *       /metrics and /healthz degraded) and then resolve once the
 *       fault window passes, and require the alert transitions in
 *       the NDJSON event log after a clean SIGTERM exit.
 */

#include <arpa/inet.h>
#include <netinet/in.h>
#include <signal.h>
#include <sys/socket.h>
#include <sys/stat.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iterator>
#include <string>
#include <thread>
#include <vector>

#include "common/json.hh"

namespace
{

/** One blocking HTTP exchange against 127.0.0.1:port. Every socket
 *  operation is bounded by timeout_ms so a wedged server turns into a
 *  typed failure instead of a hung scrape. */
bool
httpExchange(int port, const std::string &method,
             const std::string &path, int timeout_ms, int *status,
             std::string *body, std::string *err)
{
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0) {
        *err = std::string("socket: ") + std::strerror(errno);
        return false;
    }
    if (timeout_ms < 1)
        timeout_ms = 1;
    timeval tv{};
    tv.tv_sec = timeout_ms / 1000;
    tv.tv_usec = (timeout_ms % 1000) * 1000;
    ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
    ::setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof(tv));

    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(static_cast<std::uint16_t>(port));
    if (::connect(fd, reinterpret_cast<sockaddr *>(&addr),
                  sizeof(addr)) < 0) {
        *err = std::string("connect: ") + std::strerror(errno);
        ::close(fd);
        return false;
    }

    const std::string req = method + " " + path +
                            " HTTP/1.1\r\nHost: 127.0.0.1\r\n"
                            "Connection: close\r\n\r\n";
    std::size_t sent = 0;
    while (sent < req.size()) {
        const ssize_t n = ::send(fd, req.data() + sent,
                                 req.size() - sent, 0);
        if (n <= 0) {
            *err = std::string("send: ") + std::strerror(errno);
            ::close(fd);
            return false;
        }
        sent += static_cast<std::size_t>(n);
    }

    std::string response;
    char chunk[4096];
    for (;;) {
        const ssize_t n = ::recv(fd, chunk, sizeof(chunk), 0);
        if (n < 0) {
            *err = std::string("recv: ") + std::strerror(errno);
            ::close(fd);
            return false;
        }
        if (n == 0)
            break; // Connection: close — the server ends the stream
        response.append(chunk, static_cast<std::size_t>(n));
    }
    ::close(fd);

    // Status line: HTTP/1.1 NNN Reason
    const std::size_t sp = response.find(' ');
    if (response.rfind("HTTP/", 0) != 0 ||
        sp == std::string::npos || sp + 4 > response.size()) {
        *err = "malformed response: " + response.substr(0, 40);
        return false;
    }
    *status = std::atoi(response.c_str() + sp + 1);
    const std::size_t head_end = response.find("\r\n\r\n");
    *body = head_end == std::string::npos
                    ? ""
                    : response.substr(head_end + 4);
    return true;
}

int
fail(const std::string &what)
{
    std::fprintf(stderr, "gpupm_scrape: FAIL: %s\n", what.c_str());
    return 1;
}

/**
 * Scrape once and require a status plus body substrings.
 * want_status < 0 means "any non-error": the scrape fails on HTTP
 * status >= 400 instead of demanding one exact code.
 */
int
checkEndpoint(int port, const std::string &method,
              const std::string &path, int want_status,
              const std::vector<std::string> &expects,
              std::string *body_out = nullptr, int timeout_ms = 5000)
{
    int status = 0;
    std::string body, err;
    if (!httpExchange(port, method, path, timeout_ms, &status, &body,
                      &err))
        return fail(method + " " + path + ": " + err);
    if (want_status < 0 && status >= 400)
        return fail(method + " " + path + ": HTTP error status " +
                    std::to_string(status));
    if (want_status >= 0 && status != want_status)
        return fail(method + " " + path + ": status " +
                    std::to_string(status) + ", want " +
                    std::to_string(want_status));
    for (const auto &e : expects)
        if (body.find(e) == std::string::npos)
            return fail(method + " " + path + ": body lacks '" + e +
                        "'");
    if (body_out)
        *body_out = body;
    std::fprintf(stderr, "gpupm_scrape: ok %s %s (%d, %zu bytes)\n",
                 method.c_str(), path.c_str(), status, body.size());
    return 0;
}

/**
 * True when the whole body parses through the shared JSON reader
 * with an object or array at the top; catches a truncated or
 * interleaved HTTP body, which substring expectations alone would
 * miss. Prints the reader's error otherwise.
 */
bool
jsonDocument(const std::string &body)
{
    gpupm::json::Value doc;
    gpupm::json::Error err;
    if (!gpupm::json::parse(body, doc, err)) {
        std::fprintf(stderr, "gpupm_scrape: invalid JSON body: %s\n",
                     err.message().c_str());
        return false;
    }
    return doc.kind == gpupm::json::Value::Kind::Object ||
           doc.kind == gpupm::json::Value::Kind::Array;
}

/**
 * Structural well-formedness of a collapsed-stack profile: at least
 * one line, every line `frames... count` with a ;-separated stack
 * and a decimal sample count.
 */
bool
foldedWellFormed(const std::string &body)
{
    std::size_t pos = 0;
    int lines = 0;
    while (pos < body.size()) {
        std::size_t eol = body.find('\n', pos);
        if (eol == std::string::npos)
            eol = body.size();
        const std::string line = body.substr(pos, eol - pos);
        pos = eol + 1;
        if (line.empty())
            continue;
        const std::size_t sp = line.rfind(' ');
        if (sp == std::string::npos || sp == 0 ||
            sp + 1 >= line.size())
            return false;
        for (std::size_t j = sp + 1; j < line.size(); ++j)
            if (line[j] < '0' || line[j] > '9')
                return false;
        ++lines;
    }
    return lines > 0;
}

/** Value of the first `name value` sample line in Prometheus text. */
double
metricValue(const std::string &prom, const std::string &name)
{
    std::size_t pos = 0;
    while ((pos = prom.find(name, pos)) != std::string::npos) {
        // Must start a line and not be a HELP/TYPE or _bucket line.
        if (pos > 0 && prom[pos - 1] != '\n') {
            pos += name.size();
            continue;
        }
        const std::size_t eol = prom.find('\n', pos);
        const std::string line = prom.substr(pos, eol - pos);
        const std::size_t sp = line.rfind(' ');
        if (sp == std::string::npos)
            return -1.0;
        const std::string head = line.substr(0, sp);
        if (head != name && head.rfind(name + "{", 0) != 0) {
            pos += name.size();
            continue;
        }
        return std::atof(line.c_str() + sp + 1);
    }
    return -1.0;
}

int
cmdGet(int argc, char **argv)
{
    if (argc < 4)
        return fail("usage: gpupm_scrape get <port> <path> "
                    "[--expect=<s>]... [--status=<n>] "
                    "[--method=<verb>]");
    const int port = std::atoi(argv[2]);
    const std::string path = argv[3];
    // No explicit --status: accept any non-error, fail on >= 400.
    int want_status = -1;
    int timeout_ms = 5000;
    std::string method = "GET";
    std::vector<std::string> expects;
    for (int i = 4; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg.rfind("--expect=", 0) == 0)
            expects.push_back(arg.substr(9));
        else if (arg.rfind("--status=", 0) == 0)
            want_status = std::atoi(arg.c_str() + 9);
        else if (arg.rfind("--method=", 0) == 0)
            method = arg.substr(9);
        else if (arg.rfind("--timeout-ms=", 0) == 0)
            timeout_ms = std::atoi(arg.c_str() + 13);
        else
            return fail("unknown argument '" + arg + "'");
    }
    std::string body;
    const int rc = checkEndpoint(port, method, path, want_status,
                                 expects, &body, timeout_ms);
    if (rc == 0)
        std::fwrite(body.data(), 1, body.size(), stdout);
    return rc;
}

/** A forked `gpupm monitor` daemon under test. */
struct MonitorProc
{
    pid_t pid = -1;
    int port = 0;
    std::string port_file;
    std::string events_file;
    std::string stderr_file;
};

/**
 * Fork/exec `gpupm monitor <device>` on an ephemeral port with the
 * given extra flags and wait for the port file. The daemon gets a
 * generous self-destruct (--duration=60s) so a hung test cannot leak
 * a process past the ctest timeout; its stderr goes to a file so
 * diagnostics can be asserted on.
 */
bool
spawnMonitor(const std::string &gpupm, const std::string &device,
             const std::string &work,
             const std::vector<std::string> &extra_flags,
             MonitorProc *proc, std::string *err)
{
    ::mkdir(work.c_str(), 0755); // fine if it already exists
    proc->port_file = work + "/monitor.port";
    proc->events_file = work + "/monitor.ndjson";
    proc->stderr_file = work + "/monitor.stderr";
    std::remove(proc->port_file.c_str());
    std::remove(proc->events_file.c_str());
    std::remove(proc->stderr_file.c_str());

    proc->pid = ::fork();
    if (proc->pid < 0) {
        *err = std::string("fork: ") + std::strerror(errno);
        return false;
    }
    if (proc->pid == 0) {
        if (!std::freopen(proc->stderr_file.c_str(), "w", stderr))
            _exit(126);
        std::vector<std::string> args{gpupm,
                                      "monitor",
                                      device,
                                      "--port=0",
                                      "--period-ms=50",
                                      "--duration=60s",
                                      "--port-file=" + proc->port_file,
                                      "--events-out=" +
                                              proc->events_file};
        args.insert(args.end(), extra_flags.begin(),
                    extra_flags.end());
        std::vector<char *> argv;
        argv.reserve(args.size() + 1);
        for (auto &a : args)
            argv.push_back(a.data());
        argv.push_back(nullptr);
        ::execv(gpupm.c_str(), argv.data());
        std::fprintf(stderr, "exec %s: %s\n", gpupm.c_str(),
                     std::strerror(errno));
        _exit(127);
    }

    // The monitor trains its model before listening; poll the port
    // file until it appears (or the child dies).
    const auto deadline = std::chrono::steady_clock::now() +
                          std::chrono::seconds(30);
    while (std::chrono::steady_clock::now() < deadline) {
        int wstatus = 0;
        if (::waitpid(proc->pid, &wstatus, WNOHANG) == proc->pid) {
            proc->pid = -1;
            *err = "monitor exited before listening (status " +
                   std::to_string(wstatus) + ")";
            return false;
        }
        std::ifstream pf(proc->port_file);
        if (pf >> proc->port && proc->port > 0)
            return true;
        proc->port = 0;
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    *err = "no port file after 30 s";
    return false;
}

/** Reap `pid` within 10 s of a signal; false while it still runs. */
bool
reapWithin10s(pid_t pid, int *wstatus)
{
    for (int waited_ms = 0; waited_ms <= 10000; waited_ms += 50) {
        if (::waitpid(pid, wstatus, WNOHANG) == pid)
            return true;
        std::this_thread::sleep_for(std::chrono::milliseconds(50));
    }
    return false;
}

int
cmdMonitorSelftest(int argc, char **argv)
{
    if (argc < 4)
        return fail("usage: gpupm_scrape monitor-selftest "
                    "<gpupm-binary> <device> --work=<dir>");
    const std::string gpupm = argv[2];
    const std::string device = argv[3];
    std::string work = ".";
    for (int i = 4; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg.rfind("--work=", 0) == 0)
            work = arg.substr(7);
        else
            return fail("unknown argument '" + arg + "'");
    }

    MonitorProc proc;
    std::string spawn_err;
    if (!spawnMonitor(gpupm, device, work, {}, &proc, &spawn_err)) {
        if (proc.pid > 0) {
            ::kill(proc.pid, SIGKILL);
            ::waitpid(proc.pid, nullptr, 0);
        }
        return fail(spawn_err);
    }
    const pid_t pid = proc.pid;
    const int port = proc.port;
    const std::string events_file = proc.events_file;
    const std::string stderr_file = proc.stderr_file;
    auto dumpStderr = [&] {
        std::ifstream se(stderr_file);
        std::string l;
        while (std::getline(se, l))
            std::fprintf(stderr, "monitor stderr| %s\n", l.c_str());
    };
    auto killAndFail = [&](const std::string &what) {
        ::kill(pid, SIGKILL);
        ::waitpid(pid, nullptr, 0);
        dumpStderr();
        return fail(what);
    };
    std::fprintf(stderr, "gpupm_scrape: monitor up on port %d\n",
                 port);

    // Let the sampling loop land a handful of ticks first.
    std::this_thread::sleep_for(std::chrono::milliseconds(500));

    std::string prom;
    if (checkEndpoint(port, "GET", "/metrics", 200,
                      {"gpupm_build_info{",
                       "gpupm_process_uptime_seconds",
                       "gpupm_accuracy_samples_total",
                       "gpupm_accuracy_abs_error_percent_bucket",
                       "gpupm_monitor_ticks_total",
                       "gpupm_tsdb_series",
                       "gpupm_alerts_firing{rule=\"accuracy_drift_" +
                               device + "\"}",
                       "gpupm_http_request_seconds_bucket{path=\""
                       "/metrics\"",
                       "git_sha="},
                      &prom) != 0)
        return killAndFail("/metrics check failed");
    const double ticks =
            metricValue(prom, "gpupm_monitor_ticks_total");
    const double samples =
            metricValue(prom, "gpupm_accuracy_samples_total");
    const double measured =
            metricValue(prom, "gpupm_monitor_last_measured_watts");
    if (ticks < 1.0)
        return killAndFail("gpupm_monitor_ticks_total not > 0");
    if (samples < 1.0)
        return killAndFail("gpupm_accuracy_samples_total not > 0");
    if (measured < 10.0 || measured > 1000.0)
        return killAndFail("gpupm_monitor_last_measured_watts "
                           "implausible: " +
                           std::to_string(measured));

    if (checkEndpoint(port, "GET", "/healthz", 200,
                      {"\"status\":\"ok\"", "\"provenance\":",
                       "\"git_sha\"",
                       "\"device\":\"" + device + "\""}) != 0)
        return killAndFail("/healthz check failed");
    std::string json_body;
    if (checkEndpoint(port, "GET", "/scoreboard", 200,
                      {"\"gpupm_scoreboard_version\"",
                       "\"summary\":", "\"per_app\":"},
                      &json_body) != 0)
        return killAndFail("/scoreboard check failed");
    if (!jsonDocument(json_body))
        return killAndFail("/scoreboard body is not valid JSON");
    if (checkEndpoint(port, "GET", "/tracez", 200,
                      {"\"records\":", "monitor.sample",
                       "monitor.start"},
                      &json_body) != 0)
        return killAndFail("/tracez check failed");
    if (!jsonDocument(json_body))
        return killAndFail("/tracez body is not valid JSON");

    // The alert engine ships with the built-in drift rule; the
    // embedded store must answer range queries over the live series.
    if (checkEndpoint(port, "GET", "/alertz", 200,
                      {"\"rules\":[", "accuracy_drift_" + device,
                       "\"kind\":\"drift\"", "\"history\":["},
                      &json_body) != 0)
        return killAndFail("/alertz check failed");
    if (!jsonDocument(json_body))
        return killAndFail("/alertz body is not valid JSON");
    if (checkEndpoint(port, "GET", "/alertz?format=text", 200,
                      {"alerts @", "accuracy_drift_" + device}) != 0)
        return killAndFail("/alertz text check failed");
    if (checkEndpoint(port, "GET",
                      "/api/query?series=gpupm_accuracy_rolling_mae_"
                      "pct&range=60s&step=1s",
                      200,
                      {"\"ok\":true", "\"points\":[{", "\"avg\":"},
                      &json_body) != 0)
        return killAndFail("/api/query check failed");
    if (!jsonDocument(json_body))
        return killAndFail("/api/query body is not valid JSON");
    if (checkEndpoint(port, "GET", "/api/query", 400,
                      {"usage: /api/query"}) != 0)
        return killAndFail("/api/query missing-series check failed");
    if (checkEndpoint(port, "GET",
                      "/api/query?series=no_such_series&range=10s",
                      404, {}) != 0)
        return killAndFail("/api/query unknown-series check failed");
    // Non-finite or out-of-range times are a prompt 400, never a
    // query: a wedged one would hold the tsdb and stall the sampler.
    for (const char *bad : {"range=inf", "range=nan", "range=1e300",
                            "step=1e300"}) {
        if (checkEndpoint(port, "GET",
                          std::string("/api/query?series="
                                      "gpupm_monitor_ticks_total&") +
                                  bad,
                          400, {"usage: /api/query"}, nullptr,
                          2000) != 0)
            return killAndFail(std::string("/api/query ") + bad +
                               " not rejected");
    }
    if (checkEndpoint(port, "GET", "/metrics", 200, {}, &prom) != 0)
        return killAndFail("/metrics after bad queries failed");
    const double ticks_after_bad =
            metricValue(prom, "gpupm_monitor_ticks_total");
    std::this_thread::sleep_for(std::chrono::milliseconds(300));
    if (checkEndpoint(port, "GET", "/metrics", 200, {}, &prom) != 0 ||
        metricValue(prom, "gpupm_monitor_ticks_total") <=
                ticks_after_bad)
        return killAndFail("sampler stopped ticking after bad queries");

    // /api/traces serves the tail-sampled trace store: every sampler
    // tick roots a fresh trace, so assembled monitor.tick traces with
    // correlated span ids must be queryable, filters must compose and
    // bogus parameters must be rejected with the usage string.
    if (checkEndpoint(port, "GET", "/api/traces",
                      200,
                      {"\"traces\":[", "\"trace_id\":\"",
                       "monitor.tick", "\"spans\":[",
                       "\"memory_bound_bytes\":"},
                      &json_body) != 0)
        return killAndFail("/api/traces check failed");
    if (!jsonDocument(json_body))
        return killAndFail("/api/traces body is not valid JSON");
    if (checkEndpoint(port, "GET",
                      "/api/traces?category=monitor&min_ms=0&limit=2",
                      200, {"monitor.tick"}) != 0)
        return killAndFail("/api/traces filtered check failed");
    for (const char *bad : {"error=2", "min_ms=banana", "min_ms=nan"}) {
        if (checkEndpoint(port, "GET",
                          std::string("/api/traces?") + bad, 400,
                          {"usage: /api/traces"}) != 0)
            return killAndFail(std::string("/api/traces ") + bad +
                               " not rejected");
    }

    // /profilez runs the wall-clock sampling profiler in-place; the
    // idle daemon sits in its instrumented wait/tick spans, so the
    // folded profile must parse and carry monitor-attributed stacks.
    std::string folded;
    if (checkEndpoint(port, "GET", "/profilez?seconds=0.5", 200,
                      {"monitor"}, &folded) != 0)
        return killAndFail("/profilez check failed");
    if (!foldedWellFormed(folded))
        return killAndFail("/profilez body is not a folded profile");
    if (checkEndpoint(port, "GET", "/profilez?seconds=0.2&json=1",
                      200,
                      {"\"mode\":\"wall\"", "\"attributed_pct\":",
                       "\"categories\":"},
                      &json_body) != 0)
        return killAndFail("/profilez json check failed");
    if (!jsonDocument(json_body))
        return killAndFail("/profilez json body is not valid JSON");

    // SIGUSR1 must produce a live diagnostic dump on the daemon's
    // stderr without disturbing the process.
    if (::kill(pid, SIGUSR1) != 0)
        return killAndFail(std::string("kill SIGUSR1: ") +
                           std::strerror(errno));
    bool dumped = false;
    for (int waited_ms = 0; waited_ms < 5000 && !dumped;
         waited_ms += 100) {
        std::this_thread::sleep_for(std::chrono::milliseconds(100));
        std::ifstream se(stderr_file);
        std::string text((std::istreambuf_iterator<char>(se)),
                         std::istreambuf_iterator<char>());
        dumped = text.find("=== live diagnostic (SIGUSR1) ===") !=
                         std::string::npos &&
                 text.find("=== end live diagnostic ===") !=
                         std::string::npos;
    }
    if (!dumped)
        return killAndFail("no SIGUSR1 diagnostic dump within 5 s");
    std::fprintf(stderr,
                 "gpupm_scrape: ok SIGUSR1 live diagnostic dump\n");

    // A second /metrics scrape must show the first one accounted,
    // the trace-store gauges live, and latency histograms carrying
    // OpenMetrics exemplars that link back to stored trace ids.
    if (checkEndpoint(port, "GET", "/metrics", 200, {}, &prom) != 0)
        return killAndFail("second /metrics scrape failed");
    if (metricValue(prom, "gpupm_http_requests_total{path=\""
                          "/metrics\"}") < 1.0)
        return killAndFail("/metrics requests not counted");
    if (metricValue(prom, "gpupm_trace_store_traces") < 1.0)
        return killAndFail("gpupm_trace_store_traces not > 0");
    if (prom.find(" # {trace_id=\"") == std::string::npos)
        return killAndFail("/metrics carries no trace exemplars");

    // Error paths: unknown route and non-GET method.
    if (checkEndpoint(port, "GET", "/nope", 404, {"unknown path"}) !=
        0)
        return killAndFail("404 check failed");
    if (checkEndpoint(port, "POST", "/metrics", 405,
                      {"method not allowed"}) != 0)
        return killAndFail("405 check failed");

    // Graceful shutdown: SIGTERM must produce a clean exit 0.
    if (::kill(pid, SIGTERM) != 0)
        return killAndFail(std::string("kill: ") +
                           std::strerror(errno));
    int wstatus = 0;
    if (!reapWithin10s(pid, &wstatus))
        return killAndFail("monitor did not exit within 10 s of "
                           "SIGTERM");
    if (!WIFEXITED(wstatus) || WEXITSTATUS(wstatus) != 0)
        return fail("monitor exit status " +
                    std::to_string(wstatus) + " after SIGTERM");

    // The event log must hold at least one well-formed NDJSON line.
    std::ifstream ev(events_file);
    std::string line;
    if (!std::getline(ev, line) ||
        line.find("\"measured_w\":") == std::string::npos ||
        line.find("\"predicted_w\":") == std::string::npos)
        return fail("event log missing or malformed: " + events_file);

    // A SIGTERM sent the moment the port file appears must take the
    // same clean path: exit 0 with the post-mortem dump.
    MonitorProc early;
    if (!spawnMonitor(gpupm, device, work + "/sigterm-at-start", {},
                      &early, &spawn_err)) {
        if (early.pid > 0) {
            ::kill(early.pid, SIGKILL);
            ::waitpid(early.pid, nullptr, 0);
        }
        return fail("early-SIGTERM monitor: " + spawn_err);
    }
    ::kill(early.pid, SIGTERM);
    if (!reapWithin10s(early.pid, &wstatus)) {
        ::kill(early.pid, SIGKILL);
        ::waitpid(early.pid, nullptr, 0);
        return fail("monitor did not exit within 10 s of an early "
                    "SIGTERM");
    }
    if (!WIFEXITED(wstatus) || WEXITSTATUS(wstatus) != 0)
        return fail("monitor exit status " + std::to_string(wstatus) +
                    " after an early SIGTERM");
    std::ifstream se(early.stderr_file);
    const std::string early_err((std::istreambuf_iterator<char>(se)),
                                std::istreambuf_iterator<char>());
    if (early_err.find("flight recorder tail") == std::string::npos)
        return fail("no post-mortem dump after an early SIGTERM");
    std::fprintf(stderr, "gpupm_scrape: ok early SIGTERM exit\n");

    std::fprintf(stderr,
                 "gpupm_scrape: monitor selftest passed (clean "
                 "SIGTERM exit)\n");
    return 0;
}

/**
 * End-to-end drift alerting against a live daemon: a seeded accuracy
 * fault degrades the rolling MAE, the drift rule must fire (visible
 * on /alertz, /metrics and /healthz) and then resolve once the fault
 * window passes, and the transitions must land in the NDJSON event
 * log.
 */
int
cmdDriftDemo(int argc, char **argv)
{
    if (argc < 4)
        return fail("usage: gpupm_scrape drift-demo <gpupm-binary> "
                    "<device> --work=<dir>");
    const std::string gpupm = argv[2];
    const std::string device = argv[3];
    std::string work = ".";
    for (int i = 4; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg.rfind("--work=", 0) == 0)
            work = arg.substr(7);
        else
            return fail("unknown argument '" + arg + "'");
    }
    const std::string rule = "accuracy_drift_" + device;

    // Injection window in probe ticks at 50 ms/tick: ~2 s healthy
    // baseline, ~2 s degraded measurements, recovery afterwards. The
    // alerting knobs mirror the deterministic `gpupm alerts` ctest;
    // here the same parameters run against the wall-clock daemon.
    MonitorProc proc;
    std::string spawn_err;
    if (!spawnMonitor(gpupm, device, work,
                      {"--inject-drift=40:80:1.5",
                       "--rolling-window=16", "--drift-window=1s",
                       "--drift-for=250ms", "--drift-cooldown=1s",
                       "--drift-tolerance=9",
                       "--healthz-degraded-503"},
                      &proc, &spawn_err)) {
        if (proc.pid > 0) {
            ::kill(proc.pid, SIGKILL);
            ::waitpid(proc.pid, nullptr, 0);
        }
        return fail(spawn_err);
    }
    const pid_t pid = proc.pid;
    const int port = proc.port;
    auto dumpStderr = [&] {
        std::ifstream se(proc.stderr_file);
        std::string l;
        while (std::getline(se, l))
            std::fprintf(stderr, "monitor stderr| %s\n", l.c_str());
    };
    auto killAndFail = [&](const std::string &what) {
        ::kill(pid, SIGKILL);
        ::waitpid(pid, nullptr, 0);
        dumpStderr();
        return fail(what);
    };
    std::fprintf(stderr, "gpupm_scrape: monitor up on port %d\n",
                 port);

    // Poll /alertz until the body carries the wanted marker. The
    // injection begins ~2 s in and the hysteresis adds ~250 ms, so
    // 30 s is generous even on a loaded CI box.
    auto waitAlertz = [&](const std::string &marker,
                          const char *label) {
        const auto deadline = std::chrono::steady_clock::now() +
                              std::chrono::seconds(30);
        while (std::chrono::steady_clock::now() < deadline) {
            int status = 0;
            std::string body, err;
            if (httpExchange(port, "GET", "/alertz", 2000, &status,
                             &body, &err) &&
                status == 200 &&
                body.find(marker) != std::string::npos)
                return true;
            std::this_thread::sleep_for(
                    std::chrono::milliseconds(100));
        }
        std::fprintf(stderr,
                     "gpupm_scrape: timed out waiting for %s\n",
                     label);
        return false;
    };

    if (!waitAlertz("\"firing\":[\"" + rule + "\"]",
                    "drift rule firing"))
        return killAndFail("drift rule never fired");
    std::fprintf(stderr, "gpupm_scrape: ok drift rule firing\n");

    // While firing: the gauge must read 1, /healthz must degrade
    // with the rule name (and 503, since the flag is set), and the
    // MAE series must be queryable with degraded points in range.
    std::string prom;
    if (checkEndpoint(port, "GET", "/metrics", 200, {}, &prom) != 0)
        return killAndFail("/metrics scrape while firing failed");
    if (metricValue(prom, "gpupm_alerts_firing{rule=\"" + rule +
                                  "\"}") != 1.0)
        return killAndFail("gpupm_alerts_firing not 1 while firing");
    if (checkEndpoint(port, "GET", "/healthz", 503,
                      {"\"status\":\"degraded\"", rule}) != 0)
        return killAndFail("/healthz not degraded while firing");
    std::string query_body;
    if (checkEndpoint(port, "GET",
                      "/api/query?series=gpupm_accuracy_rolling_mae_"
                      "pct&range=60s&step=1s",
                      200, {"\"ok\":true", "\"points\":[{"},
                      &query_body) != 0)
        return killAndFail("/api/query while firing failed");
    if (!jsonDocument(query_body))
        return killAndFail("/api/query body is not valid JSON");

    if (!waitAlertz("\"state\":\"resolved\"", "drift rule resolved"))
        return killAndFail("drift rule never resolved");
    std::fprintf(stderr, "gpupm_scrape: ok drift rule resolved\n");

    if (checkEndpoint(port, "GET", "/metrics", 200, {}, &prom) != 0)
        return killAndFail("/metrics scrape after resolve failed");
    if (metricValue(prom, "gpupm_alerts_firing{rule=\"" + rule +
                                  "\"}") != 0.0)
        return killAndFail("gpupm_alerts_firing not 0 after resolve");
    if (checkEndpoint(port, "GET", "/healthz", 200,
                      {"\"status\":\"ok\""}) != 0)
        return killAndFail("/healthz not ok after resolve");

    // Graceful shutdown, then the alert transitions must be in the
    // NDJSON event log alongside the samples.
    if (::kill(pid, SIGTERM) != 0)
        return killAndFail(std::string("kill: ") +
                           std::strerror(errno));
    int wstatus = 0;
    if (!reapWithin10s(pid, &wstatus))
        return killAndFail("monitor did not exit within 10 s of "
                           "SIGTERM");
    if (!WIFEXITED(wstatus) || WEXITSTATUS(wstatus) != 0)
        return fail("monitor exit status " +
                    std::to_string(wstatus) + " after SIGTERM");

    std::ifstream ev(proc.events_file);
    std::string line;
    bool saw_firing = false, saw_resolved = false;
    while (std::getline(ev, line)) {
        if (line.find("\"event\":\"alert\"") == std::string::npos ||
            line.find("\"rule\":\"" + rule + "\"") ==
                    std::string::npos)
            continue;
        if (line.find("\"state\":\"firing\"") != std::string::npos)
            saw_firing = true;
        if (line.find("\"state\":\"resolved\"") != std::string::npos)
            saw_resolved = true;
    }
    if (!saw_firing || !saw_resolved)
        return fail("event log lacks alert firing/resolved "
                    "transitions: " +
                    proc.events_file);

    std::fprintf(stderr,
                 "gpupm_scrape: drift demo passed (fired, resolved, "
                 "clean SIGTERM exit)\n");
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc < 2) {
        std::fprintf(stderr,
                     "usage:\n"
                     "  gpupm_scrape get <port> <path> "
                     "[--expect=<s>]... [--status=<n>] "
                     "[--method=<verb>] [--timeout-ms=<n>]\n"
                     "  gpupm_scrape monitor-selftest <gpupm-binary> "
                     "<device> --work=<dir>\n"
                     "  gpupm_scrape drift-demo <gpupm-binary> "
                     "<device> --work=<dir>\n");
        return 2;
    }
    const std::string mode = argv[1];
    if (mode == "get")
        return cmdGet(argc, argv);
    if (mode == "monitor-selftest")
        return cmdMonitorSelftest(argc, argv);
    if (mode == "drift-demo")
        return cmdDriftDemo(argc, argv);
    std::fprintf(stderr, "unknown mode '%s'\n", mode.c_str());
    return 2;
}
