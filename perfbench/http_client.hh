/**
 * @file
 * Minimal HTTP/1.1 GET client for the monitor daemon on loopback: one
 * connection per request (the daemon answers `Connection: close`).
 */

#ifndef PERFBENCH_HTTP_CLIENT_HH
#define PERFBENCH_HTTP_CLIENT_HH

#include <string>

namespace perfbench
{

struct HttpResult
{
    int status = 0; ///< 0 when the exchange failed before a status
    std::string body;
};

/** GET http://127.0.0.1:<port><target>, giving up after timeout_ms. */
HttpResult httpGet(int port, const std::string &target,
                   int timeout_ms = 5000);

} // namespace perfbench

#endif // PERFBENCH_HTTP_CLIENT_HH
