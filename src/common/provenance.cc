#include "provenance.hh"

#include <ctime>
#include <mutex>

#include "common/json.hh"

#ifndef GPUPM_VERSION_STRING
#define GPUPM_VERSION_STRING "unknown"
#endif
#ifndef GPUPM_BUILD_TYPE
#define GPUPM_BUILD_TYPE "unknown"
#endif
#ifndef GPUPM_GIT_SHA
#define GPUPM_GIT_SHA "unknown"
#endif
#ifndef GPUPM_COMPILER
#define GPUPM_COMPILER "unknown"
#endif

namespace gpupm
{
namespace common
{

namespace
{

std::mutex g_device_mu;
std::string g_device; // guarded by g_device_mu

} // namespace

Provenance
collectProvenance(const std::string &device)
{
    Provenance p;
    p.version = GPUPM_VERSION_STRING;
    p.build_type = GPUPM_BUILD_TYPE;
    p.git_sha = GPUPM_GIT_SHA;
    p.compiler = GPUPM_COMPILER;
    p.device = device.empty() ? provenanceDevice() : device;

    std::time_t now = std::time(nullptr);
    std::tm tm{};
    gmtime_r(&now, &tm);
    char buf[32];
    std::strftime(buf, sizeof(buf), "%Y-%m-%dT%H:%M:%SZ", &tm);
    p.timestamp = buf;
    return p;
}

void
setProvenanceDevice(const std::string &device)
{
    std::lock_guard<std::mutex> lock(g_device_mu);
    g_device = device;
}

std::string
provenanceDevice()
{
    std::lock_guard<std::mutex> lock(g_device_mu);
    return g_device;
}

std::string
toJson(const Provenance &p)
{
    std::string out = "{\"version\":\"" + json::escape(p.version) +
                      "\",\"build_type\":\"" + json::escape(p.build_type) +
                      "\",\"git_sha\":\"" + json::escape(p.git_sha) +
                      "\",\"compiler\":\"" + json::escape(p.compiler) +
                      "\",\"device\":\"" + json::escape(p.device) +
                      "\",\"timestamp\":\"" + json::escape(p.timestamp) +
                      "\"}";
    return out;
}

} // namespace common
} // namespace gpupm
