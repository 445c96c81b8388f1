#include "proc.hh"

#include <unistd.h>

#include <fstream>
#include <sstream>
#include <string>

namespace perfbench
{

double
cpuSeconds(pid_t pid)
{
    std::ifstream f("/proc/" + std::to_string(pid) + "/stat");
    std::string text;
    if (!std::getline(f, text))
        return -1.0;
    // Field 2 (comm) may contain spaces; fields resume after its ')'.
    const auto close = text.rfind(')');
    if (close == std::string::npos)
        return -1.0;
    std::istringstream is(text.substr(close + 2));
    std::string field;
    double utime = 0.0, stime = 0.0;
    // After comm: field 3 (state) is index 0; utime is field 14.
    for (int i = 3; i <= 15 && is >> field; ++i) {
        if (i == 14)
            utime = std::stod(field);
        else if (i == 15)
            stime = std::stod(field);
    }
    return (utime + stime) / static_cast<double>(sysconf(_SC_CLK_TCK));
}

double
peakRssMb(pid_t pid)
{
    std::ifstream f("/proc/" + std::to_string(pid) + "/status");
    std::string line;
    while (std::getline(f, line)) {
        if (line.rfind("VmHWM:", 0) == 0) {
            std::istringstream is(line.substr(6));
            double kb = 0.0;
            is >> kb;
            return kb / 1024.0;
        }
    }
    return -1.0;
}

} // namespace perfbench
