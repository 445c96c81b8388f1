#include "stats.hh"

#include <algorithm>
#include <cmath>

namespace perfbench
{

Tail
tailOf(std::vector<double> v, std::size_t beyond)
{
    Tail t;
    t.n = v.size();
    if (t.n <= beyond)
        return t;
    std::sort(v.begin(), v.end());
    t.value = v[t.n - beyond - 1];
    t.percentile = 100.0 * static_cast<double>(t.n - beyond) /
                   static_cast<double>(t.n);
    t.ok = true;
    return t;
}

std::uint64_t
deriveSeed(std::uint64_t seed, std::uint64_t stream)
{
    std::uint64_t z = seed + 0x9e3779b97f4a7c15ULL * (stream + 1);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
}

std::size_t
cyclesFor(double seconds, double per_second, std::size_t min_cycles)
{
    const double n = std::round(seconds * per_second);
    return std::max(min_cycles, static_cast<std::size_t>(std::max(n, 0.0)));
}

bool
moreCycles(std::size_t done, std::size_t target, std::size_t min_cycles,
           double elapsed_s, double seconds)
{
    if (done >= target)
        return false;
    return done < min_cycles || elapsed_s < kOverrunFactor * seconds;
}

} // namespace perfbench
