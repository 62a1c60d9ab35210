#include "util/strutil.h"

#include <array>
#include <cmath>
#include <cstdio>

#include "util/time.h"

namespace coserve {

std::string
formatBytes(std::int64_t bytes)
{
    static constexpr std::array<const char *, 5> units =
        {"B", "KiB", "MiB", "GiB", "TiB"};
    double v = static_cast<double>(bytes);
    std::size_t u = 0;
    while (std::abs(v) >= 1024.0 && u + 1 < units.size()) {
        v /= 1024.0;
        ++u;
    }
    char buf[48];
    if (u == 0)
        std::snprintf(buf, sizeof(buf), "%lld B",
                      static_cast<long long>(bytes));
    else
        std::snprintf(buf, sizeof(buf), "%.2f %s", v, units[u]);
    return buf;
}

std::string
formatDouble(double x, int digits)
{
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.*f", digits, x);
    return buf;
}

std::string
formatPercent(double fraction, int digits)
{
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.*f%%", digits, fraction * 100.0);
    return buf;
}

std::string
formatTime(Time t)
{
    char buf[64];
    const double ns = static_cast<double>(t);
    if (std::abs(ns) < 1e3)
        std::snprintf(buf, sizeof(buf), "%lld ns", static_cast<long long>(t));
    else if (std::abs(ns) < 1e6)
        std::snprintf(buf, sizeof(buf), "%.2f us", ns / 1e3);
    else if (std::abs(ns) < 1e9)
        std::snprintf(buf, sizeof(buf), "%.2f ms", ns / 1e6);
    else
        std::snprintf(buf, sizeof(buf), "%.2f s", ns / 1e9);
    return buf;
}

} // namespace coserve
