#include "workload/trace.h"

#include <algorithm>

namespace coserve {

Trace
Trace::prefix(std::size_t n) const
{
    Trace t;
    t.arrivals.assign(arrivals.begin(),
                      arrivals.begin() +
                          static_cast<std::ptrdiff_t>(
                              std::min(n, arrivals.size())));
    return t;
}

} // namespace coserve
