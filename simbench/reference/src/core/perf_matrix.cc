#include "core/perf_matrix.h"

#include "util/logging.h"

namespace coserve {

void
PerfMatrix::set(ArchId arch, ProcKind proc, const PerfEntry &entry)
{
    COSERVE_CHECK(entry.k > 0, "perf entry needs positive K");
    COSERVE_CHECK(entry.maxBatch >= 1, "perf entry needs maxBatch >= 1");
    table_[{arch, proc}] = entry;
}

const PerfEntry &
PerfMatrix::at(ArchId arch, ProcKind proc) const
{
    auto it = table_.find({arch, proc});
    COSERVE_CHECK(it != table_.end(), "no perf entry for arch ",
                  static_cast<int>(arch), " on ", toString(proc));
    return it->second;
}

bool
PerfMatrix::has(ArchId arch, ProcKind proc) const
{
    return table_.count({arch, proc}) > 0;
}

} // namespace coserve
