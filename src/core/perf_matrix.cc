#include "core/perf_matrix.h"

#include "util/logging.h"

namespace coserve {

void
PerfMatrix::set(ArchId arch, ProcKind proc, const PerfEntry &entry)
{
    COSERVE_CHECK(entry.k > 0, "perf entry needs positive K");
    COSERVE_CHECK(entry.maxBatch >= 1, "perf entry needs maxBatch >= 1");
    size_ += has(arch, proc) ? 0 : 1;
    entries_[static_cast<int>(arch)][static_cast<int>(proc)] = entry;
}

const PerfEntry &
PerfMatrix::at(ArchId arch, ProcKind proc) const
{
    COSERVE_CHECK(has(arch, proc), "no perf entry for arch ",
                  static_cast<int>(arch), " on ", toString(proc));
    return entries_[static_cast<int>(arch)][static_cast<int>(proc)];
}

bool
PerfMatrix::has(ArchId arch, ProcKind proc) const
{
    return entries_[static_cast<int>(arch)][static_cast<int>(proc)].k > 0;
}

} // namespace coserve
