/**
 * @file
 * Expert dependency graph.
 *
 * Captures the preliminary -> subsequent edges of the CoE routing rules
 * (which classification experts feed which detection expert). The
 * two-stage eviction strategy (Section 4.3, Figure 10) queries this
 * graph: a *subsequent* expert none of whose preliminary experts is
 * resident cannot run soon and is the preferred eviction victim.
 */

#ifndef COSERVE_COE_DEPENDENCY_H
#define COSERVE_COE_DEPENDENCY_H

#include <vector>

#include "coe/coe_model.h"

namespace coserve {

/** Bidirectional preliminary/subsequent adjacency for one CoE model. */
class DependencyGraph
{
  public:
    /** Build from @p model's routing rules. */
    explicit DependencyGraph(const CoEModel &model);

    /** @return true when @p e is a subsequent (second-stage) expert. */
    bool isSubsequent(ExpertId e) const;

    /** Preliminary experts whose output can route to @p e. */
    const std::vector<ExpertId> &preliminariesOf(ExpertId e) const;

    /** Subsequent experts reachable from preliminary expert @p e. */
    const std::vector<ExpertId> &subsequentsOf(ExpertId e) const;

    /** @return number of experts covered. */
    std::size_t size() const { return preliminaries_.size(); }

  private:
    std::vector<std::vector<ExpertId>> preliminaries_;
    std::vector<std::vector<ExpertId>> subsequents_;
    std::vector<bool> isSubsequent_;
};

} // namespace coserve

#endif // COSERVE_COE_DEPENDENCY_H
