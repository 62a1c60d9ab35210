/**
 * @file
 * Expert dependency graph.
 *
 * Captures the preliminary -> subsequent edges of the CoE routing rules
 * (which classification experts feed which detection expert). The
 * two-stage eviction strategy (Section 4.3, Figure 10) queries this
 * graph for every resident expert it scans: a *subsequent* expert none
 * of whose preliminary experts is resident cannot run soon and is the
 * preferred eviction victim. The graph is therefore flat and its reads
 * are inline: one subsequent flag per expert, and every expert's
 * preliminaries as one contiguous slice of a single array (offsets per
 * expert, compressed-row style).
 */

#ifndef COSERVE_COE_DEPENDENCY_H
#define COSERVE_COE_DEPENDENCY_H

#include <cstdint>
#include <vector>

#include "coe/coe_model.h"
#include "util/logging.h"

namespace coserve {

/** Preliminary experts of each subsequent expert, for one CoE model. */
class DependencyGraph
{
  public:
    /** A contiguous, read-only run of expert ids. */
    class ExpertSpan
    {
      public:
        ExpertSpan(const ExpertId *first, const ExpertId *last)
            : first_(first), last_(last)
        {}

        const ExpertId *begin() const { return first_; }
        const ExpertId *end() const { return last_; }
        std::size_t size() const
        {
            return static_cast<std::size_t>(last_ - first_);
        }
        ExpertId operator[](std::size_t i) const { return first_[i]; }

      private:
        const ExpertId *first_;
        const ExpertId *last_;
    };

    /** Build from @p model's routing rules. */
    explicit DependencyGraph(const CoEModel &model);

    /** @return true when @p e is a subsequent (second-stage) expert. */
    bool
    isSubsequent(ExpertId e) const
    {
        return subsequent_[slot(e)] != 0;
    }

    /**
     * Preliminary experts whose output can route to @p e, in rule
     * order; empty for a preliminary expert. Valid while the graph
     * lives.
     */
    ExpertSpan
    preliminariesOf(ExpertId e) const
    {
        const std::size_t i = slot(e);
        return {preliminaries_.data() + offsets_[i],
                preliminaries_.data() + offsets_[i + 1]};
    }

    /** @return number of experts covered. */
    std::size_t size() const { return subsequent_.size(); }

  private:
    std::size_t
    slot(ExpertId e) const
    {
        COSERVE_CHECK(e >= 0 &&
                          static_cast<std::size_t>(e) < subsequent_.size(),
                      "expert id out of range: ", e);
        return static_cast<std::size_t>(e);
    }

    /** Per expert: 1 when subsequent. */
    std::vector<char> subsequent_;
    /**
     * Expert e's preliminaries are preliminaries_[offsets_[e],
     * offsets_[e + 1]).
     */
    std::vector<std::uint32_t> offsets_;
    std::vector<ExpertId> preliminaries_;
};

} // namespace coserve

#endif // COSERVE_COE_DEPENDENCY_H
