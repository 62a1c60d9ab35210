/**
 * @file
 * Aligned console table printer used by the benchmark harness to emit
 * the rows/series of each paper table and figure.
 */

#ifndef COSERVE_UTIL_TABLE_H
#define COSERVE_UTIL_TABLE_H

#include <iosfwd>
#include <string>
#include <vector>

namespace coserve {

/** Simple column-aligned text table. */
class Table
{
  public:
    /** @param headers column titles; fixes the column count. */
    explicit Table(std::vector<std::string> headers);

    /** Append one row; must have exactly as many cells as headers. */
    void addRow(std::vector<std::string> cells);

    /** Render with padded columns and a header underline. */
    void print(std::ostream &os) const;

    /** Render to stdout. */
    void print() const;

    /** @return number of data rows. */
    std::size_t rows() const { return rows_.size(); }

  private:
    std::vector<std::string> headers_;
    std::vector<std::vector<std::string>> rows_;
};

} // namespace coserve

#endif // COSERVE_UTIL_TABLE_H
