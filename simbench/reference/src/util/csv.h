/**
 * @file
 * Tiny CSV writer so bench binaries can optionally dump raw series for
 * external plotting.
 */

#ifndef COSERVE_UTIL_CSV_H
#define COSERVE_UTIL_CSV_H

#include <fstream>
#include <string>
#include <vector>

namespace coserve {

/** Streams rows to a CSV file; quotes cells containing separators. */
class CsvWriter
{
  public:
    /**
     * Open @p path for writing and emit the header row.
     * fatal()s if the file cannot be opened.
     */
    CsvWriter(const std::string &path, std::vector<std::string> header);

    /** Append one data row (stringified by the caller). */
    void addRow(const std::vector<std::string> &cells);

    /** @return number of data rows written. */
    std::size_t rows() const { return rows_; }

  private:
    void writeRow(const std::vector<std::string> &cells);

    std::ofstream out_;
    std::size_t rows_ = 0;
};

} // namespace coserve

#endif // COSERVE_UTIL_CSV_H
