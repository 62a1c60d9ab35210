#include "util/table.h"

#include <algorithm>
#include <iostream>

#include "util/logging.h"

namespace coserve {

Table::Table(std::vector<std::string> headers) : headers_(std::move(headers))
{
    COSERVE_CHECK(!headers_.empty(), "table needs at least one column");
}

void
Table::addRow(std::vector<std::string> cells)
{
    COSERVE_CHECK(cells.size() == headers_.size(),
                  "row width ", cells.size(), " != ", headers_.size());
    rows_.push_back(std::move(cells));
}

void
Table::print(std::ostream &os) const
{
    std::vector<std::size_t> widths(headers_.size());
    for (std::size_t c = 0; c < headers_.size(); ++c)
        widths[c] = headers_[c].size();
    for (const auto &row : rows_)
        for (std::size_t c = 0; c < row.size(); ++c)
            widths[c] = std::max(widths[c], row[c].size());

    auto emitRow = [&](const std::vector<std::string> &row) {
        for (std::size_t c = 0; c < row.size(); ++c) {
            os << row[c]
               << std::string(widths[c] - row[c].size() + 2, ' ');
        }
        os << '\n';
    };

    emitRow(headers_);
    std::size_t total = 0;
    for (std::size_t w : widths)
        total += w + 2;
    os << std::string(total, '-') << '\n';
    for (const auto &row : rows_)
        emitRow(row);
}

void
Table::print() const
{
    print(std::cout);
}

} // namespace coserve
