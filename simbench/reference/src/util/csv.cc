#include "util/csv.h"

#include "util/logging.h"

namespace coserve {

CsvWriter::CsvWriter(const std::string &path,
                     std::vector<std::string> header)
    : out_(path)
{
    if (!out_)
        fatal("cannot open CSV output: ", path);
    writeRow(header);
}

void
CsvWriter::addRow(const std::vector<std::string> &cells)
{
    writeRow(cells);
    ++rows_;
}

void
CsvWriter::writeRow(const std::vector<std::string> &cells)
{
    for (std::size_t i = 0; i < cells.size(); ++i) {
        if (i)
            out_ << ',';
        const std::string &c = cells[i];
        if (c.find_first_of(",\"\n") != std::string::npos) {
            out_ << '"';
            for (char ch : c) {
                if (ch == '"')
                    out_ << '"';
                out_ << ch;
            }
            out_ << '"';
        } else {
            out_ << c;
        }
    }
    out_ << '\n';
}

} // namespace coserve
