#include "util/csv.h"

#include <fstream>

#include "util/error.h"
#include "util/string_util.h"

namespace cminer::util {

CsvWriter::CsvWriter(const std::string &path)
    : path_(path)
{
    std::ofstream probe(path_, std::ios::trunc);
    if (!probe)
        fatal("cannot open CSV file for writing: " + path_);
}

void
CsvWriter::writeRow(const std::vector<std::string> &fields)
{
    CM_ASSERT(!closed_);
    for (std::size_t i = 0; i < fields.size(); ++i) {
        if (i > 0)
            buffer_ += ',';
        buffer_ += csvQuote(fields[i]);
    }
    buffer_ += '\n';
}

void
CsvWriter::writeNumericRow(const std::vector<double> &values)
{
    std::vector<std::string> fields;
    fields.reserve(values.size());
    for (double v : values)
        fields.push_back(format("%.17g", v));
    writeRow(fields);
}

void
CsvWriter::close()
{
    if (closed_)
        return;
    std::ofstream out(path_, std::ios::trunc);
    if (!out)
        fatal("cannot write CSV file: " + path_);
    out << buffer_;
    closed_ = true;
}

CsvWriter::~CsvWriter()
{
    close();
}

std::string
csvQuote(const std::string &field)
{
    const bool needs_quoting =
        field.find_first_of(",\"\n\r") != std::string::npos;
    if (!needs_quoting)
        return field;
    std::string quoted = "\"";
    for (char c : field) {
        if (c == '"')
            quoted += '"';
        quoted += c;
    }
    quoted += '"';
    return quoted;
}

} // namespace cminer::util
