/**
 * @file
 * Minimal CSV writer used by the store's text export and the bench
 * harness. Quotes fields that contain commas, quotes, or newlines
 * (RFC 4180 subset).
 */

#ifndef CMINER_UTIL_CSV_H
#define CMINER_UTIL_CSV_H

#include <string>
#include <vector>

namespace cminer::util {

/** Streaming CSV writer. */
class CsvWriter
{
  public:
    /**
     * Open a file for writing; throws FatalError when the file cannot be
     * created.
     */
    explicit CsvWriter(const std::string &path);

    /** Write one row, quoting fields as needed. */
    void writeRow(const std::vector<std::string> &fields);

    /** Convenience: write a row of doubles at full precision. */
    void writeNumericRow(const std::vector<double> &values);

    /** Flush and close; called by the destructor as well. */
    void close();

    ~CsvWriter();

    CsvWriter(const CsvWriter &) = delete;
    CsvWriter &operator=(const CsvWriter &) = delete;

  private:
    std::string path_;
    std::string buffer_;
    bool closed_ = false;
};

/** Quote a single field per RFC 4180 when necessary. */
std::string csvQuote(const std::string &field);

} // namespace cminer::util

#endif // CMINER_UTIL_CSV_H
