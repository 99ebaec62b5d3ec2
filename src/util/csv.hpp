// Small CSV writer/reader for experiment output, capacity traces and the
// numeric bundle and journal files.
//
// The writer escapes per RFC 4180 (quotes around fields containing commas,
// quotes, or newlines). read_csv parses exactly that subset — including
// quoted fields spanning physical lines and CRLF row terminators — and is
// only used for files this library writes, so it is intentionally not a
// general parser (no configurable delimiters, comments, or encodings).
//
// Numbers are written in one spelling everywhere: the "%.17g" form (17
// significant digits, so every finite double reads back bit-exactly),
// produced by std::to_chars without a locale, a format string or an
// allocation. NumericCsvReader is the matching reader for the all-numeric
// files (jobs.csv, capacity traces, fleet.csv, cancels.csv, band.csv).
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <fstream>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

namespace sjs {

/// Room format_double(char*, double) needs: the longest "%.17g" spelling of
/// a double is 24 characters ("-2.2250738585072014e-308").
inline constexpr std::size_t kDoubleChars = 32;

/// Writes the "%.17g" spelling of `v` at `first` (which must have
/// kDoubleChars of room) and returns one past its last character. No
/// terminating NUL. Byte-identical to snprintf("%.17g") for every double,
/// ±0, subnormals, ±inf and ±nan included (pinned in tests/util_test.cpp).
char* format_double(char* first, double v);

/// Formats a double with enough digits to round-trip ("%.17g").
std::string format_double(double v);

class CsvWriter {
 public:
  /// Opens `path` for writing; throws std::runtime_error on failure.
  explicit CsvWriter(const std::string& path);

  /// Writes one row. Each field is escaped as needed.
  void write_row(const std::vector<std::string>& fields);

  /// Writes one row of `count` numbers in the "%.17g" spelling. Formats the
  /// row into a stack buffer and streams it out in one write — no vector or
  /// std::string per row, so steady-state writers (serve::JournalWriter) do
  /// not allocate. Numeric fields never need RFC 4180 escaping.
  void write_row_numeric(const double* fields, std::size_t count);

  /// Writes already-formatted bytes verbatim (the caller escapes and
  /// terminates the row).
  void write_raw(const char* data, std::size_t size) { out_.write(data, size); }

  void flush() { out_.flush(); }

  /// False once any write or flush has failed (short write, ENOSPC, closed
  /// descriptor). std::ofstream swallows I/O errors into the stream state;
  /// durability-sensitive callers (serve::Journal) must check this after
  /// flushing instead of assuming the row reached the disk.
  bool ok() const { return out_.good(); }

 private:
  std::ofstream out_;
};

/// Reads an entire CSV file into rows of fields. Throws on I/O error.
std::vector<std::vector<std::string>> read_csv(const std::string& path);

/// Escapes one CSV field per RFC 4180.
std::string csv_escape(const std::string& field);

/// Reader for the all-numeric CSV files: reads the file into one buffer and
/// walks it row by row in place, parsing fields with std::from_chars — no
/// per-row or per-field strings. Rows end at '\n' (a '\r' before it is
/// dropped; a last row without a terminator still counts), fields split at
/// ','. A number must be the whole field: no blanks, quotes, '+' sign or
/// trailing text, and an empty field is not a number.
///
/// Rows are numbered from 0 in file order (a header, if present, is row 0),
/// and every error is a std::runtime_error of the form
/// "<what> row <N> <reason> (<path>)".
class NumericCsvReader {
 public:
  /// Reads `path` whole; throws std::runtime_error if it cannot be opened.
  /// `what` names the rows in error messages ("job" → "job row 3 ...").
  NumericCsvReader(const std::string& path, std::string what);

  /// Moves to the next row; false at the end of the file.
  bool next();

  /// The number of rows in the whole file (header included), for reserving.
  std::size_t row_count() const;

  /// The current row's number (0 for the file's first row).
  std::size_t row() const { return row_; }

  /// The current row's field count (may exceed the fields kept for access).
  std::size_t field_count() const { return count_; }

  /// Field `i` of the current row, verbatim. Requires i < field_count().
  std::string_view field(std::size_t i) const;

  /// Throws "must have <n> fields" unless the current row has exactly n.
  void expect_fields(std::size_t n) const;

  /// Field `i` parsed as a double; throws "is not numeric" unless the whole
  /// field is one number.
  double number(std::size_t i) const;

  /// Field `i` parsed as a decimal integer; throws "is not numeric" unless
  /// the whole field is one (so "3.7" and "3x" are errors, not 3).
  std::int64_t integer(std::size_t i) const;

  /// Throws "<what> row <N> <reason> (<path>)".
  [[noreturn]] void fail(const std::string& reason) const;

 private:
  static constexpr std::size_t kMaxFields = 8;

  [[noreturn]] void not_numeric(std::size_t i) const;

  std::string path_;
  std::string what_;
  std::unique_ptr<char[]> data_;  // the whole file, not NUL-terminated
  std::size_t size_ = 0;
  std::size_t pos_ = 0;
  std::size_t row_ = 0;
  bool started_ = false;
  std::size_t count_ = 0;
  std::array<std::string_view, kMaxFields> fields_{};
};

}  // namespace sjs
