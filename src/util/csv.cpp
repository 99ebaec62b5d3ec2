#include "util/csv.hpp"

#include <algorithm>
#include <charconv>
#include <cstring>
#include <iterator>
#include <stdexcept>
#include <system_error>

namespace sjs {

std::string csv_escape(const std::string& field) {
  bool needs_quotes = field.find_first_of(",\"\n\r") != std::string::npos;
  if (!needs_quotes) return field;
  std::string out = "\"";
  for (char c : field) {
    if (c == '"') out += '"';
    out += c;
  }
  out += '"';
  return out;
}

char* format_double(char* first, double v) {
  // to_chars with an explicit precision is specified as printf's %.*g in the
  // C locale; unlike the shortest form it keeps all 17 digits.
  return std::to_chars(first, first + kDoubleChars, v,
                       std::chars_format::general, 17)
      .ptr;
}

std::string format_double(double v) {
  char buf[kDoubleChars];
  return std::string(buf, format_double(buf, v));
}

CsvWriter::CsvWriter(const std::string& path) : out_(path) {
  if (!out_) throw std::runtime_error("cannot open for writing: " + path);
}

void CsvWriter::write_row(const std::vector<std::string>& fields) {
  for (std::size_t i = 0; i < fields.size(); ++i) {
    if (i) out_ << ',';
    out_ << csv_escape(fields[i]);
  }
  out_ << '\n';
}

void CsvWriter::write_row_numeric(const double* fields, std::size_t count) {
  char buf[8 * (kDoubleChars + 1)];
  char* const end = buf + sizeof(buf);
  char* p = buf;
  for (std::size_t i = 0; i < count; ++i) {
    if (end - p < static_cast<std::ptrdiff_t>(kDoubleChars + 1)) {
      out_.write(buf, p - buf);  // only rows wider than 8 fields get here
      p = buf;
    }
    if (i) *p++ = ',';
    p = format_double(p, fields[i]);
  }
  *p++ = '\n';
  out_.write(buf, p - buf);
}

std::vector<std::vector<std::string>> read_csv(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("cannot open for reading: " + path);
  const std::string data((std::istreambuf_iterator<char>(in)),
                         std::istreambuf_iterator<char>());

  // Character-level state machine rather than line-at-a-time: a quoted field
  // may legally contain '\n' (csv_escape produces such fields), so the
  // quoting state must survive row terminators.
  std::vector<std::vector<std::string>> rows;
  std::vector<std::string> fields;
  std::string field;
  bool in_quotes = false;
  bool row_open = false;  // consumed any character since the last terminator
  for (std::size_t i = 0; i < data.size(); ++i) {
    const char c = data[i];
    if (in_quotes) {
      if (c == '"') {
        if (i + 1 < data.size() && data[i + 1] == '"') {
          field += '"';
          ++i;
        } else {
          in_quotes = false;
        }
      } else {
        field += c;
      }
    } else if (c == '"') {
      in_quotes = true;
      row_open = true;
    } else if (c == ',') {
      fields.push_back(std::move(field));
      field.clear();
      row_open = true;
    } else if (c == '\r' && (i + 1 == data.size() || data[i + 1] == '\n')) {
      // CRLF (or a trailing CR at end of file): the '\n', when present,
      // terminates the row; the CR itself is not field content.
      row_open = true;
    } else if (c == '\n') {
      fields.push_back(std::move(field));
      field.clear();
      rows.push_back(std::move(fields));
      fields.clear();
      row_open = false;
    } else {
      field += c;
      row_open = true;
    }
  }
  if (row_open || in_quotes) {  // last row lacked a trailing newline
    fields.push_back(std::move(field));
    rows.push_back(std::move(fields));
  }
  return rows;
}

NumericCsvReader::NumericCsvReader(const std::string& path, std::string what)
    : path_(path), what_(std::move(what)) {
  std::ifstream in(path, std::ios::binary | std::ios::ate);
  if (!in) throw std::runtime_error("cannot open for reading: " + path);
  const std::streamoff size = in.tellg();
  if (size > 0) {
    size_ = static_cast<std::size_t>(size);
    data_ = std::make_unique_for_overwrite<char[]>(size_);
    in.seekg(0);
    in.read(data_.get(), size);
  }
  if (size < 0 || !in) {
    throw std::runtime_error("cannot read: " + path);
  }
}

std::size_t NumericCsvReader::row_count() const {
  const char* const begin = data_.get();
  const char* const end = begin + size_;
  const auto terminated =
      static_cast<std::size_t>(std::count(begin, end, '\n'));
  return terminated + (size_ > 0 && end[-1] != '\n' ? 1 : 0);
}

bool NumericCsvReader::next() {
  if (pos_ >= size_) return false;
  if (started_) ++row_;
  started_ = true;
  const char* const line = data_.get() + pos_;
  const std::size_t rest = size_ - pos_;
  const void* nl = std::memchr(line, '\n', rest);
  std::size_t len = nl ? static_cast<const char*>(nl) - line : rest;
  pos_ += nl ? len + 1 : len;
  if (len > 0 && line[len - 1] == '\r') --len;
  count_ = 0;
  std::size_t start = 0;
  for (std::size_t i = 0;; ++i) {
    if (i == len || line[i] == ',') {
      if (count_ < kMaxFields) fields_[count_] = {line + start, i - start};
      ++count_;
      start = i + 1;
      if (i == len) break;
    }
  }
  return true;
}

std::string_view NumericCsvReader::field(std::size_t i) const {
  if (i >= count_ || i >= kMaxFields) {
    fail("has no field " + std::to_string(i));
  }
  return fields_[i];
}

void NumericCsvReader::expect_fields(std::size_t n) const {
  if (count_ != n) {
    fail("must have " + std::to_string(n) + " fields, not " +
         std::to_string(count_));
  }
}

double NumericCsvReader::number(std::size_t i) const {
  const std::string_view f = field(i);
  double v = 0.0;
  const auto [end, ec] = std::from_chars(f.data(), f.data() + f.size(), v);
  if (f.empty() || ec != std::errc() || end != f.data() + f.size()) {
    not_numeric(i);
  }
  return v;
}

std::int64_t NumericCsvReader::integer(std::size_t i) const {
  const std::string_view f = field(i);
  std::int64_t v = 0;
  const auto [end, ec] = std::from_chars(f.data(), f.data() + f.size(), v);
  if (f.empty() || ec != std::errc() || end != f.data() + f.size()) {
    not_numeric(i);
  }
  return v;
}

void NumericCsvReader::not_numeric(std::size_t i) const {
  fail("is not numeric: field " + std::to_string(i) + " is '" +
       std::string(fields_[i]) + "'");
}

void NumericCsvReader::fail(const std::string& reason) const {
  throw std::runtime_error(what_ + " row " + std::to_string(row_) + " " +
                           reason + " (" + path_ + ")");
}

}  // namespace sjs
