#include "metrics/table.hpp"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <stdexcept>

namespace exasim {

namespace {

bool write_text_file(const std::string& path, const std::string& content) {
  std::ofstream f(path);
  if (!f) return false;
  f << content;
  return static_cast<bool>(f);
}

}  // namespace

TablePrinter::TablePrinter(std::vector<std::string> headers) : headers_(std::move(headers)) {}

void TablePrinter::add_row(std::vector<std::string> cells) {
  if (cells.size() != headers_.size()) {
    throw std::invalid_argument("TablePrinter row width mismatch");
  }
  rows_.push_back(std::move(cells));
}

std::string TablePrinter::to_string() const {
  std::vector<std::size_t> widths(headers_.size());
  for (std::size_t c = 0; c < headers_.size(); ++c) widths[c] = headers_[c].size();
  for (const auto& row : rows_) {
    for (std::size_t c = 0; c < row.size(); ++c) widths[c] = std::max(widths[c], row[c].size());
  }

  std::ostringstream os;
  auto emit_row = [&](const std::vector<std::string>& row) {
    for (std::size_t c = 0; c < row.size(); ++c) {
      os << (c ? "  " : "");
      os << std::string(widths[c] - row[c].size(), ' ') << row[c];
    }
    os << '\n';
  };
  emit_row(headers_);
  std::size_t total = 0;
  for (std::size_t c = 0; c < widths.size(); ++c) total += widths[c] + (c ? 2 : 0);
  os << std::string(total, '-') << '\n';
  for (const auto& row : rows_) emit_row(row);
  return os.str();
}

void TablePrinter::print(std::FILE* out) const {
  const std::string s = to_string();
  std::fwrite(s.data(), 1, s.size(), out);
  std::fflush(out);
}

std::string TablePrinter::to_csv() const {
  std::ostringstream os;
  auto emit = [&](const std::vector<std::string>& row) {
    for (std::size_t c = 0; c < row.size(); ++c) os << (c ? "," : "") << row[c];
    os << '\n';
  };
  emit(headers_);
  for (const auto& row : rows_) emit(row);
  return os.str();
}

std::string TablePrinter::to_json() const {
  std::ostringstream os;
  os << "[\n";
  for (std::size_t r = 0; r < rows_.size(); ++r) {
    os << "  {";
    for (std::size_t c = 0; c < headers_.size(); ++c) {
      os << (c ? ", " : "") << '"' << json_escape(headers_[c]) << "\": \""
         << json_escape(rows_[r][c]) << '"';
    }
    os << '}' << (r + 1 < rows_.size() ? "," : "") << '\n';
  }
  os << "]\n";
  return os.str();
}

bool TablePrinter::write_csv(const std::string& path) const {
  return write_text_file(path, to_csv());
}

bool TablePrinter::write_json(const std::string& path) const {
  return write_text_file(path, to_json());
}

std::string TablePrinter::num(double v, int precision) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.*f", precision, v);
  return buf;
}

std::string TablePrinter::integer(long long v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%lld", v);
  return buf;
}

std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (const char ch : s) {
    switch (ch) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(ch) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", static_cast<unsigned char>(ch));
          out += buf;
        } else {
          out += ch;
        }
    }
  }
  return out;
}

}  // namespace exasim
