#pragma once

#include <cstdio>
#include <string>
#include <vector>

namespace exasim {

/// The result table every bench builds: paper-style rows kept once, rendered
/// as aligned text, CSV for plotting or JSON for downstream tooling.
///
/// Text columns are right-aligned under a header separator. Rows keep the
/// order they were added in, so code that appends executor outcomes in plan
/// order renders the same bytes for any job count.
class TablePrinter {
 public:
  explicit TablePrinter(std::vector<std::string> headers);

  void add_row(std::vector<std::string> cells);

  std::string to_string() const;
  void print(std::FILE* out = stdout) const;

  /// Comma-separated, header line first; cells are written as they are.
  std::string to_csv() const;
  /// JSON array of objects keyed by header, e.g.
  /// `[{"topology": "torus:8x8x8", "E2": "1.23 ms"}, ...]`.
  std::string to_json() const;
  /// Write the rendering to a file; false on I/O failure.
  bool write_csv(const std::string& path) const;
  bool write_json(const std::string& path) const;

  /// Convenience cell formatters.
  static std::string num(double v, int precision = 2);
  static std::string integer(long long v);

 private:
  std::vector<std::string> headers_;
  std::vector<std::vector<std::string>> rows_;
};

/// Escapes a string for inclusion in a JSON document (quotes, backslashes,
/// control characters), without the surrounding quotes.
std::string json_escape(const std::string& s);

}  // namespace exasim
