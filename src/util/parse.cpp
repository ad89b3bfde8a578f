#include "util/parse.hpp"

#include <cctype>
#include <cerrno>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <sstream>

namespace exasim {
namespace {

std::string_view trim(std::string_view s) {
  while (!s.empty() && std::isspace(static_cast<unsigned char>(s.front()))) s.remove_prefix(1);
  while (!s.empty() && std::isspace(static_cast<unsigned char>(s.back()))) s.remove_suffix(1);
  return s;
}

template <class T>
std::optional<T> parse_integer(std::string_view text, T lo, T hi) {
  text = trim(text);
  // from_chars takes no '+'; "+-1" keeps its '+' and fails below.
  if (text.size() > 1 && text[0] == '+' && text[1] != '-') text.remove_prefix(1);
  T v{};
  const auto [end, ec] = std::from_chars(text.data(), text.data() + text.size(), v);
  if (ec != std::errc() || end != text.data() + text.size() || v < lo || v > hi) {
    return std::nullopt;
  }
  return v;
}

}  // namespace

std::string format_sim_time(SimTime t) {
  char buf[64];
  if (t >= sim_sec(1)) {
    std::snprintf(buf, sizeof buf, "%.3f s", to_seconds(t));
  } else if (t >= sim_ms(1)) {
    std::snprintf(buf, sizeof buf, "%.3f ms", static_cast<double>(t) / 1e6);
  } else if (t >= sim_us(1)) {
    std::snprintf(buf, sizeof buf, "%.3f us", static_cast<double>(t) / 1e3);
  } else {
    std::snprintf(buf, sizeof buf, "%llu ns", static_cast<unsigned long long>(t));
  }
  return buf;
}

std::optional<std::int64_t> parse_int(std::string_view text, std::int64_t lo, std::int64_t hi) {
  return parse_integer(text, lo, hi);
}

std::optional<std::uint64_t> parse_u64(std::string_view text, std::uint64_t lo,
                                       std::uint64_t hi) {
  return parse_integer(text, lo, hi);
}

std::optional<double> parse_double(std::string_view text) {
  const std::string s(trim(text));
  if (s.empty()) return std::nullopt;
  errno = 0;
  char* end = nullptr;
  const double v = std::strtod(s.c_str(), &end);
  if (end != s.c_str() + s.size() || errno == ERANGE || !std::isfinite(v) || v < 0) {
    return std::nullopt;
  }
  return v;
}

std::optional<bool> parse_switch(std::string_view text) {
  text = trim(text);
  if (text == "0") return false;
  if (text == "1") return true;
  return std::nullopt;
}

std::optional<SimTime> parse_duration(std::string_view text) {
  text = trim(text);

  // Find the split between the numeric part and the unit suffix.
  std::size_t i = 0;
  while (i < text.size() &&
         (std::isdigit(static_cast<unsigned char>(text[i])) || text[i] == '.' ||
          text[i] == '+' || text[i] == 'e' || text[i] == 'E' ||
          (text[i] == '-' && i > 0 && (text[i - 1] == 'e' || text[i - 1] == 'E')))) {
    ++i;
  }
  const auto value = parse_double(text.substr(0, i));
  if (!value) return std::nullopt;
  const std::string_view unit = trim(text.substr(i));

  double scale;
  if (unit.empty() || unit == "s" || unit == "sec") {
    scale = 1e9;
  } else if (unit == "ms") {
    scale = 1e6;
  } else if (unit == "us") {
    scale = 1e3;
  } else if (unit == "ns") {
    scale = 1.0;
  } else if (unit == "m" || unit == "min") {
    scale = 60e9;
  } else if (unit == "h") {
    scale = 3600e9;
  } else {
    return std::nullopt;
  }
  const double ns = *value * scale + 0.5;
  if (ns >= 0x1p64) return std::nullopt;  // Past what SimTime holds.
  return static_cast<SimTime>(ns);
}

std::optional<std::pair<SimTime, SimTime>> parse_duration_range(std::string_view text) {
  const auto dots = text.find("..");
  if (dots == std::string_view::npos) return std::nullopt;
  const auto lo = parse_duration(text.substr(0, dots));
  const auto hi = parse_duration(text.substr(dots + 2));
  if (!lo || !hi || *hi < *lo) return std::nullopt;
  return std::pair(*lo, *hi);
}

std::string format_duration(SimTime t) {
  if (t % sim_sec(1) == 0) return std::to_string(t / sim_sec(1)) + "s";
  if (t % sim_ms(1) == 0) return std::to_string(t / sim_ms(1)) + "ms";
  if (t % sim_us(1) == 0) return std::to_string(t / sim_us(1)) + "us";
  return std::to_string(t) + "ns";
}

std::vector<std::string> split_trimmed(std::string_view text, char sep) {
  std::vector<std::string> out;
  std::size_t start = 0;
  for (std::size_t i = 0; i <= text.size(); ++i) {
    if (i == text.size() || text[i] == sep) {
      std::string_view piece = trim(text.substr(start, i - start));
      if (!piece.empty()) out.emplace_back(piece);
      start = i + 1;
    }
  }
  return out;
}

std::optional<std::vector<Field>> parse_fields(std::string_view text, char sep) {
  std::vector<Field> out;
  for (const auto& piece : split_trimmed(text, sep)) {
    const auto eq = piece.find('=');
    if (eq == std::string::npos) return std::nullopt;
    const std::string_view key = trim(std::string_view(piece).substr(0, eq));
    if (key.empty()) return std::nullopt;
    out.emplace_back(key, trim(std::string_view(piece).substr(eq + 1)));
  }
  return out;
}

std::optional<Spec> parse_spec(std::string_view text) {
  const auto colon = text.find(':');
  Spec spec{std::string(trim(text.substr(0, colon))), {}};
  if (colon == std::string_view::npos) return spec;
  auto fields = parse_fields(text.substr(colon + 1));
  if (!fields) return std::nullopt;
  spec.fields = std::move(*fields);
  return spec;
}

std::optional<std::vector<FailureSpec>> parse_failure_schedule(std::string_view text) {
  // Accept both ',' and ';' as pair separators.
  std::string normalized(text);
  for (auto& c : normalized) {
    if (c == ';') c = ',';
  }

  std::vector<FailureSpec> specs;
  for (const auto& piece : split_trimmed(normalized, ',')) {
    const auto at = piece.find('@');
    if (at == std::string::npos) return std::nullopt;
    const auto rank = parse_int(std::string_view(piece).substr(0, at), 0, kIntMax);
    const auto t = parse_duration(std::string_view(piece).substr(at + 1));
    if (!rank || !t) return std::nullopt;
    specs.push_back(FailureSpec{static_cast<int>(*rank), *t});
  }
  return specs;
}

std::string format_failure_schedule(const std::vector<FailureSpec>& specs) {
  std::ostringstream os;
  for (std::size_t i = 0; i < specs.size(); ++i) {
    if (i) os << ',';
    os << specs[i].rank << '@' << to_seconds(specs[i].time) << 's';
  }
  return os.str();
}

}  // namespace exasim
