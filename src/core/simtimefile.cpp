#include "core/simtimefile.hpp"

#include <cstdio>
#include <fstream>
#include <sstream>

#include "util/parse.hpp"

namespace exasim::core {

bool SimTimeFile::save(SimTime exit_time) const {
  std::ofstream f(path_, std::ios::trunc);
  if (!f) return false;
  f << exit_time << '\n';
  return static_cast<bool>(f);
}

std::optional<SimTime> SimTimeFile::load() const {
  std::ifstream f(path_);
  if (!f) return std::nullopt;
  std::ostringstream text;
  text << f.rdbuf();
  return parse_u64(text.str());
}

void SimTimeFile::reset() const { std::remove(path_.c_str()); }

}  // namespace exasim::core
