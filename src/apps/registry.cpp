#include "apps/registry.hpp"

#include <cstdint>
#include <limits>
#include <map>
#include <stdexcept>
#include <string>
#include <tuple>
#include <vector>

#include "apps/cgproxy.hpp"
#include "apps/heat3d.hpp"
#include "apps/ring.hpp"
#include "util/parse.hpp"

namespace exasim::apps {
namespace {

constexpr std::int64_t kSizeMax = std::numeric_limits<std::int64_t>::max();

/// One integer `--app-params` key and the values its model runs with: a
/// count or size is never negative, and a zero process grid, an empty CG
/// vector or a ring payload too small for its token cannot run.
struct AppKey {
  const char* key;
  std::int64_t min;
  std::int64_t max = kIntMax;
};

struct AppInfo {
  const char* name;
  std::vector<AppKey> keys;
  const char* note;  ///< Appended to the key list in the help text.
};

const std::vector<AppInfo>& app_table() {
  static const std::vector<AppInfo> kApps = {
      {"heat3d",
       {{"nx", 0}, {"ny", 0}, {"nz", 0}, {"px", 1}, {"py", 1}, {"pz", 1}, {"iters", 0},
        {"interval", 0}},
       " (halo+ckpt)"},
      {"cgproxy", {{"iters", 0}, {"interval", 0}, {"elements", 1, kSizeMax}}, ""},
      {"ring", {{"laps", 0}, {"bytes", 8, kSizeMax}}, ""},
  };
  return kApps;
}

std::string key_list(const AppInfo& app) {
  std::string out;
  for (const AppKey& k : app.keys) out += (out.empty() ? "" : ",") + std::string(k.key);
  return out;
}

}  // namespace

vmpi::AppMain make_app(const std::string& name, const std::string& params, int ranks) {
  const AppInfo* app = nullptr;
  for (const AppInfo& a : app_table()) {
    if (name == a.name) app = &a;
  }
  if (app == nullptr) throw std::invalid_argument("unknown app: " + name);
  const auto fields = parse_fields(params);
  if (!fields) throw std::invalid_argument("malformed --app-params: " + params);

  std::map<std::string, std::int64_t> values;  // A repeated key: the last one wins.
  for (const auto& [key, text] : *fields) {
    const AppKey* k = nullptr;
    for (const AppKey& candidate : app->keys) {
      if (key == candidate.key) k = &candidate;
    }
    if (k == nullptr) {
      throw std::invalid_argument("unknown --app-params key for " + name + ": " + key +
                                  " (keys: " + key_list(*app) + ")");
    }
    const auto v = parse_int(text, k->min, k->max);
    if (!v) {
      throw std::invalid_argument("malformed --app-params value " + key + "=" + text +
                                  " (want an integer in [" + std::to_string(k->min) + ", " +
                                  std::to_string(k->max) + "])");
    }
    values[key] = *v;
  }
  auto get = [&values](const char* key, std::int64_t fallback) {
    const auto it = values.find(key);
    return it == values.end() ? fallback : it->second;
  };

  if (name == "heat3d") {
    HeatParams p;
    p.nx = static_cast<int>(get("nx", 64));
    p.ny = static_cast<int>(get("ny", p.nx));
    p.nz = static_cast<int>(get("nz", p.nx));
    p.px = static_cast<int>(get("px", 2));
    p.py = static_cast<int>(get("py", p.px));
    p.pz = static_cast<int>(get("pz", p.px));
    p.total_iterations = static_cast<int>(get("iters", 100));
    p.halo_interval = static_cast<int>(get("interval", 25));
    p.checkpoint_interval = p.halo_interval;
    p.real_compute = ranks <= 4096;  // Skeleton mode at scale.
    // decompose() checks the same inside every rank's fiber, where a throw
    // can only end the process: reject the grid here, as a usage error.
    if (std::int64_t{p.px} * p.py * p.pz != ranks) {
      throw std::invalid_argument("--app-params px*py*pz = " + std::to_string(p.px) + "*" +
                                  std::to_string(p.py) + "*" + std::to_string(p.pz) +
                                  " must equal --ranks=" + std::to_string(ranks));
    }
    for (const auto& [n, q, axis] : {std::tuple{p.nx, p.px, "x"}, std::tuple{p.ny, p.py, "y"},
                                     std::tuple{p.nz, p.pz, "z"}}) {
      if (n % q != 0) {
        throw std::invalid_argument(std::string("--app-params n") + axis + "=" +
                                    std::to_string(n) + " is not a multiple of p" + axis + "=" +
                                    std::to_string(q));
      }
    }
    return make_heat3d(p);
  }
  if (name == "cgproxy") {
    CgProxyParams p;
    p.total_iterations = static_cast<int>(get("iters", 100));
    p.checkpoint_interval = static_cast<int>(get("interval", 20));
    p.local_elements = static_cast<std::size_t>(get("elements", 1024));
    return make_cgproxy(p);
  }
  RingParams p;
  p.laps = static_cast<int>(get("laps", 3));
  p.payload_bytes = static_cast<std::size_t>(get("bytes", 8));
  return make_ring(p);
}

std::string app_params_help() {
  std::string out = "  --app-params=k=v,...   application parameters:\n";
  for (const AppInfo& app : app_table()) {
    out += std::string("      ") + app.name + ": " + key_list(app) + app.note + "\n";
  }
  return out;
}

}  // namespace exasim::apps
