#include "iomodel/storage.hpp"

#include <algorithm>
#include <sstream>
#include <stdexcept>

#include "util/parse.hpp"

namespace exasim {

namespace {

std::string format_double(double v) {
  std::ostringstream os;
  os.precision(15);
  os << v;
  return os.str();
}

std::optional<StorageTierKind> tier_kind_of(const std::string& name) {
  if (name == "mem") return StorageTierKind::kMemory;
  if (name == "bb") return StorageTierKind::kBurstBuffer;
  if (name == "pfs") return StorageTierKind::kPfs;
  return std::nullopt;
}

std::optional<TierParams> parse_tier(const std::string& text) {
  const auto parsed = parse_spec(text);
  // A ':' must introduce at least one option ("mem:" is malformed).
  if (!parsed || text.back() == ':') return std::nullopt;
  const auto kind = tier_kind_of(parsed->name);
  if (!kind) return std::nullopt;
  TierParams tier;
  tier.kind = *kind;
  for (const auto& [key, value] : parsed->fields) {
    bool ok = false;  // An unknown key stays false.
    if (key == "bw") {
      ok = assign(tier.io.aggregate_bandwidth_bytes_per_sec, parse_double(value));
    } else if (key == "cbw") {
      ok = assign(tier.io.per_client_bandwidth_bytes_per_sec, parse_double(value));
    } else if (key == "lat") {
      ok = assign(tier.io.metadata_latency, parse_duration(value));
    } else if (key == "cap") {
      ok = assign(tier.capacity_bytes, parse_double(value));
    } else if (key == "contend") {
      ok = assign(tier.contended, parse_switch(value));
    }
    if (!ok) return std::nullopt;
  }
  return tier;
}

/// Tier-list grammar only (no preset lookup) — `parse_storage_spec` resolves
/// preset names through this, so a preset named like a tier ("pfs") cannot
/// recurse.
std::optional<StorageSpec> parse_tier_list(const std::string& text) {
  // Accept '+' as the tier separator so specs survive unquoted shells.
  std::string normalized = text;
  std::replace(normalized.begin(), normalized.end(), '+', ';');
  StorageSpec spec;
  spec.tiers.clear();
  spec.preset.clear();
  int last_kind = -1;
  for (const auto& piece : split_trimmed(normalized, ';')) {
    const auto tier = parse_tier(piece);
    if (!tier) return std::nullopt;
    // Strictly increasing kind order mem < bb < pfs: rejects duplicates and
    // misordered tiers in one comparison.
    if (static_cast<int>(tier->kind) <= last_kind) return std::nullopt;
    last_kind = static_cast<int>(tier->kind);
    spec.tiers.push_back(*tier);
  }
  if (spec.tiers.empty() || spec.tiers.back().kind != StorageTierKind::kPfs)
    return std::nullopt;
  return spec;
}

}  // namespace

const char* to_string(StorageTierKind kind) {
  switch (kind) {
    case StorageTierKind::kMemory: return "mem";
    case StorageTierKind::kBurstBuffer: return "bb";
    case StorageTierKind::kPfs: return "pfs";
  }
  return "?";
}

std::optional<StorageSpec> parse_storage_spec(const std::string& text) {
  if (text.empty()) return std::nullopt;
  for (const auto& preset : list_storage()) {
    if (text == preset.name) {
      auto spec = parse_tier_list(preset.spec);
      if (spec) spec->preset = preset.name;
      return spec;
    }
  }
  return parse_tier_list(text);
}

std::string to_string(const StorageSpec& spec) {
  if (!spec.preset.empty()) return spec.preset;
  std::string s;
  for (const auto& tier : spec.tiers) {
    if (!s.empty()) s += ";";
    s += to_string(tier.kind);
    std::string opts;
    const auto add = [&opts](const std::string& kv) {
      opts += opts.empty() ? "" : ",";
      opts += kv;
    };
    if (tier.io.aggregate_bandwidth_bytes_per_sec != 0)
      add("bw=" + format_double(tier.io.aggregate_bandwidth_bytes_per_sec));
    if (tier.io.per_client_bandwidth_bytes_per_sec != 0)
      add("cbw=" + format_double(tier.io.per_client_bandwidth_bytes_per_sec));
    if (tier.io.metadata_latency != 0)
      add("lat=" + format_duration(tier.io.metadata_latency));
    if (tier.capacity_bytes != 0) add("cap=" + format_double(tier.capacity_bytes));
    if (tier.contended) add("contend=1");
    if (!opts.empty()) s += ":" + opts;
  }
  return s;
}

const std::vector<StoragePresetInfo>& list_storage() {
  static const std::vector<StoragePresetInfo> kPresets = {
      {"pfs", "pfs",
       "single free parallel file system (paper default: checkpoint I/O "
       "charges no time)"},
      {"hpc",
       "mem:cbw=5e10,lat=1us,cap=4e9;bb:bw=2e11,cbw=1e10,lat=10us;"
       "pfs:bw=1e11,cbw=5e9,lat=1ms",
       "three-tier reference machine: 50 GB/s node memory (4 GB staging "
       "budget), 200 GB/s burst buffer, 100 GB/s PFS with 1 ms metadata"},
  };
  return kPresets;
}

StorageSpec resolve_storage_spec(const std::string& configured) {
  auto spec = parse_storage_spec(configured);
  if (!spec) throw std::invalid_argument("malformed storage spec: " + configured);
  return *spec;
}

StorageHierarchy::StorageHierarchy(StorageSpec spec) : spec_(std::move(spec)) {
  for (int k = 0; k < kStorageTierKinds; ++k) {
    index_[k] = -1;
    busy_until_[k] = 0;
  }
  models_.reserve(spec_.tiers.size());
  for (std::size_t i = 0; i < spec_.tiers.size(); ++i) {
    index_[static_cast<int>(spec_.tiers[i].kind)] = static_cast<int>(i);
    models_.emplace_back(spec_.tiers[i].io);
  }
}

bool StorageHierarchy::has(StorageTierKind kind) const {
  return index_[static_cast<int>(kind)] >= 0;
}

const PfsModel& StorageHierarchy::model(StorageTierKind kind) const {
  static const PfsModel kFree{PfsParams{}};
  const int i = index_[static_cast<int>(kind)];
  return i < 0 ? kFree : models_[static_cast<std::size_t>(i)];
}

bool StorageHierarchy::is_free() const {
  for (const auto& m : models_) {
    if (!m.is_free()) return false;
  }
  return !any_contended();
}

bool StorageHierarchy::any_contended() const {
  for (const auto& tier : spec_.tiers) {
    if (tier.contended) return true;
  }
  return false;
}

bool StorageHierarchy::fits(StorageTierKind kind, std::size_t bytes,
                            int world_ranks, int replicas) const {
  const int i = index_[static_cast<int>(kind)];
  if (i < 0) return true;
  const double cap = spec_.tiers[static_cast<std::size_t>(i)].capacity_bytes;
  if (cap <= 0) return true;
  const double need = static_cast<double>(bytes);
  if (kind == StorageTierKind::kMemory) {
    // Node memory is a per-node budget: a rank's own image plus every
    // partner replica it hosts must fit together.
    return need * std::max(1, replicas) <= cap;
  }
  // Shared tiers split capacity evenly over the world.
  return need * static_cast<double>(std::max(1, world_ranks)) <= cap;
}

SimTime StorageHierarchy::occupy(StorageTierKind kind, SimTime start,
                                 SimTime duration) const {
  const int i = index_[static_cast<int>(kind)];
  if (i < 0 || !spec_.tiers[static_cast<std::size_t>(i)].contended) return 0;
  std::lock_guard<std::mutex> lock(mu_);
  SimTime& busy = busy_until_[static_cast<int>(kind)];
  const SimTime begin = std::max(start, busy);
  busy = begin + duration;
  return begin - start;
}

}  // namespace exasim
