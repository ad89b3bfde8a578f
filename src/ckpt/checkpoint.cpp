#include "ckpt/checkpoint.hpp"

#include <algorithm>
#include <cstring>
#include <iterator>
#include <limits>
#include <stdexcept>

namespace exasim::ckpt {

Payload::Payload(Payload&& other) noexcept { take(other); }

Payload& Payload::operator=(Payload other) noexcept {
  clear();
  take(other);
  return *this;
}

void Payload::take(Payload& other) noexcept {
  // Member by member: as a File's data the object shares its tail padding
  // with the File's other fields, so it is never copied whole.
  inline_size_ = other.inline_size_;
  if (other.on_heap()) {
    heap_ = other.heap_;
  } else {
    std::memcpy(inline_, other.inline_, inline_size_);
  }
  other.inline_size_ = 0;
}

void Payload::append(std::span<const std::byte> more) {
  if (more.empty()) return;
  const std::size_t n = size() + more.size();
  if (!on_heap() && n <= kInlineBytes) {
    std::memcpy(inline_ + inline_size_, more.data(), more.size());
    inline_size_ = static_cast<std::uint8_t>(n);
    return;
  }
  if (!on_heap() || n > heap_.capacity) {
    const std::size_t capacity = std::max(n, on_heap() ? 2 * heap_.capacity : kInlineBytes);
    auto* grown = new std::byte[capacity];
    std::memcpy(grown, data(), size());
    clear();
    heap_ = Heap{grown, n - more.size(), capacity};
    inline_size_ = kOnHeap;
  }
  std::memcpy(heap_.data + heap_.size, more.data(), more.size());
  heap_.size = n;
}

void Payload::clear() {
  if (on_heap()) delete[] heap_.data;
  inline_size_ = 0;
}

bool operator==(const Payload& a, std::span<const std::byte> b) {
  return std::equal(a.begin(), a.end(), b.begin(), b.end());
}

CheckpointStore::CheckpointStore(int expected_ranks) : expected_ranks_(expected_ranks) {
  if (expected_ranks <= 0) throw std::invalid_argument("expected_ranks <= 0");
}

std::pair<CheckpointStore::VersionSet*, CheckpointStore::File*> CheckpointStore::locate(
    std::uint64_t version, int rank) {
  auto vit = versions_.find(version);
  if (vit == versions_.end() || rank < 0 || rank >= expected_ranks_) return {nullptr, nullptr};
  File& file = vit->second.files[static_cast<std::size_t>(rank)];
  if (!file.exists) return {nullptr, nullptr};
  return {&vit->second, &file};
}

const CheckpointStore::File* CheckpointStore::find_file(std::uint64_t version, int rank) const {
  auto vit = versions_.find(version);
  if (vit == versions_.end() || rank < 0 || rank >= expected_ranks_) return nullptr;
  const File& file = vit->second.files[static_cast<std::size_t>(rank)];
  return file.exists ? &file : nullptr;
}

void CheckpointStore::begin(std::uint64_t version, int rank) {
  std::lock_guard<std::mutex> lock(mu_);
  if (rank < 0 || rank >= expected_ranks_) throw std::invalid_argument("bad rank");
  VersionSet& set = touch(versions_[version]);
  if (set.files.empty()) {
    // Every finalized file has a copy: one side-table slot per rank.
    set.files.resize(static_cast<std::size_t>(expected_ranks_));
    set.copies.reserve(static_cast<std::size_t>(expected_ranks_));
  }
  File& file = set.files[static_cast<std::size_t>(rank)];
  if (file.exists) {
    if (file.finalized) --set.finalized_count;
    drop_copies(set, file);
    compact_if_sparse(set);
  } else {
    ++set.file_count;
  }
  file.data.clear();
  file.exists = true;
  file.finalized = false;
}

void CheckpointStore::append(std::uint64_t version, int rank,
                             std::span<const std::byte> data) {
  std::lock_guard<std::mutex> lock(mu_);
  auto [set, file] = locate(version, rank);
  if (file == nullptr) throw std::logic_error("append before begin");
  if (file->finalized) throw std::logic_error("append after finalize");
  touch(*set);
  file->data.append(data);
}

void CheckpointStore::finalize(std::uint64_t version, int rank, const CopyRecord& first) {
  std::lock_guard<std::mutex> lock(mu_);
  auto [set, file] = locate(version, rank);
  if (file == nullptr) throw std::logic_error("finalize before begin");
  if (file->finalized) throw std::logic_error("finalize after finalize");
  insert_copy(*set, *file, first);
  file->finalized = true;
  ++touch(*set).finalized_count;
}

bool CheckpointStore::file_exists(std::uint64_t version, int rank) const {
  std::lock_guard<std::mutex> lock(mu_);
  return find_file(version, rank) != nullptr;
}

bool CheckpointStore::file_finalized(std::uint64_t version, int rank) const {
  std::lock_guard<std::mutex> lock(mu_);
  const File* file = find_file(version, rank);
  return file != nullptr && file->finalized;
}

bool CheckpointStore::set_complete(std::uint64_t version) const {
  std::lock_guard<std::mutex> lock(mu_);
  return set_complete_unlocked(version);
}

bool CheckpointStore::set_complete_unlocked(std::uint64_t version) const {
  auto vit = versions_.find(version);
  if (vit == versions_.end()) return false;
  return vit->second.file_count == expected_ranks_ &&
         vit->second.finalized_count == expected_ranks_;
}

std::optional<std::uint64_t> CheckpointStore::latest_complete() const {
  std::lock_guard<std::mutex> lock(mu_);
  return latest_complete_unlocked();
}

std::optional<std::uint64_t> CheckpointStore::latest_complete_unlocked() const {
  for (auto it = versions_.rbegin(); it != versions_.rend(); ++it) {
    if (set_complete_unlocked(it->first)) return it->first;
  }
  return std::nullopt;
}

Payload CheckpointStore::read(std::uint64_t version, int rank) const {
  std::lock_guard<std::mutex> lock(mu_);
  const File* file = find_file(version, rank);
  return file == nullptr ? Payload{} : file->data;
}

std::size_t CheckpointStore::file_bytes(std::uint64_t version, int rank) const {
  std::lock_guard<std::mutex> lock(mu_);
  const File* file = find_file(version, rank);
  return file == nullptr ? 0 : file->data.size();
}

CopyRecord CheckpointStore::record_of(const CopySlot& slot) {
  return CopyRecord{.level = slot.level, .holder = slot.holder, .ready_time = slot.ready_time,
                    .depends_on = slot.depends_on, .depends_until = slot.depends_until};
}

void CheckpointStore::insert_copy(VersionSet& set, File& file, const CopyRecord& copy) {
  if (file.copy_count == kMaxCopies) throw std::logic_error("too many copies");
  std::uint32_t slot = set.free_copy;
  if (slot != kNoCopy) {
    set.free_copy = set.copies[slot].next;
  } else {
    slot = static_cast<std::uint32_t>(set.copies.size());
    set.copies.emplace_back();
  }
  std::uint32_t* link = &file.first_copy;
  while (*link != kNoCopy && set.copies[*link].level <= copy.level) {
    link = &set.copies[*link].next;
  }
  CopySlot& entry = set.copies[slot];
  entry = CopySlot{copy.ready_time, copy.depends_until, copy.level, copy.holder, copy.depends_on};
  entry.next = *link;
  *link = slot;
  ++file.copy_count;
  ++set.live_copies;
}

void CheckpointStore::free_slot(VersionSet& set, std::uint32_t slot) {
  set.copies[slot].next = set.free_copy;
  set.free_copy = slot;
  --set.live_copies;
}

void CheckpointStore::drop_copies(VersionSet& set, File& file) {
  for (std::uint32_t i = file.first_copy; i != kNoCopy;) {
    const std::uint32_t next = set.copies[i].next;
    free_slot(set, i);
    i = next;
  }
  file.first_copy = kNoCopy;
  file.copy_count = 0;
}

void CheckpointStore::compact_if_sparse(VersionSet& set) {
  if (set.copies.size() - set.live_copies <= set.live_copies + kCopySlack) return;
  std::vector<CopySlot> kept;
  kept.reserve(set.live_copies);  // No reallocation: `link` stays valid.
  for (File& file : set.files) {
    std::uint32_t* link = &file.first_copy;
    for (std::uint32_t i = file.first_copy; i != kNoCopy; i = set.copies[i].next) {
      *link = static_cast<std::uint32_t>(kept.size());
      kept.push_back(set.copies[i]);
      link = &kept.back().next;
    }
    *link = kNoCopy;
  }
  set.copies.swap(kept);
  set.free_copy = kNoCopy;
}

void CheckpointStore::record_copy(std::uint64_t version, int rank,
                                  const CopyRecord& copy) {
  std::lock_guard<std::mutex> lock(mu_);
  auto [set, file] = locate(version, rank);
  if (file == nullptr) throw std::logic_error("record_copy before begin");
  insert_copy(*set, *file, copy);
  touch(*set);
}

std::vector<CopyRecord> CheckpointStore::copies(std::uint64_t version, int rank) const {
  std::lock_guard<std::mutex> lock(mu_);
  const File* file = find_file(version, rank);
  if (file == nullptr) return {};
  const std::vector<CopySlot>& slots = versions_.find(version)->second.copies;
  std::vector<CopyRecord> out;
  out.reserve(file->copy_count);
  for (std::uint32_t i = file->first_copy; i != kNoCopy; i = slots[i].next) {
    out.push_back(record_of(slots[i]));
  }
  return out;
}

RestorePlan CheckpointStore::build_plan(std::uint64_t version, const VersionSet& set) const {
  const int world = expected_ranks_;
  RestorePlan plan;
  plan.version = version;
  plan.sources.resize(static_cast<std::size_t>(world));
  plan.served_offsets.assign(static_cast<std::size_t>(world) + 1, 0);
  // The peer that sends rank q its file over the network, or -1.
  auto server = [world](int q, int holder) {
    return holder >= 0 && holder != q && holder < world ? holder : -1;
  };
  for (int q = 0; q < world; ++q) {
    // How q reaches a copy, cheapest first: its own node memory, a shared
    // tier (bb/pfs), a peer's node memory (a network fetch).
    auto access = [q](const CopySlot& c) { return c.holder == q ? 0 : c.holder < 0 ? 1 : 2; };
    // Copies are level-ordered: only the fastest level's run competes. A
    // complete version's files are finalized, so each has a copy.
    const File& file = set.files[static_cast<std::size_t>(q)];
    const CopySlot* best = &set.copies[file.first_copy];
    for (std::uint32_t i = best->next; i != kNoCopy && set.copies[i].level == best->level;
         i = set.copies[i].next) {
      if (access(set.copies[i]) < access(*best)) best = &set.copies[i];
    }
    RestorePlan::Source& src = plan.sources[static_cast<std::size_t>(q)];
    src.level = best->level;
    src.holder = best->holder;
    src.bytes = file.data.size();
    if (const int h = server(q, src.holder); h >= 0) ++plan.served_offsets[h + 1];
  }
  for (int h = 0; h < world; ++h) plan.served_offsets[h + 1] += plan.served_offsets[h];
  plan.served.resize(plan.served_offsets.back());
  std::vector<std::size_t> next(plan.served_offsets.begin(), plan.served_offsets.end() - 1);
  for (int q = 0; q < world; ++q) {  // Ascending q: each served list is sorted.
    const int h = server(q, plan.sources[static_cast<std::size_t>(q)].holder);
    if (h >= 0) plan.served[next[h]++] = q;
  }
  return plan;
}

std::shared_ptr<const RestorePlan> CheckpointStore::restore_plan() {
  std::lock_guard<std::mutex> lock(mu_);
  const auto version = latest_complete_unlocked();
  if (!version) return nullptr;
  const VersionSet& set = versions_.find(*version)->second;
  // Stamps are unique store-wide, so an equal stamp means the same version,
  // unchanged since the plan was built.
  if (plan_ == nullptr || plan_stamp_ != set.stamp) {
    plan_ = std::make_shared<const RestorePlan>(build_plan(*version, set));
    plan_stamp_ = set.stamp;
    ++plans_built_;
  }
  return plan_;
}

std::uint64_t CheckpointStore::plans_built() const {
  std::lock_guard<std::mutex> lock(mu_);
  return plans_built_;
}

bool CheckpointStore::erase_file(VersionSet& set, File& file) {
  touch(set);
  if (file.finalized) --set.finalized_count;
  --set.file_count;
  drop_copies(set, file);
  file = File{};
  compact_if_sparse(set);
  return set.file_count == 0;
}

int CheckpointStore::apply_failures(const std::vector<FailureSpec>& failures,
                                    SimTime end_time) {
  std::lock_guard<std::mutex> lock(mu_);
  // Earliest failure time per rank: a rank that died at t takes its node
  // memory (and any drain it was sourcing) with it from t on.
  constexpr SimTime kAlive = std::numeric_limits<SimTime>::max();
  std::vector<SimTime> died(static_cast<std::size_t>(expected_ranks_), kAlive);
  for (const auto& f : failures) {
    if (f.rank < 0 || f.rank >= expected_ranks_) continue;  // Holds no copy.
    SimTime& t = died[static_cast<std::size_t>(f.rank)];
    t = std::min(t, f.time);
  }
  auto survives = [&](const CopySlot& c) {
    if (c.ready_time > end_time) return false;  // Drain still in flight.
    if (c.holder >= 0 && c.holder < expected_ranks_ &&
        died[static_cast<std::size_t>(c.holder)] != kAlive) {
      return false;
    }
    if (c.depends_on >= 0 && c.depends_on < expected_ranks_ &&
        died[static_cast<std::size_t>(c.depends_on)] < c.depends_until) {
      return false;
    }
    return true;
  };
  int lost = 0;
  for (auto vit = versions_.begin(); vit != versions_.end();) {
    VersionSet& set = vit->second;
    bool empty = false;
    for (File& file : set.files) {
      if (!file.exists) continue;
      int kept = 0;
      std::uint32_t* link = &file.first_copy;
      while (*link != kNoCopy) {
        const std::uint32_t i = *link;
        if (survives(set.copies[i])) {
          ++kept;
          link = &set.copies[i].next;
        } else {
          *link = set.copies[i].next;
          free_slot(set, i);
        }
      }
      if (kept == file.copy_count) continue;
      lost += file.copy_count - kept;
      file.copy_count = static_cast<std::uint8_t>(kept);
      touch(set);
      if (kept == 0) empty = erase_file(set, file);
    }
    compact_if_sparse(set);
    vit = empty ? versions_.erase(vit) : std::next(vit);
  }
  return lost;
}

void CheckpointStore::remove_file(std::uint64_t version, int rank) {
  std::lock_guard<std::mutex> lock(mu_);
  auto [set, file] = locate(version, rank);
  if (file != nullptr && erase_file(*set, *file)) versions_.erase(version);
}

void CheckpointStore::remove_version(std::uint64_t version) {
  std::lock_guard<std::mutex> lock(mu_);
  versions_.erase(version);
}

int CheckpointStore::scrub() {
  std::lock_guard<std::mutex> lock(mu_);
  auto broken = [this](const auto& entry) { return !set_complete_unlocked(entry.first); };
  return static_cast<int>(std::erase_if(versions_, broken));
}

std::vector<std::uint64_t> CheckpointStore::versions() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::uint64_t> out;
  out.reserve(versions_.size());
  for (const auto& [v, set] : versions_) out.push_back(v);
  return out;
}

std::size_t CheckpointStore::total_bytes() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::size_t total = 0;
  for (const auto& [v, set] : versions_) {
    for (const File& f : set.files) total += f.data.size();
  }
  return total;
}

std::size_t CheckpointStore::file_count() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::size_t total = 0;
  for (const auto& [v, set] : versions_) total += static_cast<std::size_t>(set.file_count);
  return total;
}

std::size_t CheckpointStore::copy_slots() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::size_t total = 0;
  for (const auto& [v, set] : versions_) total += set.copies.size();
  return total;
}

}  // namespace exasim::ckpt
