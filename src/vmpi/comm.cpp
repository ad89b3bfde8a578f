#include "vmpi/comm.hpp"

#include <tuple>

namespace exasim::vmpi {

Rank Comm::rank_of_world(Rank world) const {
  if (identity_size_ >= 0) {
    return world >= 0 && world < identity_size_ ? world : -1;
  }
  const std::vector<Rank>& members = extra_->members;
  for (std::size_t i = 0; i < members.size(); ++i) {
    if (members[i] == world) return static_cast<Rank>(i);
  }
  return -1;
}

std::vector<Rank> Comm::members_snapshot() const {
  if (identity_size_ < 0) return extra_->members;
  std::vector<Rank> out(static_cast<std::size_t>(identity_size_));
  for (int i = 0; i < identity_size_; ++i) out[static_cast<std::size_t>(i)] = i;
  return out;
}

int CommRegistry::id_for(int parent_id, std::uint64_t split_seq, int color) {
  std::lock_guard<std::mutex> lock(mu_);
  auto key = std::make_tuple(parent_id, split_seq, color);
  auto it = ids_.find(key);
  if (it != ids_.end()) return it->second;
  int id = next_id_++;
  ids_.emplace(key, id);
  return id;
}

}  // namespace exasim::vmpi
