#include "resilience/fault_state.hpp"

#include <algorithm>

namespace exasim::resilience {

void SoftErrorState::register_region(const std::string& name, void* ptr, std::size_t bytes) {
  for (auto& r : regions_) {
    if (r.name == name) {
      r.ptr = ptr;
      r.bytes = bytes;
      return;
    }
  }
  regions_.push_back(MemRegion{name, ptr, bytes});
}

void SoftErrorState::unregister_region(const std::string& name) {
  std::erase_if(regions_, [&](const MemRegion& r) { return r.name == name; });
}

std::size_t SoftErrorState::registered_bytes() const {
  std::size_t total = 0;
  for (const auto& r : regions_) total += r.bytes;
  return total;
}

void SoftErrorState::schedule_flip(SimTime t, std::uint64_t bit_index) {
  pending_flips_.push_back(PendingFlip{t, bit_index, next_seq_++});
  std::push_heap(pending_flips_.begin(), pending_flips_.end(), flip_after);
}

void SoftErrorState::apply_due(SimTime clock) {
  while (!pending_flips_.empty() && clock >= pending_flips_.front().time) {
    std::pop_heap(pending_flips_.begin(), pending_flips_.end(), flip_after);
    const PendingFlip flip = pending_flips_.back();
    pending_flips_.pop_back();
    const std::size_t total_bits = registered_bytes() * 8;
    if (total_bits == 0) {
      ++dropped_;
      continue;
    }
    std::uint64_t bit = flip.bit_index % total_bits;
    for (auto& region : regions_) {
      const std::uint64_t region_bits = static_cast<std::uint64_t>(region.bytes) * 8;
      if (bit < region_bits) {
        auto* bytes = static_cast<unsigned char*>(region.ptr);
        bytes[bit / 8] ^= static_cast<unsigned char>(1u << (bit % 8));
        ++applied_;
        break;
      }
      bit -= region_bits;
    }
  }
}

}  // namespace exasim::resilience
