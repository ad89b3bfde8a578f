#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <tuple>
#include <vector>

#include "vmpi/types.hpp"

namespace exasim::vmpi {

class Context;
struct Comm;

/// User-defined error handler (paper §IV-D: "xSim does support other error
/// handlers, such as MPI_ERRORS_RETURN and user-defined error handlers").
using UserErrorHandler = std::function<void(Context&, Comm&, Err)>;

/// A communicator as seen by one simulated process.
///
/// Membership is either *identity* (comm rank == world rank, used for
/// MPI_COMM_WORLD and its dups — O(1) storage, critical with tens of
/// thousands of simulated processes each holding their own communicator
/// objects) or an explicit ordered list of world ranks (splits/shrinks).
/// What identity membership never uses — the member list, a user-defined
/// error handler and a ULFM acknowledgement — lives in one block allocated
/// on first use, so every rank's world communicator is 48 bytes
/// (DESIGN.md §9).
struct Comm {
  int id = 0;
  Rank my_rank = -1;          ///< This process's rank within the communicator.
  std::uint64_t coll_seq = 0; ///< Per-communicator collective sequence number.
  std::uint64_t split_seq = 0;///< Per-communicator dup/split/shrink counter.
  /// ULFM recovery operations (shrink/agree) sequence their internal tags
  /// separately from coll_seq: after a failed collective, survivors'
  /// coll_seq values can legitimately diverge (some completed more phases
  /// than others before the error), but every survivor performs the same
  /// ordered sequence of recovery operations.
  std::uint64_t recovery_seq = 0;
  ErrorHandlerKind handler = ErrorHandlerKind::kFatal;
  bool revoked = false;       ///< ULFM: set by Comm_revoke.

  /// Sets identity membership over world ranks [0, n).
  void set_identity_members(int n) {
    identity_size_ = n;
    if (extra_ != nullptr) extra_->members.clear();
  }

  /// Sets explicit membership (world ranks in communicator order).
  void set_members(std::vector<Rank> members) {
    identity_size_ = -1;
    extra().members = std::move(members);
  }

  int size() const {
    return identity_size_ >= 0 ? identity_size_ : static_cast<int>(extra_->members.size());
  }

  /// World rank of communicator rank r; r must be in [0, size()).
  Rank world_of(Rank r) const {
    return identity_size_ >= 0 ? r : extra_->members.at(static_cast<std::size_t>(r));
  }

  /// Communicator rank of a world rank, or -1 if not a member.
  Rank rank_of_world(Rank world) const;

  /// Materializes the member list (world ranks in communicator order).
  std::vector<Rank> members_snapshot() const;

  /// The user-defined error handler; null when none is set.
  const UserErrorHandler* user_handler() const {
    return extra_ != nullptr && extra_->user_handler ? &extra_->user_handler : nullptr;
  }
  void set_user_handler(UserErrorHandler h) {
    if (h || extra_ != nullptr) extra().user_handler = std::move(h);
  }

  /// ULFM MPI_Comm_failure_get_acked: the failed members (world ranks,
  /// ascending) this process knew of at its last MPI_Comm_failure_ack on
  /// this communicator; empty before the first.
  std::vector<Rank> acked_failures() const {
    return extra_ != nullptr ? extra_->acked : std::vector<Rank>{};
  }
  void set_acked_failures(std::vector<Rank> failed) {
    if (!failed.empty() || extra_ != nullptr) extra().acked = std::move(failed);
  }

 private:
  struct Extra {
    std::vector<Rank> members;  ///< Explicit membership when identity_size_ < 0.
    UserErrorHandler user_handler;
    std::vector<Rank> acked;  ///< The failure_ack snapshot.
  };
  Extra& extra() {
    if (extra_ == nullptr) extra_ = std::make_unique<Extra>();
    return *extra_;
  }

  int identity_size_ = 0;  ///< >= 0: identity membership of that size.
  std::unique_ptr<Extra> extra_;
};

/// Machine-global registry that hands out communicator ids.
///
/// Communicator creation (dup/split/shrink) is collective: every member calls
/// it in the same order, so the tuple (parent id, per-parent sequence number,
/// color) is identical at every member and maps to one new id. The registry
/// is shared simulator state — analogous to xSim keeping simulator-internal
/// bookkeeping outside the simulated processes.
class CommRegistry {
 public:
  static constexpr int kWorldId = 0;

  /// Returns the id for this (parent, seq, color) tuple, allocating on first
  /// use. Thread-safe: processes on different engine workers may create
  /// communicators concurrently. The *set* of (tuple → id) assignments is
  /// deterministic because every simulated schedule yields the same tuples;
  /// only the numeric ids may vary with first-request interleaving — nothing
  /// observable keys off the raw id value across runs.
  int id_for(int parent_id, std::uint64_t split_seq, int color);

 private:
  mutable std::mutex mu_;
  std::map<std::tuple<int, std::uint64_t, int>, int> ids_;
  int next_id_ = 1;
};

}  // namespace exasim::vmpi
