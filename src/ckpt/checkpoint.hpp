#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <utility>
#include <vector>

#include "util/parse.hpp"
#include "util/time.hpp"

namespace exasim::ckpt {

/// A checkpoint file's bytes. Up to kInlineBytes live inline, so a
/// header-sized payload (a modeled application's whole checkpoint) is no
/// heap block of its own; a larger one is one heap block that append grows
/// geometrically (DESIGN.md §9).
class Payload {
 public:
  static constexpr std::size_t kInlineBytes = 24;

  Payload() {}
  Payload(const Payload& other) { append(other.bytes()); }
  Payload(Payload&& other) noexcept;
  Payload& operator=(Payload other) noexcept;
  ~Payload() { clear(); }

  std::size_t size() const { return on_heap() ? heap_.size : inline_size_; }
  bool empty() const { return size() == 0; }
  const std::byte* data() const { return on_heap() ? heap_.data : inline_; }
  const std::byte* begin() const { return data(); }
  const std::byte* end() const { return data() + size(); }
  std::span<const std::byte> bytes() const { return {data(), size()}; }
  /// Whether the bytes are in a heap block (more than kInlineBytes).
  bool on_heap() const { return inline_size_ == kOnHeap; }

  void append(std::span<const std::byte> more);
  /// Empties the payload and frees its heap block, if any.
  void clear();

  friend bool operator==(const Payload& a, std::span<const std::byte> b);

 private:
  static constexpr std::uint8_t kOnHeap = 0xff;
  void take(Payload& other) noexcept;  ///< Moves other's bytes into an empty *this.
  struct Heap {
    std::byte* data;
    std::size_t size;
    std::size_t capacity;
  };
  union {
    std::byte inline_[kInlineBytes];
    Heap heap_;
  };
  std::uint8_t inline_size_ = 0;  ///< Bytes in inline_, or kOnHeap.
};

/// One physical copy of a rank's checkpoint file somewhere in the storage
/// hierarchy. A finalized file has at least one; it survives a failure only
/// through copies that themselves survive (CheckpointStore::apply_failures).
struct CopyRecord {
  /// StorageTierKind ordinal: 0 = node memory, 1 = burst buffer, 2 = PFS.
  int level = 2;
  /// Rank whose node memory holds the copy; -1 for shared tiers (bb/pfs).
  int holder = -1;
  /// Sim-time at which the copy finishes materializing. A background drain
  /// that was still in flight when the run ended never happened.
  SimTime ready_time = 0;
  /// Staged drains source from a node-memory image: if `depends_on` (a rank)
  /// dies before `depends_until`, the drain loses its source and the copy is
  /// lost even though its own holder is a durable tier. -1 = no dependency.
  int depends_on = -1;
  SimTime depends_until = 0;

  friend bool operator==(const CopyRecord&, const CopyRecord&) = default;
};

/// Where every rank of one complete checkpoint version restores from,
/// built once by CheckpointStore::restore_plan and shared read-only by all
/// ranks of a relaunch (so a restart costs O(world) in total, not per rank).
struct RestorePlan {
  /// The copy one rank restores from, and its file size (modeled fetches
  /// need exact sizes: vmpi::recv truncation is an error).
  struct Source {
    int level = 2;    ///< StorageTierKind ordinal of the chosen copy.
    int holder = -1;  ///< Rank whose node memory holds it; -1 = shared tier.
    std::size_t bytes = 0;
  };

  std::uint64_t version = 0;
  std::vector<Source> sources;  ///< Indexed by rank.
  /// CSR reverse index: the ranks holder h serves from its node memory are
  /// served[served_offsets[h] .. served_offsets[h + 1]), ascending. A rank
  /// restoring from its own memory is not listed.
  std::vector<std::size_t> served_offsets;
  std::vector<int> served;

  std::span<const int> served_by(int holder) const {
    const auto h = static_cast<std::size_t>(holder);
    const std::span<const int> all(served);
    return all.subspan(served_offsets[h], served_offsets[h + 1] - served_offsets[h]);
  }
};

/// Application-level checkpoint storage, simulating the parallel file system
/// the paper's heat application checkpoints to (§V-B).
///
/// A checkpoint *set* is one version: one file per rank. A file is
/// *corrupted* if it exists but was never finalized ("checkpoint file that
/// exists, but misses some information"); a set is *incomplete* if some
/// ranks' files are missing ("missing checkpoint files due to a failure
/// during checkpointing"). Only sets where every rank's file exists and is
/// finalized are valid restart candidates.
///
/// The store outlives individual simulation runs — it is the persistent
/// state that survives an abort/restart cycle. All methods are thread-safe:
/// ranks checkpointing concurrently live on different engine workers.
class CheckpointStore {
  /// A version's tables are world-sized, so each entry is kept small
  /// (DESIGN.md §9): a file is 32 bytes, a header-sized payload included,
  /// and carries no copy inline. Its copies are a level-ordered chain
  /// through its version's side table, in slots of 32 bytes: a PFS-mode
  /// file has one. The payload's last 7 bytes are padding, which
  /// [[no_unique_address]] lets the flags and the chain head fill.
  static constexpr std::uint32_t kNoCopy = 0xffffffffu;
  struct File {
    [[no_unique_address]] Payload data;
    std::uint8_t copy_count = 0;  ///< At least one once finalized.
    bool exists = false;
    bool finalized = false;
    std::uint32_t first_copy = kNoCopy;  ///< Head of the copy chain.
  };
  /// One CopyRecord in a side table, its fields reordered so the link fits.
  struct CopySlot {
    SimTime ready_time = 0;
    SimTime depends_until = 0;
    int level = 2;
    int holder = -1;
    int depends_on = -1;
    /// The file's next copy; in a free slot, the next free one.
    std::uint32_t next = kNoCopy;
  };

 public:
  /// Most copy records one file can carry: own memory, partner memory, burst
  /// buffer and PFS — everything TieredWriter records for one write.
  static constexpr int kMaxCopies = 4;
  /// Bytes of one rank's entry in a version's file table, and of one
  /// recorded copy in its side table.
  static constexpr std::size_t kFileRecordBytes = sizeof(File);
  static constexpr std::size_t kCopySlotBytes = sizeof(CopySlot);

  explicit CheckpointStore(int expected_ranks);

  int expected_ranks() const { return expected_ranks_; }

  /// Creates rank's file in `version`, unfinalized (overwrites any previous
  /// attempt by the same rank for this version).
  void begin(std::uint64_t version, int rank);

  /// Appends payload bytes to rank's file.
  void append(std::uint64_t version, int rank, std::span<const std::byte> data);

  /// Marks rank's file complete and records `first`, the copy its writer
  /// just made, so a finalized file always has a copy. Throws
  /// std::logic_error before begin() or on a file already finalized.
  void finalize(std::uint64_t version, int rank, const CopyRecord& first);

  bool file_exists(std::uint64_t version, int rank) const;
  bool file_finalized(std::uint64_t version, int rank) const;

  /// True if every rank's file exists and is finalized.
  bool set_complete(std::uint64_t version) const;

  /// Highest version with a complete set, if any.
  std::optional<std::uint64_t> latest_complete() const;

  /// File contents (valid whether finalized or not; empty if missing).
  Payload read(std::uint64_t version, int rank) const;

  /// Stored size of rank's file (0 if missing).
  std::size_t file_bytes(std::uint64_t version, int rank) const;

  /// Records where a copy of rank's file lives (tiered checkpointing). The
  /// copy goes after every recorded copy of the same or a faster level.
  /// Throws std::logic_error before begin() or past kMaxCopies.
  void record_copy(std::uint64_t version, int rank, const CopyRecord& copy);

  /// All surviving copies of rank's file, fastest tier first (empty for
  /// missing files).
  std::vector<CopyRecord> copies(std::uint64_t version, int rank) const;

  /// The restore plan of the latest complete version, or null when there is
  /// none (cold start). Each rank restores from its fastest surviving copy;
  /// among copies of that level, its own memory beats a shared tier beats a
  /// peer's memory, then the first recorded wins. The plan is cached and
  /// rebuilt only after its version changes, so every rank of a relaunch
  /// shares one build.
  std::shared_ptr<const RestorePlan> restore_plan();

  /// Restore plans this store has built — one per relaunch that restores.
  std::uint64_t plans_built() const;

  /// Applies a run's activated failures to the stored copies: a copy is lost
  /// if its holder died, if it was not ready by `end_time` (in-flight drain),
  /// or if its drain source died before the drain finished reading it. Files
  /// whose copy list goes empty are deleted. Returns the number of copies
  /// lost. Call before scrub(): a version that lost a rank's file is
  /// incomplete.
  int apply_failures(const std::vector<FailureSpec>& failures, SimTime end_time);

  /// Deletes one rank's file ("the previous checkpoint can be deleted
  /// safely" after the post-checkpoint barrier).
  void remove_file(std::uint64_t version, int rank);

  /// Deletes a whole version.
  void remove_version(std::uint64_t version);

  /// Deletes every incomplete/corrupted version — the paper's pre-restart
  /// shell script ("incomplete checkpoints ... are deleted using a shell
  /// script"). Returns the number of versions removed.
  int scrub();

  std::vector<std::uint64_t> versions() const;
  std::size_t total_bytes() const;
  std::size_t file_count() const;

  /// Free side-table slots a version may hold beyond its recorded copies
  /// before its table is compacted.
  static constexpr std::size_t kCopySlack = 64;

  /// Side-table slots held over all versions, free ones included: at most
  /// twice the copies of live files plus kCopySlack per version.
  std::size_t copy_slots() const;

 private:
  /// Per-version bookkeeping: a dense file table indexed by rank and the
  /// side table of the files' copies. The counters make set_complete()
  /// O(1). `stamp` changes with every mutation of this version, so a cached
  /// plan goes stale only when its own version does (heat3d deletes older
  /// versions right after restoring).
  struct VersionSet {
    std::vector<File> files;
    std::vector<CopySlot> copies;
    std::uint32_t free_copy = kNoCopy;  ///< Chain of free side-table slots.
    std::uint32_t live_copies = 0;      ///< Side-table slots in use.
    int file_count = 0;
    int finalized_count = 0;
    std::uint64_t stamp = 0;
  };
  VersionSet& touch(VersionSet& set) {
    set.stamp = ++mutations_;
    return set;
  }
  /// Rank's existing file in `version` and its set; nulls if there is none.
  std::pair<VersionSet*, File*> locate(std::uint64_t version, int rank);
  const File* find_file(std::uint64_t version, int rank) const;
  /// Inserts `copy` after every copy of the same or a faster level.
  static void insert_copy(VersionSet& set, File& file, const CopyRecord& copy);
  /// Frees every copy of `file`.
  static void drop_copies(VersionSet& set, File& file);
  static void free_slot(VersionSet& set, std::uint32_t slot);
  /// Rebuilds the side table from the live copies, file by file, once its
  /// free slots outnumber its used ones by more than kCopySlack.
  static void compact_if_sparse(VersionSet& set);
  static CopyRecord record_of(const CopySlot& slot);
  /// Drops rank's file from `set`; true if the set is now empty.
  bool erase_file(VersionSet& set, File& file);
  bool set_complete_unlocked(std::uint64_t version) const;
  std::optional<std::uint64_t> latest_complete_unlocked() const;
  RestorePlan build_plan(std::uint64_t version, const VersionSet& set) const;

  int expected_ranks_;
  mutable std::mutex mu_;
  std::map<std::uint64_t, VersionSet> versions_;
  std::uint64_t mutations_ = 0;
  std::shared_ptr<const RestorePlan> plan_;
  std::uint64_t plan_stamp_ = 0;
  std::uint64_t plans_built_ = 0;
};

}  // namespace exasim::ckpt
