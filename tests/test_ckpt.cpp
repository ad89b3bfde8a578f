// ckpt: checkpoint store state machine (complete/incomplete/corrupted),
// scrub, the per-rank file slots (reset in place, level-ordered inline
// copies), the inline payload of a header-sized file, and the PFS commit
// and restore through a priced PFS tier, including the failure-during-write
// corruption path (paper §V-B/§V-D). Global operator new is replaced with a
// version that counts this thread's blocks, for the inline-payload tests.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <map>
#include <new>
#include <random>

#include "ckpt/checkpoint.hpp"
#include "ckpt/tiered.hpp"
#include "iomodel/storage.hpp"
#include "sim_test_util.hpp"
#include "vmpi/context.hpp"

namespace {

thread_local std::uint64_t t_heap_blocks = 0;  ///< operator new calls on this thread.

void* counted_alloc(std::size_t n) {
  ++t_heap_blocks;
  void* p = std::malloc(n == 0 ? 1 : n);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

}  // namespace

void* operator new(std::size_t n) { return counted_alloc(n); }
void* operator new[](std::size_t n) { return counted_alloc(n); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace exasim {
namespace {

using ckpt::CheckpointStore;
using ckpt::CkptMode;
using ckpt::CopyRecord;
using test::run_app;
using test::tiny_config;
using vmpi::Context;

test::QuietLogs quiet;

/// The copy a PFS write records: the shared durable tier.
constexpr CopyRecord kPfsCopy{.level = 2, .holder = -1};

std::vector<std::byte> bytes_of(const char* s) {
  std::vector<std::byte> out(std::strlen(s));
  std::memcpy(out.data(), s, out.size());
  return out;
}

TEST(CheckpointStore, CompleteSetLifecycle) {
  CheckpointStore store(2);
  for (int r = 0; r < 2; ++r) {
    store.begin(1, r);
    store.append(1, r, bytes_of("data"));
    store.finalize(1, r, kPfsCopy);
  }
  EXPECT_TRUE(store.set_complete(1));
  EXPECT_EQ(store.latest_complete(), 1u);
  EXPECT_EQ(store.read(1, 0), bytes_of("data"));
  EXPECT_EQ(store.file_count(), 2u);
  EXPECT_EQ(store.total_bytes(), 8u);
}

TEST(CheckpointStore, MissingFileMakesSetIncomplete) {
  CheckpointStore store(3);
  for (int r = 0; r < 2; ++r) {  // Rank 2 never wrote.
    store.begin(5, r);
    store.finalize(5, r, kPfsCopy);
  }
  EXPECT_FALSE(store.set_complete(5));
  EXPECT_FALSE(store.latest_complete().has_value());
}

TEST(CheckpointStore, UnfinalizedFileIsCorrupted) {
  // "Checkpoint file that exists, but misses some information" (§V-B).
  CheckpointStore store(1);
  store.begin(2, 0);
  store.append(2, 0, bytes_of("partial"));
  EXPECT_TRUE(store.file_exists(2, 0));
  EXPECT_FALSE(store.file_finalized(2, 0));
  EXPECT_FALSE(store.set_complete(2));
}

TEST(CheckpointStore, LatestCompleteSkipsNewerBrokenSets) {
  CheckpointStore store(1);
  store.begin(1, 0);
  store.finalize(1, 0, kPfsCopy);
  store.begin(2, 0);  // Newer but corrupted.
  EXPECT_EQ(store.latest_complete(), 1u);
}

TEST(CheckpointStore, ScrubRemovesOnlyBrokenSets) {
  // The paper's pre-restart shell script.
  CheckpointStore store(2);
  store.begin(1, 0);
  store.finalize(1, 0, kPfsCopy);
  store.begin(1, 1);
  store.finalize(1, 1, kPfsCopy);
  store.begin(2, 0);  // Incomplete: rank 1 missing, rank 0 unfinalized.
  EXPECT_EQ(store.scrub(), 1);
  EXPECT_TRUE(store.set_complete(1));
  EXPECT_FALSE(store.file_exists(2, 0));
  EXPECT_EQ(store.scrub(), 0);
}

TEST(CheckpointStore, RemoveFileAndVersion) {
  CheckpointStore store(2);
  store.begin(1, 0);
  store.finalize(1, 0, kPfsCopy);
  store.begin(1, 1);
  store.finalize(1, 1, kPfsCopy);
  store.remove_file(1, 0);
  EXPECT_FALSE(store.file_exists(1, 0));
  EXPECT_TRUE(store.file_exists(1, 1));
  store.remove_version(1);
  EXPECT_TRUE(store.versions().empty());
}

TEST(CheckpointStore, BeginOverwritesPreviousAttempt) {
  CheckpointStore store(1);
  store.begin(1, 0);
  store.append(1, 0, bytes_of("old"));
  store.begin(1, 0);  // Restart of the same version.
  store.append(1, 0, bytes_of("new"));
  store.finalize(1, 0, kPfsCopy);
  EXPECT_EQ(store.read(1, 0), bytes_of("new"));
}

// ---------------------------------------------------------------------------
// File slots: a version holds one slot per rank, reset in place by begin().

TEST(CheckpointSlots, BeginTwiceResetsBytesCopiesAndCompleteness) {
  CheckpointStore store(1);
  store.begin(1, 0);
  store.append(1, 0, bytes_of("first attempt"));
  store.finalize(1, 0, CopyRecord{.level = 0, .holder = 0});
  ASSERT_TRUE(store.set_complete(1));

  store.begin(1, 0);
  EXPECT_EQ(store.file_bytes(1, 0), 0u);
  EXPECT_TRUE(store.read(1, 0).empty());
  EXPECT_TRUE(store.copies(1, 0).empty());
  EXPECT_TRUE(store.file_exists(1, 0));
  EXPECT_FALSE(store.file_finalized(1, 0));
  EXPECT_FALSE(store.set_complete(1));
  EXPECT_EQ(store.file_count(), 1u);

  store.finalize(1, 0, kPfsCopy);
  EXPECT_TRUE(store.set_complete(1));
}

TEST(CheckpointSlots, LaterVersionCarriesNothingFromAnEarlierOne) {
  CheckpointStore store(2);
  for (int r = 0; r < 2; ++r) {
    store.begin(1, r);
    store.append(1, r, bytes_of("version one"));
    store.finalize(1, r, kPfsCopy);
  }
  // Retire version 1 file by file, as heat3d does after its barrier.
  store.begin(2, 0);
  store.remove_file(1, 0);
  store.remove_file(1, 1);
  EXPECT_EQ(store.versions(), std::vector<std::uint64_t>{2});
  EXPECT_EQ(store.file_bytes(2, 0), 0u);
  EXPECT_TRUE(store.copies(2, 0).empty());
  EXPECT_FALSE(store.file_exists(2, 1));
  store.begin(2, 1);
  EXPECT_TRUE(store.read(2, 1).empty());
  EXPECT_TRUE(store.copies(2, 1).empty());
  EXPECT_EQ(store.total_bytes(), 0u);
}

TEST(CheckpointSlots, CopiesStayLevelOrderedWithTiesInInsertionOrder) {
  CheckpointStore store(4);
  store.begin(1, 0);
  store.record_copy(1, 0, CopyRecord{.level = 2, .holder = -1});
  store.record_copy(1, 0, CopyRecord{.level = 0, .holder = 3});
  store.record_copy(1, 0, CopyRecord{.level = 1, .holder = -1});
  store.record_copy(1, 0, CopyRecord{.level = 0, .holder = 1});
  const auto copies = store.copies(1, 0);
  ASSERT_EQ(copies.size(), 4u);
  EXPECT_EQ(copies[0].level, 0);
  EXPECT_EQ(copies[0].holder, 3);  // Recorded before holder 1.
  EXPECT_EQ(copies[1].level, 0);
  EXPECT_EQ(copies[1].holder, 1);
  EXPECT_EQ(copies[2].level, 1);
  EXPECT_EQ(copies[3].level, 2);
}

TEST(CheckpointSlots, FifthCopyIsRejected) {
  CheckpointStore store(1);
  store.begin(1, 0);
  for (int i = 0; i < CheckpointStore::kMaxCopies; ++i) {
    store.record_copy(1, 0, CopyRecord{.level = i % 3, .holder = -1});
  }
  EXPECT_THROW(store.record_copy(1, 0, CopyRecord{}), std::logic_error);
  EXPECT_EQ(store.copies(1, 0).size(), static_cast<std::size_t>(CheckpointStore::kMaxCopies));
}

/// What CheckpointStore keeps, as plain per-(version, rank) copy lists:
/// the reference the side table is checked against.
class ReferenceStore {
 public:
  explicit ReferenceStore(int world) : world_(world) {}

  void begin(std::uint64_t v, int r) { files_[v][r].clear(); }
  void add_copy(std::uint64_t v, int r, const CopyRecord& c) {
    std::vector<CopyRecord>& list = files_[v][r];
    auto at = list.begin();
    while (at != list.end() && at->level <= c.level) ++at;  // After ties.
    list.insert(at, c);
  }
  void remove_file(std::uint64_t v, int r) {
    auto it = files_.find(v);
    if (it == files_.end()) return;
    it->second.erase(r);
    if (it->second.empty()) files_.erase(it);
  }
  void remove_version(std::uint64_t v) { files_.erase(v); }
  /// CheckpointStore::apply_failures' rule, copy by copy; returns the
  /// copies lost.
  std::size_t apply_failures(const std::vector<FailureSpec>& failures, SimTime end) {
    std::map<int, SimTime> died;
    for (const FailureSpec& f : failures) {
      auto [it, fresh] = died.emplace(f.rank, f.time);
      if (!fresh) it->second = std::min(it->second, f.time);
    }
    auto lost = [&](const CopyRecord& c) {
      if (c.ready_time > end) return true;
      if (c.holder >= 0 && died.count(c.holder) != 0) return true;
      auto dep = died.find(c.depends_on);
      return c.depends_on >= 0 && dep != died.end() && dep->second < c.depends_until;
    };
    std::size_t n = 0;
    for (auto& [v, ranks] : files_) {
      for (auto& [r, list] : ranks) n += std::erase_if(list, lost);
      std::erase_if(ranks, [](const auto& file) { return file.second.empty(); });
    }
    std::erase_if(files_, [](const auto& version) { return version.second.empty(); });
    return n;
  }

  std::size_t live_copies() const {
    std::size_t n = 0;
    for (const auto& [v, ranks] : files_) {
      for (const auto& [r, list] : ranks) n += list.size();
    }
    return n;
  }
  std::size_t versions() const { return files_.size(); }

  /// Every file of every version, and only those, with its copies in order.
  void expect_matches(const CheckpointStore& store) const {
    std::vector<std::uint64_t> versions;
    for (const auto& [v, ranks] : files_) versions.push_back(v);
    ASSERT_EQ(store.versions(), versions);
    for (const auto& [v, ranks] : files_) {
      for (int r = 0; r < world_; ++r) {
        auto it = ranks.find(r);
        ASSERT_EQ(store.file_exists(v, r), it != ranks.end()) << "version " << v << " rank " << r;
        if (it != ranks.end()) {
          ASSERT_EQ(store.copies(v, r), it->second);
        }
      }
    }
  }

 private:
  int world_;
  std::map<std::uint64_t, std::map<int, std::vector<CopyRecord>>> files_;
};

TEST(CheckpointSlots, CopySideTableMatchesAReferenceOverAThousandVersions) {
  // Tiered-shaped traffic on 64 ranks: each version's files finalize with
  // an own-memory copy and then record partner, burst-buffer and PFS copies
  // in random order; older files and versions are removed and failures
  // applied in between. The store's copies must match the reference list
  // for list, and its side tables stay within twice the live copies plus
  // the compaction slack per version.
  constexpr int kWorld = 64;
  std::mt19937_64 rng(2026);
  auto pick = [&rng](int n) { return static_cast<int>(rng() % static_cast<unsigned>(n)); };
  CheckpointStore store(kWorld);
  ReferenceStore ref(kWorld);
  std::size_t lost = 0;
  for (std::uint64_t v = 1; v <= 1000; ++v) {
    const SimTime t = sim_ms(static_cast<int>(v));
    for (int r = 0; r < kWorld; ++r) {
      store.begin(v, r);
      ref.begin(v, r);
      const CopyRecord own{.level = 0, .holder = r, .ready_time = t};
      store.finalize(v, r, own);
      ref.add_copy(v, r, own);
      std::vector<CopyRecord> extra = {
          CopyRecord{.level = 0, .holder = ckpt::partner_of(r, kWorld), .ready_time = t},
          CopyRecord{.level = 1, .holder = -1, .ready_time = t + sim_ms(pick(3))},
          CopyRecord{.level = 2, .holder = -1, .ready_time = t + sim_ms(pick(3)),
                     .depends_on = r, .depends_until = t + sim_ms(pick(3))}};
      std::shuffle(extra.begin(), extra.end(), rng);
      for (int i = pick(4); i > 0; --i) {
        store.record_copy(v, r, extra[static_cast<std::size_t>(i - 1)]);
        ref.add_copy(v, r, extra[static_cast<std::size_t>(i - 1)]);
      }
    }
    // Retire some files of the older versions, as heat3d's cleanup does.
    for (const std::uint64_t old : store.versions()) {
      if (old == v) continue;
      for (int r = 0; r < kWorld; ++r) {
        if (pick(2) == 0) {
          store.remove_file(old, r);
          ref.remove_file(old, r);
        }
      }
    }
    if (store.versions().size() > 4) {
      const std::uint64_t oldest = store.versions().front();
      store.remove_version(oldest);
      ref.remove_version(oldest);
    }
    if (pick(4) == 0) {
      std::vector<FailureSpec> failures;
      for (int f = 1 + pick(3); f > 0; --f) {
        failures.push_back(FailureSpec{pick(kWorld), sim_ms(v - 1 + pick(3))});
      }
      const SimTime end = t + sim_ms(pick(2));
      const int store_lost = store.apply_failures(failures, end);
      ASSERT_EQ(static_cast<std::size_t>(store_lost), ref.apply_failures(failures, end));
      lost += static_cast<std::size_t>(store_lost);
    }
    ASSERT_NO_FATAL_FAILURE(ref.expect_matches(store)) << "after version " << v;
    ASSERT_LE(store.copy_slots(),
              2 * ref.live_copies() + CheckpointStore::kCopySlack * ref.versions())
        << "after version " << v;
  }
  EXPECT_GT(lost, 0u);  // Failures did drop copies.
}

TEST(CheckpointStore, ApiMisuseThrows) {
  CheckpointStore store(1);
  EXPECT_THROW(store.append(1, 0, bytes_of("x")), std::logic_error);
  EXPECT_THROW(store.finalize(1, 0, kPfsCopy), std::logic_error);
  EXPECT_THROW(store.begin(1, 5), std::invalid_argument);
  EXPECT_THROW(CheckpointStore(0), std::invalid_argument);
  store.begin(1, 0);
  store.finalize(1, 0, kPfsCopy);
  EXPECT_THROW(store.finalize(1, 0, kPfsCopy), std::logic_error);
  EXPECT_EQ(store.copies(1, 0).size(), 1u);
}

// ---------------------------------------------------------------------------
// The PFS commit (TieredWriter's pfs mode) and restore on a priced PFS tier.

/// A PFS tier at 1 MB/s per client: 1 B costs 1 us.
StorageHierarchy priced_pfs() { return StorageHierarchy(resolve_storage_spec("pfs:cbw=1e6")); }

TEST(CheckpointWriter, ChargesPfsTimeBeforeFinalize) {
  CheckpointStore store(1);
  const StorageHierarchy storage = priced_pfs();
  SimTime before = 0, after = 0;
  auto app = [&](Context& ctx) {
    ckpt::TieredWriter writer(storage, CkptMode::kPfs);
    auto payload = bytes_of("0123456789");
    before = ctx.now();
    ASSERT_EQ(writer.write(ctx, store, 1, payload), vmpi::Err::kSuccess);
    after = ctx.now();
    ctx.finalize();
  };
  run_app(tiny_config(1), app);
  EXPECT_EQ(after - before, sim_us(10));  // 10 B at 1 MB/s.
  EXPECT_TRUE(store.set_complete(1));
  // The file's one copy is on the PFS, ready when the write finished.
  const auto copies = store.copies(1, 0);
  ASSERT_EQ(copies.size(), 1u);
  EXPECT_EQ(copies[0], (CopyRecord{.level = 2, .holder = -1, .ready_time = after}));
}

TEST(CheckpointWriter, LogicalBytesOverrideChargesFullSize) {
  CheckpointStore store(1);
  const StorageHierarchy storage = priced_pfs();
  SimTime delta = 0;
  auto app = [&](Context& ctx) {
    ckpt::TieredWriter writer(storage, CkptMode::kPfs);
    auto payload = bytes_of("hdr");  // 3 bytes stored...
    const SimTime t0 = ctx.now();
    writer.write(ctx, store, 1, payload, /*logical_bytes=*/1'000'000);
    delta = ctx.now() - t0;  // ...but one logical second charged.
    ctx.finalize();
  };
  run_app(tiny_config(1), app);
  EXPECT_EQ(delta, sim_sec(1));
  EXPECT_EQ(store.read(1, 0).size(), 3u);
}

TEST(CheckpointWriter, FailureDuringWriteLeavesCorruptedFile) {
  // The §V-D failure mode: a process failure during the checkpoint phase
  // leaves a file that exists but was never finalized.
  CheckpointStore store(2);
  const StorageHierarchy storage = priced_pfs();
  auto cfg = tiny_config(2);
  cfg.failures = {FailureSpec{0, sim_us(500)}};  // Mid-write (write takes 1 ms).
  auto app = [&](Context& ctx) {
    if (ctx.rank() == 0) {
      ckpt::TieredWriter writer(storage, CkptMode::kPfs);
      std::vector<std::byte> payload(1000);
      writer.write(ctx, store, 7, payload);
    }
    ctx.finalize();
  };
  auto r = run_app(cfg, app);
  EXPECT_EQ(r.failed_count, 1);
  EXPECT_TRUE(store.file_exists(7, 0));        // Created...
  EXPECT_FALSE(store.file_finalized(7, 0));    // ...but corrupted,
  EXPECT_TRUE(store.copies(7, 0).empty());     // with no copy anywhere.
  EXPECT_FALSE(store.set_complete(7));
  EXPECT_EQ(store.scrub(), 1);                 // The shell script removes it.
}

TEST(CheckpointReader, ReadsLatestAndChargesTime) {
  CheckpointStore store(1);
  store.begin(3, 0);
  store.append(3, 0, bytes_of("abcdefghij"));
  store.finalize(3, 0, kPfsCopy);
  const StorageHierarchy storage = priced_pfs();
  std::vector<std::byte> got;
  SimTime delta = 0;
  std::uint64_t version = 0;
  int tier = -1;
  auto app = [&](Context& ctx) {
    const SimTime t0 = ctx.now();
    auto data = ckpt::read_latest_checkpoint_tiered(ctx, store, storage, &version, &tier);
    delta = ctx.now() - t0;
    ASSERT_TRUE(data.has_value());
    got.assign(data->begin(), data->end());
    ctx.finalize();
  };
  run_app(tiny_config(1), app);
  EXPECT_EQ(got, bytes_of("abcdefghij"));
  EXPECT_EQ(version, 3u);
  EXPECT_EQ(tier, 2);
  EXPECT_EQ(delta, sim_us(10));
}

/// `n` bytes of a fixed pseudo-random pattern.
std::vector<std::byte> pattern(std::size_t n, unsigned seed) {
  std::mt19937 rng(seed);
  std::vector<std::byte> out(n);
  for (std::byte& b : out) b = static_cast<std::byte>(rng());
  return out;
}

TEST(CheckpointPayload, HeaderSizedPayloadRoundTripsWithNoHeapBlock) {
  // Rank 1's file creates the version's tables, so rank 0's begin, append
  // and finalize touch its own entry only; the restore plan is built once
  // per version, before the counted read.
  CheckpointStore store(2);
  const std::vector<std::byte> header = pattern(ckpt::Payload::kInlineBytes, 1);
  store.begin(1, 1);
  store.append(1, 1, header);
  store.finalize(1, 1, kPfsCopy);
  const std::uint64_t before = t_heap_blocks;
  store.begin(1, 0);
  store.append(1, 0, header);
  store.finalize(1, 0, kPfsCopy);
  EXPECT_EQ(t_heap_blocks - before, 0u);
  ASSERT_NE(store.restore_plan(), nullptr);

  const StorageHierarchy storage = priced_pfs();
  std::uint64_t read_blocks = 1;
  bool same = false;
  bool on_heap = true;
  auto app = [&](Context& ctx) {
    if (ctx.rank() == 0) {
      const std::uint64_t at = t_heap_blocks;
      const auto data = ckpt::read_latest_checkpoint_tiered(ctx, store, storage);
      read_blocks = t_heap_blocks - at;
      same = data.has_value() && *data == header;
      on_heap = !data.has_value() || data->on_heap();
    }
    ctx.finalize();
  };
  run_app(tiny_config(2), app);
  EXPECT_EQ(read_blocks, 0u);
  EXPECT_TRUE(same);
  EXPECT_FALSE(on_heap);
}

TEST(CheckpointPayload, AppendsAcrossTheInlineLimitKeepTheirOrder) {
  // Appends of 10 bytes cross the 24-byte inline limit on the third, and
  // the heap block grows twice more after it.
  CheckpointStore store(1);
  const std::vector<std::byte> all = pattern(200, 2);
  store.begin(1, 0);
  ckpt::Payload local;
  for (std::size_t off = 0; off < all.size(); off += 10) {
    const std::span<const std::byte> piece(all.data() + off, 10);
    store.append(1, 0, piece);
    local.append(piece);
    EXPECT_EQ(local.on_heap(), off + 10 > ckpt::Payload::kInlineBytes);
    EXPECT_EQ(local, std::span(all.data(), off + 10));
  }
  store.finalize(1, 0, kPfsCopy);
  EXPECT_EQ(store.read(1, 0), all);
  EXPECT_EQ(store.file_bytes(1, 0), all.size());
  // A copy and a move keep the bytes; the moved-from payload is empty.
  ckpt::Payload copy = local;
  ckpt::Payload moved = std::move(local);
  EXPECT_EQ(copy, all);
  EXPECT_EQ(moved, all);
  EXPECT_TRUE(local.empty());  // A moved-from payload is empty.
}

TEST(CheckpointPayload, OneMebibytePayloadRoundTripsByteIdentical) {
  CheckpointStore store(1);
  const std::vector<std::byte> big = pattern(std::size_t{1} << 20, 3);
  store.begin(4, 0);
  store.append(4, 0, big);
  store.finalize(4, 0, kPfsCopy);
  const StorageHierarchy storage = priced_pfs();
  bool same = false;
  auto app = [&](Context& ctx) {
    const auto data = ckpt::read_latest_checkpoint_tiered(ctx, store, storage);
    same = data.has_value() && data->on_heap() && *data == big;
    ctx.finalize();
  };
  run_app(tiny_config(1), app);
  EXPECT_TRUE(same);
}

TEST(CheckpointReader, ColdStartReturnsNothing) {
  CheckpointStore store(1);
  const StorageHierarchy storage = priced_pfs();
  bool empty = false;
  SimTime delta = sim_sec(1);  // Overwritten by the run.
  auto app = [&](Context& ctx) {
    const SimTime t0 = ctx.now();
    empty = !ckpt::read_latest_checkpoint_tiered(ctx, store, storage).has_value();
    delta = ctx.now() - t0;
    ctx.finalize();
  };
  run_app(tiny_config(1), app);
  EXPECT_TRUE(empty);
  EXPECT_EQ(delta, 0);  // Nothing to read, nothing charged.
}

}  // namespace
}  // namespace exasim
