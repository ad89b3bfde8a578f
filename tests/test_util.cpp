// util: time conversions, deterministic RNG, the value parsers (integers,
// numbers, switches, durations, spec fields, failure schedules), the
// hot-path pool and the sized message block built on it.

#include <gtest/gtest.h>

#include <cmath>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <limits>
#include <iterator>
#include <memory>
#include <set>
#include <vector>

#include "util/counters.hpp"
#include "util/parse.hpp"
#include "util/pool.hpp"
#include "util/rng.hpp"
#include "util/time.hpp"
#include "vmpi/message.hpp"

namespace exasim {
namespace {

TEST(Time, ConversionsRoundTrip) {
  EXPECT_EQ(sim_us(1), 1000u);
  EXPECT_EQ(sim_ms(1), 1000'000u);
  EXPECT_EQ(sim_sec(1), 1000'000'000u);
  EXPECT_EQ(sim_seconds(1.5), 1'500'000'000u);
  EXPECT_DOUBLE_EQ(to_seconds(sim_sec(3)), 3.0);
  EXPECT_DOUBLE_EQ(to_micros(sim_us(7)), 7.0);
}

TEST(Time, FormatPicksUnits) {
  EXPECT_EQ(format_sim_time(sim_sec(2)), "2.000 s");
  EXPECT_EQ(format_sim_time(sim_ms(3)), "3.000 ms");
  EXPECT_EQ(format_sim_time(sim_us(4)), "4.000 us");
  EXPECT_EQ(format_sim_time(sim_ns(5)), "5 ns");
}

TEST(Rng, DeterministicForSeed) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) same += a.next_u64() == b.next_u64();
  EXPECT_LT(same, 2);
}

TEST(Rng, NextBelowRespectsBound) {
  Rng r(7);
  for (std::uint64_t bound : {1ull, 2ull, 3ull, 17ull, 1000ull}) {
    for (int i = 0; i < 200; ++i) EXPECT_LT(r.next_below(bound), bound);
  }
}

TEST(Rng, NextBelowCoversRange) {
  Rng r(9);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 400; ++i) seen.insert(r.next_below(10));
  EXPECT_EQ(seen.size(), 10u);
}

TEST(Rng, DoublesInUnitInterval) {
  Rng r(11);
  for (int i = 0; i < 1000; ++i) {
    const double d = r.next_double();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(Rng, ExponentialHasRoughlyRightMean) {
  Rng r(13);
  double sum = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) sum += r.exponential(5.0);
  EXPECT_NEAR(sum / n, 5.0, 0.15);
}

TEST(Rng, WeibullShapeOneIsExponential) {
  Rng r(17);
  double sum = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) sum += r.weibull(1.0, 3.0);
  EXPECT_NEAR(sum / n, 3.0, 0.12);
}

TEST(Rng, SplitStreamsAreIndependentlyDeterministic) {
  Rng a(5);
  Rng s1 = a.split();
  Rng a2(5);
  Rng s2 = a2.split();
  for (int i = 0; i < 32; ++i) EXPECT_EQ(s1.next_u64(), s2.next_u64());
}

struct DurationCase {
  const char* text;
  SimTime expected;
};

class DurationParse : public ::testing::TestWithParam<DurationCase> {};

TEST_P(DurationParse, Parses) {
  auto got = parse_duration(GetParam().text);
  ASSERT_TRUE(got.has_value()) << GetParam().text;
  EXPECT_EQ(*got, GetParam().expected);
}

INSTANTIATE_TEST_SUITE_P(
    Cases, DurationParse,
    ::testing::Values(DurationCase{"5s", sim_sec(5)}, DurationCase{"5", sim_sec(5)},
                      DurationCase{"1.5s", sim_seconds(1.5)}, DurationCase{"3ms", sim_ms(3)},
                      DurationCase{"250us", sim_us(250)}, DurationCase{"9ns", 9},
                      DurationCase{"2m", sim_sec(120)}, DurationCase{"1h", sim_sec(3600)},
                      DurationCase{" 10 ms ", sim_ms(10)}, DurationCase{"0", 0}));

TEST(DurationParseErrors, RejectsMalformed) {
  for (const char* bad : {"", "abc", "5x", "-3s", "1..2s", "s", "3 4s", "1e30s", "inf"}) {
    EXPECT_FALSE(parse_duration(bad).has_value()) << bad;
  }
}

TEST(FailureScheduleParse, ParsesPairs) {
  auto specs = parse_failure_schedule("12@3000s, 77@1.5s; 0@250ms");
  ASSERT_TRUE(specs.has_value());
  ASSERT_EQ(specs->size(), 3u);
  EXPECT_EQ((*specs)[0], (FailureSpec{12, sim_sec(3000)}));
  EXPECT_EQ((*specs)[1], (FailureSpec{77, sim_seconds(1.5)}));
  EXPECT_EQ((*specs)[2], (FailureSpec{0, sim_ms(250)}));
}

TEST(FailureScheduleParse, EmptyIsEmpty) {
  auto specs = parse_failure_schedule("");
  ASSERT_TRUE(specs.has_value());
  EXPECT_TRUE(specs->empty());
}

TEST(FailureScheduleParse, RejectsMalformed) {
  for (const char* bad : {"12", "a@3s", "1@x", "-2@3s", "1@"}) {
    EXPECT_FALSE(parse_failure_schedule(bad).has_value()) << bad;
  }
}

TEST(FailureScheduleParse, FormatRoundTrips) {
  std::vector<FailureSpec> specs{{3, sim_sec(10)}, {1, sim_ms(1500)}};
  auto parsed = parse_failure_schedule(format_failure_schedule(specs));
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(*parsed, specs);
}

TEST(SplitTrimmed, SplitsAndTrims) {
  auto parts = split_trimmed("  a , b,, c ", ',');
  ASSERT_EQ(parts.size(), 3u);
  EXPECT_EQ(parts[0], "a");
  EXPECT_EQ(parts[1], "b");
  EXPECT_EQ(parts[2], "c");
}

TEST(ParseInt, WholeStringWithinRange) {
  EXPECT_EQ(parse_int("42"), 42);
  EXPECT_EQ(parse_int(" +7 "), 7);
  EXPECT_EQ(parse_int("-3"), -3);
  EXPECT_EQ(parse_int("5", 1, 5), 5);
  for (const char* bad : {"", " ", "x", "1x", "1 2", "+-1", "--1", "+", "0x10", "1.0",
                          "9223372036854775808"}) {
    EXPECT_FALSE(parse_int(bad).has_value()) << bad;
  }
  EXPECT_FALSE(parse_int("0", 1, 10).has_value());
  EXPECT_FALSE(parse_int("11", 1, 10).has_value());
  // Once truncated to int: 2^32 + 2 ranks ran as 2.
  EXPECT_FALSE(parse_int("4294967298", 1, std::numeric_limits<int>::max()).has_value());
}

TEST(ParseU64, NeverWrapsANegative) {
  EXPECT_EQ(parse_u64("18446744073709551615"), std::numeric_limits<std::uint64_t>::max());
  EXPECT_EQ(parse_u64("+3"), 3u);
  EXPECT_EQ(parse_u64("0"), 0u);
  for (const char* bad : {"-1", "-0", "18446744073709551616", "1e3", "", "7 x"}) {
    EXPECT_FALSE(parse_u64(bad).has_value()) << bad;
  }
  EXPECT_FALSE(parse_u64("9", 10).has_value());
}

TEST(ParseDouble, FiniteAndNonNegative) {
  EXPECT_EQ(parse_double("32e9"), 32e9);
  EXPECT_EQ(parse_double(" 0.5 "), 0.5);
  EXPECT_EQ(parse_double("0"), 0.0);
  for (const char* bad : {"", "-1", "1e999", "inf", "nan", "1e9x", "abc", "1,5"}) {
    EXPECT_FALSE(parse_double(bad).has_value()) << bad;
  }
}

TEST(ParseSwitch, ZeroOrOne) {
  EXPECT_EQ(parse_switch("0"), false);
  EXPECT_EQ(parse_switch("1"), true);
  for (const char* bad : {"", "2", "yes", "true", "01"}) {
    EXPECT_FALSE(parse_switch(bad).has_value()) << bad;
  }
}

TEST(FormatDuration, LargestExactUnitAndRoundTrips) {
  const std::pair<SimTime, const char*> cases[] = {
      {0, "0s"}, {sim_sec(2), "2s"}, {sim_ms(100), "100ms"},
      {sim_us(10), "10us"}, {750, "750ns"}, {sim_ms(1500), "1500ms"},
  };
  for (const auto& [t, text] : cases) {
    EXPECT_EQ(format_duration(t), text);
    EXPECT_EQ(parse_duration(text), t) << text;
  }
}

TEST(ParseFields, SplitsTrimsAndRejectsMalformed) {
  auto fields = parse_fields("ranks=32768, mttf = 6000s,, topo=torus:32x32x32");
  ASSERT_TRUE(fields.has_value());
  ASSERT_EQ(fields->size(), 3u);
  EXPECT_EQ((*fields)[1], (Field{"mttf", "6000s"}));
  EXPECT_EQ((*fields)[2], (Field{"topo", "torus:32x32x32"}));
  EXPECT_EQ(parse_fields("a=1;b=2", ';')->size(), 2u);
  EXPECT_TRUE(parse_fields("")->empty());
  for (const char* bad : {"novalue", "=x", "a=1,b", " =1"}) {
    EXPECT_FALSE(parse_fields(bad).has_value()) << bad;
  }
}

TEST(ParseSpec, NameThenFields) {
  auto spec = parse_spec("heartbeat:period=1ms,miss=3");
  ASSERT_TRUE(spec.has_value());
  EXPECT_EQ(spec->name, "heartbeat");
  ASSERT_EQ(spec->fields.size(), 2u);
  EXPECT_EQ(spec->fields[1], (Field{"miss", "3"}));
  for (const char* bare : {"deterministic", "adaptive:"}) {
    spec = parse_spec(bare);
    ASSERT_TRUE(spec.has_value()) << bare;
    EXPECT_TRUE(spec->fields.empty()) << bare;
  }
  EXPECT_FALSE(parse_spec("adaptive:spread").has_value());
}

using util::Counter;

/// This thread's pool_alloc calls that went to the general heap.
std::uint64_t heap_allocs() { return util::thread_counters()[Counter::kPoolHeapAllocs]; }

TEST(Pool, RecyclesWithinSizeClass) {
  if (!util::kPoolSlabs) GTEST_SKIP() << "this build takes every block from the heap";
  const util::Counters s0 = util::thread_counters();
  void* a = util::pool_alloc(48);
  util::pool_free(a);
  void* b = util::pool_alloc(40);  // Same 64-byte class: must reuse a's block.
  EXPECT_EQ(b, a);
  util::pool_free(b);
  const util::Counters d = util::thread_counters() - s0;
  EXPECT_EQ(d[Counter::kPoolAllocs], 2u);
  EXPECT_EQ(d[Counter::kPoolFrees], 2u);
  EXPECT_GE(d[Counter::kPoolRecycled], 1u);
  EXPECT_EQ(d[Counter::kPoolHeapAllocs], 0u);
}

TEST(Pool, OversizeFallsBackToHeap) {
  // Larger than the biggest size class: heap-routed, still freed correctly.
  const std::uint64_t h0 = heap_allocs();
  void* big = util::pool_alloc(1 << 20);
  ASSERT_NE(big, nullptr);
  util::pool_free(big);
  EXPECT_EQ(heap_allocs() - h0, 1u);
}

TEST(Pool, AllocationsAreWritableAndDistinct) {
  std::vector<void*> blocks;
  for (int i = 0; i < 64; ++i) {
    void* p = util::pool_alloc(128);
    std::memset(p, i, 128);
    blocks.push_back(p);
  }
  std::set<void*> unique(blocks.begin(), blocks.end());
  EXPECT_EQ(unique.size(), blocks.size());
  for (int i = 0; i < 64; ++i) {
    EXPECT_EQ(static_cast<unsigned char*>(blocks[static_cast<std::size_t>(i)])[127],
              static_cast<unsigned char>(i));
  }
  for (void* p : blocks) util::pool_free(p);
}

// A message's attachment (vmpi::MsgPayload): the request handle and the
// real bytes share one pool_alloc block sized to them.

/// Builds a block of `n` patterned bytes and checks it reads back intact.
void expect_round_trip(std::size_t n) {
  SCOPED_TRACE(n);
  std::vector<std::byte> src(n);
  for (std::size_t i = 0; i < n; ++i) src[i] = static_cast<std::byte>((i * 7 + 3) & 0xff);
  const vmpi::RequestHandle req{42, 7};
  auto msg = vmpi::MsgPayload::make(req, n == 0 ? nullptr : src.data(), n);
  ASSERT_EQ(msg->data_bytes, n);
  EXPECT_EQ(msg->req.serial, 42u);
  EXPECT_EQ(msg->req.slot, 7u);
  EXPECT_TRUE(vmpi::MsgPayload::rendezvous(msg.get()));
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(msg->data()) % 8, 0u);  // Word-aligned bytes.
  if (n != 0) {
    EXPECT_EQ(std::memcmp(msg->data(), src.data(), n), 0);
  }
  // Freed through the event payload base, as the engine frees it.
  std::unique_ptr<EventPayload> as_event = std::move(msg);
}

constexpr std::size_t kRoundTripSizes[] = {0, 1, 48, 4096, 70000};

TEST(MsgPayloadBlock, BytesRoundTrip) {
  for (const std::size_t n : kRoundTripSizes) expect_round_trip(n);
}

TEST(MsgPayloadBlock, PooledUpToTheLargestClassThenHeap) {
  // The header: vtable pointer, request handle and byte count. The envelope
  // rides in the event (vmpi::Envelope in EventInline), not here.
  static_assert(sizeof(vmpi::MsgPayload) == 24, "an attachment header is 24 bytes");
  static_assert(sizeof(vmpi::Envelope) == EventInline::kBytes,
                "the envelope fills the event's inline area");
  if (!util::kPoolSlabs) GTEST_SKIP() << "this build takes every block from the heap";
  const std::vector<std::byte> src(util::kPoolMaxBytes, std::byte{0x5a});
  const std::size_t largest_pooled = util::kPoolMaxBytes - sizeof(vmpi::MsgPayload);
  auto heap_allocs_of = [&src](std::size_t n) {
    const std::uint64_t h0 = heap_allocs();
    auto msg = vmpi::MsgPayload::make(vmpi::RequestHandle{}, src.data(), n);
    return heap_allocs() - h0;
  };
  EXPECT_EQ(heap_allocs_of(0), 0u);
  EXPECT_EQ(heap_allocs_of(48), 0u);
  EXPECT_EQ(heap_allocs_of(largest_pooled), 0u);
  EXPECT_EQ(heap_allocs_of(largest_pooled + 1), 1u);
}

}  // namespace
}  // namespace exasim
