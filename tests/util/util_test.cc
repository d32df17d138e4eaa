// util_test.cc - the utility substrate: RNG determinism, table formatting,
// clock/cost composition, flag operations.
#include <gtest/gtest.h>

#include <sstream>

#include "util/clock.h"
#include "util/cost_model.h"
#include "util/flags.h"
#include "util/rng.h"
#include "util/table.h"

namespace vialock {
namespace {

TEST(Rng, DeterministicAcrossInstances) {
  Rng a(42);
  Rng b(42);
  for (int i = 0; i < 100; ++i) ASSERT_EQ(a.next(), b.next());
  Rng c(43);
  EXPECT_NE(a.next(), c.next());
}

TEST(Rng, BelowStaysInRange) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    ASSERT_LT(rng.below(17), 17u);
    const auto v = rng.between(5, 9);
    ASSERT_GE(v, 5u);
    ASSERT_LE(v, 9u);
  }
}

TEST(Rng, UniformCoversUnitInterval) {
  Rng rng(3);
  double lo = 1.0;
  double hi = 0.0;
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform();
    ASSERT_GE(u, 0.0);
    ASSERT_LT(u, 1.0);
    lo = std::min(lo, u);
    hi = std::max(hi, u);
  }
  EXPECT_LT(lo, 0.01);
  EXPECT_GT(hi, 0.99);
}

TEST(Table, FormatsAlignedAscii) {
  Table t({"name", "value"});
  t.row({"alpha", "1"});
  t.row({"b", "22222"});
  std::ostringstream os;
  t.print(os);
  const std::string out = os.str();
  EXPECT_NE(out.find("| name  | value |"), std::string::npos) << out;
  EXPECT_NE(out.find("| alpha | 1     |"), std::string::npos) << out;
  EXPECT_NE(out.find("+-------+-------+"), std::string::npos) << out;
}

TEST(Table, HumanUnits) {
  EXPECT_EQ(Table::nanos(900), "900 ns");
  EXPECT_EQ(Table::nanos(25'000), "25.00 us");
  EXPECT_EQ(Table::nanos(13'000'000), "13.00 ms");
  EXPECT_EQ(Table::nanos(20'000'000'000ULL), "20.00 s");
  EXPECT_EQ(Table::bytes(512), "512 B");
  EXPECT_EQ(Table::bytes(64 * 1024), "64 KB");
  EXPECT_EQ(Table::bytes(3 * 1024 * 1024), "3 MB");
  EXPECT_EQ(Table::rate(1024 * 1024, 1'000'000'000ULL), "1.00 MB/s");
}

TEST(Clock, AdvancesMonotonically) {
  Clock c;
  EXPECT_EQ(c.now(), 0u);
  c.advance(5);
  c.advance(7);
  EXPECT_EQ(c.now(), 12u);
  VirtualStopwatch sw(c);
  c.advance(100);
  EXPECT_EQ(sw.elapsed(), 100u);
  c.reset();
  EXPECT_EQ(c.now(), 0u);
}

TEST(CostModel, CompositesAreLinear) {
  CostModel m;
  EXPECT_EQ(m.copy(100), 100 * m.mem_copy_per_byte);
  EXPECT_EQ(m.swap_io(4096), m.swap_seek + 4096 * m.swap_per_byte);
  EXPECT_EQ(m.dma(0), m.dma_startup);
  EXPECT_EQ(m.wire(10) - m.wire(0), 10 * m.wire_per_byte);
}

}  // namespace

// Flag-ops test enum: must live at namespace scope so the trait
// specialization can name it.
enum class TestFlag : std::uint8_t { None = 0, A = 1, B = 2, C = 4 };

}  // namespace vialock

template <>
inline constexpr bool vialock::enable_flag_ops<vialock::TestFlag> = true;

namespace vialock {
namespace {

TEST(Flags, BitOperationsCompose) {
  TestFlag f = TestFlag::A | TestFlag::C;
  EXPECT_TRUE(has(f, TestFlag::A));
  EXPECT_FALSE(has(f, TestFlag::B));
  f |= TestFlag::B;
  EXPECT_TRUE(has(f, TestFlag::B));
  f &= ~TestFlag::A;
  EXPECT_FALSE(has(f, TestFlag::A));
  EXPECT_TRUE(has(f, TestFlag::C));
}

}  // namespace
}  // namespace vialock
