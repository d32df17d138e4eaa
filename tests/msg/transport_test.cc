// transport_test.cc - eager / rendezvous / preregistered protocols: data
// integrity, protocol mechanics, cache amortisation.
#include "msg/transport.h"

#include <gtest/gtest.h>

#include <vector>

#include "../via/via_util.h"
#include "util/rng.h"

namespace vialock::msg {
namespace {

using simkern::kPageSize;

struct ChannelBox {
  explicit ChannelBox(Channel::Config cfg = default_config())
      : a(cluster.add_node(test::small_node(via::PolicyKind::Kiobuf,
                                            /*frames=*/2048,
                                            /*tpt_entries=*/2048))),
        b(cluster.add_node(test::small_node(via::PolicyKind::Kiobuf,
                                            /*frames=*/2048,
                                            /*tpt_entries=*/2048))),
        channel(cluster, a, b, cfg) {
    EXPECT_TRUE(ok(channel.init()));
  }

  static Channel::Config default_config() {
    Channel::Config cfg;
    cfg.user_heap_bytes = 1ULL << 20;  // 1 MB heaps keep the test light
    cfg.preregister_heaps = true;
    return cfg;
  }

  via::Cluster cluster;
  via::NodeId a;
  via::NodeId b;
  Channel channel;
};

std::vector<std::byte> pattern(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<std::byte> out(n);
  for (auto& b : out) b = static_cast<std::byte>(rng.next() & 0xFF);
  return out;
}

/// Stages a patterned message, moves it with `proto` and checks that it
/// arrives intact, over a plain or a reliable channel.
void round_trip(Protocol proto, std::uint32_t len, bool reliable) {
  Channel::Config cfg = ChannelBox::default_config();
  cfg.reliable = reliable;
  ChannelBox box(cfg);
  const auto payload = pattern(len, 42 + len);
  ASSERT_TRUE(ok(box.channel.stage(0, payload)));
  if (reliable && proto == Protocol::Eager && len == 8192) {
    // A reliable frame's header leaves less than a whole slot for payload.
    EXPECT_EQ(box.channel.transfer(proto, 0, 128, len), KStatus::Inval);
    return;
  }
  ASSERT_TRUE(ok(box.channel.transfer(proto, 0, 128, len)));
  std::vector<std::byte> out(len);
  ASSERT_TRUE(ok(box.channel.fetch(128, out)));
  EXPECT_EQ(payload, out);
}

/// Protocol and message size; the fixture picks plain or reliable mode.
class TransportProtocolTest
    : public ::testing::TestWithParam<std::tuple<Protocol, std::uint32_t>> {};
class ReliableTransportProtocolTest : public TransportProtocolTest {};

TEST_P(TransportProtocolTest, RoundTripPreservesData) {
  const auto [proto, len] = GetParam();
  round_trip(proto, len, /*reliable=*/false);
}

TEST_P(ReliableTransportProtocolTest, RoundTripPreservesData) {
  const auto [proto, len] = GetParam();
  round_trip(proto, len, /*reliable=*/true);
}

const auto kProtocolSizes = ::testing::Combine(
    ::testing::Values(Protocol::Eager, Protocol::Rendezvous,
                      Protocol::Preregistered, Protocol::PioRendezvous),
    ::testing::Values(1u, 64u, 1024u, 4096u, 8192u));

std::string protocol_test_name(
    const ::testing::TestParamInfo<TransportProtocolTest::ParamType>& info) {
  std::string name = std::string(to_string(std::get<0>(info.param))) + "_" +
                     std::to_string(std::get<1>(info.param)) + "B";
  for (char& c : name)
    if (c == '-') c = '_';
  return name;
}

INSTANTIATE_TEST_SUITE_P(Sizes, TransportProtocolTest, kProtocolSizes,
                         protocol_test_name);
INSTANTIATE_TEST_SUITE_P(ReliableSizes, ReliableTransportProtocolTest,
                         kProtocolSizes, protocol_test_name);

TEST(Transport, PioRendezvousCachesTheImport) {
  ChannelBox box;
  const auto payload = pattern(32 * 1024, 11);
  ASSERT_TRUE(ok(box.channel.stage(0, payload)));
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(
        ok(box.channel.transfer(Protocol::PioRendezvous, 0, 0, 32 * 1024)));
  }
  std::vector<std::byte> out(payload.size());
  ASSERT_TRUE(ok(box.channel.fetch(0, out)));
  EXPECT_EQ(payload, out);
  EXPECT_EQ(box.channel.stats().pio_msgs, 5u);
  EXPECT_EQ(box.channel.stats().window_imports, 1u)
      << "the imported window must be reused across transfers";
  EXPECT_EQ(box.channel.sender_cache_stats().registrations, 0u)
      << "figure 5's point: NO sender-side registration";
}

TEST(Transport, PioRendezvousNeedsNoSenderRegistration) {
  // Large message crossing many pages, sender heap never registered.
  ChannelBox box;
  const auto payload = pattern(300 * 1024, 12);
  ASSERT_TRUE(ok(box.channel.stage(0, payload)));
  ASSERT_TRUE(
      ok(box.channel.transfer(Protocol::PioRendezvous, 0, 0, 300 * 1024)));
  std::vector<std::byte> out(payload.size());
  ASSERT_TRUE(ok(box.channel.fetch(0, out)));
  EXPECT_EQ(payload, out);
}

TEST(Transport, EagerRejectsOversizedMessages) {
  ChannelBox box;
  EXPECT_EQ(box.channel.transfer(Protocol::Eager, 0, 0, 64 * 1024),
            KStatus::Inval);
}

TEST(Transport, LargeRendezvousSpansManyPages) {
  ChannelBox box;
  constexpr std::uint32_t kLen = 256 * 1024;
  const auto payload = pattern(kLen, 7);
  ASSERT_TRUE(ok(box.channel.stage(0, payload)));
  ASSERT_TRUE(ok(box.channel.transfer(Protocol::Rendezvous, 0, 0, kLen)));
  std::vector<std::byte> out(kLen);
  ASSERT_TRUE(ok(box.channel.fetch(0, out)));
  EXPECT_EQ(payload, out);
}

TEST(Transport, BackToBackMessagesKeepOrderAndContent) {
  ChannelBox box;
  for (std::uint32_t i = 0; i < 20; ++i) {
    const auto payload = pattern(512 + i * 37, i);
    ASSERT_TRUE(ok(box.channel.stage(0, payload)));
    ASSERT_TRUE(ok(box.channel.transfer_auto(
        0, 0, static_cast<std::uint32_t>(payload.size()))));
    std::vector<std::byte> out(payload.size());
    ASSERT_TRUE(ok(box.channel.fetch(0, out)));
    ASSERT_EQ(payload, out) << "message " << i;
  }
}

TEST(Transport, AutoSwitchesProtocolAtThreshold) {
  ChannelBox box;
  const auto small = pattern(100, 1);
  ASSERT_TRUE(ok(box.channel.stage(0, small)));
  ASSERT_TRUE(ok(box.channel.transfer_auto(0, 0, 100)));
  EXPECT_EQ(box.channel.stats().eager_msgs, 1u);
  EXPECT_EQ(box.channel.stats().rendezvous_msgs, 0u);
  const auto big = pattern(16 * 1024, 2);
  ASSERT_TRUE(ok(box.channel.stage(0, big)));
  ASSERT_TRUE(ok(box.channel.transfer_auto(0, 0, 16 * 1024)));
  EXPECT_EQ(box.channel.stats().rendezvous_msgs, 1u);
}

TEST(Transport, RendezvousReusesCachedRegistrations) {
  ChannelBox box;
  const auto payload = pattern(32 * 1024, 3);
  ASSERT_TRUE(ok(box.channel.stage(0, payload)));
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(ok(box.channel.transfer(Protocol::Rendezvous, 0, 0,
                                        32 * 1024)));
  }
  // Same buffers every time: 1 miss, 9 hits per side.
  EXPECT_EQ(box.channel.sender_cache_stats().misses, 1u);
  EXPECT_EQ(box.channel.sender_cache_stats().hits, 9u);
  EXPECT_EQ(box.channel.receiver_cache_stats().misses, 1u);
  EXPECT_EQ(box.channel.receiver_cache_stats().hits, 9u);
}

TEST(Transport, RendezvousRotatingBuffersMissesWithoutReuse) {
  ChannelBox box;
  const auto payload = pattern(16 * 1024, 4);
  ASSERT_TRUE(ok(box.channel.stage(0, payload)));
  for (int i = 0; i < 8; ++i) {
    const std::uint64_t off = static_cast<std::uint64_t>(i) * 64 * 1024;
    ASSERT_TRUE(ok(box.channel.stage(off, payload)));
    ASSERT_TRUE(
        ok(box.channel.transfer(Protocol::Rendezvous, off, off, 16 * 1024)));
  }
  EXPECT_EQ(box.channel.sender_cache_stats().misses, 8u);
  EXPECT_EQ(box.channel.sender_cache_stats().hits, 0u);
}

TEST(Transport, PreregisteredIsFasterThanColdRendezvous) {
  ChannelBox box;
  constexpr std::uint32_t kLen = 64 * 1024;
  const auto payload = pattern(kLen, 5);
  ASSERT_TRUE(ok(box.channel.stage(0, payload)));

  Clock& clock = box.cluster.clock();
  const Nanos t0 = clock.now();
  ASSERT_TRUE(ok(box.channel.transfer(Protocol::Rendezvous, 0, 0, kLen)));
  const Nanos rndz_cold = clock.now() - t0;

  const Nanos t1 = clock.now();
  ASSERT_TRUE(ok(box.channel.transfer(Protocol::Preregistered, 0, 0, kLen)));
  const Nanos prereg = clock.now() - t1;

  EXPECT_LT(prereg, rndz_cold)
      << "registration cost must show up on the cold rendezvous path";
}

TEST(Transport, WarmRendezvousApproachesPreregistered) {
  ChannelBox box;
  constexpr std::uint32_t kLen = 64 * 1024;
  const auto payload = pattern(kLen, 6);
  ASSERT_TRUE(ok(box.channel.stage(0, payload)));
  ASSERT_TRUE(ok(box.channel.transfer(Protocol::Rendezvous, 0, 0, kLen)));

  Clock& clock = box.cluster.clock();
  const Nanos t0 = clock.now();
  ASSERT_TRUE(ok(box.channel.transfer(Protocol::Rendezvous, 0, 0, kLen)));
  const Nanos rndz_warm = clock.now() - t0;

  const Nanos t1 = clock.now();
  ASSERT_TRUE(ok(box.channel.transfer(Protocol::Preregistered, 0, 0, kLen)));
  const Nanos prereg = clock.now() - t1;

  // Warm rendezvous pays only the two control messages extra; it must be
  // within 2x of the pure-RDMA path at this size.
  EXPECT_LT(rndz_warm, prereg * 2);
}

/// Property: any interleaving of protocols, sizes and offsets preserves
/// every payload bit-exactly.
class TransportFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(TransportFuzz, RandomProtocolMixKeepsDataIntact) {
  ChannelBox box;
  Rng rng(GetParam());
  for (int i = 0; i < 40; ++i) {
    const int pick = static_cast<int>(rng.below(4));
    const Protocol proto = pick == 0   ? Protocol::Eager
                           : pick == 1 ? Protocol::Rendezvous
                           : pick == 2 ? Protocol::Preregistered
                                       : Protocol::PioRendezvous;
    const std::uint32_t max_len =
        proto == Protocol::Eager ? 8000u : 100'000u;
    const auto len = static_cast<std::uint32_t>(rng.between(1, max_len));
    const std::uint64_t src_off = rng.below(8) * 4096;
    const std::uint64_t dst_off = rng.below(8) * 4096;
    const auto payload = pattern(len, 9000 + i);
    ASSERT_TRUE(ok(box.channel.stage(src_off, payload))) << i;
    ASSERT_TRUE(ok(box.channel.transfer(proto, src_off, dst_off, len)))
        << i << " proto " << to_string(proto) << " len " << len;
    std::vector<std::byte> out(len);
    ASSERT_TRUE(ok(box.channel.fetch(dst_off, out))) << i;
    ASSERT_EQ(out, payload) << i << " proto " << to_string(proto);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, TransportFuzz,
                         ::testing::Values(5, 77, 901, 424242));

TEST(Transport, EagerBeatsRendezvousForTinyMessages) {
  ChannelBox box;
  const auto payload = pattern(64, 8);
  ASSERT_TRUE(ok(box.channel.stage(0, payload)));
  Clock& clock = box.cluster.clock();

  // Warm both paths first.
  ASSERT_TRUE(ok(box.channel.transfer(Protocol::Eager, 0, 0, 64)));
  ASSERT_TRUE(ok(box.channel.transfer(Protocol::Rendezvous, 0, 0, 64)));

  const Nanos t0 = clock.now();
  ASSERT_TRUE(ok(box.channel.transfer(Protocol::Eager, 0, 0, 64)));
  const Nanos eager = clock.now() - t0;
  const Nanos t1 = clock.now();
  ASSERT_TRUE(ok(box.channel.transfer(Protocol::Rendezvous, 0, 0, 64)));
  const Nanos rndz = clock.now() - t1;
  EXPECT_LT(eager, rndz) << "64 B: copy beats control-message round trip";
}

// ---------------------------------------------------------------------------
// Reliable-delivery mode under injected faults
// ---------------------------------------------------------------------------

/// A channel in reliable mode plus a fault engine armed on the whole
/// cluster. Faults are armed *after* init() so channel setup (registration,
/// connect) never consumes fault events - every test sees event 0 as its
/// first transfer's first wire crossing.
struct ReliableBox {
  explicit ReliableBox(const fault::FaultPlan& plan,
                       Channel::Config cfg = reliable_config())
      : engine(plan, cluster.clock()),
        a(cluster.add_node(test::small_node(via::PolicyKind::Kiobuf,
                                            /*frames=*/2048,
                                            /*tpt_entries=*/2048))),
        b(cluster.add_node(test::small_node(via::PolicyKind::Kiobuf,
                                            /*frames=*/2048,
                                            /*tpt_entries=*/2048))),
        channel(cluster, a, b, cfg) {
    EXPECT_TRUE(ok(channel.init()));
    cluster.inject_faults(&engine);
  }

  static Channel::Config reliable_config() {
    Channel::Config cfg = ChannelBox::default_config();
    cfg.reliable = true;
    return cfg;
  }

  via::Cluster cluster;
  fault::FaultEngine engine;
  via::NodeId a;
  via::NodeId b;
  Channel channel;
};

TEST(ReliableTransport, WireDropIsRetriedToSuccess) {
  fault::FaultPlan plan;
  plan.add({.site = fault::FaultSite::Wire,
            .action = fault::FaultAction::Drop,
            .max_triggers = 2});
  ReliableBox box(plan);
  const auto payload = pattern(512, 3);
  ASSERT_TRUE(ok(box.channel.stage(0, payload)));
  ASSERT_TRUE(ok(box.channel.transfer(Protocol::Eager, 0, 64, 512)));
  std::vector<std::byte> out(512);
  ASSERT_TRUE(ok(box.channel.fetch(64, out)));
  EXPECT_EQ(payload, out);
  EXPECT_EQ(box.channel.stats().retries, 2u);
  EXPECT_GE(box.channel.stats().send_timeouts, 2u);
  EXPECT_EQ(box.channel.stats().eager_msgs, 1u);
}

TEST(ReliableTransport, ExhaustedRetriesReturnTimedOut) {
  fault::FaultPlan plan;
  plan.add({.site = fault::FaultSite::Wire,
            .action = fault::FaultAction::Drop});  // every packet, forever
  ReliableBox box(plan);
  const auto payload = pattern(256, 4);
  ASSERT_TRUE(ok(box.channel.stage(0, payload)));
  EXPECT_EQ(box.channel.transfer(Protocol::Eager, 0, 0, 256),
            KStatus::TimedOut);
  EXPECT_EQ(box.channel.stats().retries,
            Channel::kMaxRetries);
  EXPECT_EQ(box.channel.stats().eager_msgs, 0u);
}

TEST(ReliableTransport, ReplayedFrameIsDeduplicated) {
  // Event 0 (the data frame) passes; event 1 (its ack) is dropped. The
  // sender must retransmit, and the receiver must re-ack without delivering
  // the payload twice.
  fault::FaultPlan plan;
  plan.add({.site = fault::FaultSite::Wire,
            .action = fault::FaultAction::Drop,
            .after_events = 1,
            .max_triggers = 1});
  ReliableBox box(plan);
  const auto payload = pattern(128, 5);
  ASSERT_TRUE(ok(box.channel.stage(0, payload)));
  ASSERT_TRUE(ok(box.channel.transfer(Protocol::Eager, 0, 0, 128)));
  std::vector<std::byte> out(128);
  ASSERT_TRUE(ok(box.channel.fetch(0, out)));
  EXPECT_EQ(payload, out);
  EXPECT_EQ(box.channel.stats().dup_frames_dropped, 1u);
  EXPECT_EQ(box.channel.stats().retries, 1u);
}

TEST(ReliableTransport, DmaCorruptionIsCaughtByChecksum) {
  fault::FaultPlan plan;
  plan.add({.site = fault::FaultSite::NicDma,
            .action = fault::FaultAction::Corrupt,
            .max_triggers = 1});
  ReliableBox box(plan);
  const auto payload = pattern(1024, 6);
  ASSERT_TRUE(ok(box.channel.stage(0, payload)));
  ASSERT_TRUE(ok(box.channel.transfer(Protocol::Eager, 0, 0, 1024)));
  std::vector<std::byte> out(1024);
  ASSERT_TRUE(ok(box.channel.fetch(0, out)));
  EXPECT_EQ(payload, out) << "the corrupted copy must never be delivered";
  EXPECT_GE(box.channel.stats().corruptions_detected, 1u);
  EXPECT_GE(box.channel.stats().retries, 1u);
}

TEST(ReliableTransport, DoorbellDropIsCaughtByTimeout) {
  fault::FaultPlan plan;
  plan.add({.site = fault::FaultSite::NicDoorbell,
            .action = fault::FaultAction::Drop,
            .max_triggers = 1});
  ReliableBox box(plan);
  const auto payload = pattern(64, 7);
  ASSERT_TRUE(ok(box.channel.stage(0, payload)));
  ASSERT_TRUE(ok(box.channel.transfer(Protocol::Eager, 0, 0, 64)));
  std::vector<std::byte> out(64);
  ASSERT_TRUE(ok(box.channel.fetch(0, out)));
  EXPECT_EQ(payload, out);
  EXPECT_GE(box.channel.stats().send_timeouts, 1u);
  EXPECT_GE(box.channel.stats().retries, 1u);
}

TEST(ReliableTransport, ConnectionResetIsRepaired) {
  fault::FaultPlan plan;
  plan.add({.site = fault::FaultSite::Connection,
            .action = fault::FaultAction::Fail,
            .max_triggers = 1});
  ReliableBox box(plan);
  const auto payload = pattern(256, 8);
  ASSERT_TRUE(ok(box.channel.stage(0, payload)));
  ASSERT_TRUE(ok(box.channel.transfer(Protocol::Eager, 0, 0, 256)));
  std::vector<std::byte> out(256);
  ASSERT_TRUE(ok(box.channel.fetch(0, out)));
  EXPECT_EQ(payload, out);
  EXPECT_GE(box.channel.stats().conn_repairs, 1u);
}

TEST(ReliableTransport, RendezvousSurvivesMixedFaults) {
  fault::FaultPlan plan;
  plan.seed = 11;
  plan.add({.site = fault::FaultSite::Wire,
            .action = fault::FaultAction::Drop,
            .probability = 0.2,
            .max_triggers = 8});
  plan.add({.site = fault::FaultSite::NicDma,
            .action = fault::FaultAction::Corrupt,
            .probability = 0.2,
            .max_triggers = 4});
  ReliableBox box(plan);
  const auto payload = pattern(32 * 1024, 9);
  ASSERT_TRUE(ok(box.channel.stage(0, payload)));
  ASSERT_TRUE(ok(box.channel.transfer(Protocol::Rendezvous, 0, 4096,
                                      32 * 1024)));
  std::vector<std::byte> out(32 * 1024);
  ASSERT_TRUE(ok(box.channel.fetch(4096, out)));
  EXPECT_EQ(payload, out);
}

TEST(ReliableTransport, UnreliableChannelBreaksWhereReliableSucceeds) {
  // The control: the same single wire drop that reliable mode absorbs makes
  // a plain channel fail its transfer outright.
  fault::FaultPlan plan;
  plan.add({.site = fault::FaultSite::Wire,
            .action = fault::FaultAction::Drop,
            .max_triggers = 1});
  Channel::Config cfg = ChannelBox::default_config();  // reliability off
  ReliableBox box(plan, cfg);
  const auto payload = pattern(128, 10);
  ASSERT_TRUE(ok(box.channel.stage(0, payload)));
  EXPECT_FALSE(ok(box.channel.transfer(Protocol::Eager, 0, 0, 128)));
}

// A rendezvous that fails after acquiring its registration-cache references
// must still return them. A leaked reference never goes idle, so the cache's
// flush() on channel teardown skips it and its pages stay pinned.
class RendezvousFailureTest : public ::testing::TestWithParam<Protocol> {};

TEST_P(RendezvousFailureTest, FailedTransferReleasesItsCacheReferences) {
  const Protocol proto = GetParam();
  constexpr std::uint32_t kLen = 16 * 1024;
  // Pinned frames and live registrations per node once the channel is gone,
  // after a warm transfer and a second one that fails (`fail`) or not. The
  // second transfer's third wire crossing - the RDMA write, or the PIO
  // path's FIN - resets the connection; a plain channel does not retry.
  const auto leftovers = [&](bool fail) {
    via::Cluster cluster;
    fault::FaultPlan plan;
    plan.add({.site = fault::FaultSite::Connection,
              .action = fault::FaultAction::Fail,
              .after_events = 2,
              .max_triggers = 1});
    fault::FaultEngine engine(plan, cluster.clock());
    const via::NodeId a = cluster.add_node(test::small_node(
        via::PolicyKind::Kiobuf, /*frames=*/2048, /*tpt_entries=*/2048));
    const via::NodeId b = cluster.add_node(test::small_node(
        via::PolicyKind::Kiobuf, /*frames=*/2048, /*tpt_entries=*/2048));
    {
      Channel::Config cfg;
      // No preregistered heaps, which would pin the leaked pages anyway.
      cfg.user_heap_bytes = 1ULL << 20;
      Channel channel(cluster, a, b, cfg);
      EXPECT_TRUE(ok(channel.init()));
      EXPECT_TRUE(ok(channel.transfer(proto, 0, 0, kLen)));
      if (fail) cluster.inject_faults(&engine);
      EXPECT_EQ(ok(channel.transfer(proto, 0, 0, kLen)), !fail);
    }
    std::vector<std::size_t> out;
    for (const via::NodeId n : {a, b}) {
      out.push_back(cluster.node(n).kernel().pinned_frames());
      out.push_back(cluster.node(n).agent().live_registrations());
      test::expect_quiescent(cluster.node(n));
    }
    return out;
  };
  EXPECT_EQ(leftovers(/*fail=*/true), leftovers(/*fail=*/false));
}

// The same failure with both heaps registered whole at init(): ~Channel
// releases the heap registrations as well as the slot rings.
TEST(Transport, PreregisteredHeapsAreReleasedOnTeardown) {
  constexpr std::uint32_t kLen = 16 * 1024;
  for (const bool fail : {false, true}) {
    via::Cluster cluster;
    fault::FaultPlan plan;
    plan.add({.site = fault::FaultSite::Connection,
              .action = fault::FaultAction::Fail,
              .after_events = 2,
              .max_triggers = 1});
    fault::FaultEngine engine(plan, cluster.clock());
    const via::NodeId a = cluster.add_node(test::small_node(
        via::PolicyKind::Kiobuf, /*frames=*/2048, /*tpt_entries=*/2048));
    const via::NodeId b = cluster.add_node(test::small_node(
        via::PolicyKind::Kiobuf, /*frames=*/2048, /*tpt_entries=*/2048));
    {
      Channel channel(cluster, a, b, ChannelBox::default_config());
      ASSERT_TRUE(ok(channel.init()));
      EXPECT_TRUE(ok(channel.transfer(Protocol::Preregistered, 0, 0, kLen)));
      EXPECT_TRUE(ok(channel.transfer(Protocol::Rendezvous, 0, 0, kLen)));
      if (fail) cluster.inject_faults(&engine);
      EXPECT_EQ(ok(channel.transfer(Protocol::Rendezvous, 0, 0, kLen)), !fail);
    }
    for (const via::NodeId n : {a, b}) test::expect_quiescent(cluster.node(n));
  }
}

INSTANTIATE_TEST_SUITE_P(Protocols, RendezvousFailureTest,
                         ::testing::Values(Protocol::Rendezvous,
                                           Protocol::PioRendezvous),
                         [](const auto& info) {
                           return info.param == Protocol::Rendezvous
                                      ? std::string("Rendezvous")
                                      : std::string("PioRendezvous");
                         });

TEST(ReliableTransport, SameSeedRunsAreIdentical) {
  const auto run = [] {
    fault::FaultPlan plan;
    plan.seed = 77;
    plan.add({.site = fault::FaultSite::Wire,
              .action = fault::FaultAction::Drop,
              .probability = 0.3});
    plan.add({.site = fault::FaultSite::NicDma,
              .action = fault::FaultAction::Corrupt,
              .probability = 0.1});
    ReliableBox box(plan);
    const auto payload = pattern(2048, 12);
    EXPECT_TRUE(ok(box.channel.stage(0, payload)));
    for (int i = 0; i < 8; ++i)
      (void)box.channel.transfer(Protocol::Eager, 0, 0, 2048);
    return std::make_tuple(box.engine.schedule_string(),
                           box.channel.stats().retries,
                           box.channel.stats().corruptions_detected,
                           box.cluster.clock().now());
  };
  EXPECT_EQ(run(), run());
}

}  // namespace
}  // namespace vialock::msg
