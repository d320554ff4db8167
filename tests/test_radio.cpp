// Tests for the broadcast radio medium (src/mac/radio.hpp): slot-boundary
// delivery, threshold filtering, collisions, capture, counters, the
// candidate cache, the delivery gates (crashed and asleep receivers,
// channel faults) with the exact random-draw accounting they rely on, and
// the milliwatt audibility guard.
#include "mac/radio.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "phy/channel.hpp"
#include "test_worlds.hpp"
#include "util/rng.hpp"

namespace {

using namespace firefly;
using mac::PsType;
using mac::RachCodec;
using mac::RadioMedium;
using mac::RxRecord;

struct World {
  sim::Simulator sim;
  std::unique_ptr<phy::Channel> channel;
  std::unique_ptr<RadioMedium> radio;
  // Per-receiver inboxes, filled by the radio's batched delivery sink.  All
  // tests here add devices in id order, so rx_index == id.
  std::vector<std::vector<RxRecord>> inbox;

  World() {
    channel = std::make_unique<phy::Channel>(
        phy::RadioParams{}, std::make_unique<phy::PaperDualSlope>(),
        std::make_unique<phy::NoShadowing>(), std::make_unique<phy::NoFading>(),
        util::Rng(1));
    radio = std::make_unique<RadioMedium>(&sim, channel.get());
    radio->set_delivery_sink([this](const mac::RxBatch& batch) {
      for (std::size_t k = 0; k < batch.count; ++k) {
        const RxRecord r = batch[k];
        inbox[r.rx_index].push_back(r);
      }
    });
  }

  void add(std::uint32_t id, geo::Vec2 pos) {
    if (inbox.size() <= id) inbox.resize(id + 1);
    radio->add_device(id, pos);
  }
};

static_assert(sizeof(RxRecord) == 48);
static_assert(sizeof(mac::RxEntry) == 16);

TEST(Radio, DeliversAtNextSlotBoundary) {
  World w;
  w.add(0, {0.0, 0.0});
  w.add(1, {10.0, 0.0});
  w.radio->rebuild();
  w.sim.schedule_at(3, [&] {
    w.radio->broadcast(0, {RachCodec::kRach1, 1}, PsType::kDiscovery, 42);
  });
  w.sim.run();
  ASSERT_EQ(w.inbox[1].size(), 1U);
  // Sent inside slot 3, delivered at the slot-4 boundary.
  EXPECT_EQ(w.sim.now(), 4);
  EXPECT_EQ(w.inbox[1][0].sender, 0U);
  EXPECT_EQ(w.inbox[1][0].payload, 42U);
  EXPECT_EQ(w.inbox[1][0].sent_slot, 3);
}

// The batch stores one 16 B entry per reception over the slot's
// transmission table; each batch[k] must still read as the full record:
// sender, receiver, preamble, type, payload, send slot and power.
TEST(Radio, BatchEntriesNameTheirTransmission) {
  World w;
  w.add(0, {0.0, 0.0});
  w.add(1, {20.0, 0.0});
  w.add(2, {10.0, 0.0});
  w.radio->rebuild();
  std::map<std::pair<std::uint32_t, std::uint32_t>, double> mean_dbm;
  w.radio->for_each_candidate_pair([&](std::uint32_t u, std::uint32_t v, util::Dbm mean) {
    mean_dbm[{u, v}] = mean.value;
    mean_dbm[{v, u}] = mean.value;
  });
  std::vector<std::vector<RxRecord>> batches;
  w.radio->set_delivery_sink([&](const mac::RxBatch& batch) {
    batches.emplace_back();
    for (std::size_t k = 0; k < batch.count; ++k) batches.back().push_back(batch[k]);
    // A broadcast from inside the sink joins the next batch.
    if (batches.size() == 1) {
      w.radio->broadcast(2, {RachCodec::kRach1, 5}, PsType::kSyncPulse, 33);
    }
  });
  w.sim.schedule_at(5, [&] {
    w.radio->broadcast(0, {RachCodec::kRach1, 3}, PsType::kDiscovery, 11);
    w.radio->broadcast(1, {RachCodec::kRach2, 3}, PsType::kMergeAnnounce, 22);
  });
  w.sim.run();

  const mac::Preamble r1{RachCodec::kRach1, 3};
  const mac::Preamble r2{RachCodec::kRach2, 3};
  const mac::Preamble sync{RachCodec::kRach1, 5};
  // Receivers in first-touch order (the sweep visits 0's candidates, then
  // 1's), transmissions in sweep order within a receiver.
  const std::vector<std::vector<RxRecord>> expected{
      {{0, 1, r1, PsType::kDiscovery, 11, {}, 5},
       {0, 2, r1, PsType::kDiscovery, 11, {}, 5},
       {1, 2, r2, PsType::kMergeAnnounce, 22, {}, 5},
       {1, 0, r2, PsType::kMergeAnnounce, 22, {}, 5}},
      {{2, 0, sync, PsType::kSyncPulse, 33, {}, 6},
       {2, 1, sync, PsType::kSyncPulse, 33, {}, 6}},
  };
  ASSERT_EQ(batches.size(), expected.size());
  for (std::size_t b = 0; b < expected.size(); ++b) {
    ASSERT_EQ(batches[b].size(), expected[b].size()) << "batch " << b;
    for (std::size_t k = 0; k < expected[b].size(); ++k) {
      const RxRecord& got = batches[b][k];
      const RxRecord& want = expected[b][k];
      SCOPED_TRACE("batch " + std::to_string(b) + " entry " + std::to_string(k));
      EXPECT_EQ(got.sender, want.sender);
      EXPECT_EQ(got.rx_index, want.rx_index);
      EXPECT_EQ(got.preamble, want.preamble);
      EXPECT_EQ(got.type, want.type);
      EXPECT_EQ(got.payload, want.payload);
      EXPECT_EQ(got.sent_slot, want.sent_slot);
      // No fading: the received power is the pair's cached mean, exactly.
      EXPECT_EQ(got.rx_power.value, (mean_dbm.at({want.sender, want.rx_index})));
    }
  }
}

TEST(Radio, NoSelfReception) {
  World w;
  w.add(0, {0.0, 0.0});
  w.add(1, {5.0, 0.0});
  w.radio->rebuild();
  w.sim.schedule_at(0, [&] {
    w.radio->broadcast(0, {RachCodec::kRach1, 0}, PsType::kSyncPulse, 0);
  });
  w.sim.run();
  EXPECT_TRUE(w.inbox[0].empty());
  EXPECT_EQ(w.inbox[1].size(), 1U);
}

TEST(Radio, SubThresholdReceiverHearsNothing) {
  World w;
  w.add(0, {0.0, 0.0});
  w.add(1, {95.0, 0.0});   // beyond the ~89 m median range
  w.add(2, {50.0, 0.0});   // inside
  w.radio->rebuild();
  w.sim.schedule_at(0, [&] {
    w.radio->broadcast(0, {RachCodec::kRach1, 0}, PsType::kSyncPulse, 0);
  });
  w.sim.run();
  EXPECT_TRUE(w.inbox[1].empty());
  EXPECT_EQ(w.inbox[2].size(), 1U);
}

TEST(Radio, SameResourceSameSlotCollides) {
  World w;
  // Two equidistant senders on the SAME preamble: neither captures.
  w.add(0, {0.0, 0.0});
  w.add(1, {20.0, 0.0});
  w.add(2, {10.0, 0.0});  // receiver in the middle
  w.radio->rebuild();
  w.sim.schedule_at(0, [&] {
    w.radio->broadcast(0, {RachCodec::kRach1, 7}, PsType::kSyncPulse, 0);
    w.radio->broadcast(1, {RachCodec::kRach1, 7}, PsType::kSyncPulse, 0);
  });
  w.sim.run();
  EXPECT_TRUE(w.inbox[2].empty());
  EXPECT_EQ(w.radio->counters().collisions, 2U);
}

TEST(Radio, DifferentPreamblesDoNotCollide) {
  World w;
  w.add(0, {0.0, 0.0});
  w.add(1, {20.0, 0.0});
  w.add(2, {10.0, 0.0});
  w.radio->rebuild();
  w.sim.schedule_at(0, [&] {
    w.radio->broadcast(0, {RachCodec::kRach1, 7}, PsType::kSyncPulse, 0);
    w.radio->broadcast(1, {RachCodec::kRach1, 8}, PsType::kSyncPulse, 0);
  });
  w.sim.run();
  EXPECT_EQ(w.inbox[2].size(), 2U);
  EXPECT_EQ(w.radio->counters().collisions, 0U);
}

TEST(Radio, DifferentCodecsAreOrthogonal) {
  World w;
  w.add(0, {0.0, 0.0});
  w.add(1, {20.0, 0.0});
  w.add(2, {10.0, 0.0});
  w.radio->rebuild();
  w.sim.schedule_at(0, [&] {
    w.radio->broadcast(0, {RachCodec::kRach1, 7}, PsType::kSyncPulse, 0);
    w.radio->broadcast(1, {RachCodec::kRach2, 7}, PsType::kConnectRequest, 0);
  });
  w.sim.run();
  EXPECT_EQ(w.inbox[2].size(), 2U);
}

TEST(Radio, CaptureEffectDecodesTheStrongSignal) {
  World w;
  w.add(0, {9.0, 0.0});    // 1 m from the receiver: strong
  w.add(1, {60.0, 10.0});  // far away: weak interferer
  w.add(2, {10.0, 0.0});
  w.radio->rebuild();
  w.sim.schedule_at(0, [&] {
    w.radio->broadcast(0, {RachCodec::kRach1, 7}, PsType::kSyncPulse, 111);
    w.radio->broadcast(1, {RachCodec::kRach1, 7}, PsType::kSyncPulse, 222);
  });
  w.sim.run();
  // The strong one captures; the weak one is lost (collision counted).
  ASSERT_EQ(w.inbox[2].size(), 1U);
  EXPECT_EQ(w.inbox[2][0].payload, 111U);
  EXPECT_EQ(w.radio->counters().collisions, 1U);
}

TEST(Radio, DefaultChannelCapturesAtItsOwnMargin) {
  // The radio takes its capture margin from the channel, Table I's 3 dB by
  // default: a reception 4.5 dB above its same-preamble interference plus
  // noise is decoded (a 6 dB margin would collide it).
  World w;
  const phy::RadioParams& params = w.channel->params();
  ASSERT_EQ(params.capture_margin_db, 3.0);
  const phy::PaperDualSlope model;
  const util::Dbm strong = params.tx_power - model.loss(10.0);
  const double interference_mw =
      (strong - util::Db{4.5}).milliwatts() - params.noise_floor.milliwatts();
  const util::Dbm weak = util::dbm_from_milliwatts(interference_mw);
  ASSERT_GT(weak, params.detection_threshold);
  const double weak_m = model.distance_for_loss(params.tx_power - weak);
  ASSERT_NEAR((params.tx_power - model.loss(weak_m)).value, weak.value, 1e-9);
  w.add(0, {10.0, 0.0});
  w.add(1, {-weak_m, 0.0});
  w.add(2, {0.0, 0.0});
  w.radio->rebuild();
  w.sim.schedule_at(0, [&] {
    w.radio->broadcast(0, {RachCodec::kRach1, 7}, PsType::kSyncPulse, 111);
    w.radio->broadcast(1, {RachCodec::kRach1, 7}, PsType::kSyncPulse, 222);
  });
  w.sim.run();
  ASSERT_EQ(w.inbox[2].size(), 1U);
  EXPECT_EQ(w.inbox[2][0].payload, 111U);
}

TEST(Radio, CountersByCodec) {
  World w;
  w.add(0, {0.0, 0.0});
  w.add(1, {10.0, 0.0});
  w.radio->rebuild();
  w.sim.schedule_at(0, [&] {
    w.radio->broadcast(0, {RachCodec::kRach1, 0}, PsType::kSyncPulse, 0);
    w.radio->broadcast(0, {RachCodec::kRach2, 0}, PsType::kConnectRequest, 0);
    w.radio->broadcast(0, {RachCodec::kRach2, 1}, PsType::kConnectAccept, 0);
  });
  w.sim.run();
  EXPECT_EQ(w.radio->counters().rach1_tx, 1U);
  EXPECT_EQ(w.radio->counters().rach2_tx, 2U);
  EXPECT_EQ(w.radio->counters().total_tx(), 3U);
  EXPECT_EQ(w.radio->counters().deliveries, 3U);
}

TEST(Radio, CandidateCacheMatchesFullScan) {
  // With deterministic propagation the cache must not change what is
  // delivered: every receiver hears the broadcast exactly when a full scan
  // of the channel says it is detectable.
  World w;
  w.add(0, {0.0, 0.0});
  for (std::uint32_t i = 1; i <= 30; ++i) {
    w.add(i, {static_cast<double>(i * 4), 0.0});
  }
  w.radio->rebuild();
  w.sim.schedule_at(0, [&] {
    w.radio->broadcast(0, {RachCodec::kRach1, 0}, PsType::kSyncPulse, 0);
  });
  w.sim.run();
  std::size_t heard = 0;
  for (std::uint32_t i = 1; i <= 30; ++i) {
    const geo::Vec2 at = w.radio->device_position(i);
    const bool audible =
        w.channel->detectable(w.channel->mean_received_power(0, {0.0, 0.0}, i, at));
    EXPECT_EQ(w.inbox[i].size(), audible ? 1U : 0U) << i;
    heard += w.inbox[i].size();
  }
  // Devices at 4..88 m hear it (~89 m range): exactly 22 of them.
  EXPECT_EQ(heard, 22U);
}

TEST(Radio, MoveDeviceChangesConnectivity) {
  World w;
  w.add(0, {0.0, 0.0});
  w.add(1, {200.0, 0.0});
  w.radio->rebuild();
  w.sim.schedule_at(0, [&] {
    w.radio->broadcast(0, {RachCodec::kRach1, 0}, PsType::kSyncPulse, 0);
  });
  w.sim.run_until(2);
  EXPECT_TRUE(w.inbox[1].empty());
  w.radio->move_device(1, {10.0, 0.0});
  EXPECT_EQ(w.radio->device_position(1).x, 10.0);
  w.radio->rebuild();
  w.sim.schedule_in(0, [&] {
    w.radio->broadcast(0, {RachCodec::kRach1, 0}, PsType::kSyncPulse, 0);
  });
  w.sim.run();
  ASSERT_EQ(w.inbox[1].size(), 1U);
  // Sent inside slot 2, delivered at the slot-3 boundary.
  EXPECT_EQ(w.inbox[1][0].sent_slot, 2);
  EXPECT_EQ(w.sim.now(), 3);
}

TEST(Radio, Rach2SameResourceCollidesBesideOrthogonalRach1) {
  // One receiver bucket holds two same-preamble RACH2 receptions and a RACH1
  // reception on the same preamble index.  The RACH2 pair contends; the
  // RACH1 one is on another codec and is delivered regardless.
  World w;
  w.add(0, {0.0, 0.0});
  w.add(1, {20.0, 0.0});
  w.add(2, {10.0, 0.0});  // equidistant from 0 and 1: no capture
  w.add(3, {10.0, 5.0});  // equidistant from 0 and 1 as well
  w.radio->rebuild();
  w.sim.schedule_at(0, [&] {
    w.radio->broadcast(0, {RachCodec::kRach2, 7}, PsType::kConnectRequest, 100);
    w.radio->broadcast(1, {RachCodec::kRach2, 7}, PsType::kConnectRequest, 101);
    w.radio->broadcast(3, {RachCodec::kRach1, 7}, PsType::kSyncPulse, 103);
  });
  w.sim.run();
  ASSERT_EQ(w.inbox[2].size(), 1U);
  EXPECT_EQ(w.inbox[2][0].payload, 103U);
  EXPECT_TRUE(w.inbox[3].empty()) << "the RACH2 pair collides at 3 too";
  EXPECT_EQ(w.inbox[0].size(), 2U) << "one RACH2 and one RACH1: no contention";
  EXPECT_EQ(w.inbox[1].size(), 2U);
  EXPECT_EQ(w.radio->counters().collisions, 4U);
  EXPECT_EQ(w.radio->counters().deliveries, 5U);
}

TEST(Radio, Rach2CaptureBesideOrthogonalRach1) {
  World w;
  w.add(0, {9.0, 0.0});    // 1 m from the receiver: captures
  w.add(1, {60.0, 10.0});  // weak same-resource interferer
  w.add(2, {10.0, 0.0});
  w.add(3, {10.0, 5.0});
  w.radio->rebuild();
  w.sim.schedule_at(0, [&] {
    w.radio->broadcast(0, {RachCodec::kRach2, 7}, PsType::kConnectRequest, 100);
    w.radio->broadcast(1, {RachCodec::kRach2, 7}, PsType::kConnectRequest, 101);
    w.radio->broadcast(3, {RachCodec::kRach1, 7}, PsType::kSyncPulse, 103);
  });
  w.sim.run();
  ASSERT_EQ(w.inbox[2].size(), 2U);
  EXPECT_EQ(w.inbox[2][0].payload, 100U);
  EXPECT_EQ(w.inbox[2][1].payload, 103U);
}

TEST(Radio, BackToBackContendedFlushesDecideAsFreshMedia) {
  // The collision prepass keeps per-resource sums that must be all zero
  // again after each receiver.  Flush A contends on the same resources
  // flush B uses, so any residue would change B's verdicts.  B must decide
  // exactly as on a fresh medium: right after A, and after a
  // save_state/restore_state between A and B (a snapshot taken before A,
  // and one taken after it).
  const std::vector<geo::Vec2> pos = {{0.0, 0.0},  {20.0, 0.0}, {10.0, 0.0},
                                      {9.0, 0.0},  {40.0, 0.0}, {10.0, 5.0}};
  struct Sent {
    std::uint32_t sender;
    mac::Preamble preamble;
  };
  const std::vector<Sent> flush_a = {{0, {RachCodec::kRach1, 7}},
                                     {1, {RachCodec::kRach1, 7}},
                                     {4, {RachCodec::kRach2, 3}},
                                     {5, {RachCodec::kRach2, 3}}};
  const std::vector<Sent> flush_b = {{3, {RachCodec::kRach1, 7}},
                                     {4, {RachCodec::kRach1, 7}},
                                     {5, {RachCodec::kRach2, 3}},
                                     {0, {RachCodec::kRach2, 3}},
                                     {1, {RachCodec::kRach1, 2}}};
  using Decoded = std::vector<std::pair<std::uint32_t, std::uint32_t>>;  // (rx, sender)
  struct Outcome {
    Decoded decoded;
    std::uint64_t collisions;
  };
  const auto run = [](World& w, const std::vector<Sent>& sent) {
    Decoded decoded;
    w.radio->set_delivery_sink([&decoded](const mac::RxBatch& batch) {
      for (std::size_t k = 0; k < batch.count; ++k) {
        decoded.emplace_back(batch[k].rx_index, batch[k].sender);
      }
    });
    const std::uint64_t before = w.radio->counters().collisions;
    w.sim.schedule_at(w.sim.now(), [&] {
      for (const Sent& s : sent) w.radio->broadcast(s.sender, s.preamble, PsType::kSyncPulse, 0);
    });
    w.sim.run();
    return Outcome{decoded, w.radio->counters().collisions - before};
  };
  const auto make = [&](World& w) {
    for (std::uint32_t id = 0; id < pos.size(); ++id) w.add(id, pos[id]);
    w.radio->rebuild();
  };
  World fresh;
  make(fresh);
  const Outcome want = run(fresh, flush_b);
  ASSERT_GT(want.collisions, 0U) << "flush B must contend";
  ASSERT_FALSE(want.decoded.empty());

  World back_to_back;
  make(back_to_back);
  ASSERT_GT(run(back_to_back, flush_a).collisions, 0U) << "flush A must contend";
  const Outcome after_a = run(back_to_back, flush_b);
  EXPECT_EQ(after_a.decoded, want.decoded);
  EXPECT_EQ(after_a.collisions, want.collisions);

  for (const bool snapshot_before_a : {true, false}) {
    World restored;
    make(restored);
    RadioMedium::StateSnapshot snap;
    if (snapshot_before_a) snap = restored.radio->save_state();
    run(restored, flush_a);
    if (!snapshot_before_a) snap = restored.radio->save_state();
    restored.radio->restore_state(snap);
    const Outcome got = run(restored, flush_b);
    EXPECT_EQ(got.decoded, want.decoded) << "before_a=" << snapshot_before_a;
    EXPECT_EQ(got.collisions, want.collisions) << "before_a=" << snapshot_before_a;
  }
}

TEST(Radio, OutOfPoolPreambleIsRejected) {
  World w;
  w.add(0, {0.0, 0.0});
  w.add(1, {10.0, 0.0});
  w.radio->rebuild();
  EXPECT_THROW(w.radio->broadcast(0, {RachCodec::kRach1, mac::kPreamblePoolSize},
                                  PsType::kSyncPulse, 0),
               std::invalid_argument);
  EXPECT_THROW(w.radio->broadcast(0, {static_cast<RachCodec>(0), 0}, PsType::kSyncPulse, 0),
               std::invalid_argument);
  EXPECT_THROW(w.radio->broadcast(0, {static_cast<RachCodec>(3), 0}, PsType::kSyncPulse, 0),
               std::invalid_argument);
  EXPECT_EQ(w.radio->counters().total_tx(), 0U) << "a rejected broadcast is not metered";
  w.radio->broadcast(0, {RachCodec::kRach2, mac::kPreamblePoolSize - 1},
                     PsType::kConnectRequest, 0);
  w.sim.run();
  EXPECT_EQ(w.inbox[1].size(), 1U);
}

TEST(Radio, BatchKeepsFirstTouchReceiverOrderAndSweepOrderWithinReceiver) {
  // Two clusters 1 km apart.  The first broadcast reaches only high-index
  // receivers (cluster A), the second only low-index ones (cluster B), so
  // receivers are first touched out of index order.  In cluster A, RACH1
  // and RACH2 transmissions on the same preamble index share receivers.
  // The expected batch comes from a per-pair reference: receivers in
  // first-touch order, transmissions in broadcast order, the capture rule
  // in dB with interference summed in that order.
  const std::vector<geo::Vec2> pos = {
      {1000.0, 0.0}, {1000.0, 10.0}, {1010.0, 5.0},                // cluster B
      {0.0, 0.0},    {0.0, 60.0},    {50.0, 0.0},   {1.0, 0.0},   // cluster A
      {25.0, 0.0},   {30.0, 40.0}};
  struct Sent {
    std::uint32_t sender;
    mac::Preamble preamble;
  };
  const std::vector<Sent> sent = {{3, {RachCodec::kRach1, 7}},
                                  {2, {RachCodec::kRach1, 3}},
                                  {4, {RachCodec::kRach2, 7}},
                                  {5, {RachCodec::kRach1, 7}},
                                  {8, {RachCodec::kRach2, 7}}};
  World w;
  const double margin_db = w.channel->params().capture_margin_db;
  for (std::uint32_t id = 0; id < pos.size(); ++id) w.add(id, pos[id]);
  w.radio->rebuild();

  // Reference.
  const double noise_mw = w.channel->params().noise_floor.milliwatts();
  std::vector<std::uint32_t> touch;
  std::vector<std::vector<std::pair<std::size_t, util::Dbm>>> bucket(pos.size());
  for (std::size_t t = 0; t < sent.size(); ++t) {
    const std::uint32_t s = sent[t].sender;
    for (std::uint32_t rx = 0; rx < pos.size(); ++rx) {
      if (rx == s) continue;
      const util::Dbm p = w.channel->mean_received_power(s, pos[s], rx, pos[rx]);
      if (!w.channel->detectable(p)) continue;
      if (bucket[rx].empty()) touch.push_back(rx);
      bucket[rx].emplace_back(t, p);
    }
  }
  std::vector<std::pair<std::uint32_t, std::uint32_t>> expected;  // (rx, sender)
  std::uint64_t expected_collisions = 0;
  bool mixed_codecs = false;
  for (const std::uint32_t rx : touch) {
    const auto& b = bucket[rx];
    bool rach1 = false, rach2 = false;
    for (std::size_t i = 0; i < b.size(); ++i) {
      const mac::Preamble pi = sent[b[i].first].preamble;
      (pi.codec == RachCodec::kRach1 ? rach1 : rach2) = true;
      double interference = 0.0;
      bool contended = false;
      for (std::size_t j = 0; j < b.size(); ++j) {
        if (j == i || !(sent[b[j].first].preamble == pi)) continue;
        contended = true;
        interference += b[j].second.milliwatts();
      }
      if (contended &&
          (b[i].second - util::dbm_from_milliwatts(interference + noise_mw)).value < margin_db) {
        ++expected_collisions;
        continue;
      }
      expected.emplace_back(rx, sent[b[i].first].sender);
    }
    mixed_codecs = mixed_codecs || (rach1 && rach2);
  }
  ASSERT_FALSE(std::is_sorted(touch.begin(), touch.end())) << "receivers touched in index order";
  ASSERT_TRUE(mixed_codecs) << "no receiver hears both codecs";
  ASSERT_GT(expected_collisions, 0U);

  std::vector<std::pair<std::uint32_t, std::uint32_t>> actual;
  w.radio->set_delivery_sink([&actual](const mac::RxBatch& batch) {
    for (std::size_t k = 0; k < batch.count; ++k) {
      actual.emplace_back(batch[k].rx_index, batch[k].sender);
    }
  });
  w.sim.schedule_at(0, [&] {
    for (const Sent& s : sent) w.radio->broadcast(s.sender, s.preamble, PsType::kSyncPulse, 0);
  });
  w.sim.run();
  EXPECT_EQ(actual, expected);
  EXPECT_EQ(w.radio->counters().collisions, expected_collisions);
}

TEST(Radio, MisuseThrowsInEveryBuild) {
  World w;
  w.add(0, {0.0, 0.0});
  w.add(5, {10.0, 0.0});
  EXPECT_THROW(w.radio->add_device(5, {1.0, 1.0}), std::invalid_argument);
  EXPECT_EQ(w.radio->device_position(5), (geo::Vec2{10.0, 0.0}))
      << "a rejected registration changes nothing";
  // Id 3 lies inside the id table but was never registered; 9 lies past it.
  for (const std::uint32_t id : {3U, 9U}) {
    EXPECT_THROW(w.radio->set_down(id, true), std::out_of_range) << id;
    EXPECT_THROW(static_cast<void>(w.radio->is_down(id)), std::out_of_range) << id;
    EXPECT_THROW(w.radio->move_device(id, {1.0, 1.0}), std::out_of_range) << id;
    EXPECT_THROW(static_cast<void>(w.radio->device_position(id)), std::out_of_range) << id;
    EXPECT_THROW(w.radio->broadcast(id, {RachCodec::kRach1, 0}, PsType::kSyncPulse, 0),
                 std::out_of_range)
        << id;
  }
  EXPECT_EQ(w.radio->counters().total_tx(), 0U);
  EXPECT_THROW(RadioMedium(&w.sim, nullptr), std::invalid_argument);
  EXPECT_THROW(RadioMedium(nullptr, w.channel.get()), std::invalid_argument);
}

TEST(Radio, CandidatePairsOnAStaleCacheThrow) {
  World w;
  w.add(0, {0.0, 0.0});
  w.add(1, {10.0, 0.0});
  std::size_t pairs = 0;
  const auto count = [&](std::uint32_t, std::uint32_t, util::Dbm) { ++pairs; };
  EXPECT_THROW(w.radio->for_each_candidate_pair(count), std::logic_error) << "never built";
  w.radio->rebuild();
  w.radio->for_each_candidate_pair(count);
  EXPECT_EQ(pairs, 1U);
  w.radio->move_device(1, {20.0, 0.0});  // invalidates the cache
  EXPECT_THROW(w.radio->for_each_candidate_pair(count), std::logic_error) << "moved";
  EXPECT_EQ(pairs, 1U);
}

TEST(Radio, FlushOnAStaleCacheThrows) {
  // There is no uncached delivery path: a flush needs a cache built after
  // the last add or move.
  World w;
  w.add(0, {0.0, 0.0});
  w.add(1, {10.0, 0.0});
  w.radio->broadcast(0, {RachCodec::kRach1, 0}, PsType::kSyncPulse, 0);
  EXPECT_THROW(w.sim.run(), std::logic_error) << "never built";
  w.radio->rebuild();
  w.radio->broadcast(0, {RachCodec::kRach1, 0}, PsType::kSyncPulse, 0);
  w.sim.run();
  EXPECT_EQ(w.inbox[1].size(), 1U);
  w.radio->move_device(1, {20.0, 0.0});
  w.radio->broadcast(0, {RachCodec::kRach1, 0}, PsType::kSyncPulse, 0);
  EXPECT_THROW(w.sim.run(), std::logic_error) << "moved";
  EXPECT_EQ(w.inbox[1].size(), 1U);
  w.radio->rebuild();
  w.radio->broadcast(0, {RachCodec::kRach1, 0}, PsType::kSyncPulse, 0);
  w.sim.run();
  EXPECT_EQ(w.inbox[1].size(), 2U);
}

TEST(Radio, FloatSkipBoundsAreNeverTighterThanTheDoubleBound) {
  // The cache stores skip bounds as floats.  A uniform survives while
  // u < skip, so the float must be >= the double: the nearest float on the
  // loose side.
  std::vector<double> bounds = {0.0,
                                2.0,
                                1.0,
                                0.5,
                                std::numeric_limits<double>::denorm_min(),
                                std::numeric_limits<double>::min(),
                                static_cast<double>(std::numeric_limits<float>::denorm_min()),
                                static_cast<double>(std::numeric_limits<float>::min()),
                                std::nextafter(1.0, 0.0),
                                std::nextafter(1.0, 2.0),
                                std::exp(-1e-6) * (1.0 + 1e-12),
                                1000.0};
  util::Rng rng(5);
  for (int i = 0; i < 20000; ++i) bounds.push_back(rng.uniform(0.0, 2.0));
  for (int i = 0; i < 20000; ++i) bounds.push_back(std::pow(10.0, rng.uniform(-40.0, 3.0)));
  for (const double b : bounds) {
    const float up = mac::round_skip_u(b);
    EXPECT_GE(static_cast<double>(up), b) << b;
    if (up > 0.0F) {
      EXPECT_LT(static_cast<double>(std::nextafter(up, 0.0F)), b) << b;
    }
  }
  // Exactly representable bounds are kept as they are: 0 skips every
  // uniform and 2.0 none.
  EXPECT_EQ(mac::round_skip_u(0.0), 0.0F);
  EXPECT_EQ(mac::round_skip_u(2.0), 2.0F);
  EXPECT_EQ(mac::round_skip_u(std::numeric_limits<double>::denorm_min()),
            std::numeric_limits<float>::denorm_min());
}

// Channel faults as the engine injects them: one i.i.d. drop draw per
// candidate that passes the crash and sleep gates, then extra attenuation on
// one faded link; a faded reception that falls below threshold is a fault
// drop.
struct LinkFaults final : mac::ChannelFaults {
  util::Rng drop_rng{77};
  double drop_p = 0.0;
  std::uint32_t a = 0, b = 0;  // the faded link (a == b: none)
  double depth_db = 0.0;

  DropProcess drop_process() override {
    if (drop_p <= 0.0) return {};
    return {&drop_rng, drop_p};
  }
  bool fill_attenuation(std::uint32_t sender, PsType, const std::uint32_t* rx, std::size_t n,
                        double* attenuation_db) override {
    if (a == b) return false;
    for (std::size_t i = 0; i < n; ++i) {
      const bool faded = (sender == a && rx[i] == b) || (sender == b && rx[i] == a);
      attenuation_db[i] = faded ? depth_db : 0.0;
    }
    return true;
  }
};

std::unique_ptr<phy::Channel> gate_channel(std::unique_ptr<phy::FadingModel> fading,
                                           std::uint64_t seed) {
  phy::RadioParams params;
  // The gate tests, and the digest the recorded-digest test pins, date
  // from a 6 dB capture margin, not Table I's 3 dB.
  params.capture_margin_db = 6.0;
  return std::make_unique<phy::Channel>(params, std::make_unique<phy::PaperDualSlope>(),
                                        std::make_unique<phy::PerLinkShadowing>(6.0, seed),
                                        std::move(fading), util::Rng(seed));
}

std::uint64_t fnv1a64(std::uint64_t h, const void* data, std::size_t size) {
  const auto* bytes = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < size; ++i) {
    h ^= bytes[i];
    h *= 0x100000001b3ULL;
  }
  return h;
}

template <typename T>
std::uint64_t mix(std::uint64_t h, T value) {
  return fnv1a64(h, &value, sizeof value);
}

/// 30 slots of mixed RACH1/RACH2 traffic on 4 preambles through every gate:
/// a crashed receiver, an always-asleep one, one asleep on odd slots, i.i.d.
/// drops and one deeply faded link.  Hashes every delivered record, then the
/// counters.
std::uint64_t gated_run_digest(std::unique_ptr<phy::FadingModel> fading) {
  sim::Simulator sim;
  auto channel = gate_channel(std::move(fading), 4242);
  RadioMedium radio(&sim, channel.get());
  util::Rng place(9);
  constexpr std::uint32_t n = 24;
  for (std::uint32_t id = 0; id < n; ++id) {
    RadioMedium::ListenFn listening = nullptr;
    if (id == 5) listening = [] { return false; };
    if (id == 7) listening = [&sim] { return sim.now() % 2 == 0; };
    radio.add_device(id, {place.uniform(0.0, 120.0), place.uniform(0.0, 120.0)}, listening);
  }
  radio.rebuild();
  radio.set_down(3, true);
  LinkFaults faults;
  faults.drop_p = 0.1;
  faults.a = 0;
  faults.b = 1;
  faults.depth_db = 25.0;
  radio.set_channel_faults(&faults);
  std::uint64_t h = 0xcbf29ce484222325ULL;
  radio.set_delivery_sink([&h](const mac::RxBatch& batch) {
    for (std::size_t k = 0; k < batch.count; ++k) {
      const RxRecord r = batch[k];
      h = mix(h, r.sender);
      h = mix(h, r.rx_index);
      h = mix(h, static_cast<std::uint32_t>(r.preamble.codec));
      h = mix(h, r.preamble.index);
      h = mix(h, static_cast<std::uint32_t>(r.type));
      h = mix(h, r.payload);
      h = mix(h, r.rx_power.value);
      h = mix(h, r.sent_slot * 1000);  // recorded over the stamp in microseconds
    }
  });
  for (std::int64_t slot = 0; slot < 30; ++slot) {
    sim.schedule_at(slot, [&radio, slot] {
      for (std::uint32_t id = 0; id < n; ++id) {
        if ((id + static_cast<std::uint32_t>(slot)) % 3 != 0) continue;
        const RachCodec codec = id % 5 == 0 ? RachCodec::kRach2 : RachCodec::kRach1;
        radio.broadcast(id, {codec, (id * 7 + static_cast<std::uint32_t>(slot)) % 4},
                        codec == RachCodec::kRach2 ? PsType::kConnectRequest
                                                   : PsType::kSyncPulse,
                        id * 1000 + static_cast<std::uint64_t>(slot));
      }
    });
  }
  sim.run();
  const mac::TrafficCounters& c = radio.counters();
  for (const std::uint64_t v :
       {c.rach1_tx, c.rach2_tx, c.collisions, c.deliveries, c.fault_drops}) {
    h = mix(h, v);
  }
  EXPECT_GT(c.deliveries, 0U);
  EXPECT_GT(c.collisions, 0U);
  EXPECT_GT(c.fault_drops, 0U);
  return h;
}

TEST(RadioGates, NonRayleighGatedRunsReproduceRecordedDigest) {
  // Without fading every uniform skips or none does (NoFading::skip_u is 0
  // or 2); only radio-level code reaches it.  Recorded before the scalar
  // delivery sweep was folded into the batched one, when NoFading still
  // drew no uniforms and was skipped in gain space, after checking that the
  // grid and dense candidate caches agreed on it.
  const std::uint64_t digest = gated_run_digest(std::make_unique<phy::NoFading>());
  EXPECT_EQ(digest, 0x22699265ff91090fULL) << "digest=0x" << std::hex << digest;
}

TEST(RadioGates, FaultDropsCountSubThresholdCandidates) {
  // Device 2 is a delivery candidate (inside the fading margin) but its
  // slot-averaged power sits below threshold.  A fired drop draw, and an
  // attenuation on its link, still count as fault drops there.
  const auto make_fading = [](bool rayleigh) -> std::unique_ptr<phy::FadingModel> {
    if (rayleigh) return std::make_unique<phy::RayleighFading>();
    return std::make_unique<phy::NoFading>();
  };
  for (const bool rayleigh : {false, true}) {
    sim::Simulator sim;
    auto channel = std::make_unique<phy::Channel>(
        phy::RadioParams{}, std::make_unique<phy::PaperDualSlope>(),
        std::make_unique<phy::NoShadowing>(), make_fading(rayleigh), util::Rng(3));
    RadioMedium radio(&sim, channel.get());
    radio.add_device(0, {0.0, 0.0});
    radio.add_device(1, {10.0, 0.0});   // audible
    radio.add_device(2, {180.0, 0.0});  // candidate, ~12 dB below threshold
    radio.rebuild();
    bool candidate = false;
    radio.for_each_candidate_pair([&](std::uint32_t u, std::uint32_t v, util::Dbm mean) {
      if (u != 0 || v != 2) return;
      candidate = true;
      EXPECT_LT(mean, channel->params().detection_threshold);
    });
    ASSERT_TRUE(candidate) << "device 2 must be a delivery candidate of device 0";
    std::vector<RxRecord> heard;
    radio.set_delivery_sink([&](const mac::RxBatch& batch) {
      for (std::size_t k = 0; k < batch.count; ++k) heard.push_back(batch[k]);
    });
    LinkFaults faults;
    radio.set_channel_faults(&faults);
    const auto send = [&] {
      heard.clear();
      sim.schedule_at(sim.now(), [&] {
        radio.broadcast(0, {RachCodec::kRach1, 0}, PsType::kSyncPulse, 0);
      });
      sim.run();
    };

    faults.drop_p = 1.0;  // every draw fires
    send();
    EXPECT_TRUE(heard.empty());
    EXPECT_EQ(radio.counters().fault_drops, 2U) << "rayleigh=" << rayleigh;

    faults.drop_p = 0.0;
    faults.a = 0;
    faults.b = 2;
    faults.depth_db = 30.0;
    send();
    ASSERT_EQ(heard.size(), 1U);
    EXPECT_EQ(heard[0].rx_index, 1U);
    EXPECT_EQ(radio.counters().fault_drops, 3U) << "the faded sub-threshold link counts";

    faults.b = 1;
    faults.depth_db = 1.0;  // shallow: 1 stays audible, 2 is not faded
    send();
    ASSERT_EQ(heard.size(), 1U);
    EXPECT_EQ(radio.counters().fault_drops, 3U);
  }
}

TEST(RadioGates, GatedReceiversConsumeNoDraws) {
  // Receivers 2 (crashed) and 4 (asleep) are candidates of sender 0, but
  // neither may consume a fading or a drop draw: after one flush both
  // streams must sit exactly 4 draws (the un-gated candidates) ahead.
  sim::Simulator sim;
  auto channel = std::make_unique<phy::Channel>(
      phy::RadioParams{}, std::make_unique<phy::PaperDualSlope>(),
      std::make_unique<phy::NoShadowing>(), std::make_unique<phy::RayleighFading>(),
      util::Rng(11));
  RadioMedium radio(&sim, channel.get());
  radio.add_device(0, {0.0, 0.0});
  for (std::uint32_t id = 1; id <= 6; ++id) {
    RadioMedium::ListenFn listening = nullptr;
    if (id == 4) listening = [] { return false; };
    radio.add_device(id, {5.0 * id, 3.0}, listening);
  }
  radio.rebuild();
  radio.set_down(2, true);
  LinkFaults faults;
  faults.drop_p = 0.3;
  radio.set_channel_faults(&faults);
  sim.schedule_at(0, [&] {
    radio.broadcast(0, {RachCodec::kRach1, 0}, PsType::kSyncPulse, 0);
  });
  sim.run();

  util::Rng fading_ref(11);
  util::Rng drop_ref(77);
  for (int k = 0; k < 4; ++k) {
    static_cast<void>(fading_ref.unit_open());
    static_cast<void>(drop_ref.bernoulli(0.3));
  }
  EXPECT_EQ(channel->fading_rng().uniform(), fading_ref.uniform());
  EXPECT_EQ(faults.drop_rng.uniform(), drop_ref.uniform());
}

struct DropRun {
  std::vector<RxRecord> heard;
  mac::TrafficCounters counters;
  double fading_next = 0.0;  // the fading stream's next output
};

/// 20 slots of Rayleigh-faded RACH1/RACH2 traffic under 15 % drops, with
/// receiver 3 crashed when `crashed`.  With `decoy_fade` a fade is active
/// between two far-off devices that are nobody's delivery candidate: every
/// attenuation a sender sees is 0, but the radio then takes its generic
/// active-fade loop instead of the fused drop-and-fade draw.
DropRun drop_run(bool crashed, bool decoy_fade) {
  sim::Simulator sim;
  auto channel = gate_channel(std::make_unique<phy::RayleighFading>(), 515);
  RadioMedium radio(&sim, channel.get());
  util::Rng place(17);
  constexpr std::uint32_t n = 24;
  for (std::uint32_t id = 0; id < n; ++id) {
    radio.add_device(id, {place.uniform(0.0, 150.0), place.uniform(0.0, 150.0)});
  }
  radio.add_device(n, {20'000.0, 0.0});
  radio.add_device(n + 1, {0.0, 20'000.0});
  radio.rebuild();
  if (crashed) radio.set_down(3, true);
  LinkFaults faults;
  faults.drop_p = 0.15;
  if (decoy_fade) {
    faults.a = n;
    faults.b = n + 1;
    faults.depth_db = 60.0;
  }
  radio.set_channel_faults(&faults);
  DropRun run;
  radio.set_delivery_sink([&run](const mac::RxBatch& batch) {
    for (std::size_t k = 0; k < batch.count; ++k) run.heard.push_back(batch[k]);
  });
  for (std::int64_t slot = 0; slot < 20; ++slot) {
    sim.schedule_at(slot, [&radio, slot] {
      for (std::uint32_t id = 0; id < n; ++id) {
        if ((id + static_cast<std::uint32_t>(slot)) % 4 != 0) continue;
        const RachCodec codec = id % 5 == 0 ? RachCodec::kRach2 : RachCodec::kRach1;
        radio.broadcast(id, {codec, (id * 3 + static_cast<std::uint32_t>(slot)) % 8},
                        codec == RachCodec::kRach2 ? PsType::kConnectRequest
                                                   : PsType::kSyncPulse,
                        id);
      }
    });
  }
  sim.run();
  run.counters = radio.counters();
  run.fading_next = channel->fading_rng().uniform();
  return run;
}

TEST(RadioGates, MaskedDropDrawMatchesTheGenericLoop) {
  // Drops without an active fade take the fused drop-and-fade draw; the
  // same world with a fade that attenuates no candidate takes the generic
  // loop (a drop mask, then the fades).  Records,
  // counters and the fading stream must agree, gated or not.
  for (const bool crashed : {false, true}) {
    const DropRun masked = drop_run(crashed, false);
    const DropRun generic = drop_run(crashed, true);
    ASSERT_EQ(masked.heard.size(), generic.heard.size()) << "crashed=" << crashed;
    for (std::size_t k = 0; k < masked.heard.size(); ++k) {
      const RxRecord& a = masked.heard[k];
      const RxRecord& b = generic.heard[k];
      EXPECT_EQ(a.sender, b.sender) << k;
      EXPECT_EQ(a.rx_index, b.rx_index) << k;
      EXPECT_EQ(a.preamble.index, b.preamble.index) << k;
      EXPECT_EQ(a.type, b.type) << k;
      EXPECT_EQ(std::bit_cast<std::uint64_t>(a.rx_power.value),
                std::bit_cast<std::uint64_t>(b.rx_power.value))
          << k;
      if (crashed) {
        EXPECT_NE(a.rx_index, 3U) << "a crashed receiver hears nothing";
      }
    }
    EXPECT_EQ(masked.counters.fault_drops, generic.counters.fault_drops) << "crashed=" << crashed;
    EXPECT_EQ(masked.counters.deliveries, generic.counters.deliveries) << "crashed=" << crashed;
    EXPECT_EQ(masked.counters.collisions, generic.counters.collisions) << "crashed=" << crashed;
    EXPECT_EQ(masked.fading_next, generic.fading_next) << "crashed=" << crashed;
    EXPECT_GT(masked.counters.fault_drops, 0U);
    EXPECT_GT(masked.counters.deliveries, 0U);
  }
}

// Every link loses the same `loss_db` (non-decreasing in d, as the contract
// asks), so with no shadowing a link's mean is exactly tx − loss_db.
class FlatLoss final : public phy::PathLossModel {
 public:
  explicit FlatLoss(double loss_db) : loss_db_(loss_db) {}
  [[nodiscard]] util::Db loss(double /*distance_m*/) const override { return util::Db{loss_db_}; }
  [[nodiscard]] double distance_for_loss(util::Db /*loss*/) const override { return 1000.0; }

 private:
  double loss_db_;
};

// Every fade has the same gain, so a survivor's dBm is a known expression.
class FixedGain final : public phy::FadingModel {
 public:
  explicit FixedGain(double gain) : gain_(gain) {}
  [[nodiscard]] double gain_from_uniform(double /*u*/) const override { return gain_; }
  [[nodiscard]] double skip_u(double min_gain) const override {
    return min_gain > gain_ ? 0.0 : 2.0;
  }

 private:
  double gain_;
};

/// Two devices on a flat-loss link; device 0 broadcasts once and the
/// records device 1 decodes are returned.
struct FlatLink {
  sim::Simulator sim;
  std::unique_ptr<phy::Channel> channel;
  std::unique_ptr<RadioMedium> radio;
  std::vector<RxRecord> heard;

  FlatLink(double loss_db, std::unique_ptr<phy::FadingModel> fading) {
    channel = std::make_unique<phy::Channel>(phy::RadioParams{},
                                             std::make_unique<FlatLoss>(loss_db),
                                             std::make_unique<phy::NoShadowing>(),
                                             std::move(fading), util::Rng(1));
    radio = std::make_unique<RadioMedium>(&sim, channel.get());
    radio->add_device(0, {0.0, 0.0});
    radio->add_device(1, {10.0, 0.0});
    radio->rebuild();
    radio->set_delivery_sink([this](const mac::RxBatch& batch) {
      for (std::size_t k = 0; k < batch.count; ++k) heard.push_back(batch[k]);
    });
  }
  [[nodiscard]] util::Dbm mean() const {
    util::Dbm m{};
    radio->for_each_candidate_pair([&m](std::uint32_t, std::uint32_t, util::Dbm mean) { m = mean; });
    return m;
  }
  const std::vector<RxRecord>& send() {
    heard.clear();
    sim.schedule_at(sim.now(), [this] {
      radio->broadcast(0, {RachCodec::kRach1, 0}, PsType::kSyncPulse, 0);
    });
    sim.run();
    return heard;
  }
};

TEST(RadioAudibility, MilliwattGuardDecidesAsTheDbmCompare) {
  // In a no-fading world the survivor's milliwatts are the cached mean's.
  // At the threshold, and 1e-12 dB below it, the mW verdict is the guard
  // band and the exact dBm compare decides; 1e-6 dB either side the mW
  // verdict alone decides, without the dBm.
  const phy::RadioParams params;
  const mac::AudibilityRule rule(params.detection_threshold);
  const double at_threshold = (params.tx_power - params.detection_threshold).value;
  struct Case {
    double loss_db;
    bool audible;
    mac::AudibilityRule::Verdict verdict;
  };
  using V = mac::AudibilityRule::Verdict;
  for (const Case& k : {Case{at_threshold, true, V::kGuard},
                        Case{at_threshold + 1e-12, false, V::kGuard},
                        Case{at_threshold - 1e-6, true, V::kAudible},
                        Case{at_threshold + 1e-6, false, V::kInaudible}}) {
    FlatLink link(k.loss_db, std::make_unique<phy::NoFading>());
    const util::Dbm mean = link.mean();
    if (k.loss_db == at_threshold) {
      EXPECT_EQ(mean, params.detection_threshold);
    }
    if (k.loss_db > at_threshold) {
      EXPECT_LT(mean, params.detection_threshold);
    }
    const double mw = mean.milliwatts() * std::max(1.0, phy::FadingModel::kGainFloor);
    EXPECT_EQ(rule.linear(mw), k.verdict) << "loss " << k.loss_db;
    int dbm_calls = 0;
    EXPECT_EQ(rule.audible(mw,
                           [&] {
                             ++dbm_calls;
                             return mean - phy::FadingModel::loss_from_gain(1.0);
                           }),
              k.audible);
    EXPECT_EQ(dbm_calls, k.verdict == V::kGuard ? 1 : 0) << "loss " << k.loss_db;
    EXPECT_EQ(link.send().size(), k.audible ? 1U : 0U) << "loss " << k.loss_db;
  }
}

TEST(RadioAudibility, DecodedPowerIsTheDbmExpressionBitForBit) {
  // The staged reception keeps the mean and the gain; the decoded record's
  // rx_power is derived from them with the sweep's own expression.  An
  // attenuated reception keeps the eager value, attenuation included.
  constexpr double kGain = 0.37;
  FlatLink link(100.0, std::make_unique<FixedGain>(kGain));
  const util::Dbm mean = link.mean();
  const util::Dbm decoded = mean - phy::FadingModel::loss_from_gain(kGain);
  ASSERT_EQ(link.send().size(), 1U);
  EXPECT_EQ(std::bit_cast<std::uint64_t>(link.heard[0].rx_power.value),
            std::bit_cast<std::uint64_t>(decoded.value));

  LinkFaults faults;
  faults.a = 0;
  faults.b = 1;
  faults.depth_db = 3.0;
  link.radio->set_channel_faults(&faults);
  ASSERT_EQ(link.send().size(), 1U);
  EXPECT_EQ(std::bit_cast<std::uint64_t>(link.heard[0].rx_power.value),
            std::bit_cast<std::uint64_t>((decoded - util::Db{3.0}).value));
  EXPECT_EQ(link.radio->counters().fault_drops, 0U);
  EXPECT_EQ(link.radio->counters().deliveries, 2U);
}

}  // namespace
