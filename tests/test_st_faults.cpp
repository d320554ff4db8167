// Tests for the ST protocol's fault hardening: bounded connect retries with
// Change_head after the cap, merge-announce dedup by (winner, loser), head
// lease expiry with remnant re-labelling, and end-to-end re-convergence
// under churn.
#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <vector>

#include "core/scenario.hpp"
#include "proto/st.hpp"
#include "core/wire.hpp"

namespace {

using namespace firefly;

class SteppableSt : public proto::StEngine {
 public:
  using proto::StEngine::StEngine;
  using proto::StEngine::collect_metrics;
  using proto::StEngine::crash_device;
  using proto::StEngine::recover_device;
  using proto::StEngine::start_run;
  [[nodiscard]] bool is_head(std::uint32_t i) const { return hot_.is_head[i]; }
  sim::Simulator& sim() { return sim_; }
  mac::RadioMedium& radio() { return radio_; }
  /// Move the fresh-label cursor (ST's snapshot word).
  void set_label_cursor(std::uint16_t next) { protocol_restore_word(next); }
  std::int64_t slot() const { return current_slot(); }
  /// Inject one synthetic decoded PS as a batch of one: one entry over a
  /// one-transmission table.
  void inject(const mac::RxRecord& record) {
    const mac::Transmission tx{record.sender, record.preamble, record.type, record.payload,
                               record.sent_slot};
    const mac::RxEntry entry{0, record.rx_index, record.rx_power.value};
    deliver_batched(mac::RxBatch{&entry, 1, &tx});
  }
};

mac::RxRecord make_announce(std::uint32_t sender, std::uint32_t rx_index,
                            std::uint16_t winner, std::uint16_t loser,
                            std::uint16_t size) {
  return mac::RxRecord{sender,
                       rx_index,
                       mac::Preamble{mac::RachCodec::kRach2, 3},
                       mac::PsType::kMergeAnnounce,
                       core::pack(core::Fields{winner, loser, 10, size}),
                       util::Dbm{-60.0},
                       0};
}

TEST(StFaults, AnnounceDedupByWinnerLoserPair) {
  const std::vector<geo::Vec2> positions{{0.0, 0.0}, {15.0, 0.0}};
  SteppableSt engine(positions, core::ProtocolParams{}, phy::RadioParams{}, 3);

  // Device 0 starts as fragment 0; an announce (winner=7, loser=0) makes it
  // adopt the winner and relay exactly once.
  const std::uint64_t rach2_before = engine.radio().counters().rach2_tx;
  engine.inject(make_announce(1, 0, 7, 0, 2));
  EXPECT_EQ(engine.fragment(0), 7U);
  EXPECT_FALSE(engine.is_head(0));
  EXPECT_EQ(engine.radio().counters().rach2_tx, rach2_before + 1) << "one relay";

  // The identical (winner, loser) announce again: deduplicated, no relay.
  engine.inject(make_announce(1, 0, 7, 0, 3));
  EXPECT_EQ(engine.radio().counters().rach2_tx, rach2_before + 1);

  // A *different* merge involving the new fragment still propagates.
  engine.inject(make_announce(1, 0, 9, 7, 4));
  EXPECT_EQ(engine.fragment(0), 9U);
  EXPECT_EQ(engine.radio().counters().rach2_tx, rach2_before + 2);
}

TEST(StFaults, FreshLabelsSkipTheInvalidId) {
  // Labels travel in 16-bit fields where 0xFFFF (kInvalidId) reads as
  // "unknown fragment": the cursor wraps past it instead of handing it out.
  const std::vector<geo::Vec2> positions{{0.0, 0.0}, {15.0, 0.0}};
  SteppableSt engine(positions, core::ProtocolParams{}, phy::RadioParams{}, 3);
  engine.start_run();
  engine.set_label_cursor(0xFFFE);
  engine.crash_device(1);
  engine.recover_device(1);
  EXPECT_EQ(engine.fragment(1), 0xFFFEU);
  engine.crash_device(1);
  engine.recover_device(1);
  EXPECT_NE(engine.fragment(1), core::kInvalidId);
  EXPECT_EQ(engine.fragment(1), 2U) << "wraps to the first label past the ids";
}

TEST(StFaults, ConnectRetriesAreCappedAndHeadshipMovesOn) {
  // Three devices close enough to hear each other; 0 and 1 merge, then all
  // fragment-control traffic to/from device 2 is vetoed.  The {0, 1} head
  // must not hammer 2 forever: after connect_max_retries timed-out attempts
  // it passes headship to its tree neighbour (Change_head), which then runs
  // into the same cap, and so on — observable as head-token traffic after
  // the veto instant.
  const std::vector<geo::Vec2> positions{{0.0, 0.0}, {12.0, 0.0}, {30.0, 0.0}};
  core::ProtocolParams params;
  params.max_periods = 100;
  params.stop_on_convergence = false;
  SteppableSt engine(positions, params, phy::RadioParams{}, 17);
  core::TraceSink sink;
  engine.set_trace(&sink);

  // Fragment control to or from device 2 is vetoed: an infinite
  // attenuation, which the radio counts as a fault drop.
  struct Quarantine final : mac::ChannelFaults {
    bool fill_drops(std::uint8_t*, std::size_t) override { return false; }
    bool fill_attenuation(std::uint32_t sender, mac::PsType type, const std::uint32_t* rx,
                          std::size_t n, double* attenuation_db) override {
      const bool fragment_control = type == mac::PsType::kConnectRequest ||
                                    type == mac::PsType::kConnectAccept ||
                                    type == mac::PsType::kMergeAnnounce;
      for (std::size_t i = 0; i < n; ++i) {
        const bool veto = fragment_control && (sender == 2 || rx[i] == 2);
        attenuation_db[i] = veto ? std::numeric_limits<double>::infinity() : 0.0;
      }
      return true;
    }
  };
  Quarantine quarantine;
  engine.radio().set_channel_faults(&quarantine);

  engine.start_run();
  engine.sim().run_until(600);
  ASSERT_EQ(engine.fragment(0), engine.fragment(1))
      << "0 and 1 must have merged despite the quarantined third device";

  const std::size_t head_changes_before = sink.count(core::TraceKind::kHeadChange);
  engine.sim().run_until(10'000);

  // Headship bounced at least once after the unreachable-peer cap.
  EXPECT_GT(sink.count(core::TraceKind::kHeadChange), head_changes_before);
  // The {0, 1} fragment survived the unreachable neighbour intact.
  EXPECT_EQ(engine.fragment(0), engine.fragment(1));
  EXPECT_NE(engine.fragment(0), engine.fragment(2));
  // Retries are bounded: with backoff the probe rate decays geometrically,
  // so device state shows a bounded attempt counter, not hundreds.
  EXPECT_LE(engine.devices()[0].connect_attempts, 16U);
  EXPECT_LE(engine.devices()[1].connect_attempts, 16U);
}

TEST(StFaults, HeadCrashTriggersLeaseReclaimAndReMerge) {
  // Four devices in one cluster merge into a single fragment; then the
  // current head crashes.  The survivors' head lease expires, one of them
  // re-labels the remnant (kRelabel) and the fragment re-forms with a live
  // head — re-converging to one fragment spanning the survivors.
  const std::vector<geo::Vec2> positions{
      {0.0, 0.0}, {14.0, 0.0}, {0.0, 14.0}, {14.0, 14.0}};
  core::ProtocolParams params;
  params.max_periods = 250;
  params.stop_on_convergence = false;
  SteppableSt engine(positions, params, phy::RadioParams{}, 29);
  core::TraceSink sink;
  engine.set_trace(&sink);

  engine.start_run();
  engine.sim().run_until(3'000);
  std::uint32_t head = 0;
  int heads = 0;
  for (std::uint32_t id = 0; id < 4; ++id) {
    if (engine.is_head(id)) {
      head = id;
      ++heads;
    }
    EXPECT_EQ(engine.fragment(id), engine.fragment(0));
  }
  ASSERT_EQ(heads, 1) << "one spanning fragment with exactly one head";

  engine.crash_device(head);
  engine.sim().run_until(25'000);

  EXPECT_GE(sink.count(core::TraceKind::kRelabel), 1U)
      << "lease expiry must re-label the orphaned remnant";
  for (std::uint32_t id = 1; id < 4; ++id) {
    if (id == head) continue;
    EXPECT_EQ(engine.fragment(id), engine.fragment(head == 0 ? 1 : 0))
        << "survivors re-merge into one fragment";
  }
  // A complete fragment rotates headship perpetually, so at any single
  // instant the token may be in flight (zero heads); scan a short window.
  bool saw_live_head = false;
  for (int step = 0; step < 300 && !saw_live_head; ++step) {
    engine.sim().run_until(25'001 + step);
    for (std::uint32_t id = 0; id < 4; ++id) {
      if (id != head && engine.is_head(id)) saw_live_head = true;
    }
  }
  EXPECT_TRUE(saw_live_head) << "the remnant elected a live head";

  const core::RunMetrics m = engine.collect_metrics();
  EXPECT_EQ(m.crashes, 1U);
  EXPECT_EQ(m.alive_at_end, 3U);
  EXPECT_EQ(m.final_fragments, 1U) << "crashed device excluded from the count";
  EXPECT_TRUE(m.in_sync_at_end);
}

TEST(StFaults, ReconvergesAfterChurnAtEveryRate) {
  // End-to-end resilience: random churn with a quiet tail; ST must have
  // (re)converged by the end at every swept churn rate.
  for (const double rate : {5.0, 15.0, 30.0}) {
    core::ScenarioConfig config;
    config.n = 20;
    config.seed = 4;
    config.area_policy = core::AreaPolicy::kFixed;
    config.protocol.max_periods = 300;
    config.protocol.faults.churn_rate_per_min = rate;
    config.protocol.faults.mean_downtime_ms = 1'500.0;
    config.protocol.faults.churn_stop_ms = 20'000.0;
    const core::RunMetrics m = core::run_trial(core::Protocol::kSt, config);
    EXPECT_TRUE(m.converged || m.partitioned) << "churn rate " << rate;
    if (!m.partitioned) {
      EXPECT_TRUE(m.in_sync_at_end) << "churn rate " << rate;
      EXPECT_EQ(m.final_fragments, 1U) << "churn rate " << rate;
      EXPECT_EQ(m.alive_at_end, 20U) << "churn stopped: everyone recovered";
    }
    EXPECT_GT(m.crashes, 0U) << "churn rate " << rate;
    EXPECT_EQ(m.crashes, m.recoveries);
  }
}

TEST(StFaults, FstSurvivesChurnToo) {
  core::ScenarioConfig config;
  config.n = 20;
  config.seed = 4;
  config.area_policy = core::AreaPolicy::kFixed;
  config.protocol.max_periods = 300;
  config.protocol.faults.churn_rate_per_min = 15.0;
  config.protocol.faults.mean_downtime_ms = 1'500.0;
  config.protocol.faults.churn_stop_ms = 20'000.0;
  const core::RunMetrics m = core::run_trial(core::Protocol::kFst, config);
  EXPECT_TRUE(m.converged || m.partitioned);
  EXPECT_GT(m.crashes, 0U);
  if (!m.partitioned) {
    EXPECT_TRUE(m.in_sync_at_end);
  }
}

TEST(StFaults, DriftedClocksStayAligned) {
  // Oscillator drift large enough to skew whole slots within the run: the
  // periodic flood re-compensation must hold the population inside the
  // tolerance (uptime stays high after first sync).
  core::ScenarioConfig config;
  config.n = 20;
  config.seed = 6;
  config.area_policy = core::AreaPolicy::kFixed;
  config.protocol.max_periods = 300;
  config.protocol.faults.drift_max_ppm = 400.0;
  const core::RunMetrics m = core::run_trial(core::Protocol::kSt, config);
  ASSERT_TRUE(m.converged);
  EXPECT_GT(m.sync_uptime, 0.9);
  EXPECT_TRUE(m.in_sync_at_end);
}

}  // namespace
