// Differential test for ST's bound on fresh outgoing edges (core::DeviceHot's
// outgoing_label / outgoing_heard_bound).  best_outgoing and has_outgoing
// answer from the bound without a neighbour-table scan when no outgoing
// entry can be fresh; at every slot of churned, relabelling, mobile and
// snapshot-restored runs both must give the answer of a full scan with no
// bound, and the checks themselves must leave the run's results unchanged.
#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "core/report.hpp"
#include "core/scenario.hpp"
#include "obs/json.hpp"
#include "proto/st.hpp"

namespace {

using namespace firefly;

constexpr std::uint32_t kNone = std::numeric_limits<std::uint32_t>::max();

class CheckedSt final : public proto::StEngine {
 public:
  using proto::StEngine::StEngine;
  using proto::StEngine::collect_metrics;
  using proto::StEngine::restore;
  using proto::StEngine::snapshot;
  using proto::StEngine::start_run;

  /// best_outgoing's walk with no bound: the strongest fresh neighbour in
  /// another fragment, ties to the first in table order.
  [[nodiscard]] std::uint32_t reference_best(std::uint32_t i) const {
    const std::int64_t slot = current_slot();
    const std::int64_t freshness = 3 * static_cast<std::int64_t>(params_.period_slots);
    std::uint32_t best = kNone;
    double best_weight = -1e300;
    for (const auto& [other, info] : neighbors(i)) {
      if (info.fragment == fragment(i)) continue;
      if (info.last_heard_slot >= 0 && slot - info.last_heard_slot > freshness) continue;
      if (info.weight_dbm > best_weight) {
        best_weight = info.weight_dbm;
        best = other;
      }
    }
    return best;
  }

  /// Run to `to_slot`, comparing both answers with the reference for every
  /// live device after each slot.  Odd slots ask has_outgoing first, so its
  /// stored bound is what best_outgoing then reads, and the reverse on even
  /// slots.
  void run_checked(std::int64_t to_slot) {
    last_label_.resize(devices_.size(), core::kInvalidId);
    for (std::int64_t slot = current_slot() + 1; slot <= to_slot; ++slot) {
      sim_.run_until(sim::SimTime::milliseconds(slot));
      for (std::uint32_t i = 0; i < devices_.size(); ++i) {
        if (hot_.down[i]) continue;
        const core::Device& device = devices_[i];
        if (fragment(i) == static_cast<std::uint16_t>(i) && last_label_[i] != fragment(i) &&
            last_label_[i] != core::kInvalidId) {
          ++restarts_;  // only prune_stale_tree_edges re-labels a device with its id
        }
        last_label_[i] = fragment(i);
        const std::uint32_t want = reference_best(i);
        const std::int64_t freshness = 3 * static_cast<std::int64_t>(params_.period_slots);
        if (hot_.outgoing_label[i] == fragment(i) &&
            hot_.outgoing_heard_bound[i] < current_slot() - freshness) {
          ++bounded_;  // this check answers without a scan
        }
        bool has = false;
        const std::uint32_t* best = nullptr;
        if (slot % 2 == 1) {
          has = has_outgoing(device);
          best = best_outgoing(device);
        } else {
          best = best_outgoing(device);
          has = has_outgoing(device);
        }
        ASSERT_EQ(best != nullptr ? *best : kNone, want) << "device " << i << " slot " << slot;
        ASSERT_EQ(has, want != kNone) << "device " << i << " slot " << slot;
        ++checks_;
      }
    }
  }

  /// Run to `to_slot` with no checks.
  void run_to(std::int64_t to_slot) { sim_.run_until(sim::SimTime::milliseconds(to_slot)); }

  [[nodiscard]] std::uint64_t checks() const { return checks_; }
  [[nodiscard]] std::uint64_t bounded() const { return bounded_; }
  [[nodiscard]] std::uint64_t restarts() const { return restarts_; }

 private:
  std::vector<std::uint16_t> last_label_;  // each device's label at the last check
  std::uint64_t checks_ = 0;
  std::uint64_t bounded_ = 0;
  std::uint64_t restarts_ = 0;
};

std::string metrics_json(const core::RunMetrics& metrics) {
  std::ostringstream out;
  obs::JsonWriter w(out);
  core::write_run_metrics_json(w, metrics);
  return out.str();
}

/// Churn, drops and deep fades on a fixed area; the run does not stop at
/// convergence, so crashes, recoveries and head-lease relabels keep coming.
core::ScenarioConfig churn_config() {
  core::ScenarioConfig config;
  config.n = 40;
  config.seed = 29;
  config.area_policy = core::AreaPolicy::kFixed;
  config.protocol.stop_on_convergence = false;
  config.protocol.max_periods = 60;
  config.protocol.faults.churn_rate_per_min = 120.0;
  config.protocol.faults.mean_downtime_ms = 900.0;
  config.protocol.faults.drop_probability = 0.05;
  config.protocol.faults.fade_rate_per_min = 60.0;
  return config;
}

/// Vehicular-speed random waypoints: tree edges go stale and orphans
/// restart.
core::ScenarioConfig mobile_config() {
  core::ScenarioConfig config;
  config.n = 40;
  config.seed = 21;
  config.area_policy = core::AreaPolicy::kFixed;
  config.protocol.mobility_speed_mps = 10.0;
  config.protocol.stop_on_convergence = false;
  config.protocol.max_periods = 80;
  return config;
}

/// The same scenario driven without checks, to the same slot.
std::string unchecked_metrics(const core::ScenarioConfig& config, std::int64_t to_slot) {
  CheckedSt engine(core::deploy(config), config.protocol, config.radio, config.seed);
  engine.start_run();
  engine.run_to(to_slot);
  return metrics_json(engine.collect_metrics());
}

TEST(StOutgoingBound, ChurnedRunAnswersAsAFullScan) {
  const core::ScenarioConfig config = churn_config();
  CheckedSt engine(core::deploy(config), config.protocol, config.radio, config.seed);
  core::TraceSink trace;
  engine.set_trace(&trace);
  engine.start_run();
  const std::int64_t horizon = config.protocol.max_slots();
  engine.run_checked(horizon);
  EXPECT_GT(trace.count(core::TraceKind::kCrash), 0U);
  EXPECT_GT(trace.count(core::TraceKind::kRecover), 0U);
  EXPECT_GT(trace.count(core::TraceKind::kRelabel), 0U);
  EXPECT_GT(engine.bounded(), engine.checks() / 4) << "the bound must answer most checks";
  EXPECT_EQ(metrics_json(engine.collect_metrics()), unchecked_metrics(config, horizon))
      << "the checks changed the run";
}

TEST(StOutgoingBound, MobileRunAnswersAsAFullScan) {
  const core::ScenarioConfig config = mobile_config();
  CheckedSt engine(core::deploy(config), config.protocol, config.radio, config.seed);
  engine.start_run();
  const std::int64_t horizon = config.protocol.max_slots();
  engine.run_checked(horizon);
  EXPECT_GT(engine.restarts(), 0U) << "no orphan restarted through prune_stale_tree_edges";
  EXPECT_GT(engine.bounded(), 0U);
  EXPECT_EQ(metrics_json(engine.collect_metrics()), unchecked_metrics(config, horizon))
      << "the checks changed the run";
}

TEST(StOutgoingBound, RestoredRunAnswersAsAFullScan) {
  // The bound rides in the hot region, so a restore brings back the bound
  // of the snapshot's moment, not the one the engine reached since.
  const core::ScenarioConfig config = churn_config();
  CheckedSt engine(core::deploy(config), config.protocol, config.radio, config.seed);
  engine.start_run();
  const std::int64_t horizon = config.protocol.max_slots();
  engine.run_checked(horizon / 2);
  const std::unique_ptr<core::EngineSnapshot> mid = engine.snapshot();
  engine.run_checked(horizon);
  const std::string first = metrics_json(engine.collect_metrics());
  engine.restore(*mid);
  engine.run_checked(horizon);
  EXPECT_EQ(metrics_json(engine.collect_metrics()), first) << "the replay diverged";
  EXPECT_GT(engine.bounded(), 0U);
}

}  // namespace
