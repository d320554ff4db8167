// The paper's shape claims (Fig. 3 and Fig. 4, as EXPERIMENTS.md measures
// them) as a tier-1 check: ST against FST on the density-scaled Table I
// scenario at N = 50, 200 and 400, three seeds per point from the figure
// benches' fixed master seed (bench::paper_sweep).  Per-seed ratios are not
// monotone in N, so every assertion reads seed means; the message
// crossover moves with the seeds, so no crossover point is asserted, only
// its sides at the ends of the range.
#include <gtest/gtest.h>

#include <cstddef>
#include <vector>

#include "core/experiment.hpp"
#include "util/stats.hpp"

namespace {

using namespace firefly;
using core::Protocol;

struct Series {
  std::vector<double> ns;
  std::vector<double> convergence_ms;
  std::vector<double> messages;
};

Series run_series(Protocol protocol) {
  core::SweepConfig config;
  config.ns = {50, 200, 400};
  config.trials = 3;
  config.master_seed = 2015;
  config.base.area_policy = core::AreaPolicy::kDensityScaled;
  Series series;
  for (const core::SweepPoint& point : core::sweep(protocol, config)) {
    EXPECT_EQ(point.failure_rate, 0.0) << "a trial did not converge at N=" << point.n;
    series.ns.push_back(static_cast<double>(point.n));
    series.convergence_ms.push_back(point.convergence_ms.mean());
    series.messages.push_back(point.total_messages.mean());
  }
  return series;
}

TEST(PaperShape, StAgainstFstOnTheDensityScaledScenario) {
  const Series st = run_series(Protocol::kSt);
  const Series fst = run_series(Protocol::kFst);
  ASSERT_EQ(st.ns.size(), 3U);
  ASSERT_EQ(fst.ns.size(), 3U);

  // Fig. 3: ST converges sooner at every N, and its lead grows with N.
  std::vector<double> time_ratio(3);
  for (std::size_t i = 0; i < 3; ++i) {
    time_ratio[i] = fst.convergence_ms[i] / st.convergence_ms[i];
    EXPECT_GT(time_ratio[i], 1.0) << "N=" << st.ns[i];
  }
  EXPECT_GT(time_ratio[2], time_ratio[0]);

  // Fig. 4: FST is cheaper in messages on the small network and dearer on
  // the large one...
  EXPECT_LT(fst.messages[0] / st.messages[0], 1.0) << "N=50";
  EXPECT_GT(fst.messages[2] / st.messages[2], 1.0) << "N=400";
  // ...because its message count grows faster in N.
  EXPECT_GT(util::fit_loglog_slope(fst.ns, fst.messages),
            util::fit_loglog_slope(st.ns, st.messages));
}

}  // namespace
