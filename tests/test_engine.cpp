// Tests for the multi-tenant engine and the active-fence defender:
// composition of concurrent tenants, equivalence with single-source rig
// sampling, and fence statistics.
#include <gtest/gtest.h>

#include <memory>

#include "core/leaky_dsp.h"
#include "sim/engine.h"
#include "sim/scenarios.h"
#include "sim/sensor_rig.h"
#include "stats/descriptive.h"
#include "util/contracts.h"
#include "util/rng.h"
#include "victim/active_fence.h"
#include "victim/workloads.h"

namespace lsim = leakydsp::sim;
namespace lcore = leakydsp::core;
namespace lv = leakydsp::victim;
namespace ls = leakydsp::stats;
namespace lu = leakydsp::util;
namespace lp = leakydsp::pdn;
namespace fabric = leakydsp::fabric;

class EngineTest : public ::testing::Test {
 protected:
  lsim::Basys3Scenario scenario_;
};

TEST_F(EngineTest, RequiresRig) {
  lsim::Engine engine(scenario_.grid());
  lu::Rng rng(1);
  EXPECT_THROW(engine.run(10, rng), lu::PreconditionError);
}

TEST_F(EngineTest, SingleSourceMatchesDirectRigSampling) {
  const std::size_t node = scenario_.grid().node_of_site({30, 30});
  auto modulator = [](double, lu::Rng&) { return 1.5; };

  lcore::LeakyDspSensor sensor_a(scenario_.device(), {16, 20});
  lsim::SensorRig rig_a(scenario_.grid(), sensor_a);
  lsim::Engine engine(scenario_.grid());
  engine.add_source(
      std::make_unique<lsim::NodeSource>("victim", node, modulator));
  engine.add_rig(rig_a);
  lu::Rng rng_a(42);
  const auto results = engine.run(200, rng_a);
  ASSERT_EQ(results.size(), 1u);

  lcore::LeakyDspSensor sensor_b(scenario_.device(), {16, 20});
  lsim::SensorRig rig_b(scenario_.grid(), sensor_b);
  // The engine's RNG contract: sources draw from rng.fork(0), rig r samples
  // from rng.fork(r + 1). Reproduce rig 0's stream directly.
  lu::Rng rng_b = lu::Rng(42).fork(1);
  const std::vector<lp::CurrentInjection> draws = {{node, 1.5}};
  const auto direct = rig_b.collect_constant(200, draws, rng_b);
  EXPECT_EQ(results[0].readouts, direct);
}

TEST_F(EngineTest, ConcurrentTenantsSuperpose) {
  // Two tenants drawing together droop the sensor more than either alone.
  const std::size_t n1 = scenario_.grid().node_of_site({20, 10});
  const std::size_t n2 = scenario_.grid().node_of_site({40, 30});
  auto steady = [](double current) {
    return [current](double, lu::Rng&) { return current; };
  };
  auto mean_with = [&](bool with_first, bool with_second) {
    lcore::LeakyDspSensor sensor(scenario_.device(), {16, 20});
    lsim::SensorRig rig(scenario_.grid(), sensor);
    lu::Rng rng(7);
    rig.calibrate(rng);
    lsim::Engine engine(scenario_.grid());
    if (with_first) {
      engine.add_source(
          std::make_unique<lsim::NodeSource>("t1", n1, steady(4.0)));
    }
    if (with_second) {
      engine.add_source(
          std::make_unique<lsim::NodeSource>("t2", n2, steady(4.0)));
    }
    engine.add_rig(rig);
    return ls::mean(engine.run(800, rng)[0].readouts);
  };
  const double both = mean_with(true, true);
  const double first = mean_with(true, false);
  const double second = mean_with(false, true);
  const double none = mean_with(false, false);
  EXPECT_LT(both, first);
  EXPECT_LT(both, second);
  EXPECT_LT(first, none);
}

TEST_F(EngineTest, MultipleRigsSampleSameRun) {
  lcore::LeakyDspSensor near_sensor(scenario_.device(), {16, 20});
  lcore::LeakyDspSensor far_sensor(scenario_.device(), {52, 56});
  lsim::SensorRig near_rig(scenario_.grid(), near_sensor);
  lsim::SensorRig far_rig(scenario_.grid(), far_sensor);
  lu::Rng rng(8);
  near_rig.calibrate(rng);
  far_rig.calibrate(rng);

  lsim::Engine engine(scenario_.grid());
  const std::size_t node = scenario_.grid().node_of_site({16, 10});
  engine.add_source(std::make_unique<lsim::NodeSource>(
      "victim", node, [](double, lu::Rng&) { return 8.0; }));
  engine.add_rig(near_rig);
  engine.add_rig(far_rig);
  const auto results = engine.run(600, rng);
  ASSERT_EQ(results.size(), 2u);
  // The near sensor droops further below its idle point than the far one.
  lcore::LeakyDspSensor ref(scenario_.device(), {16, 20});
  EXPECT_LT(ls::mean(results[0].readouts), ls::mean(results[1].readouts));
}

TEST_F(EngineTest, WorkloadSourceAdapters) {
  // Workloads plug into the engine through NodeSource closures.
  lv::FirFilterWorkload fir;
  const std::size_t node =
      scenario_.grid().node_of_site(scenario_.aes_site());
  lcore::LeakyDspSensor sensor(scenario_.device(), {16, 20});
  lsim::SensorRig rig(scenario_.grid(), sensor);
  lu::Rng rng(9);
  rig.calibrate(rng);
  lsim::Engine engine(scenario_.grid());
  engine.add_source(std::make_unique<lsim::NodeSource>(
      "fir", node,
      [&fir](double t, lu::Rng& r) { return fir.current_at(t, r); }));
  engine.add_rig(rig);
  const auto results = engine.run(2000, rng);
  // The burst structure shows up as bimodal readouts.
  const double spread = ls::max_value(results[0].readouts) -
                        ls::min_value(results[0].readouts);
  EXPECT_GT(spread, 1.0);
}

// ------------------------------------------------------------ active fence

TEST_F(EngineTest, FenceMeanCurrentMatchesParams) {
  lv::ActiveFence fence(scenario_.device(), scenario_.grid(),
                        scenario_.device().clock_region(1).bounds);
  EXPECT_NEAR(fence.mean_current(), 2000 * 0.5 * 2.5e-3, 1e-12);
  lu::Rng rng(10);
  double sum = 0.0;
  const int n = 3000;
  for (int i = 0; i < n; ++i) {
    for (const auto& d : fence.draws(rng)) sum += d.current;
  }
  EXPECT_NEAR(sum / n, fence.mean_current(), 0.04 * fence.mean_current());
}

TEST_F(EngineTest, DisabledFenceDrawsNothing) {
  lv::ActiveFence fence(scenario_.device(), scenario_.grid(),
                        scenario_.device().clock_region(1).bounds);
  fence.set_enabled(false);
  lu::Rng rng(11);
  EXPECT_TRUE(fence.draws(rng).empty());
}

TEST_F(EngineTest, FenceRaisesSensorNoise) {
  lv::ActiveFenceParams params;
  params.instance_count = 4000;
  lv::ActiveFence fence(scenario_.device(), scenario_.grid(),
                        fabric::Rect{6, 2, 24, 18}, params);
  lcore::LeakyDspSensor sensor(scenario_.device(), {16, 20});
  lsim::SensorRig rig(scenario_.grid(), sensor);
  lu::Rng rng(12);
  rig.calibrate(rng);

  auto noise_with_fence = [&](bool on) {
    fence.set_enabled(on);
    rig.settle();
    const auto readouts = rig.collect(
        1500, rng, [&](std::vector<lp::CurrentInjection>& draws) {
          for (const auto& d : fence.draws(rng)) draws.push_back(d);
        });
    return ls::stddev(readouts);
  };
  EXPECT_GT(noise_with_fence(true), 1.5 * noise_with_fence(false));
}

TEST_F(EngineTest, FenceContracts) {
  lv::ActiveFenceParams params;
  params.toggle_probability = 0.0;
  EXPECT_THROW(lv::ActiveFence(scenario_.device(), scenario_.grid(),
                               fabric::Rect{0, 0, 10, 10}, params),
               lu::PreconditionError);
}
