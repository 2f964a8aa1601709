// Parameterized property suites: invariants that must hold across the
// model parameter space, not just at the tuned defaults. These are the
// guard rails for anyone re-tuning the simulation to a different board.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <tuple>
#include <vector>

#include "attack/cpa.h"
#include "core/leaky_dsp.h"
#include "crypto/aes128.h"
#include "fabric/device.h"
#include "pdn/coupling.h"
#include "pdn/grid.h"
#include "sensors/tdc.h"
#include "stats/descriptive.h"
#include "stats/histogram.h"
#include "timing/delay_model.h"
#include "util/rng.h"
#include "victim/aes_core.h"

namespace lt = leakydsp::timing;
namespace lp = leakydsp::pdn;
namespace lf = leakydsp::fabric;
namespace lcore = leakydsp::core;
namespace lsens = leakydsp::sensors;
namespace ls = leakydsp::stats;
namespace lc = leakydsp::crypto;
namespace lv = leakydsp::victim;
namespace la = leakydsp::attack;
namespace lu = leakydsp::util;

// ------------------------------------------------ alpha-power law sweep

class AlphaLawSweep
    : public ::testing::TestWithParam<std::tuple<double, double>> {};

TEST_P(AlphaLawSweep, MonotoneAndNormalized) {
  const auto [alpha, vth] = GetParam();
  const lt::AlphaPowerLaw law{1.0, vth, alpha};
  EXPECT_NEAR(law.scale(1.0), 1.0, 1e-12);
  double prev = law.scale(vth + 0.2);
  for (double v = vth + 0.21; v <= 1.3; v += 0.01) {
    const double s = law.scale(v);
    EXPECT_LT(s, prev) << "alpha=" << alpha << " vth=" << vth << " v=" << v;
    EXPECT_GT(s, 0.0);
    prev = s;
  }
  EXPECT_LT(law.sensitivity_at_nominal(), 0.0);
}

INSTANTIATE_TEST_SUITE_P(
    LawGrid, AlphaLawSweep,
    ::testing::Combine(::testing::Values(1.1, 1.3, 1.6, 2.0),
                       ::testing::Values(0.2, 0.3, 0.4)));

// ------------------------------------------------------ PDN physics sweep

// No padding bytes: gtest prints an unprintable parameter as its raw bytes
// and ctest names each case from that dump, so padding left indeterminate
// by aggregate initialisation would give the cases a new name every run.
struct PdnCase {
  std::int64_t pitch;
  double gn;
  double gp;
  double boost;
};

class PdnSweep : public ::testing::TestWithParam<PdnCase> {};

TEST_P(PdnSweep, ReciprocitySuperpositionPositivity) {
  const auto c = GetParam();
  lp::PdnParams params;
  params.node_pitch = static_cast<int>(c.pitch);
  params.neighbor_conductance = c.gn;
  params.pad_conductance = c.gp;
  params.bottom_pad_boost = c.boost;
  const lp::PdnGrid grid(lf::Device::basys3(), params);

  const std::size_t a = grid.node_index(1, 1);
  const std::size_t b = grid.node_index(grid.nodes_x() - 2,
                                        grid.nodes_y() - 2);
  // Reciprocity.
  const auto ga = grid.transfer_gains(a);
  const auto gb = grid.transfer_gains(b);
  EXPECT_NEAR(ga[b], gb[a], 1e-9 * std::max(ga[b], 1e-12));
  // Positivity of the whole gain field.
  for (const double g : ga) EXPECT_GT(g, 0.0);
  // Superposition.
  const std::vector<lp::CurrentInjection> d1 = {{a, 1.0}};
  const std::vector<lp::CurrentInjection> d2 = {{b, 2.0}};
  std::vector<lp::CurrentInjection> both = d1;
  both.insert(both.end(), d2.begin(), d2.end());
  const auto v1 = grid.dc_droop(d1);
  const auto v2 = grid.dc_droop(d2);
  const auto v12 = grid.dc_droop(both);
  const std::size_t probe = grid.node_index(grid.nodes_x() / 2,
                                            grid.nodes_y() / 2);
  EXPECT_NEAR(v12[probe], v1[probe] + v2[probe], 1e-9);
}

INSTANTIATE_TEST_SUITE_P(
    GridConfigs, PdnSweep,
    ::testing::Values(PdnCase{4, 400.0, 40.0, 2.5},
                      PdnCase{4, 50.0, 120.0, 1.0},
                      PdnCase{6, 200.0, 80.0, 3.0},
                      PdnCase{3, 600.0, 20.0, 1.5},
                      PdnCase{5, 100.0, 60.0, 5.0}));

// ------------------------------------------- LeakyDSP configuration sweep

// The flag is a std::uint64_t, not a bool, for the same reason as PdnCase:
// a bool would leave seven padding bytes in the printed name.
struct LeakySweepCase {
  std::size_t n_dsp;
  double spread;
  double taper;
  std::uint64_t ultrascale;
};

class LeakySweep : public ::testing::TestWithParam<LeakySweepCase> {};

TEST_P(LeakySweep, CalibratesAndRespondsMonotonically) {
  const auto c = GetParam();
  const auto device =
      c.ultrascale ? lf::Device::axu3egb() : lf::Device::basys3();
  lcore::LeakyDspParams params;
  params.n_dsp = c.n_dsp;
  params.bit_spread_ns = c.spread;
  params.taper = c.taper;
  const lf::SiteCoord site = c.ultrascale ? lf::SiteCoord{14, 20}
                                          : lf::SiteCoord{16, 20};
  lcore::LeakyDspSensor sensor(device, site, params);
  lu::Rng rng(77);
  const auto cal = sensor.calibrate(1.0, rng, 256);
  ASSERT_TRUE(cal.success) << "n=" << c.n_dsp << " spread=" << c.spread;

  auto mean = [&](double v) {
    double sum = 0.0;
    for (int i = 0; i < 1500; ++i) sum += sensor.sample(v, rng);
    return sum / 1500.0;
  };
  double prev = mean(1.0);
  for (const double droop_mv : {4.0, 8.0, 12.0}) {
    const double cur = mean(1.0 - droop_mv * 1e-3);
    EXPECT_LT(cur, prev + 0.5)
        << "n=" << c.n_dsp << " spread=" << c.spread << " at " << droop_mv;
    prev = cur;
  }
}

INSTANTIATE_TEST_SUITE_P(
    SensorConfigs, LeakySweep,
    ::testing::Values(LeakySweepCase{1, 0.40, 1.55, false},
                      LeakySweepCase{2, 0.40, 1.55, false},
                      LeakySweepCase{3, 0.40, 1.55, false},
                      LeakySweepCase{3, 0.25, 1.0, false},
                      LeakySweepCase{3, 0.60, 0.5, false},
                      LeakySweepCase{4, 0.40, 1.55, true},
                      LeakySweepCase{3, 0.40, 1.55, true},
                      LeakySweepCase{6, 0.40, 0.0, false}));

// --------------------------------------------------------- AES key sweep

class AesKeySweep : public ::testing::TestWithParam<int> {};

TEST_P(AesKeySweep, RoundTripAndScheduleInversion) {
  lu::Rng rng(2000 + GetParam());
  for (int trial = 0; trial < 20; ++trial) {
    lc::Key key;
    lc::Block pt;
    for (auto& b : key) b = static_cast<std::uint8_t>(rng() & 0xff);
    for (auto& b : pt) b = static_cast<std::uint8_t>(rng() & 0xff);
    const lc::Aes128 aes(key);
    EXPECT_EQ(aes.decrypt(aes.encrypt(pt)), pt);
    EXPECT_EQ(lc::Aes128::invert_key_schedule(aes.round_keys()[10]), key);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, AesKeySweep, ::testing::Range(0, 6));

// ------------------------------------------------- histogram convolution

class HistogramProperty : public ::testing::TestWithParam<int> {};

TEST_P(HistogramProperty, ConvolutionCommutesAndPreservesMass) {
  lu::Rng rng(3000 + GetParam());
  ls::Histogram a(0.0, 8.0, 32);
  ls::Histogram b(0.0, 8.0, 32);
  for (int i = 0; i < 200; ++i) {
    a.add(rng.uniform(0.0, 8.0));
    b.add(rng.uniform(0.0, 8.0), rng.uniform(0.5, 2.0));
  }
  const auto ab = a.convolve(b);
  const auto ba = b.convolve(a);
  ASSERT_EQ(ab.bins(), ba.bins());
  for (std::size_t k = 0; k < ab.bins(); ++k) {
    EXPECT_NEAR(ab.count(k), ba.count(k), 1e-9);
  }
  EXPECT_NEAR(ab.total(), a.total() * b.total(), 1e-6 * ab.total());
}

INSTANTIATE_TEST_SUITE_P(Seeds, HistogramProperty, ::testing::Range(0, 5));

// ------------------------------------------------ CPA noise-level sweep

class CpaNoiseSweep : public ::testing::TestWithParam<double> {};

TEST_P(CpaNoiseSweep, RecoveryDegradesGracefully) {
  const double sigma = GetParam();
  lu::Rng rng(4000);
  lc::Key key;
  for (auto& b : key) b = static_cast<std::uint8_t>(rng() & 0xff);
  const lc::Aes128 aes(key);
  la::CpaAttack cpa(1);
  lc::Block pt{};
  for (int t = 0; t < 2500; ++t) {
    const auto trace = aes.encrypt_trace(pt);
    const double leak = -static_cast<double>(
        lv::block_hd(trace.states[9], trace.states[10]));
    cpa.add_trace(trace.ciphertext,
                  std::vector<double>{leak + rng.gaussian(0.0, sigma)});
    pt = trace.ciphertext;
  }
  const auto scores = cpa.snapshot_byte(0);
  if (sigma <= 8.0) {
    // Strong or moderate leakage: correct byte wins.
    EXPECT_EQ(scores.best_guess, aes.round_keys()[10][0]) << "sigma=" << sigma;
  } else if (sigma >= 200.0) {
    // Essentially pure noise: the best score is indistinguishable from the
    // field (no 1.3x dominance).
    EXPECT_LT(scores.best_score, scores.runner_up_score * 1.3);
  }
}

INSTANTIATE_TEST_SUITE_P(NoiseLevels, CpaNoiseSweep,
                         ::testing::Values(1.0, 4.0, 8.0, 300.0));

// ------------------------------------------------ TDC configuration sweep

class TdcSweep : public ::testing::TestWithParam<std::tuple<int, double>> {};

TEST_P(TdcSweep, CalibratesAndSensesDroops) {
  const auto [stages, init_delay] = GetParam();
  lsens::TdcParams params;
  params.stages = static_cast<std::size_t>(stages);
  params.init_delay_ns = init_delay;
  lsens::TdcSensor sensor(lf::Device::basys3(), {2, 10}, params);
  lu::Rng rng(88);
  const auto cal = sensor.calibrate(1.0, rng, 128);
  ASSERT_TRUE(cal.success);
  auto mean = [&](double v) {
    double sum = 0.0;
    for (int i = 0; i < 1500; ++i) sum += sensor.sample(v, rng);
    return sum / 1500.0;
  };
  EXPECT_LT(mean(1.0 - 8e-3), mean(1.0) - 0.5)
      << "stages=" << stages << " init=" << init_delay;
}

INSTANTIATE_TEST_SUITE_P(
    TdcConfigs, TdcSweep,
    ::testing::Combine(::testing::Values(64, 128, 256),
                       ::testing::Values(3.0, 5.9, 12.0)));

// ------------------------------------- coupling decays along mesh paths

TEST(CouplingProperty, GainBoundedBySelfGain) {
  // The transfer gain from any source to the sensor never exceeds the
  // sensor's self-gain (discrete maximum principle on the grounded mesh).
  const lp::PdnGrid grid(lf::Device::basys3());
  for (const auto site : {lf::SiteCoord{16, 20}, lf::SiteCoord{52, 8},
                          lf::SiteCoord{2, 58}}) {
    const lp::SensorCoupling coupling(grid, site);
    const double self = coupling.gain_at_node(coupling.sensor_node());
    for (std::size_t j = 0; j < grid.node_count(); ++j) {
      EXPECT_LE(coupling.gain_at_node(j), self + 1e-12) << "node " << j;
    }
  }
}
