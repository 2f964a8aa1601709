// Tests for the fabric substrate: device geometry, Pblock validation,
// primitive configs, netlist graph algorithms and the bitstream checker.
#include <gtest/gtest.h>

#include "fabric/bitstream_checker.h"
#include "fabric/device.h"
#include "fabric/geometry.h"
#include "fabric/netlist.h"
#include "fabric/netlist_builders.h"
#include "fabric/pblock.h"
#include "fabric/primitives.h"
#include "util/contracts.h"

namespace lf = leakydsp::fabric;
namespace lu = leakydsp::util;

// ---------------------------------------------------------------- geometry

TEST(Geometry, RectBasics) {
  const lf::Rect r{2, 3, 5, 7};
  EXPECT_TRUE(r.valid());
  EXPECT_EQ(r.width(), 4);
  EXPECT_EQ(r.height(), 5);
  EXPECT_EQ(r.area(), 20u);
  EXPECT_TRUE(r.contains({2, 3}));
  EXPECT_TRUE(r.contains({5, 7}));
  EXPECT_FALSE(r.contains({6, 7}));
}

TEST(Geometry, RectOverlap) {
  const lf::Rect a{0, 0, 4, 4};
  const lf::Rect b{4, 4, 8, 8};
  const lf::Rect c{5, 5, 8, 8};
  EXPECT_TRUE(a.overlaps(b));  // inclusive ranges share (4,4)
  EXPECT_FALSE(a.overlaps(c));
}

TEST(Geometry, Distance) {
  EXPECT_DOUBLE_EQ(lf::distance({0, 0}, {3, 4}), 5.0);
  EXPECT_DOUBLE_EQ(lf::distance({2, 2}, {2, 2}), 0.0);
}

// ------------------------------------------------------------------ device

TEST(Device, Basys3Shape) {
  const auto dev = lf::Device::basys3();
  EXPECT_EQ(dev.architecture(), lf::Architecture::kSeries7);
  EXPECT_EQ(dev.width(), 60);
  EXPECT_EQ(dev.height(), 60);
  EXPECT_EQ(dev.clock_regions().size(), 6u);
}

TEST(Device, ClockRegionNumberingMatchesFig4) {
  // 1-based, left-to-right then bottom-to-top: regions 1,2 at the bottom,
  // 5,6 at the top (the far placements in Fig. 4).
  const auto dev = lf::Device::basys3();
  EXPECT_EQ(dev.clock_region(1).bounds.y0, 0);
  EXPECT_EQ(dev.clock_region(2).bounds.y0, 0);
  EXPECT_LT(dev.clock_region(1).bounds.x0, dev.clock_region(2).bounds.x0);
  EXPECT_EQ(dev.clock_region(5).bounds.y1, dev.height() - 1);
  EXPECT_EQ(dev.clock_region(6).bounds.y1, dev.height() - 1);
  EXPECT_THROW(dev.clock_region(0), lu::PreconditionError);
  EXPECT_THROW(dev.clock_region(7), lu::PreconditionError);
}

TEST(Device, ClockRegionsTileTheDie) {
  const auto dev = lf::Device::basys3();
  std::size_t area = 0;
  for (const auto& r : dev.clock_regions()) area += r.bounds.area();
  EXPECT_EQ(area, dev.die().area());
  for (std::size_t i = 0; i < 6; ++i) {
    for (std::size_t j = i + 1; j < 6; ++j) {
      EXPECT_FALSE(dev.clock_regions()[i].bounds.overlaps(
          dev.clock_regions()[j].bounds));
    }
  }
}

TEST(Device, SiteTypesColumnStriped) {
  const auto dev = lf::Device::basys3();
  EXPECT_EQ(dev.site_type({0, 10}), lf::SiteType::kIo);
  EXPECT_EQ(dev.site_type({59, 10}), lf::SiteType::kIo);
  EXPECT_EQ(dev.site_type({16, 10}), lf::SiteType::kDsp);
  EXPECT_EQ(dev.site_type({8, 10}), lf::SiteType::kBram);
  EXPECT_EQ(dev.site_type({2, 10}), lf::SiteType::kClb);
  EXPECT_THROW(dev.site_type({60, 0}), lu::PreconditionError);
}

TEST(Device, DspSitesAvailableInEveryClockRegion) {
  // The multi-tenant model partitions DSP columns across regions; every
  // region must be able to host a LeakyDSP instance (3 DSP sites).
  for (const auto& dev : {lf::Device::basys3(), lf::Device::axu3egb()}) {
    for (const auto& region : dev.clock_regions()) {
      const auto dsps = dev.sites_of_type(lf::SiteType::kDsp, region.bounds);
      EXPECT_GE(dsps.size(), 3u) << dev.name() << " region " << region.index;
    }
  }
}

TEST(Device, TotalSitesConsistent) {
  const auto dev = lf::Device::basys3();
  const auto total = dev.total_sites(lf::SiteType::kClb) +
                     dev.total_sites(lf::SiteType::kDsp) +
                     dev.total_sites(lf::SiteType::kBram) +
                     dev.total_sites(lf::SiteType::kIo);
  EXPECT_EQ(total, dev.die().area());
}

TEST(Device, Axu3egbIsUltraScale) {
  const auto dev = lf::Device::axu3egb();
  EXPECT_EQ(dev.architecture(), lf::Architecture::kUltraScalePlus);
  EXPECT_GT(dev.die().area(), lf::Device::basys3().die().area());
}

// ------------------------------------------------------------------ pblock

TEST(Pblock, ValidFloorplanAccepted) {
  const auto dev = lf::Device::basys3();
  EXPECT_NO_THROW(lf::validate_floorplan(
      dev, {{"tenantA", {0, 0, 29, 19}}, {"tenantB", {30, 0, 59, 19}}}));
}

TEST(Pblock, OverlapRejected) {
  const auto dev = lf::Device::basys3();
  EXPECT_THROW(lf::validate_floorplan(
                   dev, {{"a", {0, 0, 30, 19}}, {"b", {30, 0, 59, 19}}}),
               lu::PreconditionError);
}

TEST(Pblock, OutsideDieRejected) {
  const auto dev = lf::Device::basys3();
  EXPECT_THROW(lf::validate_floorplan(dev, {{"a", {0, 0, 60, 19}}}),
               lu::PreconditionError);
}

TEST(Pblock, CapacityCountsSites) {
  const auto dev = lf::Device::basys3();
  const lf::Pblock pb{"p", {10, 0, 20, 9}};
  EXPECT_EQ(lf::capacity(dev, pb, lf::SiteType::kDsp), 10u);  // column x=16
}

// -------------------------------------------------------------- primitives

TEST(Primitives, Dsp48WidthsPerArchitecture) {
  const auto e1 = lf::dsp48_widths(lf::Architecture::kSeries7);
  EXPECT_EQ(e1.a_mult_bits, 25);
  EXPECT_EQ(e1.p_bits, 48);
  const auto e2 = lf::dsp48_widths(lf::Architecture::kUltraScalePlus);
  EXPECT_EQ(e2.a_mult_bits, 27);
  EXPECT_EQ(e2.b_bits, 18);
}

TEST(Primitives, LeakyIdentityConfig) {
  const auto first = lf::Dsp48Config::leaky_identity(
      lf::Architecture::kSeries7, /*first=*/true, /*last=*/false);
  EXPECT_TRUE(first.fully_combinational());
  EXPECT_EQ(first.preg, 0);
  EXPECT_FALSE(first.cascade_in);
  EXPECT_TRUE(first.cascade_out);
  EXPECT_EQ(first.static_b, 1);
  EXPECT_EQ(first.static_d, 0);
  EXPECT_EQ(first.static_c, 0);

  const auto last = lf::Dsp48Config::leaky_identity(
      lf::Architecture::kSeries7, /*first=*/false, /*last=*/true);
  EXPECT_TRUE(last.fully_combinational());
  EXPECT_EQ(last.preg, 1);
  EXPECT_TRUE(last.cascade_in);
}

TEST(Primitives, PipelinedMaccIsNotAsync) {
  const auto benign = lf::Dsp48Config::pipelined_macc(
      lf::Architecture::kSeries7);
  EXPECT_FALSE(benign.fully_combinational());
}

TEST(Primitives, Dsp48ConfigValidation) {
  auto cfg = lf::Dsp48Config::pipelined_macc(lf::Architecture::kSeries7);
  cfg.areg = 3;
  EXPECT_THROW(cfg.validate(), lu::PreconditionError);
  cfg.areg = 1;
  cfg.static_b = 1 << 20;  // exceeds 18-bit port
  EXPECT_THROW(cfg.validate(), lu::PreconditionError);
}

TEST(Primitives, IDelayRangeCoversHalfSensorClockPeriod) {
  // Calibration needs up to T/2 = 1.667 ns at the 300 MHz sensor clock.
  for (const auto arch : {lf::Architecture::kSeries7,
                          lf::Architecture::kUltraScalePlus}) {
    const auto taps = lf::idelay_taps(arch);
    const double full_range_ns = (taps.tap_count - 1) * taps.tap_ps * 1e-3;
    EXPECT_GT(full_range_ns, 1.667) << lf::to_string(arch);
  }
}

TEST(Primitives, IDelayValidationAndDelay) {
  lf::IDelayConfig cfg{lf::Architecture::kSeries7, 10};
  EXPECT_NEAR(cfg.delay_ns(), 0.78, 1e-9);
  cfg.taps = 32;
  EXPECT_THROW(cfg.validate(), lu::PreconditionError);
  cfg.taps = -1;
  EXPECT_THROW(cfg.validate(), lu::PreconditionError);
}

TEST(Primitives, LutInverterDetection) {
  const lf::LutConfig inverter{1, 0x1};
  EXPECT_TRUE(inverter.is_inverter());
  const lf::LutConfig buffer{1, 0x2};
  EXPECT_FALSE(buffer.is_inverter());
  lf::LutConfig bad{7, 0};
  EXPECT_THROW(bad.validate(), lu::PreconditionError);
}

// ----------------------------------------------------------------- netlist

TEST(Netlist, AddAndConnect) {
  lf::Netlist nl;
  const auto a = nl.add_cell(lf::CellType::kLut, "a",
                             lf::LutConfig{1, 0x2});
  const auto b = nl.add_cell(lf::CellType::kFf, "b", lf::FfConfig{});
  nl.connect(a, b);
  EXPECT_EQ(nl.cell_count(), 2u);
  EXPECT_EQ(nl.fanout(a).size(), 1u);
  EXPECT_EQ(nl.fanin(b).size(), 1u);
  EXPECT_THROW(nl.connect(a, 99), lu::PreconditionError);
}

TEST(Netlist, ConfigTypeMismatchRejected) {
  lf::Netlist nl;
  EXPECT_THROW(nl.add_cell(lf::CellType::kFf, "x", lf::LutConfig{1, 0x2}),
               lu::PreconditionError);
}

TEST(Netlist, FfBreaksCombinationalLoop) {
  lf::Netlist nl;
  const auto lut = nl.add_cell(lf::CellType::kLut, "l", lf::LutConfig{1, 0x1});
  const auto ff = nl.add_cell(lf::CellType::kFf, "f", lf::FfConfig{});
  nl.connect(lut, ff);
  nl.connect(ff, lut);  // loop through a register: legal
  EXPECT_TRUE(nl.find_combinational_loop().empty());
}

TEST(Netlist, LatchDoesNotBreakLoop) {
  lf::Netlist nl;
  const auto lut = nl.add_cell(lf::CellType::kLut, "l", lf::LutConfig{1, 0x1});
  const auto latch = nl.add_cell(lf::CellType::kFf, "lat",
                                 lf::FfConfig{/*is_latch=*/true});
  nl.connect(lut, latch);
  nl.connect(latch, lut);
  EXPECT_FALSE(nl.find_combinational_loop().empty());
}

TEST(Netlist, SelfLoopDetected) {
  lf::Netlist nl;
  const auto inv = nl.add_cell(lf::CellType::kLut, "inv",
                               lf::LutConfig{1, 0x1});
  nl.connect(inv, inv);
  const auto loop = nl.find_combinational_loop();
  ASSERT_EQ(loop.size(), 1u);
  EXPECT_EQ(loop[0], inv);
}

TEST(Netlist, VerticalCarryChainMeasured) {
  const auto nl = lf::build_tdc_netlist(32, /*column=*/5, /*first_row=*/0);
  const auto chain = nl.longest_vertical_carry_chain();
  EXPECT_EQ(chain.size(), 32u);
}

TEST(Netlist, BrokenVerticalPlacementShortensChain) {
  // Two 4-cell runs with a gap are not a continuous vertical area.
  lf::Netlist nl;
  lf::CellId prev = nl.add_cell(lf::CellType::kPort, "in");
  for (int i = 0; i < 8; ++i) {
    const int row = i < 4 ? i : i + 3;  // gap after the 4th cell
    const auto c = nl.add_cell(lf::CellType::kCarry4, std::string("c").append(std::to_string(i)),
                               lf::Carry4Config{4}, lf::SiteCoord{3, row});
    nl.connect(prev, c);
    prev = c;
  }
  EXPECT_EQ(nl.longest_vertical_carry_chain().size(), 4u);
}

TEST(Netlist, WorstPathAccumulatesDelay) {
  lf::Netlist nl;
  lf::CellId prev = nl.add_cell(lf::CellType::kPort, "in");
  for (int i = 0; i < 3; ++i) {
    const auto dsp = nl.add_cell(
        lf::CellType::kDsp48, std::string("d").append(std::to_string(i)),
        lf::Dsp48Config::leaky_identity(lf::Architecture::kSeries7, i == 0,
                                        i == 2));
    nl.connect(prev, dsp);
    prev = dsp;
  }
  // Three async DSP blocks at 3.5 ns each dominate the path.
  EXPECT_NEAR(nl.worst_combinational_path_ns(), 3 * 3.5, 1.0);
}

// -------------------------------------------------------- bitstream checks

TEST(BitstreamChecker, RoDesignTripsLoopCheck) {
  const auto design = lf::build_ro_netlist(4);
  const auto report =
      lf::audit_bitstream(design, lf::CheckPolicy::deployed());
  EXPECT_FALSE(report.accepted());
  EXPECT_TRUE(report.has_rule("comb-loop"));
}

TEST(BitstreamChecker, TdcDesignTripsCarryChainCheck) {
  const auto design = lf::build_tdc_netlist(32, 5, 0);
  const auto report =
      lf::audit_bitstream(design, lf::CheckPolicy::deployed());
  EXPECT_FALSE(report.accepted());
  EXPECT_TRUE(report.has_rule("carry-chain"));
  EXPECT_FALSE(report.has_rule("comb-loop"));
}

TEST(BitstreamChecker, LeakyDspPassesDeployedChecks) {
  // The paper's core security argument: LeakyDSP uses no traditional logic
  // resources, so every deployed bitstream check accepts it.
  const auto design =
      lf::build_leakydsp_netlist(lf::Architecture::kSeries7, 3);
  const auto report =
      lf::audit_bitstream(design, lf::CheckPolicy::deployed());
  EXPECT_TRUE(report.accepted());
}

TEST(BitstreamChecker, ProposedDspRuleCatchesLeakyDsp) {
  const auto design =
      lf::build_leakydsp_netlist(lf::Architecture::kSeries7, 3);
  const auto report =
      lf::audit_bitstream(design, lf::CheckPolicy::with_dsp_rule());
  EXPECT_FALSE(report.accepted());
  EXPECT_TRUE(report.has_rule("async-dsp"));
}

TEST(BitstreamChecker, ProposedDspRuleAcceptsBenignMacc) {
  lf::Netlist nl;
  const auto in = nl.add_cell(lf::CellType::kPort, "in");
  const auto dsp = nl.add_cell(
      lf::CellType::kDsp48, "macc",
      lf::Dsp48Config::pipelined_macc(lf::Architecture::kSeries7));
  nl.connect(in, dsp);
  const auto report =
      lf::audit_bitstream(nl, lf::CheckPolicy::with_dsp_rule());
  EXPECT_TRUE(report.accepted());
}

TEST(BitstreamChecker, TimingRuleFlagsLeakyDspButIsBypassable) {
  const auto design =
      lf::build_leakydsp_netlist(lf::Architecture::kSeries7, 3);
  // Declaring the true 300 MHz clock trips the timing rule...
  lf::CheckPolicy strict = lf::CheckPolicy::deployed();
  strict.declared_clock_period_ns = 3.333;
  EXPECT_TRUE(audit_bitstream(design, strict).has_rule("timing"));
  // ...but declaring a slow clock (the paper's programmable-clock bypass)
  // sails through.
  lf::CheckPolicy bypassed = lf::CheckPolicy::deployed();
  bypassed.declared_clock_period_ns = 100.0;
  EXPECT_TRUE(audit_bitstream(design, bypassed).accepted());
}

TEST(BitstreamChecker, LatchRule) {
  lf::Netlist nl;
  nl.add_cell(lf::CellType::kFf, "lat", lf::FfConfig{/*is_latch=*/true});
  const auto report = lf::audit_bitstream(nl, lf::CheckPolicy::deployed());
  EXPECT_TRUE(report.has_rule("latch"));
}

TEST(BitstreamChecker, LeakyDspScalesWithBlockCount) {
  for (const std::size_t n : {1u, 2u, 3u, 6u}) {
    const auto design =
        lf::build_leakydsp_netlist(lf::Architecture::kUltraScalePlus, n);
    EXPECT_TRUE(
        lf::audit_bitstream(design, lf::CheckPolicy::deployed()).accepted())
        << "n=" << n;
  }
}
