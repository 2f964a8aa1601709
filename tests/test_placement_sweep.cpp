// Placement sweeps on generated dies: plan determinism, placement
// constraints (distinct clock regions, non-overlapping cascades), the
// byte-identity of service-drained cells vs standalone reruns (including
// the final CPA score vectors), worlds on the plan's shared die vs worlds
// built from scratch, and score fusion.
#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <memory>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "attack/campaign.h"
#include "core/leaky_dsp.h"
#include "crypto/aes128.h"
#include "fabric/device_spec.h"
#include "pdn/coupling.h"
#include "pdn/grid.h"
#include "scenario/placement_sweep.h"
#include "serve/campaign_service.h"
#include "sim/sensor_rig.h"
#include "util/contracts.h"
#include "util/rng.h"
#include "victim/aes_core.h"

namespace fb = leakydsp::fabric;
namespace lp = leakydsp::pdn;
namespace sc = leakydsp::scenario;

namespace {

fb::DeviceSpec test_spec(int dim = 72) {
  fb::DeviceSpec spec;
  spec.name = "SweepTest " + std::to_string(dim);
  spec.arch = fb::Architecture::kUltraScalePlus;
  spec.width = dim;
  spec.height = dim;
  spec.region_cols = 2;
  spec.region_rows = 3;
  spec.columns.push_back({fb::SiteType::kDsp, 10, 16});
  spec.columns.push_back({fb::SiteType::kBram, 6, 16});
  return spec;
}

sc::SweepConfig small_config(int k = 1) {
  sc::SweepConfig config;
  config.spec = test_spec();
  config.seed = 99;
  config.victim_rows = 2;
  config.distance_cols = 2;
  config.sensors_per_cell = k;
  config.campaign.max_traces = 64;
  config.campaign.block_traces = 32;
  config.campaign.break_check_stride = 32;
  config.campaign.rank_stride = 64;
  config.campaign.stop_when_broken = false;
  return config;
}

std::string fresh_dir(const std::string& name) {
  const std::string dir =
      (std::filesystem::temp_directory_path() / name).string();
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir;
}

void expect_identical(const leakydsp::attack::CampaignResult& a,
                      const leakydsp::attack::CampaignResult& b) {
  EXPECT_EQ(a.traces_run, b.traces_run);
  EXPECT_EQ(a.broken, b.broken);
  EXPECT_EQ(a.traces_to_break, b.traces_to_break);
  EXPECT_EQ(a.mean_poi_readout, b.mean_poi_readout);  // exact, no tolerance
  ASSERT_EQ(a.final_scores.size(), b.final_scores.size());
  for (std::size_t i = 0; i < a.final_scores.size(); ++i) {
    ASSERT_EQ(a.final_scores[i], b.final_scores[i]) << "score index " << i;
  }
}

/// The cell-sensor campaign of `spec` on a die, mesh and gains of its own,
/// built with the public constructors in the sweep world's rng order.
leakydsp::attack::CampaignResult run_on_fresh_die(const sc::CellWorldSpec& spec) {
  const fb::Device device = fb::generate_device(spec.device_spec);
  const lp::PdnGrid grid(device,
                         lp::params_from_pad_spec(spec.device_spec.pads));
  leakydsp::util::Rng rng(spec.cell_seed);
  leakydsp::crypto::Key key;
  for (auto& b : key) b = static_cast<std::uint8_t>(rng() & 0xff);
  rng = rng.fork(static_cast<std::uint64_t>(spec.sensor_index));

  leakydsp::victim::AesCoreParams aes_params;
  aes_params.clock_mhz = spec.campaign.victim_clock_mhz;
  aes_params.current_per_hd_bit = spec.campaign.current_per_hd_bit;
  leakydsp::victim::AesCoreModel aes(key, spec.victim_site, grid, aes_params);
  leakydsp::core::LeakyDspParams sensor_params;
  sensor_params.n_dsp = spec.cascade_dsps;
  leakydsp::core::LeakyDspSensor sensor(device, spec.sensor_site,
                                        sensor_params);
  leakydsp::sim::SensorRig rig(grid, sensor);
  rig.calibrate(rng);

  leakydsp::attack::CampaignConfig config;
  config.max_traces = spec.campaign.max_traces;
  config.break_check_stride = spec.campaign.break_check_stride;
  config.rank_stride = spec.campaign.rank_stride;
  config.block_traces = spec.campaign.block_traces;
  config.threads = spec.threads;
  config.campaign_id = spec.campaign_id;
  config.keep_final_scores = true;
  leakydsp::attack::TraceCampaign campaign(rig, aes, config);
  return campaign.run(rng, spec.campaign.stop_when_broken);
}

}  // namespace

TEST(PlacementSweep, PlanIsDeterministic) {
  const sc::SweepConfig config = small_config();
  const sc::SweepPlan a = sc::plan_sweep(config);
  const sc::SweepPlan b = sc::plan_sweep(config);
  ASSERT_EQ(a.cells.size(), 4u);
  ASSERT_EQ(a.cells.size(), b.cells.size());
  for (std::size_t i = 0; i < a.cells.size(); ++i) {
    EXPECT_EQ(a.cells[i].victim_site, b.cells[i].victim_site);
    EXPECT_EQ(a.cells[i].sensor_sites, b.cells[i].sensor_sites);
    EXPECT_EQ(a.cells[i].cell_seed, b.cells[i].cell_seed);
    EXPECT_EQ(a.cells[i].distances, b.cells[i].distances);
  }
}

TEST(PlacementSweep, PlanRespectsPlacementConstraints) {
  const sc::SweepConfig config = small_config(/*k=*/3);
  const sc::SweepPlan plan = sc::plan_sweep(config);
  const fb::Device& device = *plan.device;
  for (const sc::SweepCell& cell : plan.cells) {
    // Victim on a CLB site inside its own pblock.
    EXPECT_EQ(device.site_type(cell.victim_site), fb::SiteType::kClb);
    EXPECT_TRUE(cell.victim_pblock.range.contains(cell.victim_site));
    // K sensors in K distinct clock regions, cascades on DSP sites
    // outside the victim pblock.
    ASSERT_EQ(cell.sensor_sites.size(), 3u);
    std::set<int> regions(cell.sensor_regions.begin(),
                          cell.sensor_regions.end());
    EXPECT_EQ(regions.size(), 3u);
    for (const fb::SiteCoord base : cell.sensor_sites) {
      for (int dy = 0; dy < static_cast<int>(config.cascade_dsps); ++dy) {
        const fb::SiteCoord site{base.x, base.y + dy};
        EXPECT_EQ(device.site_type(site), fb::SiteType::kDsp);
        EXPECT_FALSE(cell.victim_pblock.range.contains(site));
      }
    }
  }
}

TEST(PlacementSweep, CampaignIdsAreUnique) {
  const sc::SweepPlan plan = sc::plan_sweep(small_config(/*k=*/2));
  std::set<std::string> ids;
  for (const sc::SweepCell& cell : plan.cells) {
    for (const std::string& id : cell.campaign_ids) {
      EXPECT_TRUE(ids.insert(id).second) << "duplicate id " << id;
    }
  }
  EXPECT_EQ(ids.size(), plan.cells.size() * 2);
}

TEST(PlacementSweep, TooManySensorsForRegionsThrows) {
  sc::SweepConfig config = small_config();
  config.sensors_per_cell = 7;  // die has 2x3 = 6 clock regions
  EXPECT_THROW(sc::plan_sweep(config), leakydsp::util::PreconditionError);
}

TEST(PlacementSweep, ServiceMatchesStandaloneByteForByte) {
  const std::string ckpt = fresh_dir("leakydsp_sweep_identity");
  sc::SweepConfig config = small_config();
  config.checkpoint_dir = ckpt;

  leakydsp::serve::ServiceConfig service;
  service.threads = 1;
  service.max_resident = 2;  // forces evictions across the 4 cells
  service.quantum_steps = 1;
  service.checkpoint_dir = ckpt;

  const sc::SweepOutcome outcome = sc::run_sweep(config, service);
  ASSERT_EQ(outcome.cells.size(), 4u);
  for (std::size_t i = 0; i < outcome.cells.size(); ++i) {
    SCOPED_TRACE("cell " + std::to_string(i));
    const sc::CellWorldSpec spec =
        sc::cell_world_spec(config, outcome.plan, i, 0);
    const auto standalone = sc::run_sweep_campaign(spec, /*threads=*/1);
    expect_identical(outcome.cells[i].per_sensor[0], standalone);
  }
  std::filesystem::remove_all(ckpt);
}

TEST(PlacementSweep, FinalScoresShapeAndFusion) {
  const std::string ckpt = fresh_dir("leakydsp_sweep_fusion");
  sc::SweepConfig config = small_config(/*k=*/2);
  config.victim_rows = 1;
  config.distance_cols = 1;
  config.checkpoint_dir = ckpt;

  leakydsp::serve::ServiceConfig service;
  service.threads = 1;
  service.max_resident = 2;
  service.quantum_steps = 2;
  service.checkpoint_dir = ckpt;

  const sc::SweepOutcome outcome = sc::run_sweep(config, service);
  ASSERT_EQ(outcome.cells.size(), 1u);
  const sc::CellOutcome& cell = outcome.cells[0];
  ASSERT_EQ(cell.per_sensor.size(), 2u);
  for (const auto& result : cell.per_sensor) {
    EXPECT_EQ(result.final_scores.size(), 16u * 256u);
  }

  // Fusing the same results again reproduces the outcome; fused argmax
  // must equal the argmax of the summed vectors by construction.
  const std::uint64_t seed = outcome.plan.cells[0].cell_seed;
  const sc::CellOutcome refused = sc::fuse_cell(0, seed, cell.per_sensor);
  EXPECT_EQ(refused.fused_round10, cell.fused_round10);
  EXPECT_EQ(refused.fused_correct_bytes, cell.fused_correct_bytes);
  EXPECT_EQ(refused.fused_true_margin, cell.fused_true_margin);
  for (std::size_t b = 0; b < 16; ++b) {
    double best = -1e300;
    std::size_t best_g = 0;
    for (std::size_t g = 0; g < 256; ++g) {
      const double sum = cell.per_sensor[0].final_scores[b * 256 + g] +
                         cell.per_sensor[1].final_scores[b * 256 + g];
      if (sum > best) {
        best = sum;
        best_g = g;
      }
    }
    EXPECT_EQ(cell.fused_round10[b], static_cast<std::uint8_t>(best_g));
  }

  // A missing score vector is a contract violation, not a zero score.
  auto broken = cell.per_sensor;
  broken[1].final_scores.clear();
  EXPECT_THROW(sc::fuse_cell(0, seed, broken),
               leakydsp::util::PreconditionError);
  std::filesystem::remove_all(ckpt);
}

TEST(PlacementSweep, FinalScoresOptInOnly) {
  // Campaigns that do not opt in keep the result lean — the field must
  // stay empty so checkpoint payloads and bulk sweeps don't bloat.
  leakydsp::attack::CampaignConfig config;
  EXPECT_FALSE(config.keep_final_scores);
}

TEST(PlacementSweep, CellWorldSpecMatchesPlan) {
  const sc::SweepConfig config = small_config(/*k=*/2);
  const sc::SweepPlan plan = sc::plan_sweep(config);
  const sc::CellWorldSpec spec = sc::cell_world_spec(config, plan, 1, 1);
  EXPECT_EQ(spec.victim_site, plan.cells[1].victim_site);
  EXPECT_EQ(spec.sensor_site, plan.cells[1].sensor_sites[1]);
  EXPECT_EQ(spec.cell_seed, plan.cells[1].cell_seed);
  EXPECT_EQ(spec.sensor_index, 1);
  EXPECT_EQ(spec.campaign_id, plan.cells[1].campaign_ids[1]);
  EXPECT_TRUE(fb::parse_device_spec(fb::spec_to_json(spec.device_spec)) ==
              spec.device_spec);
  // The world borrows the plan's own die and mesh, and the gains the plan
  // solved for the sensor's node.
  EXPECT_EQ(spec.device.get(), plan.device.get());
  EXPECT_EQ(spec.grid.get(), plan.grid.get());
  ASSERT_NE(spec.gains, nullptr);
  EXPECT_EQ(*spec.gains,
            plan.grid->transfer_gains(plan.grid->node_of_site(spec.sensor_site)));
}

TEST(PlacementSweep, SharedDieMatchesFreshBuild) {
  const sc::SweepConfig config = small_config(/*k=*/2);
  const sc::SweepPlan plan = sc::plan_sweep(config);
  for (std::size_t i = 0; i < plan.cells.size(); ++i) {
    for (int k = 0; k < 2; ++k) {
      SCOPED_TRACE("cell " + std::to_string(i) + " sensor " +
                   std::to_string(k));
      const sc::CellWorldSpec spec = sc::cell_world_spec(config, plan, i, k);
      auto world = sc::make_sweep_world(spec);
      const auto shared = world->campaign().run(
          world->rng(), spec.campaign.stop_when_broken);
      expect_identical(shared, run_on_fresh_die(spec));
    }
  }
}

TEST(PlacementSweep, ConcurrentDrainOnSharedDieMatchesFreshBuild) {
  // Four workers build and run worlds on one Device, PdnGrid and set of
  // gain vectors at once (the TSan leg runs this), with evictions.
  const std::string ckpt = fresh_dir("leakydsp_sweep_concurrent");
  sc::SweepConfig config = small_config(/*k=*/2);
  config.checkpoint_dir = ckpt;

  leakydsp::serve::ServiceConfig service;
  service.threads = 4;
  service.max_resident = 3;
  service.quantum_steps = 1;
  service.checkpoint_dir = ckpt;

  const sc::SweepOutcome outcome = sc::run_sweep(config, service);
  ASSERT_EQ(outcome.cells.size(), 4u);
  for (std::size_t i = 0; i < outcome.cells.size(); ++i) {
    for (int k = 0; k < 2; ++k) {
      SCOPED_TRACE("cell " + std::to_string(i) + " sensor " +
                   std::to_string(k));
      expect_identical(
          outcome.cells[i].per_sensor[static_cast<std::size_t>(k)],
          run_on_fresh_die(sc::cell_world_spec(config, outcome.plan, i, k)));
    }
  }
  std::filesystem::remove_all(ckpt);
}

TEST(PlacementSweep, CouplingRejectsWrongSizeGains) {
  const sc::SweepPlan plan = sc::plan_sweep(small_config());
  const fb::SiteCoord site = plan.cells[0].sensor_sites[0];
  const auto short_gains = std::make_shared<const std::vector<double>>(
      plan.grid->node_count() - 1, 0.0);
  EXPECT_THROW(lp::SensorCoupling(*plan.grid, site, short_gains),
               leakydsp::util::PreconditionError);
  EXPECT_THROW(lp::SensorCoupling(*plan.grid, site, nullptr),
               leakydsp::util::PreconditionError);
}

TEST(PlacementSweep, WorldSpecWithoutDieRejected) {
  const sc::SweepConfig config = small_config();
  const sc::SweepPlan plan = sc::plan_sweep(config);
  sc::CellWorldSpec spec = sc::cell_world_spec(config, plan, 0, 0);
  spec.device.reset();
  EXPECT_THROW(sc::make_sweep_world(spec), leakydsp::util::PreconditionError);

  // A die that is not the one device_spec describes is rejected too.
  spec = sc::cell_world_spec(config, plan, 0, 0);
  spec.device_spec.width += 16;
  EXPECT_THROW(sc::make_sweep_world(spec), leakydsp::util::PreconditionError);

  // with_generated_die gives a plan-less spec its own die, mesh and gains.
  sc::CellWorldSpec planless = sc::cell_world_spec(config, plan, 0, 0);
  planless.device.reset();
  planless.grid.reset();
  planless.gains.reset();
  planless = sc::with_generated_die(std::move(planless));
  EXPECT_NE(planless.device.get(), plan.device.get());
  EXPECT_EQ(planless.grid->node_count(), plan.grid->node_count());
  EXPECT_EQ(*planless.gains, *sc::cell_world_spec(config, plan, 0, 0).gains);
}
