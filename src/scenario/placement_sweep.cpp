#include "scenario/placement_sweep.h"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <limits>
#include <map>
#include <set>
#include <string>
#include <tuple>
#include <utility>

#include "core/leaky_dsp.h"
#include "sim/sensor_rig.h"
#include "util/contracts.h"
#include "util/rng.h"
#include "victim/aes_core.h"

namespace leakydsp::scenario {

namespace {

constexpr std::size_t kScoreVectorSize = 16 * 256;

/// 1-based index of the clock region containing `site`.
int region_of(const fabric::Device& device, fabric::SiteCoord site) {
  for (const auto& region : device.clock_regions()) {
    if (region.bounds.contains(site)) return region.index;
  }
  LD_REQUIRE(false, "site (" << site.x << "," << site.y
                             << ") in no clock region of " << device.name());
  return 0;  // unreachable
}

/// The cascade footprint of a sensor based at `site`.
fabric::Rect cascade_rect(fabric::SiteCoord site, std::size_t cascade) {
  return fabric::Rect{site.x, site.y, site.x,
                      site.y + static_cast<int>(cascade) - 1};
}

/// The CLB site nearest `target` on a column-striped die: walk columns
/// outward from target.x (preferring the left column on ties) until one
/// is a CLB column.
fabric::SiteCoord nearest_clb(const fabric::Device& device,
                              fabric::SiteCoord target) {
  for (int dx = 0; dx < device.width(); ++dx) {
    for (const int x : {target.x - dx, target.x + dx}) {
      if (x < 0 || x >= device.width()) continue;
      const fabric::SiteCoord p{x, target.y};
      if (device.site_type(p) == fabric::SiteType::kClb) return p;
    }
  }
  LD_REQUIRE(false, "no CLB column on " << device.name());
  return {};  // unreachable
}

crypto::Key cell_key(std::uint64_t cell_seed) {
  util::Rng rng(cell_seed);
  crypto::Key key;
  for (auto& b : key) b = static_cast<std::uint8_t>(rng() & 0xff);
  return key;
}

/// The die `spec` describes and its PDN mesh.
std::pair<std::shared_ptr<const fabric::Device>,
          std::shared_ptr<const pdn::PdnGrid>>
generate_die(const fabric::DeviceSpec& spec) {
  auto device =
      std::make_shared<const fabric::Device>(fabric::generate_device(spec));
  auto grid = std::make_shared<const pdn::PdnGrid>(
      *device, pdn::params_from_pad_spec(spec.pads));
  return {std::move(device), std::move(grid)};
}

/// The sweep world, built in the standalone-run order (mirrors
/// serve::StandardWorld) on the spec's shared die: seed the cell RNG, draw
/// the shared key, fork the per-sensor stream, build victim + sensor + rig,
/// calibrate.
class SweepWorld final : public serve::CampaignWorld {
 public:
  explicit SweepWorld(const CellWorldSpec& spec)
      : rng_(spec.cell_seed), device_(spec.device), grid_(spec.grid) {
    const crypto::Key key = [&] {
      crypto::Key k;
      for (auto& b : k) b = static_cast<std::uint8_t>(rng_() & 0xff);
      return k;
    }();
    // Distinct plaintext/noise streams per cooperating sensor, forked
    // off the shared post-key state so K campaigns stay independent.
    rng_ = rng_.fork(static_cast<std::uint64_t>(spec.sensor_index));

    victim::AesCoreParams aes_params;
    aes_params.clock_mhz = spec.campaign.victim_clock_mhz;
    aes_params.current_per_hd_bit = spec.campaign.current_per_hd_bit;
    aes_ = std::make_unique<victim::AesCoreModel>(key, spec.victim_site,
                                                  *grid_, aes_params);
    core::LeakyDspParams sensor_params;
    sensor_params.n_dsp = spec.cascade_dsps;
    sensor_ = std::make_unique<core::LeakyDspSensor>(
        *device_, spec.sensor_site, sensor_params);
    rig_ = std::make_unique<sim::SensorRig>(*grid_, *sensor_, spec.gains);
    rig_->calibrate(rng_);

    attack::CampaignConfig config;
    config.max_traces = spec.campaign.max_traces;
    config.break_check_stride = spec.campaign.break_check_stride;
    config.rank_stride = spec.campaign.rank_stride;
    config.block_traces = spec.campaign.block_traces;
    config.threads = spec.threads;
    config.checkpoint_dir = spec.checkpoint_dir;
    config.campaign_id = spec.campaign_id;
    config.keep_final_scores = true;
    campaign_ = std::make_unique<attack::TraceCampaign>(*rig_, *aes_, config);
  }

  attack::TraceCampaign& campaign() override { return *campaign_; }
  util::Rng& rng() override { return rng_; }

 private:
  util::Rng rng_;
  std::shared_ptr<const fabric::Device> device_;
  std::shared_ptr<const pdn::PdnGrid> grid_;
  std::unique_ptr<victim::AesCoreModel> aes_;
  std::unique_ptr<core::LeakyDspSensor> sensor_;
  std::unique_ptr<sim::SensorRig> rig_;
  std::unique_ptr<attack::TraceCampaign> campaign_;
};

}  // namespace

SweepPlan plan_sweep(const SweepConfig& config) {
  LD_REQUIRE(config.victim_rows >= 1 && config.distance_cols >= 1,
             "sweep matrix must be at least 1x1");
  LD_REQUIRE(config.sensors_per_cell >= 1, "need at least one sensor");
  LD_REQUIRE(config.victim_half_span >= 0, "negative victim half-span");
  LD_REQUIRE(config.cascade_dsps >= 1, "cascade needs at least one DSP");

  SweepPlan plan;
  std::tie(plan.device, plan.grid) = generate_die(config.spec);
  const fabric::Device& device = *plan.device;
  const pdn::PdnGrid& grid = *plan.grid;

  const int region_count = static_cast<int>(device.clock_regions().size());
  LD_REQUIRE(config.sensors_per_cell <= region_count,
             "cooperative sensing wants " << config.sensors_per_cell
                                          << " distinct clock regions but "
                                          << device.name() << " has "
                                          << region_count);

  // All cascade-viable DSP base sites, once: the cascade must stay on-die.
  std::vector<fabric::SiteCoord> dsp_bases;
  for (const auto site :
       device.sites_of_type(fabric::SiteType::kDsp, device.die())) {
    if (site.y + static_cast<int>(config.cascade_dsps) - 1 <
        device.height()) {
      dsp_bases.push_back(site);
    }
  }
  LD_REQUIRE(!dsp_bases.empty(),
             "no DSP cascade fits on " << device.name());

  // One transfer solve per distinct sensor node across the whole plan:
  // cells at different distances frequently share mesh nodes, and every
  // world built from the plan borrows these vectors.
  const auto gains_for = [&](fabric::SiteCoord site) -> const auto& {
    auto& gains = plan.sensor_gains[grid.node_of_site(site)];
    if (gains == nullptr) gains = pdn::solve_gains(grid, site);
    return *gains;
  };

  util::Rng root(config.seed);
  for (int r = 0; r < config.victim_rows; ++r) {
    // Victim anchors spread along the die diagonal, away from the edges.
    const double frac =
        static_cast<double>(r + 1) / (config.victim_rows + 1);
    const fabric::SiteCoord target{
        static_cast<int>(frac * (device.width() - 1)),
        static_cast<int>(frac * (device.height() - 1))};
    const fabric::SiteCoord victim = nearest_clb(device, target);
    fabric::Pblock victim_pblock = fabric::tenant_pblock(
        device, "victim_r" + std::to_string(r), victim,
        config.victim_half_span);

    // The farthest corner bounds the meaningful distance range.
    double d_max = 0.0;
    for (const auto corner :
         {fabric::SiteCoord{0, 0}, fabric::SiteCoord{device.width() - 1, 0},
          fabric::SiteCoord{0, device.height() - 1},
          fabric::SiteCoord{device.width() - 1, device.height() - 1}}) {
      d_max = std::max(d_max, fabric::distance(victim, corner));
    }

    for (int c = 0; c < config.distance_cols; ++c) {
      const std::size_t cell_index =
          static_cast<std::size_t>(r) * config.distance_cols + c;
      SweepCell cell;
      cell.row = r;
      cell.col = c;
      cell.victim_site = victim;
      cell.victim_pblock = victim_pblock;
      cell.target_distance =
          d_max * static_cast<double>(c + 1) / (config.distance_cols + 1);
      cell.cell_seed = root.fork(cell_index)();

      std::set<int> used_regions;
      std::vector<fabric::Rect> used_cascades;
      for (int k = 0; k < config.sensors_per_cell; ++k) {
        const fabric::SiteCoord* best = nullptr;
        double best_err = std::numeric_limits<double>::infinity();
        for (const auto& site : dsp_bases) {
          const fabric::Rect footprint =
              cascade_rect(site, config.cascade_dsps);
          if (footprint.overlaps(victim_pblock.range)) continue;
          if (used_regions.count(region_of(device, site)) != 0) continue;
          const bool collides =
              std::any_of(used_cascades.begin(), used_cascades.end(),
                          [&](const fabric::Rect& taken) {
                            return taken.overlaps(footprint);
                          });
          if (collides) continue;
          const double err = std::abs(fabric::distance(site, victim) -
                                      cell.target_distance);
          if (err < best_err) {
            best_err = err;
            best = &site;
          }
        }
        LD_REQUIRE(best != nullptr,
                   "cell r" << r << " c" << c << " cannot seat sensor " << k
                            << " in a fresh clock region of "
                            << device.name());
        cell.sensor_sites.push_back(*best);
        cell.sensor_regions.push_back(region_of(device, *best));
        cell.distances.push_back(fabric::distance(*best, victim));
        cell.coupling_gains.push_back(
            gains_for(*best)[grid.node_of_site(victim)]);
        cell.campaign_ids.push_back("sweep-r" + std::to_string(r) + "-c" +
                                    std::to_string(c) + "-s" +
                                    std::to_string(k));
        used_regions.insert(cell.sensor_regions.back());
        used_cascades.push_back(cascade_rect(*best, config.cascade_dsps));
      }
      plan.cells.push_back(std::move(cell));
    }
  }
  return plan;
}

std::unique_ptr<serve::CampaignWorld> make_sweep_world(
    const CellWorldSpec& spec) {
  LD_REQUIRE(spec.device != nullptr && spec.grid != nullptr &&
                 spec.gains != nullptr,
             "world spec " << spec.campaign_id
                           << " carries no die (device, mesh and gains)");
  LD_REQUIRE(spec.device->width() == spec.device_spec.width &&
                 spec.device->height() == spec.device_spec.height,
             "world spec " << spec.campaign_id << " has a "
                           << spec.device->width() << "x"
                           << spec.device->height() << " die but describes "
                           << spec.device_spec.width << "x"
                           << spec.device_spec.height);
  return std::make_unique<SweepWorld>(spec);
}

CellWorldSpec with_generated_die(CellWorldSpec spec) {
  std::tie(spec.device, spec.grid) = generate_die(spec.device_spec);
  spec.gains = pdn::solve_gains(*spec.grid, spec.sensor_site);
  return spec;
}

attack::CampaignResult run_sweep_campaign(const CellWorldSpec& spec,
                                          std::size_t threads) {
  CellWorldSpec reference = spec;
  reference.checkpoint_dir.clear();
  reference.threads = threads;
  auto world = make_sweep_world(reference);
  return world->campaign().run(world->rng(),
                               reference.campaign.stop_when_broken);
}

CellWorldSpec cell_world_spec(const SweepConfig& config,
                              const SweepPlan& plan, std::size_t cell_index,
                              int k) {
  LD_REQUIRE(cell_index < plan.cells.size(),
             "cell " << cell_index << " out of range");
  const SweepCell& cell = plan.cells[cell_index];
  LD_REQUIRE(k >= 0 && static_cast<std::size_t>(k) < cell.sensor_sites.size(),
             "sensor " << k << " out of range");
  CellWorldSpec spec;
  spec.device_spec = config.spec;
  spec.device = plan.device;
  spec.grid = plan.grid;
  spec.victim_site = cell.victim_site;
  spec.sensor_site = cell.sensor_sites[static_cast<std::size_t>(k)];
  const auto gains =
      plan.sensor_gains.find(plan.grid->node_of_site(spec.sensor_site));
  LD_REQUIRE(gains != plan.sensor_gains.end(),
             "plan has no gains for sensor " << k << " of cell "
                                             << cell_index);
  spec.gains = gains->second;
  spec.cell_seed = cell.cell_seed;
  spec.sensor_index = k;
  spec.cascade_dsps = config.cascade_dsps;
  spec.campaign = config.campaign;
  spec.checkpoint_dir = config.checkpoint_dir;
  spec.campaign_id = cell.campaign_ids[static_cast<std::size_t>(k)];
  return spec;
}

CellOutcome fuse_cell(std::size_t cell_index, std::uint64_t cell_seed,
                      std::vector<attack::CampaignResult> per_sensor) {
  LD_REQUIRE(!per_sensor.empty(), "fuse_cell needs at least one result");
  std::vector<double> fused(kScoreVectorSize, 0.0);
  for (const auto& result : per_sensor) {
    LD_REQUIRE(result.final_scores.size() == kScoreVectorSize,
               "campaign result carries " << result.final_scores.size()
                                          << " scores, want "
                                          << kScoreVectorSize);
    for (std::size_t i = 0; i < kScoreVectorSize; ++i) {
      fused[i] += result.final_scores[i];
    }
  }

  CellOutcome outcome;
  outcome.cell_index = cell_index;
  for (int b = 0; b < 16; ++b) {
    const auto begin = fused.begin() + b * 256;
    const auto it = std::max_element(begin, begin + 256);
    outcome.fused_round10[static_cast<std::size_t>(b)] =
        static_cast<std::uint8_t>(it - begin);
  }

  const crypto::Key key = cell_key(cell_seed);
  const crypto::RoundKey true_rk10 = crypto::Aes128::expand_key(key)[10];
  for (std::size_t b = 0; b < 16; ++b) {
    if (outcome.fused_round10[b] == true_rk10[b]) {
      ++outcome.fused_correct_bytes;
    }
    const double* byte_scores = fused.data() + b * 256;
    double best_wrong = -std::numeric_limits<double>::infinity();
    for (std::size_t g = 0; g < 256; ++g) {
      if (g != true_rk10[b]) best_wrong = std::max(best_wrong, byte_scores[g]);
    }
    outcome.fused_true_margin +=
        (byte_scores[true_rk10[b]] - best_wrong) / 16.0;
  }
  outcome.fused_full_key =
      crypto::Aes128::invert_key_schedule(outcome.fused_round10) == key;
  outcome.per_sensor = std::move(per_sensor);
  return outcome;
}

SweepOutcome run_sweep(const SweepConfig& config,
                       const serve::ServiceConfig& service_config) {
  SweepOutcome outcome;
  outcome.plan = plan_sweep(config);

  serve::CampaignService service(service_config);
  for (std::size_t i = 0; i < outcome.plan.cells.size(); ++i) {
    const SweepCell& cell = outcome.plan.cells[i];
    for (int k = 0; k < static_cast<int>(cell.sensor_sites.size()); ++k) {
      const CellWorldSpec spec = cell_world_spec(config, outcome.plan, i, k);
      serve::CampaignJob job;
      job.id = spec.campaign_id;
      job.stop_when_broken = config.campaign.stop_when_broken;
      job.make = [spec]() { return make_sweep_world(spec); };
      service.enqueue(std::move(job));
    }
  }

  auto drained = service.drain();
  std::size_t next = 0;
  for (std::size_t i = 0; i < outcome.plan.cells.size(); ++i) {
    const std::size_t sensors = outcome.plan.cells[i].sensor_sites.size();
    std::vector<attack::CampaignResult> per_sensor;
    per_sensor.reserve(sensors);
    for (std::size_t k = 0; k < sensors; ++k) {
      per_sensor.push_back(std::move(drained[next++].result));
    }
    outcome.cells.push_back(
        fuse_cell(i, outcome.plan.cells[i].cell_seed, std::move(per_sensor)));
  }
  outcome.stats = service.stats();
  return outcome;
}

}  // namespace leakydsp::scenario
