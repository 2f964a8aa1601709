// Seed-driven standard campaign jobs for the campaign service.
//
// A StandardCampaignSpec pins everything that shapes a campaign's result:
// the Basys3 scenario world is rebuilt deterministically from the seed
// (fresh key, victim, sensor, calibration), so the same spec always yields
// byte-identical campaigns — whether driven standalone through
// TraceCampaign::run or scheduled through CampaignService. Tests, the
// benchmark, the differential oracle, and tools/leakydsp_serve all build
// their jobs through this one helper so "the same campaign" means the same
// bytes everywhere.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>

#include "attack/campaign.h"
#include "serve/campaign_service.h"

namespace leakydsp::serve {

/// Everything that shapes one standard campaign. The seed drives the key,
/// the victim parameters stay explicit; `threads` only matters for the
/// standalone reference run (the service schedules blocks itself).
struct StandardCampaignSpec {
  std::string id;
  std::uint64_t seed = 0;
  std::size_t max_traces = 96;
  std::size_t block_traces = 32;
  std::size_t break_check_stride = 48;
  std::size_t rank_stride = 96;
  std::size_t threads = 1;
  double victim_clock_mhz = 100.0;
  double current_per_hd_bit = 0.15;
  /// Durable checkpoint directory ("" = no checkpointing). The campaign is
  /// keyed on `id`, so many specs can share one directory.
  std::string checkpoint_dir;
  bool stop_when_broken = true;
};

/// Builds the spec's world: Basys3 scenario, seed-derived key, calibrated
/// rig, configured TraceCampaign. The returned world's rng() is in the
/// exact state a standalone run() would receive. Safe to call
/// concurrently: the one shared Basys3 scenario is only read.
std::unique_ptr<CampaignWorld> make_standard_world(
    const StandardCampaignSpec& spec);

/// Wraps the spec as a service job (the factory rebuilds the world from
/// scratch on every admission and rehydration).
CampaignJob make_standard_job(StandardCampaignSpec spec);

/// The byte-identical baseline: rebuilds the same world and runs it
/// standalone with `threads` workers and no checkpointing.
attack::CampaignResult run_standard_campaign(const StandardCampaignSpec& spec,
                                             std::size_t threads);

}  // namespace leakydsp::serve
