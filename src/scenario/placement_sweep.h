// Placement sweeps over generated dies: the Fig. 5 distance experiment
// generalized to arbitrary parametric floorplans.
//
// A SweepConfig names a DeviceSpec and a distance matrix shape; the
// planner carves victim tenants along the die diagonal (rows) and, per
// target distance (columns), picks the DSP cascade sites whose Euclidean
// distance to the victim best matches the target — K of them in distinct
// clock regions when cooperative sensing is on. Every (row, column,
// sensor) cell becomes one deterministic campaign job: the cell seed
// pins the victim key and each sensor's calibration/noise streams, so a
// cell run through serve::CampaignService is byte-identical to the same
// cell run standalone (pinned by tests and by the placement-sweep bench).
//
// Cooperative sensing fuses K sensors per cell: each campaign keeps its
// final per-guess CPA score vector (CampaignConfig::keep_final_scores),
// the vectors are summed per (byte, guess), and the fused argmax yields a
// round-10 key that is scored against the cell's true key.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "attack/campaign.h"
#include "crypto/aes128.h"
#include "fabric/device.h"
#include "fabric/device_spec.h"
#include "fabric/geometry.h"
#include "fabric/pblock.h"
#include "pdn/coupling.h"
#include "pdn/grid.h"
#include "serve/campaign_service.h"

namespace leakydsp::scenario {

/// Campaign shape shared by every cell of one sweep (the standard-job
/// defaults, sized for CI-scale runs).
struct SweepCampaignParams {
  std::size_t max_traces = 96;
  std::size_t block_traces = 32;
  std::size_t break_check_stride = 48;
  std::size_t rank_stride = 96;
  double victim_clock_mhz = 100.0;
  double current_per_hd_bit = 0.15;
  bool stop_when_broken = true;
};

/// One whole sweep: the die, the matrix shape, and the per-cell campaign.
struct SweepConfig {
  fabric::DeviceSpec spec;       ///< the die to generate
  std::uint64_t seed = 1;        ///< forks one sub-seed per cell
  int victim_rows = 4;           ///< victim anchors along the die diagonal
  int distance_cols = 4;         ///< target distances per victim
  int sensors_per_cell = 1;      ///< K cooperative sensors (distinct regions)
  int victim_half_span = 4;      ///< victim tenant Pblock margin
  std::size_t cascade_dsps = 3;  ///< LeakyDSP cascade length (footprint)
  SweepCampaignParams campaign;
  /// Durable checkpoint directory for the service runs ("" = none).
  std::string checkpoint_dir;
};

/// One planned cell: a victim placement, its K sensor placements, and the
/// seed/ids that make its campaigns reproducible anywhere.
struct SweepCell {
  int row = 0;
  int col = 0;
  fabric::SiteCoord victim_site;    ///< AES core site (CLB)
  fabric::Pblock victim_pblock;     ///< tenant region around the victim
  double target_distance = 0.0;     ///< what this column asked for
  std::vector<fabric::SiteCoord> sensor_sites;  ///< K cascade base sites
  std::vector<int> sensor_regions;  ///< clock region index per sensor
  std::vector<double> distances;    ///< per-sensor victim distance
  std::vector<double> coupling_gains;  ///< per-sensor PDN transfer gain
  std::uint64_t cell_seed = 0;      ///< drives key + per-sensor streams
  std::vector<std::string> campaign_ids;  ///< "sweep-r<r>-c<c>-s<k>"
};

/// The expanded sweep: generated device, its PDN mesh, the transfer gains
/// of every sensor node, and every cell. All of it is immutable and shared
/// by the cells' worlds (PdnGrid derives its shape from the device at
/// construction and holds no reference back).
struct SweepPlan {
  std::shared_ptr<const fabric::Device> device;
  std::shared_ptr<const pdn::PdnGrid> grid;
  /// One solved gain vector per distinct sensor node, keyed by node.
  std::map<std::size_t, pdn::SharedGains> sensor_gains;
  std::vector<SweepCell> cells;
};

/// Expands the config into placements. Throws fabric::SpecError for an
/// invalid spec and util::PreconditionError when the matrix cannot be
/// placed (no CLB/DSP sites, K exceeds the clock-region count, or a cell
/// cannot seat K non-overlapping cascades in distinct regions).
SweepPlan plan_sweep(const SweepConfig& config);

/// Everything one cell-sensor campaign world needs, captured by value so
/// the service can build the world on every admission and rehydration.
/// The die, its mesh and the sensor's transfer gains are immutable and
/// shared: every world built from the spec borrows the same objects.
struct CellWorldSpec {
  fabric::DeviceSpec device_spec;  ///< what `device` was generated from
  std::shared_ptr<const fabric::Device> device;
  std::shared_ptr<const pdn::PdnGrid> grid;  ///< the mesh of `device`
  pdn::SharedGains gains;  ///< transfer gains of sensor_site on `grid`
  fabric::SiteCoord victim_site;
  fabric::SiteCoord sensor_site;
  std::uint64_t cell_seed = 0;
  int sensor_index = 0;  ///< k: forks this sensor's stream off the cell seed
  std::size_t cascade_dsps = 3;
  SweepCampaignParams campaign;
  std::string checkpoint_dir;
  std::string campaign_id;
  std::size_t threads = 1;  ///< standalone reference runs only
};

/// Deterministic world factory: borrows the spec's die, mesh and gains,
/// draws the cell key (shared by every sensor of the cell), forks the
/// per-sensor stream, builds victim + sensor + calibrated rig. Campaigns
/// built here keep their final CPA score vectors for fusion. Safe to call
/// concurrently: the borrowed state is only read, and every world owns its
/// victim, sensor and rig. Throws util::PreconditionError for a spec
/// without a die or whose device dimensions disagree with device_spec.
std::unique_ptr<serve::CampaignWorld> make_sweep_world(
    const CellWorldSpec& spec);

/// `spec` with a die of its own: generates the device from
/// spec.device_spec, builds its PDN mesh and solves the sensor's transfer
/// gains, as plan_sweep does — for worlds described without a plan.
CellWorldSpec with_generated_die(CellWorldSpec spec);

/// The byte-identical baseline: builds the same world and runs it
/// standalone (no checkpointing).
attack::CampaignResult run_sweep_campaign(const CellWorldSpec& spec,
                                          std::size_t threads);

/// The world spec of cell `cell_index`'s sensor `k` under `config` —
/// exactly what run_sweep enqueues, exposed so tests and the bench can
/// replay single cells standalone.
CellWorldSpec cell_world_spec(const SweepConfig& config,
                              const SweepPlan& plan, std::size_t cell_index,
                              int k);

/// One drained cell: the per-sensor campaign results plus the fused key.
struct CellOutcome {
  std::size_t cell_index = 0;
  std::vector<attack::CampaignResult> per_sensor;  ///< K, sensor order
  crypto::RoundKey fused_round10{};  ///< argmax of the summed score vectors
  int fused_correct_bytes = 0;       ///< vs the cell's true round-10 key
  bool fused_full_key = false;       ///< fused master key == cell key
  /// Mean over the 16 byte positions of (fused score of the true key
  /// byte) - (best fused score among wrong guesses): the graded
  /// sensitivity measure of the sweep matrix. Positive means the true
  /// key leads; the more negative, the further the cell is from
  /// recovering the key.
  double fused_true_margin = 0.0;
};

/// Sums the per-sensor final score vectors and scores the fused argmax
/// key against the true key derived from `cell_seed`. Requires every
/// result to carry final_scores (16 x 256 doubles).
CellOutcome fuse_cell(std::size_t cell_index, std::uint64_t cell_seed,
                      std::vector<attack::CampaignResult> per_sensor);

/// A drained sweep: the plan, one fused outcome per cell (plan order),
/// and the service's scheduler statistics.
struct SweepOutcome {
  SweepPlan plan;
  std::vector<CellOutcome> cells;
  serve::ServiceStats stats;
};

/// Plans the sweep, runs every cell-sensor campaign as an independent job
/// through one serve::CampaignService, fuses each cell, and returns the
/// distance x placement sensitivity matrix.
SweepOutcome run_sweep(const SweepConfig& config,
                       const serve::ServiceConfig& service_config);

}  // namespace leakydsp::scenario
