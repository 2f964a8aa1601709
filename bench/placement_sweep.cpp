// Placement sweeps over generated dies: the distance x die-size
// sensitivity matrix of the parametric fabric generator.
//
//   sweep    — for each generated die (120x120 .. 200x200; 10x+ the
//              Basys3 site count), a victim-row x target-distance matrix
//              of LeakyDSP campaigns, every cell an independent job
//              drained through serve::CampaignService
//   identity — every cell of the largest die re-run standalone; the
//              service results must match byte for byte (checkpoints,
//              mean readouts, final score vectors)
//   coop     — cooperative sensing on the largest die: K sensors in
//              distinct clock regions per cell, fused by summing the
//              per-guess CPA score vectors
//
//   $ ./placement_sweep [--quick] [--threads N]
//
// --threads sizes the service pool (default: hardware concurrency). The
// sweep results are identical at every thread count; the scheduler
// counters (evictions, stolen blocks, rebuild-driven PDN solves) follow
// the schedule, so the CI record gate runs with --threads 1.
//
// Prints tables and writes BENCH_placement_sweep.json (host metadata +
// obs metrics) into the working directory. Acceptance: zero identity
// mismatches between service and standalone results.
#include <chrono>
#include <cmath>
#include <cstdint>
#include <filesystem>
#include <iostream>
#include <string>
#include <vector>

#include "attack/campaign.h"
#include "fabric/device_spec.h"
#include "obs/obs.h"
#include "scenario/placement_sweep.h"
#include "serve/campaign_service.h"
#include "util/bench_json.h"
#include "util/cli.h"
#include "util/table.h"

using namespace leakydsp;

namespace {

double ms_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - start)
      .count();
}

/// A periodic UltraScale+-style die: DSP columns every 20 from 14, BRAM
/// interleaved at 8 + 20k, 2 region columns, 3 or 4 region rows
/// (whichever divides the height).
fabric::DeviceSpec sweep_spec(int dim) {
  fabric::DeviceSpec spec;
  spec.name = "Sweep " + std::to_string(dim) + "x" + std::to_string(dim);
  spec.arch = fabric::Architecture::kUltraScalePlus;
  spec.width = dim;
  spec.height = dim;
  spec.region_cols = 2;
  spec.region_rows = dim % 3 == 0 ? 3 : 4;
  spec.columns.push_back({fabric::SiteType::kDsp, 14, 20});
  spec.columns.push_back({fabric::SiteType::kBram, 8, 20});
  return spec;
}

scenario::SweepConfig sweep_config(int dim, int rows, int cols, int k,
                                   const std::string& checkpoint_dir) {
  scenario::SweepConfig config;
  config.spec = sweep_spec(dim);
  config.seed = 212;
  config.victim_rows = rows;
  config.distance_cols = cols;
  config.sensors_per_cell = k;
  config.checkpoint_dir = checkpoint_dir;
  // Boosted victim leakage and a wider trace budget so the matrix shows
  // its gradient: near/high-gain cells break, far cells do not.
  config.campaign.current_per_hd_bit = 0.6;
  config.campaign.max_traces = 240;
  config.campaign.break_check_stride = 48;
  config.campaign.rank_stride = 96;
  return config;
}

serve::ServiceConfig service_config(std::size_t threads,
                                    const std::string& checkpoint_dir) {
  serve::ServiceConfig config;
  config.threads = threads;
  config.max_resident = 8;
  config.quantum_steps = 1;
  config.checkpoint_dir = checkpoint_dir;
  return config;
}

std::string fresh_dir(const std::string& name) {
  std::filesystem::remove_all(name);
  std::filesystem::create_directories(name);
  return name;
}

/// Byte-for-byte comparison of two campaign results, including the
/// checkpoint trail and the fused-score vector. Exact == on doubles is
/// the point: the service contract is bit-identical scheduling.
bool identical(const attack::CampaignResult& a,
               const attack::CampaignResult& b) {
  if (a.traces_to_break != b.traces_to_break || a.broken != b.broken ||
      a.traces_run != b.traces_run ||
      a.mean_poi_readout != b.mean_poi_readout ||
      a.checkpoints.size() != b.checkpoints.size() ||
      a.final_scores.size() != b.final_scores.size()) {
    return false;
  }
  for (std::size_t i = 0; i < a.checkpoints.size(); ++i) {
    const auto& ca = a.checkpoints[i];
    const auto& cb = b.checkpoints[i];
    if (ca.traces != cb.traces || ca.correct_bytes != cb.correct_bytes ||
        ca.full_key != cb.full_key ||
        ca.rank.log2_lower != cb.rank.log2_lower ||
        ca.rank.log2_upper != cb.rank.log2_upper) {
      return false;
    }
  }
  for (std::size_t i = 0; i < a.final_scores.size(); ++i) {
    if (a.final_scores[i] != b.final_scores[i]) return false;
  }
  return true;
}

int run(int argc, char** argv) {
  const util::Cli cli(argc, argv, {"quick!", "threads"}, obs::cli_options());
  const std::string trace_out = obs::apply_cli(cli);
  const bool quick = cli.get_flag("quick");
  const std::size_t threads = cli.get_threads();

  util::BenchJson report("placement_sweep");
  util::Table table({"die", "cell", "dist", "gain", "broken", "traces",
                     "bytes", "margin", "drain_ms"});

  // Die sizes: the largest full-mode die has 10x+ the Basys3 site count
  // (200x200 = 40000 vs 60x60 = 3600) and carries the 64-cell matrix.
  struct DiePlan {
    int dim;
    int rows;
    int cols;
    bool verify_identity;
  };
  const std::vector<DiePlan> dies =
      quick ? std::vector<DiePlan>{{96, 3, 3, true}}
            : std::vector<DiePlan>{
                  {120, 4, 4, false}, {160, 4, 4, false}, {200, 8, 8, true}};

  std::size_t cells_total = 0;
  std::size_t broken_cells = 0;
  std::size_t identity_mismatches = 0;
  std::size_t identity_checked = 0;
  std::uint64_t fused_bytes_total = 0;

  for (const DiePlan& die : dies) {
    const std::string die_name =
        std::to_string(die.dim) + "x" + std::to_string(die.dim);
    const std::string ckpt = fresh_dir("placement_sweep_ckpt/" + die_name);
    const scenario::SweepConfig config =
        sweep_config(die.dim, die.rows, die.cols, /*k=*/1, ckpt);

    const auto drain_start = std::chrono::steady_clock::now();
    const scenario::SweepOutcome outcome =
        scenario::run_sweep(config, service_config(threads, ckpt));
    const double drain_ms = ms_since(drain_start);

    for (std::size_t i = 0; i < outcome.plan.cells.size(); ++i) {
      const scenario::SweepCell& cell = outcome.plan.cells[i];
      const scenario::CellOutcome& result = outcome.cells[i];
      const attack::CampaignResult& campaign = result.per_sensor[0];
      ++cells_total;
      if (campaign.broken) ++broken_cells;
      fused_bytes_total +=
          static_cast<std::uint64_t>(result.fused_correct_bytes);

      table.row()
          .add(die_name)
          .add("r" + std::to_string(cell.row) + "c" +
               std::to_string(cell.col))
          .add(cell.distances[0], 1)
          .add(cell.coupling_gains[0], 6)
          .add(campaign.broken ? 1 : 0)
          .add(campaign.traces_to_break)
          .add(result.fused_correct_bytes)
          .add(result.fused_true_margin, 4)
          .add(i == 0 ? drain_ms : 0.0, 1);
      report.row()
          .set("section", "sweep")
          .set("die", die_name)
          .set("cell", "r" + std::to_string(cell.row) + "c" +
                           std::to_string(cell.col))
          .set("row", static_cast<std::uint64_t>(cell.row))
          .set("col", static_cast<std::uint64_t>(cell.col))
          .set("target_distance", cell.target_distance)
          .set("distance", cell.distances[0])
          .set("coupling_gain", cell.coupling_gains[0])
          .set("broken", campaign.broken)
          .set("traces_to_break",
               static_cast<std::uint64_t>(campaign.traces_to_break))
          .set("fused_correct_bytes",
               static_cast<std::uint64_t>(result.fused_correct_bytes))
          .set("fused_true_margin", result.fused_true_margin);
    }
    report.row()
        .set("section", "drain")
        .set("die", die_name)
        .set("cells",
             static_cast<std::uint64_t>(outcome.plan.cells.size()))
        .set("drain_ms", drain_ms)
        .set("evictions", static_cast<std::uint64_t>(outcome.stats.evictions))
        .set("blocks_run",
             static_cast<std::uint64_t>(outcome.stats.blocks_run));

    // Identity: the service results vs fresh standalone runs, cell by
    // cell. Any divergence is a scheduler determinism bug.
    if (die.verify_identity) {
      for (std::size_t i = 0; i < outcome.plan.cells.size(); ++i) {
        const scenario::CellWorldSpec spec =
            scenario::cell_world_spec(config, outcome.plan, i, 0);
        const attack::CampaignResult standalone =
            scenario::run_sweep_campaign(spec, /*threads=*/1);
        ++identity_checked;
        if (!identical(outcome.cells[i].per_sensor[0], standalone)) {
          ++identity_mismatches;
          std::cerr << "IDENTITY MISMATCH: " << spec.campaign_id << " on "
                    << die_name << "\n";
        }
      }
    }
  }

  // ------------------------------------------------- cooperative sensing
  // K sensors per cell in distinct clock regions, fused score vectors.
  const int coop_dim = quick ? 96 : 200;
  const std::vector<int> coop_k = quick ? std::vector<int>{2}
                                        : std::vector<int>{1, 2, 3};
  for (const int k : coop_k) {
    const std::string die_name =
        std::to_string(coop_dim) + "x" + std::to_string(coop_dim);
    const std::string ckpt =
        fresh_dir("placement_sweep_ckpt/coop-k" + std::to_string(k));
    const scenario::SweepConfig config =
        sweep_config(coop_dim, /*rows=*/1, /*cols=*/2, k, ckpt);
    const scenario::SweepOutcome outcome =
        scenario::run_sweep(config, service_config(threads, ckpt));
    for (std::size_t i = 0; i < outcome.cells.size(); ++i) {
      const scenario::SweepCell& cell = outcome.plan.cells[i];
      const scenario::CellOutcome& result = outcome.cells[i];
      table.row()
          .add(die_name)
          .add("coopK" + std::to_string(k) + "c" + std::to_string(cell.col))
          .add(cell.distances[0], 1)
          .add(cell.coupling_gains[0], 6)
          .add(result.fused_full_key ? 1 : 0)
          .add(result.per_sensor[0].traces_run)
          .add(result.fused_correct_bytes)
          .add(result.fused_true_margin, 4)
          .add(0.0, 1);
      report.row()
          .set("section", "coop")
          .set("die", die_name)
          .set("cell", "coopK" + std::to_string(k) + "c" +
                           std::to_string(cell.col))
          .set("k", static_cast<std::uint64_t>(k))
          .set("col", static_cast<std::uint64_t>(cell.col))
          .set("fused_correct_bytes",
               static_cast<std::uint64_t>(result.fused_correct_bytes))
          .set("fused_true_margin", result.fused_true_margin)
          .set("fused_full_key", result.fused_full_key);
    }
  }

  std::cout << "=== Placement sweeps on generated dies"
            << (quick ? " (--quick)" : "") << " ===\n\n";
  table.print(std::cout);
  std::cout << "\ncells: " << cells_total << ", broken: " << broken_cells
            << ", identity: " << identity_checked << " checked, "
            << identity_mismatches
            << " mismatches (acceptance: 0 mismatches)\n";

  obs::fill_bench_metrics(report.metrics());
  report.metrics()
      .set("cells", static_cast<std::uint64_t>(cells_total))
      .set("broken_cells", static_cast<std::uint64_t>(broken_cells))
      .set("fused_bytes_total", fused_bytes_total)
      .set("identity_checked",
           static_cast<std::uint64_t>(identity_checked))
      .set("identity_mismatches",
           static_cast<std::uint64_t>(identity_mismatches));
  report.write("BENCH_placement_sweep.json");
  obs::write_trace_out(trace_out);
  std::cout << "\nwrote BENCH_placement_sweep.json\n";
  return identity_mismatches == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  return util::cli_main(argc, argv, run);
}
