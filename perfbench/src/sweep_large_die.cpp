// sweep_large_die: a cooperative placement sweep (K=2 sensors per cell)
// on a generated 480x480 die — 120x120 = 14,400 PDN nodes, just under the
// multigrid threshold, so the IC(0)-PCG solver path runs. Every world
// build generates the die, builds its PDN mesh and solves the sensor's
// transfer gains, so fabric + PDN work outweighs calibration here; the
// other two workloads barely touch fabric, PDN or scenario code.
// scenario::plan_sweep is set-up; the timed drains run the cells through
// one CampaignService and fuse them with scenario::fuse_cell, exactly as
// scenario::run_sweep does (checked against it once per run).
#include <cstring>
#include <string>
#include <vector>

#include "bench.h"

namespace perfbench {

using namespace leakydsp;

namespace {

constexpr int kRows = 2;
constexpr int kCols = 2;
constexpr int kSensors = 2;
constexpr std::size_t kVerifyCells = 2;

scenario::SweepConfig sweep_config(std::uint64_t seed) {
  scenario::SweepConfig config;
  config.spec.name = "perfbench 480x480";
  config.spec.arch = fabric::Architecture::kUltraScalePlus;
  config.spec.width = 480;
  config.spec.height = 480;
  config.spec.region_cols = 2;
  config.spec.region_rows = 4;
  config.spec.columns.push_back({fabric::SiteType::kDsp, 14, 20});
  config.spec.columns.push_back({fabric::SiteType::kBram, 8, 20});
  config.seed = mix(seed, 7);
  config.victim_rows = kRows;
  config.distance_cols = kCols;
  config.sensors_per_cell = kSensors;
  // Boosted leakage so near cells recover bytes within the short budget.
  config.campaign.current_per_hd_bit = 0.6;
  config.campaign.max_traces = 96;
  config.campaign.break_check_stride = 48;
  config.campaign.rank_stride = 96;
  return config;
}

std::string fused_digest(const scenario::CellOutcome& cell) {
  std::string out(cell.fused_round10.begin(), cell.fused_round10.end());
  out += std::to_string(cell.fused_correct_bytes);
  out += cell.fused_full_key ? "1" : "0";
  char margin[sizeof(double)];
  std::memcpy(margin, &cell.fused_true_margin, sizeof margin);
  out.append(margin, sizeof margin);
  for (const auto& r : cell.per_sensor) out += digest(r);
  return out;
}

}  // namespace

void sweep_large_die(const Options& options, Report& report) {
  const scenario::SweepConfig config = sweep_config(options.seed);
  scenario::SweepPlan plan;
  std::vector<scenario::CellOutcome> fused;  // the last drain's cells
  ServiceWorkload w;
  w.jobs = static_cast<std::size_t>(kRows * kCols * kSensors);
  w.traces = w.jobs * config.campaign.max_traces;

  w.setup = [&] {
    const auto start = Clock::now();
    plan = scenario::plan_sweep(config);
    w.plan_sweep_ms = ms_since(start);
    const auto world =
        scenario::make_sweep_world(scenario::cell_world_spec(config, plan, 0, 0));
    warm_up(world->campaign(), world->rng());
  };

  w.enqueue = [&](serve::CampaignService& service, const std::string& dir,
                  BuildLog* log) {
    for (std::size_t i = 0; i < plan.cells.size(); ++i) {
      for (int k = 0; k < kSensors; ++k) {
        scenario::CellWorldSpec spec =
            scenario::cell_world_spec(config, plan, i, k);
        spec.checkpoint_dir = dir;
        serve::CampaignJob job;
        job.id = spec.campaign_id;
        job.stop_when_broken = config.campaign.stop_when_broken;
        if (log != nullptr) {
          job.make = [spec, log] { return make_timed_sweep_world(spec, *log); };
        } else {
          job.make = [spec] { return scenario::make_sweep_world(spec); };
        }
        service.enqueue(std::move(job));
      }
    }
  };

  w.summarize = [&](const std::vector<serve::CampaignOutcome>& outcomes,
                    const std::string&) {
    DrainSummary s;
    fused.clear();
    std::size_t next = 0;
    for (std::size_t i = 0; i < plan.cells.size(); ++i) {
      std::vector<attack::CampaignResult> per_sensor;
      for (int k = 0; k < kSensors; ++k) {
        const auto& r = outcomes[next++].result;
        s.traces_to_break += static_cast<double>(r.traces_to_break);
        s.jobs_broken += r.broken ? 1 : 0;
        per_sensor.push_back(r);
      }
      const auto start = Clock::now();
      fused.push_back(scenario::fuse_cell(i, plan.cells[i].cell_seed,
                                          std::move(per_sensor)));
      s.fuse_ms += ms_since(start);
      s.fused_correct_bytes += fused.back().fused_correct_bytes;
      s.digest += fused_digest(fused.back());
    }
    return s;
  };

  w.verify = [&](Report& r, const std::vector<serve::CampaignOutcome>& outcomes,
                 const std::string& dir) {
    const DrainSummary drained = w.summarize(outcomes, dir);
    // A seed-chosen sample of cells replayed standalone and re-fused.
    for (std::size_t c = 0; c < kVerifyCells; ++c) {
      const std::size_t i = mix(options.seed, 800 + c) % plan.cells.size();
      std::vector<attack::CampaignResult> standalone;
      for (int k = 0; k < kSensors; ++k) {
        standalone.push_back(scenario::run_sweep_campaign(
            scenario::cell_world_spec(config, plan, i, k), kWorkers));
      }
      const auto cell = scenario::fuse_cell(i, plan.cells[i].cell_seed,
                                            std::move(standalone));
      r.check(fused_digest(cell) == fused_digest(fused[i]),
              "cell " + std::to_string(i) +
                  " differs from run_sweep_campaign + fuse_cell");
    }
    // The drain path itself against the library's run_sweep.
    scenario::SweepConfig reference = config;
    reference.checkpoint_dir = dir + "/run_sweep";
    serve::ServiceConfig service_config;
    service_config.threads = kWorkers;
    service_config.max_resident = kMaxResident;
    service_config.quantum_steps = 1;
    service_config.checkpoint_dir = reference.checkpoint_dir;
    const auto swept = scenario::run_sweep(reference, service_config);
    std::string swept_digest;
    for (const auto& cell : swept.cells) swept_digest += fused_digest(cell);
    r.check(swept_digest == drained.digest,
            "benchmark drain differs from scenario::run_sweep");
  };

  run_service_workload(options, report, w);
}

}  // namespace perfbench
