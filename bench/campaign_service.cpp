// Campaign-service throughput bench: drains --campaigns (default 1000)
// small seed-derived key-extraction campaigns through one bounded
// CampaignService — max_resident hydrated worlds, a memory budget over
// approx_task_bytes(), eviction/rehydration through durable keyed
// checkpoints — and verifies a deterministic sample of the outcomes
// byte-for-byte against standalone TraceCampaign::run. Reports throughput,
// eviction/rehydration counts, scheduler fairness and peak residency to
// stdout and BENCH_campaign_service.json.
//
//   $ ./campaign_service [--campaigns N] [--traces T] [--seed S]
//                        [--threads W] [--max-resident R] [--budget-mb M]
//                        [--quantum Q] [--verify-sample K]
//
// Exits non-zero if any sampled outcome deviates from its standalone run.
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <filesystem>
#include <iostream>
#include <string>
#include <vector>

#include "attack/campaign.h"
#include "obs/obs.h"
#include "serve/campaign_service.h"
#include "serve/standard_jobs.h"
#include "util/bench_json.h"
#include "util/cli.h"
#include "util/table.h"

using namespace leakydsp;

namespace {

bool identical(const attack::CampaignResult& a,
               const attack::CampaignResult& b) {
  if (a.traces_to_break != b.traces_to_break || a.broken != b.broken ||
      a.traces_run != b.traces_run ||
      a.mean_poi_readout != b.mean_poi_readout ||
      a.checkpoints.size() != b.checkpoints.size()) {
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
  return true;
}

serve::StandardCampaignSpec spec_for(std::size_t index, std::uint64_t seed,
                                     std::size_t traces,
                                     const std::string& checkpoint_dir) {
  serve::StandardCampaignSpec spec;
  spec.id = "bench-" + std::to_string(index);
  // Decorrelate per-campaign seeds so the queue is a mix of early breaks
  // and full-length runs, like a real submission stream.
  spec.seed = seed * 1315423911ULL + index * 2654435761ULL + 1;
  spec.max_traces = traces;
  spec.block_traces = 16;
  spec.break_check_stride = 32;
  spec.rank_stride = traces;
  spec.checkpoint_dir = checkpoint_dir;
  return spec;
}

int run(int argc, char** argv) {
  const util::Cli cli(argc, argv,
                      {"campaigns", "traces", "seed", "threads",
                       "max-resident", "budget-mb", "quantum",
                       "verify-sample"},
                      obs::cli_options());
  const std::string trace_out = obs::apply_cli(cli);
  const auto campaigns =
      static_cast<std::size_t>(cli.get_int("campaigns", 1000));
  const auto traces = static_cast<std::size_t>(cli.get_int("traces", 64));
  const auto seed = cli.get_seed("seed", 7);
  const std::size_t threads = cli.get_threads();
  const auto max_resident =
      static_cast<std::size_t>(cli.get_int("max-resident", 4));
  const auto budget_mb = static_cast<std::size_t>(cli.get_int("budget-mb", 8));
  const auto quantum = static_cast<std::size_t>(cli.get_int("quantum", 2));
  const auto verify_sample =
      static_cast<std::size_t>(cli.get_int("verify-sample", 8));

  const std::string checkpoint_dir =
      (std::filesystem::temp_directory_path() /
       ("leakydsp_bench_serve_" + std::to_string(seed)))
          .string();
  std::filesystem::remove_all(checkpoint_dir);

  serve::ServiceConfig config;
  config.threads = threads;
  config.max_resident = max_resident;
  config.memory_budget_bytes = budget_mb * 1024 * 1024;
  config.quantum_steps = quantum;
  config.checkpoint_dir = checkpoint_dir;

  serve::CampaignService service(config);
  for (std::size_t i = 0; i < campaigns; ++i) {
    service.enqueue(serve::make_standard_job(
        spec_for(i, seed, traces, checkpoint_dir)));
  }

  std::cout << "=== campaign service: " << campaigns << " campaigns x "
            << traces << " traces, " << threads << " threads, "
            << max_resident << " resident, " << budget_mb << " MiB budget ===\n"
            << std::endl;

  const auto start = std::chrono::steady_clock::now();
  const auto outcomes = service.drain();
  const double seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  const serve::ServiceStats& stats = service.stats();

  // Spot-check a deterministic sample (evenly spread over the queue, so it
  // covers early breaks, evicted campaigns and tail stragglers alike)
  // against the standalone byte-identical baseline.
  std::size_t verified = 0;
  std::size_t mismatches = 0;
  const std::size_t sample = std::min(verify_sample, campaigns);
  for (std::size_t k = 0; k < sample; ++k) {
    const std::size_t index = k * campaigns / sample;
    serve::StandardCampaignSpec spec =
        spec_for(index, seed, traces, checkpoint_dir);
    const attack::CampaignResult standalone =
        serve::run_standard_campaign(spec, 1);
    ++verified;
    if (!identical(outcomes[index].result, standalone)) {
      ++mismatches;
      std::cout << "MISMATCH: campaign " << spec.id
                << " deviates from its standalone run\n";
    }
  }

  std::size_t traces_total = 0;
  std::size_t broken = 0;
  for (const auto& outcome : outcomes) {
    traces_total += outcome.result.traces_run;
    if (outcome.result.broken) ++broken;
  }

  util::BenchJson report("campaign_service");
  util::Table table({"metric", "value"});
  const double rate = static_cast<double>(campaigns) / seconds;
  table.row().add("wall [s]").add(seconds, 2);
  table.row().add("campaigns/s").add(rate, 1);
  table.row().add("traces run").add(traces_total);
  table.row().add("broken").add(broken);
  table.row().add("evictions").add(stats.evictions);
  table.row().add("rehydrations").add(stats.rehydrations);
  table.row().add("blocks stolen").add(stats.blocks_stolen);
  table.row().add("max step gap").add(stats.max_step_gap);
  table.row().add("peak resident").add(stats.peak_resident);
  table.row().add("peak resident MiB")
      .add(static_cast<double>(stats.peak_resident_bytes) / (1024.0 * 1024.0),
           2);
  table.row().add("verified vs standalone").add(verified);
  table.print(std::cout);

  report.row()
      .set("campaigns", static_cast<std::int64_t>(campaigns))
      .set("traces_per_campaign", static_cast<std::int64_t>(traces))
      .set("threads", static_cast<std::int64_t>(threads))
      .set("max_resident", static_cast<std::int64_t>(max_resident))
      .set("memory_budget_bytes",
           static_cast<std::int64_t>(config.memory_budget_bytes))
      .set("quantum_steps", static_cast<std::int64_t>(quantum))
      .set("wall_seconds", seconds)
      .set("campaigns_per_second", rate)
      .set("traces_run", static_cast<std::int64_t>(traces_total))
      .set("campaigns_broken", static_cast<std::int64_t>(broken))
      .set("evictions", static_cast<std::int64_t>(stats.evictions))
      .set("rehydrations", static_cast<std::int64_t>(stats.rehydrations))
      .set("steps_completed",
           static_cast<std::int64_t>(stats.steps_completed))
      .set("blocks_run", static_cast<std::int64_t>(stats.blocks_run))
      .set("blocks_stolen", static_cast<std::int64_t>(stats.blocks_stolen))
      .set("max_step_gap", static_cast<std::int64_t>(stats.max_step_gap))
      .set("peak_resident", static_cast<std::int64_t>(stats.peak_resident))
      .set("peak_resident_bytes",
           static_cast<std::int64_t>(stats.peak_resident_bytes))
      .set("verified_vs_standalone", static_cast<std::int64_t>(verified))
      .set("verify_mismatches", static_cast<std::int64_t>(mismatches));
  obs::fill_bench_metrics(report.metrics());
  report.write("BENCH_campaign_service.json");
  obs::write_trace_out(trace_out);
  std::cout << "\nwrote BENCH_campaign_service.json\n";

  std::filesystem::remove_all(checkpoint_dir);
  if (mismatches != 0) {
    std::cout << "ERROR: service outcomes deviated from standalone runs — "
                 "determinism contract violated\n";
    return 1;
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return util::cli_main(argc, argv, run);
}
