// leakydsp_serve: drains a queue of seed-derived key-extraction campaigns
// through the bounded CampaignService — N hydrated worlds at most, an
// optional memory budget, fair block-granularity scheduling over one
// thread pool, and durable per-campaign checkpoints so a killed server can
// be restarted with --resume and pick up exactly where it left off.
//
//   leakydsp_serve --campaigns 64                 # drain 64 campaigns
//   leakydsp_serve --campaigns 64 --resume        # continue a killed run
//   leakydsp_serve --campaigns 8 --max-resident 2 --budget-mb 4
//                  --quantum 1 --threads 4        # tight-residency smoke
//   leakydsp_serve --campaigns 64 --metrics-port 9090
//       # live /metrics, /statusz and /healthz on 127.0.0.1:9090 while
//       # draining (--metrics-port 0 picks an ephemeral port and prints it)
//
// Every campaign's result is byte-identical to a standalone
// TraceCampaign::run of the same spec, whatever the scheduling. Exit
// status 0 iff every campaign drained without error, 2 on a usage error
// (unknown or malformed flag), 1 on any other failure.
#include <chrono>
#include <cstdint>
#include <exception>
#include <filesystem>
#include <iostream>
#include <memory>
#include <string>

#include "obs/export.h"
#include "obs/obs.h"
#include "serve/campaign_service.h"
#include "serve/standard_jobs.h"
#include "util/cli.h"
#include "util/table.h"

using namespace leakydsp;

namespace {

serve::StandardCampaignSpec spec_for(std::size_t index, std::uint64_t seed,
                                     std::size_t traces,
                                     const std::string& checkpoint_dir) {
  serve::StandardCampaignSpec spec;
  spec.id = "job-" + std::to_string(index);
  spec.seed = seed * 1315423911ULL + index * 2654435761ULL + 1;
  spec.max_traces = traces;
  spec.block_traces = 16;
  spec.break_check_stride = 32;
  spec.rank_stride = traces;
  spec.checkpoint_dir = checkpoint_dir;
  return spec;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const util::Cli cli(argc, argv,
                        {"campaigns", "traces", "seed", "threads",
                         "max-resident", "budget-mb", "quantum",
                         "checkpoint-dir", "resume!", "metrics-port",
                         "metrics-host", "stall-deadline-ms"},
                        obs::cli_options());
    const std::string trace_out = obs::apply_cli(cli);
    const auto campaigns =
        static_cast<std::size_t>(cli.get_int("campaigns", 16));
    const auto traces = static_cast<std::size_t>(cli.get_int("traces", 64));
    const auto seed = cli.get_seed("seed", 7);
    const std::size_t threads = cli.get_threads();
    const auto max_resident =
        static_cast<std::size_t>(cli.get_int("max-resident", 4));
    const auto budget_mb =
        static_cast<std::size_t>(cli.get_int("budget-mb", 0));
    const auto quantum = static_cast<std::size_t>(cli.get_int("quantum", 2));
    const std::string checkpoint_dir = cli.get_string(
        "checkpoint-dir",
        (std::filesystem::temp_directory_path() / "leakydsp_serve").string());
    const bool resume = cli.get_flag("resume");

    serve::ServiceConfig config;
    config.threads = threads;
    config.max_resident = max_resident;
    config.memory_budget_bytes = budget_mb * 1024 * 1024;
    config.quantum_steps = quantum;
    config.checkpoint_dir = checkpoint_dir;

    serve::CampaignService service(config);

    // Optional live exposition: /metrics, /statusz and /healthz answer for
    // the whole drain, reading only lock-protected snapshots — results stay
    // byte-identical whether or not anyone scrapes.
    std::unique_ptr<obs::ExpositionServer> metrics_server;
    if (cli.has("metrics-port")) {
      obs::ExpositionConfig metrics_config;
      metrics_config.bind_address = cli.get_string("metrics-host", "127.0.0.1");
      metrics_config.port =
          static_cast<std::uint16_t>(cli.get_int("metrics-port", 0));
      metrics_config.stall_deadline =
          std::chrono::milliseconds(cli.get_int("stall-deadline-ms", 10000));
      metrics_server =
          std::make_unique<obs::ExpositionServer>(std::move(metrics_config));
      metrics_server->set_status_provider(
          [&service] { return service.statusz_json(); });
      metrics_server->set_health_provider([&service] {
        const serve::HealthSnapshot health = service.health();
        return obs::HealthProbe{health.jobs_remaining,
                                health.ns_since_progress};
      });
      std::cout << "metrics: http://" << cli.get_string("metrics-host",
                                                        "127.0.0.1")
                << ":" << metrics_server->port()
                << "  (/metrics /statusz /healthz)\n";
    }

    std::size_t resumed = 0;
    for (std::size_t i = 0; i < campaigns; ++i) {
      const serve::StandardCampaignSpec spec =
          spec_for(i, seed, traces, checkpoint_dir);
      serve::CampaignJob job = serve::make_standard_job(spec);
      // A previous (killed) server run left this campaign's durable
      // checkpoint behind: rehydrate it instead of starting over.
      if (resume && attack::TraceCampaign::checkpoint_exists(checkpoint_dir,
                                                             spec.id)) {
        job.resume = true;
        ++resumed;
      }
      service.enqueue(std::move(job));
    }

    std::cout << "=== leakydsp_serve: " << campaigns << " campaigns x "
              << traces << " traces, " << max_resident
              << " resident, checkpoints in " << checkpoint_dir << " ===\n";
    if (resumed > 0) {
      std::cout << "resuming " << resumed
                << " campaign(s) from durable checkpoints\n";
    }
    std::cout << std::endl;

    const auto outcomes = service.drain();
    const serve::ServiceStats& stats = service.stats();

    util::Table table({"id", "traces", "broken", "to-break", "evictions",
                       "steps", "workers"});
    std::size_t broken = 0;
    for (const auto& outcome : outcomes) {
      if (outcome.result.broken) ++broken;
      table.row()
          .add(outcome.id)
          .add(outcome.result.traces_run)
          .add(outcome.result.broken ? "yes" : "no")
          .add(outcome.result.broken ? outcome.result.traces_to_break : 0)
          .add(outcome.evictions)
          .add(outcome.steps)
          .add(static_cast<std::size_t>(
              __builtin_popcountll(outcome.worker_mask)));
    }
    table.print(std::cout);

    std::cout << "\ncompleted " << stats.campaigns_completed << " campaigns ("
              << broken << " broken), " << stats.evictions << " evictions, "
              << stats.rehydrations << " rehydrations, "
              << stats.blocks_stolen << " blocks stolen, peak "
              << stats.peak_resident << " resident\n";
    if (metrics_server) {
      std::cout << "metrics: served " << metrics_server->requests_served()
                << " request(s)\n";
      metrics_server->stop();
    }
    obs::write_trace_out(trace_out);
    // Every campaign finished: its checkpoint is consumed state, and
    // leaving it behind would make a later --resume of the same seeds
    // rehydrate stale completions.
    for (std::size_t i = 0; i < campaigns; ++i) {
      std::error_code ec;
      std::filesystem::remove(
          std::filesystem::path(checkpoint_dir) /
              ("campaign-job-" + std::to_string(i) + ".ckpt"),
          ec);
    }
    return 0;
  } catch (const util::CliError& e) {
    std::cerr << "leakydsp_serve: " << e.what() << "\n";
    return 2;
  } catch (const std::exception& e) {
    std::cerr << "leakydsp_serve: " << e.what() << "\n";
    return 1;
  }
}
