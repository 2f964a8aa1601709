// The shared runner of the service-shaped workloads (service_churn,
// sweep_large_die): every drain runs its jobs through one fresh
// serve::CampaignService with residency below the job count and
// quantum_steps=1, so most boundary steps end in eviction.
//
// Untraced: drains alternate between 4 workers and 1 worker; only
// CampaignService::drain() is timed (service construction and enqueueing
// are per-drain set-up). Traced: untraced drains through the library's
// own job factories alternate with traced drains through the timed world
// replicas, with the library's spans recording.
#include <algorithm>
#include <filesystem>
#include <iostream>
#include <string>
#include <vector>

#include "bench.h"
#include "obs/metrics.h"

namespace perfbench {

using namespace leakydsp;

namespace {

constexpr std::size_t kMinDrains = 3;

struct Drain {
  std::vector<serve::CampaignOutcome> outcomes;
  serve::ServiceStats stats;
  std::string dir;
  double drain_ms = 0, cpu_s = 0;
};

}  // namespace

void run_service_workload(const Options& options, Report& report,
                          ServiceWorkload& w) {
  const ScratchDir scratch(options.scratch);
  std::size_t drains = 0;
  const auto prepare = [&](std::size_t threads, BuildLog* log) {
    const std::string dir = scratch.fresh("drain-" + std::to_string(drains++));
    serve::ServiceConfig config;
    config.threads = threads;
    config.max_resident = kMaxResident;
    config.quantum_steps = 1;
    config.checkpoint_dir = dir;
    auto service = std::make_unique<serve::CampaignService>(config);
    w.enqueue(*service, dir, log);
    return std::make_pair(std::move(service), dir);
  };
  const auto run = [](serve::CampaignService& service, std::string dir) {
    Drain d;
    d.dir = std::move(dir);
    const double cpu0 = cpu_seconds();
    const auto start = Clock::now();
    d.outcomes = service.drain();
    d.drain_ms = ms_since(start);
    d.cpu_s = cpu_seconds() - cpu0;
    d.stats = service.stats();
    return d;
  };

  const auto setup_start = Clock::now();
  w.setup();
  auto first = prepare(kWorkers, nullptr);
  const double setup_s = ms_since(setup_start) / 1e3;
  if (options.setup_only) {
    report.check(true, "setup");
    report.metric("setup_s", setup_s, "s");
    return;
  }

  // Every drain must reproduce the first one byte for byte. The first
  // drain's directory stays for verify(); later ones are removed as soon
  // as they are digested, so disk use stays one drain deep.
  std::string reference;
  Drain first_drain;
  const auto digest_drain = [&](Drain& d, const std::string& label) {
    const DrainSummary summary = w.summarize(d.outcomes, d.dir);
    if (reference.empty()) {
      reference = summary.digest;
      first_drain = d;
    } else {
      report.check(summary.digest == reference,
                   label + " drain differs from the first drain");
      std::filesystem::remove_all(d.dir);
    }
    return summary;
  };

  const auto verify = [&] {
    if (reference.empty()) {
      report.fail("no drain completed, nothing to verify");
      return;
    }
    report.attempt("output checks", [&] {
      w.verify(report, first_drain.outcomes, first_drain.dir);
    });
  };

  const double budget_ms = options.seconds * 1e3;
  double elapsed_ms = 0;
  auto service = std::move(first.first);
  std::string dir = first.second;
  if (!options.trace) {
    // Each worker count gets half of the measured time, whichever is
    // behind going next.
    std::vector<double> ms4, ms1;
    double spent4 = 0, spent1 = 0;
    std::size_t drains1 = 0;
    while (elapsed_ms < budget_ms || drains1 < kMinDrains) {
      const bool four = spent4 <= spent1;
      const std::string label = four ? "4-worker" : "1-worker";
      const auto start = Clock::now();
      report.attempt(label + " drain", [&] {
        if (!service) {
          std::tie(service, dir) = prepare(four ? kWorkers : 1, nullptr);
        }
        Drain d = run(*service, dir);
        service.reset();
        (four ? ms4 : ms1).push_back(d.drain_ms);
        digest_drain(d, label);
      });
      service.reset();
      (four ? spent4 : spent1) += ms_since(start);
      drains1 += four ? 0 : 1;
      elapsed_ms = spent4 + spent1;
    }
    verify();
    EndToEnd e2e;
    e2e.setup_s = setup_s;
    e2e.traces_per_s = per_second(static_cast<double>(w.traces), ms4);
    e2e.traces_per_s_1t = per_second(static_cast<double>(w.traces), ms1);
    e2e.campaigns_per_s = per_second(static_cast<double>(w.jobs), ms4);
    std::cout << ms4.size() << " x 4-worker, " << ms1.size()
              << " x 1-worker drains of " << w.jobs << " jobs, " << w.traces
              << " traces; median " << median(ms4) << " / " << median(ms1)
              << " ms\n";
    e2e.emit(report);
    return;
  }

  // ---- traced ----
  Layers layers;
  layers.scheduled = true;
  BuildLog log;
  SpanTotals spans;
  std::vector<double> untraced_ms, traced_ms;
  std::vector<BuildPieces> all_builds;
  std::vector<std::uint64_t> first_exact;
  double sum_block = 0, sum_wall = 0, sum_cpu = 0;
  double evictions = 0, rehydrations = 0, stolen = 0, gap = 0, peak = 0;
  double solve_calls = 0, solve_iters = 0, checkpoint_bytes = 0, fuse_ms = 0;
  std::size_t traced = 0, attempts = 0;
  while (elapsed_ms < budget_ms || attempts < 2) {
    ++attempts;
    const auto start = Clock::now();
    report.attempt("untraced drain", [&] {
      if (!service) std::tie(service, dir) = prepare(kWorkers, nullptr);
      Drain plain = run(*service, dir);
      service.reset();
      untraced_ms.push_back(plain.drain_ms);
      digest_drain(plain, "untraced");
    });
    service.reset();

    log.clear();
    Drain d;
    spans.start();
    const bool ok = report.attempt("traced drain", [&] {
      auto traced_service = prepare(kWorkers, &log);
      obs::Registry::global().reset();
      d = run(*traced_service.first, traced_service.second);
    });
    spans.stop();
    elapsed_ms += ms_since(start);
    if (!ok) continue;
    ++traced;
    traced_ms.push_back(d.drain_ms);

    const auto block_hist = histogram("campaign.block_ms");
    const std::vector<std::uint64_t> exact = {
        counter("rng.draws"), counter("campaign.traces_sampled"),
        counter("cpa.traces_accumulated"), block_hist.total,
        d.stats.blocks_run};
    if (first_exact.empty()) {
      first_exact = exact;
      layers.read_counters();
      layers.blocks = static_cast<double>(block_hist.total);
      layers.run_block_p50_ms = histogram_median(block_hist);
      layers.run_block_tail = histogram_tail(block_hist);
      layers.blocks_run = static_cast<double>(d.stats.blocks_run);
    }
    report.check(exact == first_exact,
                 "exact counters differ between two traced drains");
    solve_calls += static_cast<double>(counter("pdn.solve.calls"));
    solve_iters += static_cast<double>(counter("pdn.solve.iterations"));
    checkpoint_bytes +=
        static_cast<double>(counter("campaign.checkpoint.bytes"));
    sum_block += block_hist.sum;
    sum_wall += d.drain_ms;
    sum_cpu += d.cpu_s;
    evictions += static_cast<double>(d.stats.evictions);
    rehydrations += static_cast<double>(d.stats.rehydrations);
    stolen += static_cast<double>(d.stats.blocks_stolen);
    gap += static_cast<double>(d.stats.max_step_gap);
    peak += static_cast<double>(d.stats.peak_resident_bytes);
    const auto builds = log.builds();
    all_builds.insert(all_builds.end(), builds.begin(), builds.end());

    report.attempt("traced drain outputs", [&] {
      const DrainSummary summary = digest_drain(d, "traced");
      fuse_ms += summary.fuse_ms;
      if (traced == 1) {
        layers.traces_to_break = summary.traces_to_break;
        layers.jobs_broken = summary.jobs_broken;
        layers.fused_correct_bytes = summary.fused_correct_bytes;
        layers.trace_file_bytes = summary.trace_file_bytes;
      }
    });
  }
  verify();

  const double n = static_cast<double>(std::max<std::size_t>(traced, 1));
  layers.add_builds(all_builds);
  layers.world_builds /= n;
  layers.world_build_ms /= n;
  layers.generate_device_ms /= n;
  layers.grid_build_ms /= n;
  layers.coupling_ms /= n;
  layers.calibrate_ms /= n;
  // Builds every drain shares (made once per process).
  for (const auto& b : w.one_off_builds) {
    layers.generate_device_ms += b.device_ms;
    layers.grid_build_ms += b.grid_ms;
    layers.coupling_ms += b.coupling_ms;
    layers.calibrate_ms += b.calibrate_ms;
  }
  layers.plan_sweep_ms = w.plan_sweep_ms;
  layers.fuse_cell_ms = fuse_ms / n;
  layers.drain_ms = sum_wall / n;
  layers.builds_per_job = layers.world_builds / static_cast<double>(w.jobs);
  layers.run_block_ms = sum_block / n;
  if (sum_wall > 0) {
    layers.world_build_share = layers.world_build_ms / layers.drain_ms;
    layers.pool_busy_frac = sum_block / (sum_wall * kWorkers);
    layers.cpu_util = sum_cpu * 1e3 / (sum_wall * kWorkers);
  }
  layers.cpa_accumulate_ms = spans.ms("cpa.accumulate") / n;
  layers.checkpoint_ms = spans.ms("campaign.checkpoint") / n;
  layers.sample_ms = spans.ms("sensor.sample") / n;
  layers.supply_solve_ms = spans.ms("pdn.supply_solve") / n;
  layers.solve_calls = solve_calls / n;
  layers.solve_iterations = solve_iters / n;
  layers.checkpoint_bytes = checkpoint_bytes / n;
  layers.evictions = evictions / n;
  layers.rehydrations = rehydrations / n;
  layers.blocks_stolen = stolen / n;
  layers.max_step_gap = gap / n;
  layers.peak_resident_bytes = peak / n;
  const double untraced = median(untraced_ms);
  if (untraced > 0 && !traced_ms.empty()) {
    layers.overhead_ms = median(traced_ms) - untraced;
    layers.overhead_frac = layers.overhead_ms / untraced;
  }
  layers.spans_dropped = static_cast<double>(spans.dropped());
  layers.emit(report);
}

}  // namespace perfbench
