// campaign_long: one long Basys3 key-extraction campaign — the
// sample/CPA hot path. stop_when_broken=false, so every repetition does
// the same work whatever the key; repetitions alternate between 4 workers
// and 1 worker on two worlds built from the same spec.
//
// Untraced: TraceCampaign::run, timed per repetition.
// Traced: the same campaign driven step by step through the public Task
// API (start / plan_step / run_block on a util::ThreadPool / finish_step /
// take_result), each call timed, on a world built by the timed replica of
// serve::make_standard_world; untraced run() repetitions interleave with
// it to measure the tracing overhead.
#include <algorithm>
#include <iostream>
#include <string>
#include <vector>

#include "bench.h"
#include "obs/metrics.h"
#include "util/thread_pool.h"

namespace perfbench {

using namespace leakydsp;

namespace {

constexpr std::size_t kTraces = 96000;
constexpr std::size_t kMinReps = 3;

serve::StandardCampaignSpec long_spec(std::uint64_t seed,
                                      std::size_t threads) {
  serve::StandardCampaignSpec spec;
  spec.id = "campaign-long";
  spec.seed = mix(seed, 1);
  spec.max_traces = kTraces;
  spec.block_traces = 64;
  spec.break_check_stride = 100;
  spec.rank_stride = 16000;
  spec.threads = threads;
  spec.stop_when_broken = false;
  return spec;
}

/// Per-call timings of one Task-driven campaign.
struct TaskRun {
  attack::CampaignResult result;
  double wall_ms = 0, cpu_s = 0;
  double plan_ms = 0, finish_ms = 0, take_ms = 0;
  std::vector<double> block_ms;
};

TaskRun run_tasks(const attack::TraceCampaign& campaign, util::Rng rng,
                  util::ThreadPool& pool) {
  TaskRun run;
  const double cpu0 = cpu_seconds();
  const auto start = Clock::now();
  auto task = campaign.start(rng);
  for (;;) {
    auto t = Clock::now();
    auto plan = campaign.plan_step(task, false);
    run.plan_ms += ms_since(t);
    if (plan.empty()) break;
    std::vector<double> block_ms(plan.block_count());
    pool.parallel_for(plan.block_count(), [&](std::size_t b) {
      const auto tb = Clock::now();
      campaign.run_block(plan, b);
      block_ms[b] = ms_since(tb);
    });
    run.block_ms.insert(run.block_ms.end(), block_ms.begin(), block_ms.end());
    t = Clock::now();
    const bool more = campaign.finish_step(task, std::move(plan));
    run.finish_ms += ms_since(t);
    if (!more) break;
  }
  const auto t = Clock::now();
  run.result = campaign.take_result(std::move(task));
  run.take_ms = ms_since(t);
  run.wall_ms = ms_since(start);
  run.cpu_s = cpu_seconds() - cpu0;
  return run;
}

/// The counters that repeat exactly for one seed.
std::vector<std::uint64_t> exact_counters() {
  return {counter("rng.draws"), counter("campaign.traces_sampled"),
          counter("cpa.traces_accumulated"), counter("pdn.solve.calls"),
          counter("pdn.solve.iterations")};
}

}  // namespace

void campaign_long(const Options& options, Report& report) {
  const ScratchDir scratch(options.scratch);
  const auto setup_start = Clock::now();
  auto world4 = serve::make_standard_world(long_spec(options.seed, kWorkers));
  auto world1 = serve::make_standard_world(long_spec(options.seed, 1));
  // The state run() receives; copied into every repetition.
  const util::Rng rng0 = world4->rng();
  warm_up(world4->campaign(), rng0);
  EndToEnd e2e;
  e2e.setup_s = ms_since(setup_start) / 1e3;
  if (options.setup_only) {
    report.check(true, "setup");
    report.metric("setup_s", e2e.setup_s, "s");
    return;
  }

  // Runs one repetition; its time goes into `times` when it completed.
  // Returns the time spent either way.
  std::string reference;
  const auto run_once = [&](attack::TraceCampaign& campaign,
                            const std::string& label,
                            std::vector<double>& times) {
    const auto start = Clock::now();
    report.attempt(label + " campaign", [&] {
      util::Rng rng = rng0;
      const auto result = campaign.run(rng, false);
      times.push_back(ms_since(start));
      if (reference.empty()) {
        reference = digest(result);
        report.check(result.broken && result.traces_to_break <= kTraces,
                     "key not broken within the trace budget");
      }
      report.check(digest(result) == reference,
                   label + " result differs from the first run");
    });
    return ms_since(start);
  };

  const double budget_ms = options.seconds * 1e3;
  double elapsed_ms = 0;
  if (!options.trace) {
    // Each worker count gets half of the measured time (the slower
    // 1-worker campaigns run fewer times), whichever is behind going next.
    std::vector<double> ms4, ms1;
    double spent4 = 0, spent1 = 0;
    std::size_t reps1 = 0;
    while (elapsed_ms < budget_ms || reps1 < kMinReps) {
      if (spent4 <= spent1) {
        spent4 += run_once(world4->campaign(), "4-worker", ms4);
      } else {
        spent1 += run_once(world1->campaign(), "1-worker", ms1);
        ++reps1;
      }
      elapsed_ms = spent4 + spent1;
    }
    e2e.traces_per_s = per_second(kTraces, ms4);
    e2e.traces_per_s_1t = per_second(kTraces, ms1);
    e2e.campaigns_per_s = per_second(1, ms4);
    std::cout << "campaign_long: " << ms4.size() << " x 4-worker, "
              << ms1.size() << " x 1-worker campaigns of " << kTraces
              << " traces; median " << median(ms4) << " / " << median(ms1)
              << " ms\n";
    e2e.emit(report);
    return;
  }

  // ---- traced: timed world build, then Task-driven campaigns ----
  Layers layers;
  obs::Registry::global().reset();
  const Basys3Fabric fabric;
  BuildLog log;
  auto spec = long_spec(options.seed, kWorkers);
  spec.checkpoint_dir = scratch.fresh("checkpoints");
  auto world = make_timed_standard_world(spec, fabric, log);
  auto builds = log.builds();
  builds.front().device_ms += fabric.device_ms;
  builds.front().grid_ms += fabric.grid_ms;
  builds.front().total_ms += fabric.device_ms + fabric.grid_ms;
  layers.add_builds(builds);
  layers.builds_per_job = layers.world_builds;  // one job
  const double build_solve_calls = static_cast<double>(counter("pdn.solve.calls"));
  const double build_solve_iters =
      static_cast<double>(counter("pdn.solve.iterations"));

  util::ThreadPool pool(kWorkers);
  warm_up(world->campaign(), world->rng());
  std::vector<double> untraced_ms, traced_ms, all_blocks;
  std::vector<std::uint64_t> first_counters;
  double sum_block = 0, sum_wall = 0, sum_cpu = 0;
  SpanTotals spans;
  std::size_t traced = 0;
  std::size_t attempts = 0;
  while (elapsed_ms < budget_ms || attempts < 2) {
    elapsed_ms += run_once(world4->campaign(), "4-worker", untraced_ms);

    ++attempts;
    obs::Registry::global().reset();
    const auto start = Clock::now();
    TaskRun run;
    spans.start();
    const bool ok = report.attempt("Task-driven campaign", [&] {
      run = run_tasks(world->campaign(), world->rng(), pool);
    });
    spans.stop();
    elapsed_ms += ms_since(start);
    if (!ok) continue;
    ++traced;
    traced_ms.push_back(run.wall_ms);
    report.check(digest(run.result) == reference,
                 "Task-driven result differs from run()");
    const auto counters = exact_counters();
    if (first_counters.empty()) {
      first_counters = counters;
      layers.read_counters();
    }
    report.check(counters == first_counters,
                 "exact counters differ between two traced campaigns");
    layers.plan_step_ms += run.plan_ms;
    layers.finish_step_ms += run.finish_ms;
    layers.take_result_ms += run.take_ms;
    for (const double b : run.block_ms) sum_block += b;
    all_blocks.insert(all_blocks.end(), run.block_ms.begin(),
                      run.block_ms.end());
    layers.blocks = static_cast<double>(run.block_ms.size());
    sum_wall += run.wall_ms;
    sum_cpu += run.cpu_s;
    if (traced == 1) {
      layers.traces_to_break = static_cast<double>(run.result.traces_to_break);
      layers.jobs_broken = run.result.broken ? 1 : 0;
    }
  }
  const double n = static_cast<double>(std::max<std::size_t>(traced, 1));
  layers.plan_step_ms /= n;
  layers.finish_step_ms /= n;
  layers.take_result_ms /= n;
  layers.run_block_ms = sum_block / n;
  layers.run_block_p50_ms = median(all_blocks);
  layers.run_block_tail = tail(all_blocks);
  if (sum_wall > 0) {
    layers.pool_busy_frac = sum_block / (sum_wall * kWorkers);
    layers.cpu_util = sum_cpu * 1e3 / (sum_wall * kWorkers);
  }
  layers.cpa_accumulate_ms = spans.ms("cpa.accumulate") / n;
  layers.checkpoint_ms = spans.ms("campaign.checkpoint") / n;
  layers.sample_ms = spans.ms("sensor.sample") / n;
  layers.supply_solve_ms = spans.ms("pdn.supply_solve") / n;
  layers.solve_calls += build_solve_calls;
  layers.solve_iterations += build_solve_iters;
  const double untraced = median(untraced_ms);
  layers.world_build_share =
      layers.world_build_ms / (layers.world_build_ms + untraced);
  if (untraced > 0 && !traced_ms.empty()) {
    layers.overhead_ms = median(traced_ms) - untraced;
    layers.overhead_frac = layers.overhead_ms / untraced;
  }
  layers.spans_dropped = static_cast<double>(spans.dropped());
  layers.emit(report);
}

}  // namespace perfbench
