// Shared pieces of the repository benchmark: options, the result report,
// timing and statistics helpers, the span/counter readers, and the timed
// world builders the traced runs use to split a world build into layers.
//
// The benchmark only calls the library's public API. Per-layer times come
// from three places, all outside src/: steady-clock timers around public
// calls made from these files, the library's existing OBS spans (read back
// from obs::SpanSink), and its existing registry counters (read back from
// obs::Registry).
#pragma once

#include <chrono>
#include <functional>
#include <iosfwd>
#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "attack/campaign.h"
#include "obs/metrics.h"
#include "fabric/device.h"
#include "pdn/grid.h"
#include "scenario/placement_sweep.h"
#include "serve/campaign_service.h"
#include "serve/standard_jobs.h"
#include "sim/scenarios.h"

namespace perfbench {

namespace ld = leakydsp;

/// Worker threads of every 4-worker measurement (the benchmark host's
/// core count; all load comes from this one process).
inline constexpr std::size_t kWorkers = 4;
/// Campaigns hydrated at once in the service workloads: below their job
/// counts, so boundary steps end in eviction.
inline constexpr std::size_t kMaxResident = 4;

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Run only the set-up phase and report setup_s (run.py starts several
  /// fresh processes this way, so every sample includes first-call lazy
  /// set-up).
  bool setup_only = false;
  /// Parent directory of this run's fresh scratch directory.
  std::string scratch = ".";
};

/// Outcome tally plus the metrics of one run, printed as the final JSON
/// line.
class Report {
 public:
  /// One checked operation; a false `ok` counts as failed and is logged
  /// to stderr with `what`.
  void check(bool ok, const std::string& what);
  /// An operation that threw instead of completing.
  void fail(const std::string& what);
  /// Runs `op`; an exception escaping it counts as one failed operation.
  /// Returns whether `op` completed.
  template <typename Op>
  bool attempt(const std::string& what, Op&& op) {
    try {
      op();
      return true;
    } catch (const std::exception& e) {
      fail(what + ": " + e.what());
      return false;
    }
  }

  /// `note` marks counters: "exact" repeats exactly between two runs of
  /// one seed, "schedule" depends on thread timing; "" is a host time.
  void metric(const std::string& name, double value, const std::string& unit,
              const std::string& note = "");

  /// The metrics as an aligned human-readable table.
  void print_table(std::ostream& out) const;

  /// {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
  std::string json() const;

 private:
  struct Metric {
    std::string name;
    double value;
    std::string unit;
    std::string note;
  };
  std::size_t attempted_ = 0;
  std::size_t failed_ = 0;
  std::vector<Metric> metrics_;
};

using Clock = std::chrono::steady_clock;

inline double ms_since(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start)
      .count();
}

double median(std::vector<double> values);
/// `count` per second of the median of `ms` (0 when nothing completed).
double per_second(double count, const std::vector<double>& ms);

/// The highest of the 99.9th/99th/95th/90th/75th/50th percentiles that
/// still has at least ten samples beyond it (nearest-rank), with the
/// percentile it used; {50, median} when there are fewer than 20 samples.
struct Tail {
  double percentile = 50.0;
  double value = 0.0;
};
Tail tail(std::vector<double> values);

/// Process CPU time (user + system) from getrusage, in seconds.
double cpu_seconds();
/// Peak resident set of this process (VmHWM), in MiB.
double peak_rss_mb();

/// Every field of a campaign result serialized bit for bit: two results
/// are byte-identical exactly when their digests are equal.
std::string digest(const ld::attack::CampaignResult& result);

/// Reads a whole file (empty when missing).
std::string file_bytes(const std::string& path);

/// splitmix64: derives independent sub-seeds from the run's --seed.
std::uint64_t mix(std::uint64_t seed, std::uint64_t salt);

/// A fresh directory under the run's scratch parent, removed (with
/// everything inside) when the object dies — checkpoint and trace files
/// never outlive the run.
class ScratchDir {
 public:
  explicit ScratchDir(const std::string& parent);
  ~ScratchDir();
  ScratchDir(const ScratchDir&) = delete;
  ScratchDir& operator=(const ScratchDir&) = delete;

  const std::string& path() const { return path_; }
  /// A new, empty subdirectory (for one drain's checkpoints/files).
  std::string fresh(const std::string& name) const;

 private:
  std::string path_;
};

/// Sums of the library's existing OBS spans by name, in milliseconds
/// summed over every recording thread. start() clears and enables the
/// process-wide sink; stop() disables it and folds the recorded events.
class SpanTotals {
 public:
  void start();
  void stop();
  double ms(const std::string& name) const;
  /// Events lost to full per-thread rings (the totals undercount then).
  std::uint64_t dropped() const { return dropped_; }

 private:
  std::map<std::string, double> ms_;
  std::uint64_t dropped_ = 0;
};

/// Registry counter totals (0 when the counter never registered).
std::uint64_t counter(const std::string& name);
/// A registry histogram (empty when unregistered).
ld::obs::Registry::HistogramSnapshot histogram(const std::string& name);
/// Median and tail (same percentile rule as tail()) of a bucketed
/// histogram, interpolated within buckets by obs::estimate_quantile.
double histogram_median(const ld::obs::Registry::HistogramSnapshot& h);
Tail histogram_tail(const ld::obs::Registry::HistogramSnapshot& h);

/// Runs one block of a fresh task: pays the first-call lazy set-up
/// (kernel dispatch, tables, samplers) before anything is timed.
void warm_up(const ld::attack::TraceCampaign& campaign, ld::util::Rng rng);

/// Host time of each layer one world build passes through. Builds may run
/// on service worker threads, so record() is thread-safe.
struct BuildPieces {
  double device_ms = 0.0;     ///< fabric::generate_device
  double grid_ms = 0.0;       ///< pdn::PdnGrid constructor
  double coupling_ms = 0.0;   ///< sim::SensorRig constructor (transfer gains)
  double calibrate_ms = 0.0;  ///< sim::SensorRig::calibrate
  double total_ms = 0.0;      ///< the whole factory call
};

class BuildLog {
 public:
  void record(const BuildPieces& pieces);
  /// Snapshot of every build so far.
  std::vector<BuildPieces> builds() const;
  void clear();

 private:
  mutable std::mutex mutex_;
  std::vector<BuildPieces> builds_;
};

/// The Basys3 fabric and PDN mesh every standard world shares, built from
/// the public constructors with each one timed (the library builds the
/// same pair once per process, inside sim::Basys3Scenario).
struct Basys3Fabric {
  Basys3Fabric();
  // The timings precede the objects: members initialize in this order.
  double device_ms = 0.0;
  double grid_ms = 0.0;
  ld::fabric::Device device;
  ld::pdn::PdnGrid grid;
  ld::sim::Basys3Scenario scenario;  ///< placement constants only
};

/// A world built from the same public constructors, in the same order, as
/// serve::make_standard_world — each layer timed into `log`. Campaigns it
/// builds are checked byte-identical to the library factory's.
std::unique_ptr<ld::serve::CampaignWorld> make_timed_standard_world(
    const ld::serve::StandardCampaignSpec& spec, const Basys3Fabric& fabric,
    BuildLog& log);

/// As above for scenario::make_sweep_world (the die and its PDN mesh are
/// generated per world, exactly as the library factory does).
std::unique_ptr<ld::serve::CampaignWorld> make_timed_sweep_world(
    const ld::scenario::CellWorldSpec& spec, BuildLog& log);

/// The per-layer metrics every traced run prints (one name list for all
/// workloads; a layer a workload never calls reads 0).
struct Layers {
  double pool_busy_frac = 0, cpu_util = 0;
  double plan_step_ms = 0, run_block_ms = 0, run_block_p50_ms = 0;
  Tail run_block_tail{0.0, 0.0};
  double blocks = 0, finish_step_ms = 0, take_result_ms = 0;
  double cpa_accumulate_ms = 0, checkpoint_ms = 0;
  double sample_ms = 0, calibrate_ms = 0;
  double grid_build_ms = 0, coupling_ms = 0, supply_solve_ms = 0;
  double solve_calls = 0, solve_iterations = 0;
  double generate_device_ms = 0, plan_sweep_ms = 0, fuse_cell_ms = 0;
  double drain_ms = 0, world_builds = 0, world_build_ms = 0;
  double world_build_p50_ms = 0;
  Tail world_build_tail{0.0, 0.0};
  double builds_per_job = 0, world_build_share = 0;
  double checkpoint_bytes = 0, trace_file_bytes = 0;
  double evictions = 0, rehydrations = 0, blocks_run = 0, blocks_stolen = 0;
  double max_step_gap = 0, peak_resident_bytes = 0;
  double rng_draws = 0, traces_sampled = 0, traces_accumulated = 0;
  double traces_to_break = 0, jobs_broken = 0, fused_correct_bytes = 0;
  double overhead_ms = 0, overhead_frac = 0;
  double spans_dropped = 0;
  /// Service-shaped workload: world builds, PDN solves and checkpoint
  /// writes then follow the eviction schedule instead of repeating.
  bool scheduled = false;

  /// Folds a set of world builds into the fabric/pdn/sensors/serve fields.
  void add_builds(const std::vector<BuildPieces>& builds);
  /// The exact work counters and PDN solve counters from the registry.
  void read_counters();
  void emit(Report& report) const;
};

/// The end-to-end metrics of an untraced run. setup_s is this process's
/// own set-up; run.py reports the median over it and several set-up-only
/// processes.
struct EndToEnd {
  double traces_per_s = 0, traces_per_s_1t = 0, campaigns_per_s = 0;
  double setup_s = 0;
  void emit(Report& report) const;
};

/// One drain's outcomes reduced to what the runner compares and reports.
struct DrainSummary {
  std::string digest;  ///< every result byte; equal across drains
  double traces_to_break = 0, jobs_broken = 0, fused_correct_bytes = 0;
  double fuse_ms = 0, trace_file_bytes = 0;
};

/// What a service-shaped workload plugs into the shared runner
/// (service_churn and sweep_large_die): its jobs, how to enqueue them,
/// and how to digest and verify one drain's outcomes.
struct ServiceWorkload {
  std::size_t jobs = 0;    ///< jobs per drain
  std::size_t traces = 0;  ///< simulated traces per drain
  /// Workload set-up before the first service (timed into setup_s).
  std::function<void()> setup;
  /// Enqueues every job; a non-null log selects the timed world replicas.
  std::function<void(ld::serve::CampaignService&, const std::string& dir,
                     BuildLog* log)>
      enqueue;
  std::function<DrainSummary(const std::vector<ld::serve::CampaignOutcome>&,
                             const std::string& dir)>
      summarize;
  /// Output checks against the library's standalone reference paths.
  std::function<void(Report&, const std::vector<ld::serve::CampaignOutcome>&,
                     const std::string& dir)>
      verify;
  /// Traced runs: builds shared by every drain (made once) and the
  /// set-up time of scenario::plan_sweep.
  std::vector<BuildPieces> one_off_builds;
  double plan_sweep_ms = 0;
};

void run_service_workload(const Options& options, Report& report,
                          ServiceWorkload& workload);

void campaign_long(const Options& options, Report& report);
void service_churn(const Options& options, Report& report);
void sweep_large_die(const Options& options, Report& report);

}  // namespace perfbench
