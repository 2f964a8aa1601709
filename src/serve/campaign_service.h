// Campaign service: multiplexes many independent key-extraction campaigns
// over one fixed util::ThreadPool.
//
// The service schedules at trace-block granularity on top of the
// resumable-task interface of attack::TraceCampaign (Task / StepPlan /
// run_block / finish_step): every resident campaign's current boundary
// step is expanded into independently runnable blocks, the blocks are
// dealt round-robin across per-worker deques, and idle workers steal from
// their peers — so one slow campaign can never park the pool while
// runnable blocks exist elsewhere. Determinism is inherited, not
// re-proven: each block draws from per-trace RNG forks and finish_step
// merges shards in block order, so every campaign's final CampaignResult
// is byte-identical to a standalone TraceCampaign::run at any thread
// count, schedule, or eviction pattern (pinned by tests/test_serve.cpp
// and the serve.scheduled_vs_standalone differential oracle).
//
// Residency is bounded two ways: at most `max_resident` worlds are alive
// at once (resident, being built, or parked by the budget), and the
// residents' summed approx_task_bytes() must fit `memory_budget_bytes`.
// Admission runs in three phases: a worker reserves a slot under the
// service mutex, builds the world and its task without it, and installs
// the result under it again — so idle workers build worlds concurrently.
// When queued campaigns are waiting, a resident campaign is evicted after
// `quantum_steps` boundary steps: its Task is suspended into the durable
// per-campaign checkpoint ("campaign-<id>.ckpt" inside checkpoint_dir),
// its world is destroyed, and only then does it re-enter the FIFO queue
// to be rehydrated later — possibly on a different worker — via
// TraceCampaign::load_task().
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "attack/campaign.h"
#include "util/rng.h"

namespace leakydsp::serve {

/// Everything one campaign needs alive while resident: the world (device,
/// grid, sensor, rig, AES model) plus the TraceCampaign bound to it.
/// Factories must be deterministic — admission and every rehydration build
/// the world again, and TraceCampaign::load_task() rejects a checkpoint
/// whose campaign was configured differently. Worlds may share immutable
/// state (a die, its mesh, solved transfer gains) with each other, since
/// workers build and run them concurrently; mutable state stays per world.
class CampaignWorld {
 public:
  virtual ~CampaignWorld() = default;

  /// The campaign, configured with the service's checkpoint_dir and this
  /// job's id as CampaignConfig::campaign_id whenever eviction is
  /// possible (the service suspends through it).
  virtual attack::TraceCampaign& campaign() = 0;

  /// RNG in the exact state a standalone run() would receive it — i.e.
  /// after the factory consumed its world-building draws. Used once, on
  /// fresh start; rehydrations restore the stream from the checkpoint.
  virtual util::Rng& rng() = 0;
};

/// Streaming trace-recording variant of a job: instead of driving the CPA
/// loop, the job runs its campaign's record task (TraceCampaign::
/// start_record), writing `traces` chained-plaintext traces into a v2
/// trace file at `out_path`. Its waves of blocks share the scheduler with
/// attack steps, and memory stays bounded at one wave. The file is
/// byte-identical to TraceCampaign::record(writer) for the same world and
/// seed. Record tasks are not suspendable — a v2 file only commits at its
/// footer — so a record job runs to completion once admitted and is never
/// evicted. enqueue() rejects zero traces, an empty path, `resume`, and a
/// path another queued record job already writes.
struct RecordJobSpec {
  std::size_t traces = 0;
  std::string out_path;
};

/// One queued campaign.
struct CampaignJob {
  /// Stable identity: keys the durable checkpoint file name and the
  /// per-campaign metric labels. Must be unique within a service.
  std::string id;
  /// Deterministic world factory (see CampaignWorld). The service calls
  /// it without holding any lock, from whichever worker admits the job,
  /// so factories of different jobs may run at the same time: a factory
  /// may only share state that is immutable or internally synchronized.
  std::function<std::unique_ptr<CampaignWorld>()> make;
  bool stop_when_broken = true;
  /// Rehydrate from this job's existing durable checkpoint instead of
  /// starting fresh (same contract as TraceCampaign::resume: throws
  /// CheckpointError when none exists). How a killed service run is
  /// continued: re-enqueue the unfinished jobs with resume = true.
  bool resume = false;
  /// When set, this job records traces instead of attacking.
  std::optional<RecordJobSpec> record;
};

/// Service configuration.
struct ServiceConfig {
  /// Pool size (0 = hardware concurrency).
  std::size_t threads = 0;
  /// Maximum concurrently hydrated campaigns.
  std::size_t max_resident = 8;
  /// Admission budget over the residents' approx_task_bytes() (0 =
  /// unbounded). At least one campaign is always admitted regardless, so
  /// an oversized single campaign degrades to sequential, never deadlock.
  /// A built world the budget refuses is parked, keeping its slot, and
  /// installs on a later release without being rebuilt.
  std::size_t memory_budget_bytes = 0;
  /// Boundary steps a resident campaign runs per residency turn before it
  /// is evicted in favor of a queued one (only when campaigns are
  /// actually waiting; an uncontended service never evicts).
  std::size_t quantum_steps = 1;
  /// Durable checkpoint directory, shared by all campaigns (each gets its
  /// own keyed file). Required when eviction can occur, i.e. whenever
  /// more jobs are queued than max_resident.
  std::string checkpoint_dir;
};

/// Final record of one drained job, in enqueue order.
struct CampaignOutcome {
  std::string id;
  attack::CampaignResult result;   ///< attack jobs; default for record jobs
  std::size_t traces_recorded = 0; ///< record jobs
  std::size_t evictions = 0;       ///< times this campaign was suspended
  std::size_t steps = 0;           ///< boundary steps (attack) or waves
  /// Bit b set = scheduler worker b (0..63) ran at least one block.
  std::uint64_t worker_mask = 0;
};

/// Aggregate scheduler statistics of one drain().
struct ServiceStats {
  std::size_t campaigns_completed = 0;
  std::size_t evictions = 0;
  std::size_t rehydrations = 0;
  std::size_t steps_completed = 0;
  std::size_t blocks_run = 0;
  std::size_t blocks_stolen = 0;   ///< blocks taken from another worker's deque
  /// Fairness: the worst gap, in globally completed steps, between two
  /// consecutive step completions of the same campaign while it was
  /// resident. With R residents and quantum q this stays O(R * q) under
  /// the round-robin + stealing scheduler; a starved campaign shows up as
  /// a gap proportional to the whole drain.
  std::size_t max_step_gap = 0;
  std::size_t peak_resident = 0;
  std::size_t peak_resident_bytes = 0;
};

/// Lifecycle of one job as seen by live introspection (/statusz).
enum class CampaignState : std::uint8_t {
  kQueued,    ///< waiting for a residency slot, no progress yet
  kResident,  ///< hydrated, its blocks are in the worker deques
  kEvicted,   ///< suspended to its durable checkpoint, re-queued
  kFinished,  ///< outcome recorded
};

std::string to_string(CampaignState state);

/// Point-in-time view of one job.
struct CampaignStatus {
  std::string id;
  CampaignState state = CampaignState::kQueued;
  bool is_record = false;
  std::size_t traces_done = 0;
  std::size_t traces_total = 0;  ///< 0 until the job was first admitted
  std::size_t steps = 0;
  std::size_t evictions = 0;
  /// Globally completed steps since this campaign last completed one
  /// (resident campaigns only; the live form of ServiceStats::max_step_gap).
  std::size_t step_gap = 0;
  std::size_t approx_bytes = 0;  ///< budget charge while resident
};

/// Point-in-time view of the whole service: what /statusz renders.
struct ServiceIntrospection {
  bool draining = false;
  std::size_t jobs_total = 0;
  std::size_t jobs_done = 0;
  std::size_t resident = 0;
  /// Jobs waiting for a slot, including built worlds parked by the budget.
  std::size_t pending = 0;
  /// Admissions whose world is being built right now.
  std::size_t building = 0;
  std::size_t resident_bytes = 0;
  std::vector<std::size_t> worker_queue_depths;
  ServiceStats stats;                    ///< live (mid-drain) totals
  std::vector<CampaignStatus> campaigns; ///< enqueue order
};

/// Stall probe for /healthz: how much work remains and how long ago the
/// last block or admission completed.
struct HealthSnapshot {
  std::size_t jobs_remaining = 0;
  std::uint64_t ns_since_progress = 0;
};

/// The service. Typical use:
///   CampaignService service(config);
///   for (auto& job : jobs) service.enqueue(std::move(job));
///   auto outcomes = service.drain();   // blocks until every job finished
class CampaignService {
 public:
  explicit CampaignService(ServiceConfig config);
  ~CampaignService();

  CampaignService(const CampaignService&) = delete;
  CampaignService& operator=(const CampaignService&) = delete;

  /// Queues a job. Only valid before drain(). Throws
  /// util::PreconditionError on a duplicate id or an invalid record job
  /// (see RecordJobSpec), before anything is queued.
  void enqueue(CampaignJob job);

  std::size_t queued() const;

  /// Runs every queued job to completion over one fixed pool and returns
  /// their outcomes in enqueue order. The first exception thrown by any
  /// campaign aborts the drain and is rethrown here. One-shot: enqueue a
  /// fresh service for another batch.
  std::vector<CampaignOutcome> drain();

  /// Statistics of the completed drain().
  const ServiceStats& stats() const;

  /// Point-in-time view of the scheduler, safe to call from any thread at
  /// any moment (including mid-drain): a lock-protected read that never
  /// perturbs scheduling decisions or results.
  ServiceIntrospection introspect() const;

  /// introspect() rendered as the /statusz "service" JSON fragment.
  std::string statusz_json() const;

  /// Stall probe for /healthz. ns_since_progress is 0 until drain()
  /// starts; afterwards it measures from the last completed block or
  /// admission (or the drain start while the first world is being built).
  HealthSnapshot health() const;

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace leakydsp::serve
