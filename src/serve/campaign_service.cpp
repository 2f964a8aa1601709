#include "serve/campaign_service.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <deque>
#include <exception>
#include <filesystem>
#include <mutex>
#include <sstream>

#include "obs/log.h"
#include "obs/metrics.h"
#include "obs/span.h"
#include "sim/trace_store.h"
#include "util/contracts.h"
#include "util/json.h"
#include "util/thread_pool.h"

namespace leakydsp::serve {

namespace {

std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// One schedulable unit: a block index of some resident campaign's current
/// plan (attack step or record wave). The pointer stays valid until the
/// plan's last block completes — a resident is only retired after its
/// plan's final block ran.
struct Resident;
struct BlockItem {
  Resident* resident = nullptr;
  std::size_t block = 0;
};

/// A hydrated campaign: its rebuilt world plus the in-flight step state.
struct Resident {
  std::size_t job_index = 0;
  std::unique_ptr<CampaignWorld> world;
  /// Record jobs only: the file the record task streams into, finished
  /// when the job retires. Declared before `task`, which points at it.
  std::unique_ptr<sim::TraceStoreWriter> writer;
  std::optional<attack::TraceCampaign::Task> task;
  std::optional<attack::TraceCampaign::StepPlan> plan;
  std::atomic<std::size_t> blocks_left{0};
  std::atomic<std::uint64_t> worker_mask{0};
  std::size_t steps_this_turn = 0;
  std::size_t last_step_seq = 0;  ///< global step seq of this campaign's
                                  ///< previous completion (0 = none yet)
  std::size_t task_bytes = 0;     ///< admission charge against the budget
};

/// A job's queue entry: the spec plus whether a durable checkpoint already
/// holds its progress (set on eviction; rehydration loads instead of
/// starting fresh).
struct QueuedJob {
  CampaignJob job;
  bool has_checkpoint = false;
};

/// How a resident leaves its slot.
enum class Exit { kFinished, kEvicted };

}  // namespace

struct CampaignService::Impl {
  ServiceConfig config;
  std::vector<QueuedJob> jobs;
  std::vector<CampaignOutcome> outcomes;
  ServiceStats stats;
  bool drained = false;

  // ---- scheduler state (drain() only) ----
  /// Per-worker block deques: owner pops the back (LIFO keeps its own
  /// plan's blocks warm), thieves pop the front (FIFO takes the oldest,
  /// which is fairest to long-waiting plans).
  struct WorkerDeque {
    std::mutex mutex;
    std::deque<BlockItem> items;
  };
  std::vector<std::unique_ptr<WorkerDeque>> deques;

  /// Guards the scheduler tables only: pending, residents, building,
  /// parked, the budget, stats and the per-job states. World builds,
  /// finish_step, checkpoint writes and world teardown run without it.
  std::mutex mutex;
  std::vector<std::unique_ptr<Resident>> residents;
  std::deque<std::size_t> pending;  ///< FIFO of job indices awaiting a slot
  /// Slots reserved by admissions whose world is still being built.
  std::size_t building = 0;
  /// Built worlds the memory budget refused, oldest first. They are the
  /// head of the queue: they install on a later release, before any new
  /// reservation, and are never rebuilt.
  std::deque<std::unique_ptr<Resident>> parked;
  std::size_t next_deque = 0;       ///< round-robin push cursor
  std::size_t resident_bytes = 0;

  // ---- introspection state (guarded by `mutex` unless atomic) ----
  std::vector<CampaignState> job_states;  ///< per job, enqueue order
  /// Per job (enqueue order): traces done / total. Total stays 0 until the
  /// job is first admitted (the world, and with it max_traces, does not
  /// exist before then).
  std::vector<std::pair<std::size_t, std::size_t>> job_traces;
  std::vector<obs::Registry::MetricId> worker_gauge_ids;
  std::atomic<bool> draining{false};
  std::atomic<std::uint64_t> last_progress_ns{0};

  std::atomic<std::size_t> jobs_done{0};
  std::atomic<bool> aborted{false};
  std::exception_ptr error;  ///< first failure; guarded by `mutex`

  std::mutex cv_mutex;
  std::condition_variable cv;
  std::uint64_t epoch = 0;  ///< bumped on every push; guarded by cv_mutex

  // -------------------------------------------------------------- helpers

  bool finished() const {
    return aborted.load(std::memory_order_acquire) ||
           jobs_done.load(std::memory_order_acquire) >= jobs.size();
  }

  void bump_epoch() {
    {
      std::lock_guard<std::mutex> lock(cv_mutex);
      ++epoch;
    }
    cv.notify_all();
  }

  /// Jobs waiting for a slot: queued, or built and refused by the budget.
  /// Caller holds `mutex`.
  bool waiting_locked() const { return !pending.empty() || !parked.empty(); }

  /// Mirrors scheduler state into registry gauges so a /metrics scrape
  /// tracks the drain live (ServiceStats only lands in the struct at the
  /// end). Caller holds `mutex`; the deque mutexes nest under it exactly
  /// as in push_blocks_locked.
  void publish_stats_locked() {
#if defined(LEAKYDSP_OBS)
    OBS_GAUGE_SET("serve.stats.campaigns_completed", stats.campaigns_completed);
    OBS_GAUGE_SET("serve.stats.evictions", stats.evictions);
    OBS_GAUGE_SET("serve.stats.rehydrations", stats.rehydrations);
    OBS_GAUGE_SET("serve.stats.steps_completed", stats.steps_completed);
    OBS_GAUGE_SET("serve.stats.max_step_gap", stats.max_step_gap);
    OBS_GAUGE_SET("serve.stats.peak_resident", stats.peak_resident);
    OBS_GAUGE_SET("serve.stats.peak_resident_bytes", stats.peak_resident_bytes);
    OBS_GAUGE_SET("serve.stats.blocks_run",
                  stats_blocks_run.load(std::memory_order_relaxed));
    OBS_GAUGE_SET("serve.stats.blocks_stolen",
                  stats_blocks_stolen.load(std::memory_order_relaxed));
    OBS_GAUGE_SET("serve.resident", residents.size());
    OBS_GAUGE_SET("serve.pending", pending.size() + parked.size());
    OBS_GAUGE_SET("serve.building", building);
    OBS_GAUGE_SET("serve.resident_bytes", resident_bytes);
    obs::Registry& reg = obs::Registry::global();
    for (std::size_t w = 0; w < deques.size(); ++w) {
      if (worker_gauge_ids.size() <= w) {
        worker_gauge_ids.push_back(
            reg.gauge("serve.worker.queue_depth.w" + std::to_string(w)));
      }
      std::size_t depth = 0;
      {
        std::lock_guard<std::mutex> lock(deques[w]->mutex);
        depth = deques[w]->items.size();
      }
      reg.set(worker_gauge_ids[w], static_cast<std::int64_t>(depth));
    }
#endif
  }

  /// Deals the blocks of `resident`'s current plan (or wave) across the
  /// worker deques round-robin. Caller holds `mutex`.
  void push_blocks_locked(Resident& resident, std::size_t count) {
    resident.blocks_left.store(count, std::memory_order_release);
    for (std::size_t b = 0; b < count; ++b) {
      WorkerDeque& dq = *deques[next_deque];
      next_deque = (next_deque + 1) % deques.size();
      std::lock_guard<std::mutex> lock(dq.mutex);
      dq.items.push_back({&resident, b});
    }
    OBS_COUNT("serve.blocks.dealt", count);
    bump_epoch();
  }

  bool pop_local(std::size_t w, BlockItem& out) {
    WorkerDeque& dq = *deques[w];
    std::lock_guard<std::mutex> lock(dq.mutex);
    if (dq.items.empty()) return false;
    out = dq.items.back();
    dq.items.pop_back();
    return true;
  }

  bool steal(std::size_t w, BlockItem& out) {
    for (std::size_t k = 1; k < deques.size(); ++k) {
      WorkerDeque& dq = *deques[(w + k) % deques.size()];
      std::lock_guard<std::mutex> lock(dq.mutex);
      if (dq.items.empty()) continue;
      out = dq.items.front();
      dq.items.pop_front();
      return true;
    }
    return false;
  }

  // ------------------------------------------------------------ admission
  //
  // Three phases: reserve a slot under the lock, hydrate the world without
  // it, install under the lock. A reserved or parked world holds its slot,
  // so live worlds never exceed max_resident.

  /// Admits the next queued job, building its world on the calling worker.
  /// Returns false when no slot is free, nothing is queued, or a parked
  /// world is waiting for the next release.
  bool try_admit() {
    std::size_t job_index = 0;
    bool from_checkpoint = false;
    {
      std::lock_guard<std::mutex> lock(mutex);
      if (aborted.load(std::memory_order_acquire) || pending.empty() ||
          !parked.empty() ||
          residents.size() + building >= config.max_resident) {
        return false;
      }
      job_index = pending.front();
      pending.pop_front();
      from_checkpoint = jobs[job_index].has_checkpoint;
      ++building;
      publish_stats_locked();
    }
    std::unique_ptr<Resident> resident = hydrate(job_index, from_checkpoint);
    Resident* idle = nullptr;
    {
      std::lock_guard<std::mutex> lock(mutex);
      --building;
      Resident* installed = install_locked(resident);
      if (installed == nullptr) {
        parked.push_back(std::move(resident));
      } else if (!plan_next_locked(*installed)) {
        idle = installed;
      }
      publish_stats_locked();
    }
    if (idle != nullptr) retire(*idle, Exit::kFinished);
    return true;
  }

  /// Builds the job's world and its task (a record task for record jobs).
  /// The resident is private to the calling worker until installed, so no
  /// lock is held.
  std::unique_ptr<Resident> hydrate(std::size_t job_index,
                                    bool from_checkpoint) const {
    const CampaignJob& job = jobs[job_index].job;
    auto resident = std::make_unique<Resident>();
    resident->job_index = job_index;
    resident->world = job.make();
    LD_REQUIRE(resident->world != nullptr,
               "campaign job '" << job.id << "' factory returned null");
    attack::TraceCampaign& campaign = resident->world->campaign();
    resident->task_bytes = campaign.approx_task_bytes();
    if (job.record.has_value()) {
      resident->writer = std::make_unique<sim::TraceStoreWriter>(
          job.record->out_path, campaign.trace_samples());
      resident->task.emplace(campaign.start_record(
          resident->world->rng(), job.record->traces, *resident->writer));
    } else if (from_checkpoint || job.resume) {
      resident->task.emplace(campaign.load_task());
    } else {
      resident->task.emplace(campaign.start(resident->world->rng()));
    }
    return resident;
  }

  /// Makes a hydrated resident resident, unless the memory budget refuses
  /// it — but never starve an empty service: a single oversized campaign
  /// degrades to sequential execution. Returns null (leaving `resident`
  /// with the caller) on refusal. Caller holds `mutex`.
  Resident* install_locked(std::unique_ptr<Resident>& resident) {
    if (config.memory_budget_bytes != 0 && !residents.empty() &&
        resident_bytes + resident->task_bytes > config.memory_budget_bytes) {
      return nullptr;
    }
    const std::size_t job_index = resident->job_index;
    const QueuedJob& queued = jobs[job_index];
    resident_bytes += resident->task_bytes;
    stats.peak_resident_bytes =
        std::max(stats.peak_resident_bytes, resident_bytes);
    if (queued.has_checkpoint) {
      ++stats.rehydrations;
      OBS_COUNT("serve.rehydrations", 1);
    }
    job_states[job_index] = CampaignState::kResident;
    job_traces[job_index] = {resident->task->traces_done(),
                             resident->task->traces_total()};
    last_progress_ns.store(now_ns(), std::memory_order_relaxed);
    OBS_LOG(obs::LogLevel::kDebug, "serve", "campaign admitted",
            obs::f("campaign", queued.job.id),
            obs::f("rehydrated", queued.has_checkpoint),
            obs::f("resident", residents.size() + 1),
            obs::f("resident_bytes", resident_bytes));
    residents.push_back(std::move(resident));
    stats.peak_resident = std::max(stats.peak_resident, residents.size());
    return residents.back().get();
  }

  /// Plans the resident's next step (or record wave) and deals its blocks.
  /// Returns false when no work remains: the caller then retires it as
  /// finished. Caller holds `mutex`.
  bool plan_next_locked(Resident& resident) {
    const CampaignJob& job = jobs[resident.job_index].job;
    attack::TraceCampaign& campaign = resident.world->campaign();
    // The plan is empty for a finished task, including one rehydrated
    // from a completed checkpoint.
    resident.plan.emplace(
        campaign.plan_step(*resident.task, job.stop_when_broken));
    if (resident.plan->empty()) {
      resident.plan.reset();
      return false;
    }
    push_blocks_locked(resident, resident.plan->block_count());
    return true;
  }

  /// Retires a resident that has no blocks in flight: takes its result (or
  /// suspends it into its durable checkpoint), destroys its world, and only
  /// then frees its slot — so an evicted job re-enters the queue with its
  /// checkpoint on disk. The I/O and the teardown run without the lock. A
  /// release may install parked worlds; one of them with no work left is
  /// retired in turn.
  void retire(Resident& first, Exit first_exit) {
    Resident* resident = &first;
    Exit exit = first_exit;
    while (resident != nullptr) {
      const CampaignJob& job = jobs[resident->job_index].job;
      (void)job;  // only feeds logs/metrics, which may compile away
      attack::TraceCampaign& campaign = resident->world->campaign();
      attack::CampaignResult result;
      const std::size_t traces_done = resident->task->traces_done();
      if (exit == Exit::kEvicted) {
        campaign.suspend(*resident->task);
      } else {
        result = campaign.take_result(std::move(*resident->task));
      }
      resident->task.reset();
      if (resident->writer != nullptr) {
        resident->writer->finish();
        resident->writer.reset();
      }
      resident->world.reset();

      Resident* next = nullptr;
      {
        std::lock_guard<std::mutex> lock(mutex);
        const std::size_t job_index = resident->job_index;
        CampaignOutcome& outcome = outcomes[job_index];
        outcome.worker_mask |=
            resident->worker_mask.load(std::memory_order_relaxed);
        if (exit == Exit::kEvicted) {
          jobs[job_index].has_checkpoint = true;
          job_states[job_index] = CampaignState::kEvicted;
          ++stats.evictions;
          ++outcome.evictions;
          OBS_COUNT("serve.evictions", 1);
#if defined(LEAKYDSP_OBS)
          obs::Registry::global().add(obs::Registry::global().labeled_counter(
              "serve.campaign.evictions", job.id));
#endif
          OBS_LOG(obs::LogLevel::kDebug, "serve", "campaign evicted",
                  obs::f("campaign", job.id), obs::f("traces", traces_done),
                  obs::f("steps_this_turn", resident->steps_this_turn));
          pending.push_back(job_index);
        } else {
          if (job.record.has_value()) {
            outcome.traces_recorded = traces_done;
          } else {
            outcome.result = std::move(result);
          }
          job_states[job_index] = CampaignState::kFinished;
          ++stats.campaigns_completed;
          OBS_LOG(obs::LogLevel::kDebug, "serve", "campaign finished",
                  obs::f("campaign", job.id), obs::f("traces", traces_done),
                  obs::f("broken", outcome.result.broken),
                  obs::f("evictions", outcome.evictions));
          jobs_done.fetch_add(1, std::memory_order_acq_rel);
        }
        resident_bytes -= resident->task_bytes;
        for (auto it = residents.begin(); it != residents.end(); ++it) {
          if (it->get() == resident) {
            residents.erase(it);
            break;
          }
        }
        // Parked worlds are the head of the queue: they install before any
        // new reservation, in order, until the budget refuses one.
        while (next == nullptr && !parked.empty()) {
          Resident* installed = install_locked(parked.front());
          if (installed == nullptr) break;
          parked.pop_front();
          if (!plan_next_locked(*installed)) next = installed;
        }
        publish_stats_locked();
      }
      bump_epoch();  // wake parked workers: a free slot, or termination
      resident = next;
      exit = Exit::kFinished;
    }
  }

  /// Folds a completed step (last block just ran) back into the task and
  /// decides what happens next: another step, eviction, or completion.
  /// The worker that ran the plan's last block owns the task and plan
  /// until the next plan is dealt, so the fold (a record wave's file
  /// writes included) runs unlocked.
  void complete_step(Resident& resident) {
    const CampaignJob& job = jobs[resident.job_index].job;
    (void)job;  // only feeds logs/metrics, which may compile away

    const bool more = resident.world->campaign().finish_step(
        *resident.task, std::move(*resident.plan));
    resident.plan.reset();

    Exit exit = Exit::kFinished;
    {
      std::lock_guard<std::mutex> lock(mutex);
      CampaignOutcome& outcome = outcomes[resident.job_index];
      ++stats.steps_completed;
      ++outcome.steps;
      ++resident.steps_this_turn;
      if (resident.last_step_seq != 0) {
        stats.max_step_gap = std::max(
            stats.max_step_gap, stats.steps_completed - resident.last_step_seq);
      }
      resident.last_step_seq = stats.steps_completed;
      job_traces[resident.job_index].first = resident.task->traces_done();
#if defined(LEAKYDSP_OBS)
      obs::Registry::global().add(obs::Registry::global().labeled_counter(
          "serve.campaign.steps", job.id));
#endif
      OBS_COUNT("serve.steps", 1);
      publish_stats_locked();

      // Fair sharing under queue pressure: after quantum_steps boundary
      // steps, a resident attack campaign yields its slot — its task is
      // suspended into the durable keyed checkpoint and the job re-enters
      // the FIFO. Record tasks are not suspendable (their writer only
      // commits at the footer), so they run to completion.
      if (more && resident.task->suspendable() && waiting_locked() &&
          resident.steps_this_turn >= config.quantum_steps) {
        exit = Exit::kEvicted;
      } else if (more && plan_next_locked(resident)) {
        return;
      }
    }
    retire(resident, exit);
  }

  void execute(const BlockItem& item, std::size_t worker) {
    Resident& resident = *item.resident;
    resident.worker_mask.fetch_or(
        std::uint64_t{1} << std::min<std::size_t>(worker, 63),
        std::memory_order_relaxed);
    resident.world->campaign().run_block(*resident.plan, item.block);
    OBS_COUNT("serve.blocks", 1);
    stats_blocks_run.fetch_add(1, std::memory_order_relaxed);
    last_progress_ns.store(now_ns(), std::memory_order_relaxed);
    if (resident.blocks_left.fetch_sub(1, std::memory_order_acq_rel) == 1) {
      complete_step(resident);
    }
  }

  void fail(std::exception_ptr e) {
    {
      std::lock_guard<std::mutex> lock(mutex);
      if (!error) error = std::move(e);
    }
    aborted.store(true, std::memory_order_release);
    bump_epoch();
  }

  /// An idle worker builds before it runs blocks: world builds are the
  /// long pole of a contended drain, and every worker may run one.
  void worker_loop(std::size_t worker) {
    while (!finished()) {
      try {
        if (try_admit()) continue;
        BlockItem item;
        bool have = pop_local(worker, item);
        if (!have && steal(worker, item)) {
          have = true;
          ++stats_blocks_stolen;
          OBS_COUNT("serve.blocks.stolen", 1);
        }
        if (have) {
          execute(item, worker);
          continue;
        }
      } catch (...) {
        fail(std::current_exception());
        return;
      }
      // Nothing runnable here: park until a push or a release bumps the
      // epoch (with a bounded wait as a lost-wakeup backstop).
      std::unique_lock<std::mutex> lock(cv_mutex);
      const std::uint64_t seen = epoch;
      if (finished()) return;
      cv.wait_for(lock, std::chrono::milliseconds(1),
                  [&] { return epoch != seen || finished(); });
    }
  }

  std::atomic<std::size_t> stats_blocks_stolen{0};
  std::atomic<std::size_t> stats_blocks_run{0};
};

CampaignService::CampaignService(ServiceConfig config)
    : impl_(std::make_unique<Impl>()) {
  LD_REQUIRE(config.max_resident >= 1, "service needs one residency slot");
  LD_REQUIRE(config.quantum_steps >= 1, "service quantum must be >= 1");
  impl_->config = std::move(config);
}

CampaignService::~CampaignService() = default;

void CampaignService::enqueue(CampaignJob job) {
  LD_REQUIRE(!impl_->drained, "service already drained");
  LD_REQUIRE(!job.id.empty(), "campaign job needs an id");
  LD_REQUIRE(job.make != nullptr, "campaign job needs a factory");
  for (const QueuedJob& queued : impl_->jobs) {
    LD_REQUIRE(queued.job.id != job.id,
               "duplicate campaign job id '" << job.id << "'");
  }
  if (job.record.has_value()) {
    // Rejected here, not in a worker mid-drain, where the throw would
    // abort every other job.
    const RecordJobSpec& spec = *job.record;
    LD_REQUIRE(spec.traces >= 1, "record job '" << job.id << "' needs traces");
    LD_REQUIRE(!spec.out_path.empty(),
               "record job '" << job.id << "' needs an out path");
    LD_REQUIRE(!job.resume, "record job '" << job.id
                                           << "' cannot resume: it never "
                                              "checkpoints");
    const std::filesystem::path out =
        std::filesystem::absolute(spec.out_path).lexically_normal();
    for (const QueuedJob& queued : impl_->jobs) {
      LD_REQUIRE(!queued.job.record.has_value() ||
                     std::filesystem::absolute(queued.job.record->out_path)
                             .lexically_normal() != out,
                 "record jobs '" << queued.job.id << "' and '" << job.id
                                 << "' share the out path '" << spec.out_path
                                 << "'");
    }
  }
  CampaignOutcome outcome;
  outcome.id = job.id;
  impl_->outcomes.push_back(std::move(outcome));
  impl_->job_states.push_back(CampaignState::kQueued);
  impl_->job_traces.emplace_back(0, 0);
  impl_->jobs.push_back({std::move(job), false});
}

std::size_t CampaignService::queued() const { return impl_->jobs.size(); }

const ServiceStats& CampaignService::stats() const { return impl_->stats; }

std::vector<CampaignOutcome> CampaignService::drain() {
  Impl& impl = *impl_;
  LD_REQUIRE(!impl.drained, "service already drained");
  impl.drained = true;
  if (impl.jobs.empty()) return {};
  LD_REQUIRE(impl.jobs.size() <= impl.config.max_resident ||
                 !impl.config.checkpoint_dir.empty(),
             "more jobs than residency slots requires a checkpoint_dir "
             "(eviction suspends through durable checkpoints)");

  util::ThreadPool pool(impl.config.threads);
  const std::size_t workers = pool.size();
  {
    // A scrape may already be reading the tables.
    std::lock_guard<std::mutex> lock(impl.mutex);
    for (std::size_t w = 0; w < workers; ++w) {
      impl.deques.push_back(std::make_unique<Impl::WorkerDeque>());
    }
    for (std::size_t j = 0; j < impl.jobs.size(); ++j) {
      impl.pending.push_back(j);
    }
  }
  impl.last_progress_ns.store(now_ns(), std::memory_order_relaxed);
  impl.draining.store(true, std::memory_order_release);
  OBS_LOG(obs::LogLevel::kInfo, "serve", "drain started",
          obs::f("jobs", impl.jobs.size()), obs::f("workers", workers),
          obs::f("max_resident", impl.config.max_resident),
          obs::f("budget_bytes", impl.config.memory_budget_bytes));
  {
    OBS_SPAN("serve.drain");
    pool.parallel_for(workers,
                      [&](std::size_t w) { impl.worker_loop(w); });
  }
  impl.stats.blocks_stolen =
      impl.stats_blocks_stolen.load(std::memory_order_relaxed);
  impl.stats.blocks_run =
      impl.stats_blocks_run.load(std::memory_order_relaxed);
  std::vector<CampaignOutcome> outcomes;
  {
    // Move the outcomes out under the lock: introspect() may be reading
    // them from a scrape thread right up to (and after) this return.
    std::lock_guard<std::mutex> lock(impl.mutex);
    impl.publish_stats_locked();
    if (impl.error) std::rethrow_exception(impl.error);
    outcomes = std::move(impl.outcomes);
    impl.outcomes.clear();
  }
  OBS_LOG(obs::LogLevel::kInfo, "serve", "drain finished",
          obs::f("campaigns", impl.stats.campaigns_completed),
          obs::f("steps", impl.stats.steps_completed),
          obs::f("evictions", impl.stats.evictions),
          obs::f("stolen", impl.stats.blocks_stolen),
          obs::f("max_step_gap", impl.stats.max_step_gap));
  return outcomes;
}

std::string to_string(CampaignState state) {
  switch (state) {
    case CampaignState::kQueued:
      return "queued";
    case CampaignState::kResident:
      return "resident";
    case CampaignState::kEvicted:
      return "evicted";
    case CampaignState::kFinished:
      return "finished";
  }
  return "unknown";
}

ServiceIntrospection CampaignService::introspect() const {
  Impl& impl = *impl_;
  ServiceIntrospection view;
  std::lock_guard<std::mutex> lock(impl.mutex);
  view.draining = impl.draining.load(std::memory_order_acquire);
  view.jobs_total = impl.jobs.size();
  view.jobs_done = impl.jobs_done.load(std::memory_order_acquire);
  view.resident = impl.residents.size();
  view.pending = impl.pending.size() + impl.parked.size();
  view.building = impl.building;
  view.resident_bytes = impl.resident_bytes;
  for (const auto& dq : impl.deques) {
    std::lock_guard<std::mutex> dq_lock(dq->mutex);
    view.worker_queue_depths.push_back(dq->items.size());
  }
  view.stats = impl.stats;
  view.stats.blocks_run =
      impl.stats_blocks_run.load(std::memory_order_relaxed);
  view.stats.blocks_stolen =
      impl.stats_blocks_stolen.load(std::memory_order_relaxed);
  view.campaigns.reserve(impl.jobs.size());
  for (std::size_t j = 0; j < impl.jobs.size(); ++j) {
    CampaignStatus status;
    status.id = impl.jobs[j].job.id;
    status.state = impl.job_states[j];
    status.is_record = impl.jobs[j].job.record.has_value();
    status.traces_done = impl.job_traces[j].first;
    status.traces_total = impl.job_traces[j].second;
    // drain() hands the outcomes to its caller at the end; a scrape that
    // lands after that still sees every job's lifecycle fields above.
    if (j < impl.outcomes.size()) {
      status.steps = impl.outcomes[j].steps;
      status.evictions = impl.outcomes[j].evictions;
    }
    view.campaigns.push_back(std::move(status));
  }
  for (const auto& resident : impl.residents) {
    CampaignStatus& status = view.campaigns[resident->job_index];
    status.approx_bytes = resident->task_bytes;
    if (resident->last_step_seq != 0) {
      status.step_gap = impl.stats.steps_completed - resident->last_step_seq;
    }
  }
  return view;
}

std::string CampaignService::statusz_json() const {
  const ServiceIntrospection view = introspect();
  std::ostringstream out;
  out << "{\n";
  out << "    \"draining\": " << (view.draining ? "true" : "false") << ",\n";
  out << "    \"jobs_total\": " << view.jobs_total << ",\n";
  out << "    \"jobs_done\": " << view.jobs_done << ",\n";
  out << "    \"resident\": " << view.resident << ",\n";
  out << "    \"pending\": " << view.pending << ",\n";
  out << "    \"building\": " << view.building << ",\n";
  out << "    \"resident_bytes\": " << view.resident_bytes << ",\n";
  out << "    \"worker_queue_depths\": [";
  for (std::size_t w = 0; w < view.worker_queue_depths.size(); ++w) {
    if (w > 0) out << ", ";
    out << view.worker_queue_depths[w];
  }
  out << "],\n";
  out << "    \"stats\": {\"campaigns_completed\": "
      << view.stats.campaigns_completed
      << ", \"evictions\": " << view.stats.evictions
      << ", \"rehydrations\": " << view.stats.rehydrations
      << ", \"steps_completed\": " << view.stats.steps_completed
      << ", \"blocks_run\": " << view.stats.blocks_run
      << ", \"blocks_stolen\": " << view.stats.blocks_stolen
      << ", \"max_step_gap\": " << view.stats.max_step_gap
      << ", \"peak_resident\": " << view.stats.peak_resident
      << ", \"peak_resident_bytes\": " << view.stats.peak_resident_bytes
      << "},\n";
  out << "    \"campaigns\": [";
  for (std::size_t j = 0; j < view.campaigns.size(); ++j) {
    const CampaignStatus& status = view.campaigns[j];
    if (j > 0) out << ",";
    out << "\n      {\"id\": \"" << util::json_escape(status.id)
        << "\", \"state\": \"" << to_string(status.state)
        << "\", \"record\": " << (status.is_record ? "true" : "false")
        << ", \"traces_done\": " << status.traces_done
        << ", \"traces_total\": " << status.traces_total
        << ", \"steps\": " << status.steps
        << ", \"evictions\": " << status.evictions
        << ", \"step_gap\": " << status.step_gap
        << ", \"approx_bytes\": " << status.approx_bytes << "}";
  }
  out << (view.campaigns.empty() ? "]\n" : "\n    ]\n");
  out << "  }";
  return out.str();
}

HealthSnapshot CampaignService::health() const {
  Impl& impl = *impl_;
  HealthSnapshot snapshot;
  const std::size_t total = impl.jobs.size();
  const std::size_t done = impl.jobs_done.load(std::memory_order_acquire);
  snapshot.jobs_remaining = total > done ? total - done : 0;
  if (impl.draining.load(std::memory_order_acquire) &&
      snapshot.jobs_remaining > 0) {
    const std::uint64_t last =
        impl.last_progress_ns.load(std::memory_order_relaxed);
    const std::uint64_t now = now_ns();
    snapshot.ns_since_progress = now > last ? now - last : 0;
  }
  return snapshot;
}

}  // namespace leakydsp::serve
