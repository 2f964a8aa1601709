// Campaign service determinism and scheduling: every campaign drained
// through the work-stealing service finishes with a CampaignResult
// byte-identical to a standalone TraceCampaign::run of the same spec — at
// any thread count, residency limit, memory budget, or eviction pattern —
// and the scheduler shares the pool fairly at block granularity (DESIGN.md,
// "Campaign service").
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <functional>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "attack/campaign.h"
#include "serve/campaign_service.h"
#include "serve/standard_jobs.h"
#include "sim/trace_store.h"
#include "util/contracts.h"

namespace la = leakydsp::attack;
namespace ls = leakydsp::serve;
namespace lsim = leakydsp::sim;
namespace lu = leakydsp::util;

namespace {

class TempDir {
 public:
  explicit TempDir(const std::string& name)
      : path_(std::string("/tmp/leakydsp_serve_") + name) {
    std::filesystem::remove_all(path_);
    std::filesystem::create_directories(path_);
  }
  ~TempDir() { std::filesystem::remove_all(path_); }
  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

bool identical_results(const la::CampaignResult& a,
                       const la::CampaignResult& b) {
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

/// A small standard campaign: 4 boundary steps of 2 blocks-per-stride
/// each, never broken at these trace counts — enough steps for eviction
/// and fairness to be observable while staying fast.
ls::StandardCampaignSpec make_spec(const std::string& id, std::uint64_t seed,
                                   const std::string& checkpoint_dir) {
  ls::StandardCampaignSpec spec;
  spec.id = id;
  spec.seed = seed;
  spec.max_traces = 128;
  spec.block_traces = 16;
  spec.break_check_stride = 32;
  spec.rank_stride = 64;
  spec.checkpoint_dir = checkpoint_dir;
  return spec;
}

std::vector<char> file_bytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << path;
  return {std::istreambuf_iterator<char>(in),
          std::istreambuf_iterator<char>()};
}

/// Instruments job factories: factory calls, builds in flight, and live
/// worlds (a world is live from the start of its build until its
/// destructor finishes). With `rendezvous` set, a build waits — bounded,
/// and only until the first timeout — for a second build to be in flight,
/// so overlapping builds become observable instead of racy.
struct FactoryProbe {
  std::mutex mutex;
  std::condition_variable cv;
  std::size_t calls = 0;
  std::size_t in_flight = 0;
  std::size_t peak_in_flight = 0;
  std::size_t alive = 0;
  std::size_t peak_alive = 0;
  bool rendezvous = false;
  bool gave_up = false;

  void build_started() {
    std::unique_lock<std::mutex> lock(mutex);
    ++calls;
    peak_in_flight = std::max(peak_in_flight, ++in_flight);
    peak_alive = std::max(peak_alive, ++alive);
    cv.notify_all();
    if (rendezvous && !gave_up &&
        !cv.wait_for(lock, std::chrono::seconds(2),
                     [this] { return peak_in_flight >= 2; })) {
      gave_up = true;
    }
  }
  void build_finished() {
    std::lock_guard<std::mutex> lock(mutex);
    --in_flight;
  }
  void world_destroyed() {
    std::lock_guard<std::mutex> lock(mutex);
    --alive;
  }
};

using WorldFactory = std::function<std::unique_ptr<ls::CampaignWorld>()>;

/// Forwards to the world `make` builds, reporting its lifetime to a probe.
class ProbedWorld final : public ls::CampaignWorld {
 public:
  ProbedWorld(const WorldFactory& make, FactoryProbe& probe) : probe_(probe) {
    probe_.build_started();
    try {
      inner_ = make();
    } catch (...) {
      probe_.build_finished();
      probe_.world_destroyed();
      throw;
    }
    probe_.build_finished();
  }
  ~ProbedWorld() override {
    inner_.reset();
    probe_.world_destroyed();
  }
  la::TraceCampaign& campaign() override { return inner_->campaign(); }
  lu::Rng& rng() override { return inner_->rng(); }

 private:
  FactoryProbe& probe_;
  std::unique_ptr<ls::CampaignWorld> inner_;
};

ls::CampaignJob probed(ls::CampaignJob job, FactoryProbe& probe) {
  job.make = [make = std::move(job.make), &probe] {
    return std::make_unique<ProbedWorld>(make, probe);
  };
  return job;
}

}  // namespace

TEST(CampaignServiceTest, UncontendedDrainMatchesStandaloneByteForByte) {
  ls::ServiceConfig config;
  config.threads = 3;
  config.max_resident = 8;  // all resident: no eviction, no checkpoints
  ls::CampaignService service(config);
  const std::uint64_t seeds[] = {11, 22, 33};
  std::vector<ls::StandardCampaignSpec> specs;
  for (const std::uint64_t seed : seeds) {
    specs.push_back(make_spec("job" + std::to_string(seed), seed, ""));
    service.enqueue(ls::make_standard_job(specs.back()));
  }
  const auto outcomes = service.drain();
  ASSERT_EQ(outcomes.size(), specs.size());
  EXPECT_EQ(service.stats().evictions, 0u);
  EXPECT_EQ(service.stats().campaigns_completed, specs.size());
  for (std::size_t i = 0; i < specs.size(); ++i) {
    EXPECT_EQ(outcomes[i].id, specs[i].id) << "enqueue order not preserved";
    const auto standalone = ls::run_standard_campaign(specs[i], 2);
    EXPECT_TRUE(identical_results(outcomes[i].result, standalone))
        << "service result diverged from standalone for " << specs[i].id;
  }
}

TEST(CampaignServiceTest, EvictedCampaignsRehydrateByteIdentical) {
  const TempDir dir("evict");
  ls::ServiceConfig config;
  config.threads = 4;
  config.max_resident = 2;   // 6 jobs over 2 slots: heavy contention
  config.quantum_steps = 1;  // yield after every boundary step
  config.checkpoint_dir = dir.path();
  ls::CampaignService service(config);
  std::vector<ls::StandardCampaignSpec> specs;
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    specs.push_back(
        make_spec("c" + std::to_string(seed), seed * 97, dir.path()));
    service.enqueue(ls::make_standard_job(specs.back()));
  }
  const auto outcomes = service.drain();
  const ls::ServiceStats& stats = service.stats();

  ASSERT_EQ(outcomes.size(), specs.size());
  EXPECT_GT(stats.evictions, 0u) << "contended drain never evicted";
  EXPECT_GT(stats.rehydrations, 0u);
  EXPECT_LE(stats.peak_resident, config.max_resident);

  // The tentpole claim: suspension through the durable checkpoint and
  // rehydration (on whatever worker picks the blocks up) never shows in
  // the results.
  std::uint64_t mask_union = 0;
  bool saw_evicted = false;
  for (std::size_t i = 0; i < specs.size(); ++i) {
    const auto standalone = ls::run_standard_campaign(specs[i], 1);
    EXPECT_TRUE(identical_results(outcomes[i].result, standalone))
        << "evicted/rehydrated campaign " << specs[i].id
        << " diverged from standalone (evictions="
        << outcomes[i].evictions << ")";
    mask_union |= outcomes[i].worker_mask;
    saw_evicted = saw_evicted || outcomes[i].evictions > 0;
    // take_result leaves a final completed keyed checkpoint behind.
    EXPECT_TRUE(
        la::TraceCampaign::checkpoint_exists(dir.path(), specs[i].id));
  }
  EXPECT_TRUE(saw_evicted);
  // 4 executors on 8-block steps: blocks are dealt round-robin across the
  // per-worker deques, so more than one executor must have run blocks.
  EXPECT_GE(std::popcount(mask_union), 2);

  // Fairness: between two consecutive boundary steps of one campaign, at
  // most every other unfinished campaign gets a quantum (FIFO re-admission)
  // while the co-residents keep stepping. Starvation would show up as a
  // gap proportional to the whole drain (~24 steps here).
  const std::size_t fair_bound = specs.size() * config.quantum_steps +
                                 2 * config.max_resident + 2;
  EXPECT_LE(stats.max_step_gap, fair_bound)
      << "a campaign was starved between its boundary steps";
}

TEST(CampaignServiceTest, KilledServiceResumesByteIdentical) {
  const TempDir dir("kill");
  const auto spec_a = make_spec("job-a", 7001, dir.path());
  const auto spec_b = make_spec("job-b", 7002, dir.path());

  // First service: job-a gets one quantum, is evicted (the queue is
  // non-empty), and the next admission — a poisoned factory — kills the
  // whole drain. job-a's progress survives as its durable checkpoint.
  {
    ls::ServiceConfig config;
    config.threads = 2;
    config.max_resident = 1;
    config.quantum_steps = 1;
    config.checkpoint_dir = dir.path();
    ls::CampaignService service(config);
    service.enqueue(ls::make_standard_job(spec_a));
    ls::CampaignJob poison;
    poison.id = "poison";
    poison.make = []() -> std::unique_ptr<ls::CampaignWorld> {
      throw std::runtime_error("simulated service crash");
    };
    service.enqueue(std::move(poison));
    service.enqueue(ls::make_standard_job(spec_b));
    EXPECT_THROW((void)service.drain(), std::runtime_error);
  }
  ASSERT_TRUE(la::TraceCampaign::checkpoint_exists(dir.path(), spec_a.id))
      << "no durable checkpoint survived the killed drain";

  // Second service, as a restarted server would run it: the interrupted
  // job resumes from its checkpoint, the untouched one starts fresh.
  ls::ServiceConfig config;
  config.threads = 2;
  config.max_resident = 2;
  ls::CampaignService service(config);
  ls::CampaignJob resume_a = ls::make_standard_job(spec_a);
  resume_a.resume = true;
  service.enqueue(std::move(resume_a));
  service.enqueue(ls::make_standard_job(spec_b));
  const auto outcomes = service.drain();
  ASSERT_EQ(outcomes.size(), 2u);
  EXPECT_TRUE(identical_results(outcomes[0].result,
                                ls::run_standard_campaign(spec_a, 1)))
      << "kill + service-level resume diverged from standalone";
  EXPECT_TRUE(identical_results(outcomes[1].result,
                                ls::run_standard_campaign(spec_b, 1)));
}

TEST(CampaignServiceTest, MemoryBudgetBoundsResidencyWithoutChangingResults) {
  const TempDir dir("budget");
  std::vector<ls::StandardCampaignSpec> specs;
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    specs.push_back(
        make_spec("m" + std::to_string(seed), seed * 31, dir.path()));
  }
  const std::size_t task_bytes =
      ls::make_standard_world(specs[0])->campaign().approx_task_bytes();
  ASSERT_GT(task_bytes, 0u);

  ls::ServiceConfig config;
  config.threads = 2;
  config.max_resident = 3;
  config.quantum_steps = 1;
  config.checkpoint_dir = dir.path();
  // Budget for one and a half campaigns: admission must hold residency at
  // one even though three slots exist.
  config.memory_budget_bytes = task_bytes + task_bytes / 2;
  ls::CampaignService service(config);
  FactoryProbe probe;
  for (const auto& spec : specs) {
    service.enqueue(probed(ls::make_standard_job(spec), probe));
  }
  const auto outcomes = service.drain();
  EXPECT_EQ(service.stats().peak_resident, 1u);
  EXPECT_LE(service.stats().peak_resident_bytes,
            config.memory_budget_bytes);
  // A world the budget refuses waits, built, for the next release: every
  // factory call is either a job's first admission or a rehydration.
  EXPECT_EQ(probe.calls, specs.size() + service.stats().rehydrations)
      << "a built world was thrown away and rebuilt";
  EXPECT_LE(probe.peak_alive, config.max_resident);
  for (std::size_t i = 0; i < specs.size(); ++i) {
    EXPECT_TRUE(identical_results(outcomes[i].result,
                                  ls::run_standard_campaign(specs[i], 1)))
        << "budget-constrained drain diverged for " << specs[i].id;
  }
}

TEST(CampaignServiceTest, RecordJobStreamsByteIdenticalTraceFile) {
  const TempDir dir("record");
  const auto spec = make_spec("rec", 4242, "");
  const std::string service_path = dir.path() + "/service.ldt";
  const std::string standalone_path = dir.path() + "/standalone.ldt";
  constexpr std::size_t kTraces = 100;

  ls::ServiceConfig config;
  config.threads = 3;
  config.max_resident = 4;
  ls::CampaignService service(config);
  ls::CampaignJob job = ls::make_standard_job(spec);
  ls::RecordJobSpec record;
  record.traces = kTraces;
  record.out_path = service_path;
  record.block_traces = 16;
  record.wave_blocks = 3;  // 7 blocks -> 3 waves: exercises wave chaining
  job.record = record;
  service.enqueue(std::move(job));
  // An attack job rides along so the record waves interleave with CPA
  // blocks on the same pool.
  const auto rider = make_spec("rider", 515, "");
  service.enqueue(ls::make_standard_job(rider));
  const auto outcomes = service.drain();
  ASSERT_EQ(outcomes.size(), 2u);
  EXPECT_EQ(outcomes[0].traces_recorded, kTraces);
  EXPECT_TRUE(identical_results(outcomes[1].result,
                                ls::run_standard_campaign(rider, 1)));

  {
    auto world = ls::make_standard_world(spec);
    lsim::TraceStoreWriter writer(standalone_path,
                                  world->campaign().trace_samples());
    world->campaign().record(world->rng(), kTraces, writer);
    writer.finish();
  }
  const auto service_bytes = file_bytes(service_path);
  const auto standalone_bytes = file_bytes(standalone_path);
  ASSERT_FALSE(service_bytes.empty());
  EXPECT_EQ(service_bytes, standalone_bytes)
      << "scheduled record stream is not byte-identical to record()";
}

TEST(CampaignServiceTest, RejectsDuplicateIdsAndDoubleDrain) {
  ls::ServiceConfig config;
  config.threads = 1;
  ls::CampaignService service(config);
  service.enqueue(ls::make_standard_job(make_spec("dup", 1, "")));
  EXPECT_THROW(service.enqueue(ls::make_standard_job(make_spec("dup", 2, ""))),
               lu::PreconditionError);
  // More jobs than slots without a checkpoint_dir cannot be scheduled
  // fairly (eviction has nowhere to suspend to) — rejected up front.
  ls::ServiceConfig tight;
  tight.threads = 1;
  tight.max_resident = 1;
  ls::CampaignService overfull(tight);
  overfull.enqueue(ls::make_standard_job(make_spec("x1", 1, "")));
  overfull.enqueue(ls::make_standard_job(make_spec("x2", 2, "")));
  EXPECT_THROW((void)overfull.drain(), lu::PreconditionError);
}

TEST(CampaignServiceTest, WorkersBuildWorldsConcurrently) {
  const TempDir dir("overlap");
  ls::ServiceConfig config;
  config.threads = 4;
  config.max_resident = 4;
  config.quantum_steps = 1;
  config.checkpoint_dir = dir.path();
  ls::CampaignService service(config);
  FactoryProbe probe;
  probe.rendezvous = true;
  std::vector<ls::StandardCampaignSpec> specs;
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    specs.push_back(
        make_spec("b" + std::to_string(seed), seed * 13, dir.path()));
    service.enqueue(probed(ls::make_standard_job(specs.back()), probe));
  }
  const auto outcomes = service.drain();
  ASSERT_EQ(outcomes.size(), specs.size());
  EXPECT_GE(probe.peak_in_flight, 2u) << "world builds never overlapped";
  EXPECT_LE(probe.peak_in_flight, config.max_resident);
  EXPECT_LE(probe.peak_alive, config.max_resident);
  EXPECT_EQ(probe.alive, 0u);
  for (std::size_t i = 0; i < specs.size(); ++i) {
    EXPECT_TRUE(identical_results(outcomes[i].result,
                                  ls::run_standard_campaign(specs[i], 1)))
        << "concurrently built campaign diverged for " << specs[i].id;
  }
}

TEST(CampaignServiceTest, LiveWorldsNeverExceedMaxResident) {
  const TempDir dir("alive");
  ls::ServiceConfig config;
  config.threads = 4;
  config.max_resident = 2;  // 4 workers racing for 2 slots
  config.quantum_steps = 1;
  config.checkpoint_dir = dir.path();
  ls::CampaignService service(config);
  FactoryProbe probe;
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    service.enqueue(probed(
        ls::make_standard_job(
            make_spec("w" + std::to_string(seed), seed * 29, dir.path())),
        probe));
  }
  (void)service.drain();
  EXPECT_GT(service.stats().evictions, 0u);
  EXPECT_EQ(probe.calls, 6u + service.stats().rehydrations);
  // Building, resident, suspending and parked worlds all hold a slot.
  EXPECT_LE(probe.peak_alive, config.max_resident);
  EXPECT_EQ(probe.alive, 0u);
}

TEST(CampaignServiceTest, ThrowingFactoryAbortsDrainWhileOthersBuild) {
  const TempDir dir("poison");
  ls::ServiceConfig config;
  config.threads = 4;
  config.max_resident = 2;
  config.quantum_steps = 1;
  config.checkpoint_dir = dir.path();
  FactoryProbe probe;
  probe.rendezvous = true;  // the poison throws while a sibling builds
  {
    ls::CampaignService service(config);
    service.enqueue(
        probed(ls::make_standard_job(make_spec("p1", 3, dir.path())), probe));
    ls::CampaignJob poison;
    poison.id = "poison";
    poison.make = []() -> std::unique_ptr<ls::CampaignWorld> {
      throw std::runtime_error("poisoned factory");
    };
    service.enqueue(probed(std::move(poison), probe));
    for (std::uint64_t seed = 4; seed <= 5; ++seed) {
      service.enqueue(probed(
          ls::make_standard_job(
              make_spec("p" + std::to_string(seed), seed, dir.path())),
          probe));
    }
    try {
      (void)service.drain();
      ADD_FAILURE() << "drain survived a throwing factory";
    } catch (const std::runtime_error& e) {
      EXPECT_STREQ(e.what(), "poisoned factory");
    }
    EXPECT_GE(probe.peak_in_flight, 2u);
    EXPECT_LE(probe.peak_alive, config.max_resident);
  }
  EXPECT_EQ(probe.alive, 0u) << "a world outlived its service";
}

TEST(CampaignServiceTest, IntrospectionShowsBuildsInFlight) {
  ls::ServiceConfig config;
  config.threads = 2;
  config.max_resident = 1;
  ls::CampaignService service(config);
  std::mutex mutex;
  std::condition_variable cv;
  bool building = false;
  bool release = false;
  ls::CampaignJob job = ls::make_standard_job(make_spec("slow", 8, ""));
  job.make = [make = std::move(job.make), &mutex, &cv, &building, &release] {
    {
      std::unique_lock<std::mutex> lock(mutex);
      building = true;
      cv.notify_all();
      cv.wait_for(lock, std::chrono::seconds(5), [&] { return release; });
    }
    return make();
  };
  service.enqueue(std::move(job));

  std::vector<ls::CampaignOutcome> outcomes;
  std::thread drainer([&] { outcomes = service.drain(); });
  {
    std::unique_lock<std::mutex> lock(mutex);
    cv.wait_for(lock, std::chrono::seconds(5), [&] { return building; });
  }
  // The factory runs outside the service lock: introspection answers
  // while the world is still being built.
  const ls::ServiceIntrospection view = service.introspect();
  EXPECT_EQ(view.building, 1u);
  EXPECT_EQ(view.pending, 0u);
  EXPECT_EQ(view.resident, 0u);
  EXPECT_NE(service.statusz_json().find("\"building\": 1,"),
            std::string::npos);
  {
    std::lock_guard<std::mutex> lock(mutex);
    release = true;
  }
  cv.notify_all();
  drainer.join();
  ASSERT_EQ(outcomes.size(), 1u);
  EXPECT_EQ(service.introspect().building, 0u);
}
