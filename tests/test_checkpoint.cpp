// Campaign checkpoint/resume determinism: a campaign killed mid-run and
// resumed from its last durable checkpoint finishes with a CampaignResult
// byte-identical to an uninterrupted run's, at every thread count and
// even when the resuming process uses a different thread count than the
// killed one (DESIGN.md, "Checkpoint/resume determinism").
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <limits>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "attack/campaign.h"
#include "serve/standard_jobs.h"
#include "core/leaky_dsp.h"
#include "pdn/grid.h"
#include "sim/scenarios.h"
#include "sim/sensor_rig.h"
#include "util/rng.h"
#include "victim/aes_core.h"

namespace la = leakydsp::attack;
namespace lc = leakydsp::crypto;
namespace lcore = leakydsp::core;
namespace lpdn = leakydsp::pdn;
namespace lsim = leakydsp::sim;
namespace lv = leakydsp::victim;
namespace lu = leakydsp::util;

namespace {

class TempDir {
 public:
  explicit TempDir(const std::string& name)
      : path_(std::string("/tmp/leakydsp_ckpt_") + name) {
    std::filesystem::remove_all(path_);
    std::filesystem::create_directories(path_);
  }
  ~TempDir() { std::filesystem::remove_all(path_); }
  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

/// Simulated kill: thrown from inside trace generation once the fuse
/// burns down, at an arbitrary (thread-schedule-dependent) point — the
/// checkpoint on disk is whatever boundary last committed.
struct KillSignal : std::runtime_error {
  KillSignal() : std::runtime_error("simulated kill") {}
};

constexpr long long kNeverKill = std::numeric_limits<long long>::max();

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

}  // namespace

class CheckpointResumeTest : public ::testing::Test {
 protected:
  /// Rebuilds the whole campaign (key, victim, sensor, calibration) from
  /// seed 212 — exactly as ParallelCampaignTest does — and either runs it
  /// fresh or resumes it from `dir`. Every variant registers the same
  /// fuse interferer (it injects no current), so a kill-threshold of
  /// kNeverKill leaves the physics identical to a killed-then-resumed
  /// run.
  la::CampaignResult execute(std::size_t threads, const std::string& dir,
                             long long fuse_samples, bool resume) {
    lu::Rng rng(212);
    lc::Key key;
    for (auto& b : key) b = static_cast<std::uint8_t>(rng() & 0xff);
    lv::AesCoreParams aes_params;
    aes_params.current_per_hd_bit = 0.15;  // boosted: breaks within ~1k
    lv::AesCoreModel aes(key, scenario_.aes_site(), scenario_.grid(),
                         aes_params);
    lcore::LeakyDspSensor sensor(
        scenario_.device(),
        scenario_
            .attack_placements()[lsim::Basys3Scenario::kBestPlacementIndex]);
    lsim::SensorRig rig(scenario_.grid(), sensor);
    rig.calibrate(rng);
    la::CampaignConfig config;
    config.max_traces = 1500;
    config.break_check_stride = 250;
    config.rank_stride = 500;
    config.threads = threads;
    config.checkpoint_dir = dir;
    la::TraceCampaign campaign(rig, aes, config);
    auto fuse = std::make_shared<std::atomic<long long>>(fuse_samples);
    campaign.add_interferer(
        [fuse](double, lu::Rng&, std::vector<lpdn::CurrentInjection>&) {
          if (fuse->fetch_sub(1, std::memory_order_relaxed) <= 0) {
            throw KillSignal();
          }
        });
    return resume ? campaign.resume() : campaign.run(rng);
  }

  lsim::Basys3Scenario scenario_;
};

TEST_F(CheckpointResumeTest, KilledCampaignResumesByteIdentical) {
  // Uninterrupted reference, no checkpointing at all.
  const auto reference = execute(1, "", kNeverKill, false);
  ASSERT_TRUE(reference.broken);
  ASSERT_FALSE(reference.checkpoints.empty());

  // Kill at several progress points and thread counts; resume each time
  // with a DIFFERENT thread count than the killed run used. Each trace
  // burns ~200 fuse samples, so these fuses die mid-campaign at distinct
  // checkpoint boundaries.
  const std::size_t kill_threads[] = {1, 4, 8};
  const std::size_t resume_threads[] = {4, 8, 1};
  const long long fuses[] = {60000, 110000, 160000};
  for (std::size_t i = 0; i < 3; ++i) {
    const TempDir dir("kill" + std::to_string(i));
    EXPECT_THROW(execute(kill_threads[i], dir.path(), fuses[i], false),
                 KillSignal);
    ASSERT_TRUE(la::TraceCampaign::checkpoint_exists(dir.path()))
        << "no checkpoint survived kill " << i;
    const auto resumed =
        execute(resume_threads[i], dir.path(), kNeverKill, true);
    EXPECT_TRUE(identical_results(reference, resumed))
        << "resume diverged for kill " << i << " (killed at "
        << kill_threads[i] << " threads, resumed at " << resume_threads[i]
        << ")";
  }
}

TEST_F(CheckpointResumeTest, ResumeOfCompletedCampaignReturnsStoredResult) {
  const TempDir dir("completed");
  const auto first = execute(1, dir.path(), kNeverKill, false);
  ASSERT_TRUE(la::TraceCampaign::checkpoint_exists(dir.path()));
  // The final checkpoint is marked completed: resume() must return the
  // stored result directly instead of re-running anything — a fuse of 0
  // would kill any attempt to generate traces.
  const auto again = execute(4, dir.path(), 0, true);
  EXPECT_TRUE(identical_results(first, again));
}

TEST_F(CheckpointResumeTest, CheckpointingDoesNotPerturbResults) {
  // Same campaign with and without a checkpoint directory: the durable
  // snapshots are pure bookkeeping and must not touch the computation.
  const TempDir dir("perturb");
  const auto with = execute(2, dir.path(), kNeverKill, false);
  const auto without = execute(2, "", kNeverKill, false);
  EXPECT_TRUE(identical_results(with, without));
}

// --------------------------------------------------- per-campaign keying

namespace {

namespace lserve = leakydsp::serve;

/// Small, fast standard campaign keyed on `id` inside `dir`.
lserve::StandardCampaignSpec keyed_spec(const std::string& id,
                                        std::uint64_t seed,
                                        const std::string& dir) {
  lserve::StandardCampaignSpec spec;
  spec.id = id;
  spec.seed = seed;
  spec.max_traces = 64;
  spec.block_traces = 16;
  spec.break_check_stride = 32;
  spec.rank_stride = 64;
  spec.checkpoint_dir = dir;
  return spec;
}

la::CampaignResult run_keyed(const lserve::StandardCampaignSpec& spec) {
  auto world = lserve::make_standard_world(spec);
  return world->campaign().run(world->rng());
}

la::CampaignResult resume_keyed(const lserve::StandardCampaignSpec& spec) {
  auto world = lserve::make_standard_world(spec);
  return world->campaign().resume();
}

}  // namespace

TEST(CheckpointKeying, CampaignsKeyedOnIdShareOneDirectoryWithoutClobbering) {
  // The bug this pins: before per-id keying, two campaigns sharing a
  // checkpoint directory silently overwrote each other's campaign.ckpt —
  // the second campaign's resume() would load the first one's state (or
  // reject it on config mismatch, losing the work either way).
  const TempDir dir("keyed");
  const auto alpha = keyed_spec("alpha", 101, dir.path());
  const auto beta = keyed_spec("beta", 202, dir.path());
  const auto ran_alpha = run_keyed(alpha);
  const auto ran_beta = run_keyed(beta);

  EXPECT_TRUE(std::filesystem::exists(dir.path() + "/campaign-alpha.ckpt"));
  EXPECT_TRUE(std::filesystem::exists(dir.path() + "/campaign-beta.ckpt"));
  EXPECT_TRUE(la::TraceCampaign::checkpoint_exists(dir.path(), "alpha"));
  EXPECT_TRUE(la::TraceCampaign::checkpoint_exists(dir.path(), "beta"));
  // No id-less single-file checkpoint was touched.
  EXPECT_FALSE(la::TraceCampaign::checkpoint_exists(dir.path()));

  // Each id resumes its OWN completed state, byte-identical — beta's run
  // did not clobber alpha's checkpoint.
  EXPECT_TRUE(identical_results(resume_keyed(alpha), ran_alpha));
  EXPECT_TRUE(identical_results(resume_keyed(beta), ran_beta));
}

TEST(CheckpointKeying, KeyedCampaignRejectsForeignLegacyCheckpoint) {
  // The bug this pins: a keyed campaign whose own file was absent used to
  // fall back to an id-less "campaign.ckpt". The compatibility check
  // compares config fields but not the seed or the key, so a campaign with
  // a different seed silently adopted another campaign's state.
  const TempDir dir("legacy");
  const auto legacy = keyed_spec("", 303, dir.path());  // id-less name
  (void)run_keyed(legacy);
  ASSERT_TRUE(la::TraceCampaign::checkpoint_exists(dir.path()));
  const auto read_legacy = [&] {
    std::ifstream in(dir.path() + "/campaign.ckpt", std::ios::binary);
    return std::string(std::istreambuf_iterator<char>(in), {});
  };
  const std::string legacy_bytes = read_legacy();

  const auto keyed = keyed_spec("fresh", 404, dir.path());
  ASSERT_FALSE(la::TraceCampaign::checkpoint_exists(dir.path(), keyed.id));
  EXPECT_THROW((void)resume_keyed(keyed), la::CheckpointError);
  auto world = lserve::make_standard_world(keyed);
  EXPECT_THROW((void)world->campaign().load_task(), la::CheckpointError);

  // Nothing was adopted or rewritten: no keyed file appeared and the
  // foreign checkpoint is untouched.
  EXPECT_FALSE(la::TraceCampaign::checkpoint_exists(dir.path(), keyed.id));
  EXPECT_EQ(read_legacy(), legacy_bytes);
}

TEST(CheckpointKeying, IdsAreSanitizedIntoSafeFilenames) {
  // Separators and shell metacharacters must never escape the checkpoint
  // directory or name a nested path.
  const TempDir dir("sanitize");
  const auto spec = keyed_spec("../esc/4:2 e*", 404, dir.path());
  (void)run_keyed(spec);
  EXPECT_TRUE(la::TraceCampaign::checkpoint_exists(dir.path(), spec.id));
  std::size_t files = 0;
  for (const auto& entry :
       std::filesystem::directory_iterator(dir.path())) {
    ++files;
    const std::string name = entry.path().filename().string();
    EXPECT_EQ(name.find('/'), std::string::npos);
    EXPECT_TRUE(name.rfind("campaign-", 0) == 0) << name;
  }
  EXPECT_EQ(files, 1u) << "sanitized id produced extra paths";
  EXPECT_FALSE(std::filesystem::exists("/tmp/esc"));
}

// ------------------------------------------------------ error surfacing

TEST(CheckpointErrors, UnstatableCheckpointPathThrowsTypedError) {
  // The bug this pins: checkpoint_exists() used the error_code overloads
  // and swallowed every failure as "no checkpoint", silently restarting
  // campaigns from scratch when the filesystem was merely unwell. An
  // unanswerable stat must surface as CheckpointError, not as false.
  const TempDir dir("eloop");
  // Self-referential symlink: stat() fails with ELOOP — the filesystem
  // cannot say whether a checkpoint exists.
  std::filesystem::create_symlink("campaign.ckpt",
                                  dir.path() + "/campaign.ckpt");
  EXPECT_THROW((void)la::TraceCampaign::checkpoint_exists(dir.path()),
               la::CheckpointError);
  std::filesystem::create_symlink("campaign-loop.ckpt",
                                  dir.path() + "/campaign-loop.ckpt");
  EXPECT_THROW((void)la::TraceCampaign::checkpoint_exists(dir.path(), "loop"),
               la::CheckpointError);
}

TEST(CheckpointErrors, CheckpointDirCollidingWithAFileThrowsTypedError) {
  // create_directories failures (here: the configured checkpoint_dir is an
  // existing regular file) must surface with errno context instead of
  // falling through to a confusing open() failure.
  const TempDir dir("dirfile");
  const std::string bogus = dir.path() + "/notadir";
  { std::ofstream(bogus) << "occupied"; }
  auto spec = keyed_spec("x", 505, bogus);
  EXPECT_THROW((void)run_keyed(spec), la::CheckpointError);
}
