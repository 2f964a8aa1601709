// Tests for the deterministic parallel execution layer: the ThreadPool
// primitives, the blocked/mergeable CPA accumulators, and the contract
// that campaign and trace recording results never depend on the thread
// count (DESIGN.md, "Threading model & determinism").
#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <numeric>
#include <stdexcept>
#include <string>
#include <vector>

#include "attack/campaign.h"
#include "attack/cpa.h"
#include "core/leaky_dsp.h"
#include "sim/scenarios.h"
#include "sim/sensor_rig.h"
#include "sim/trace_store.h"
#include "util/contracts.h"
#include "util/rng.h"
#include "util/thread_pool.h"
#include "victim/aes_core.h"

namespace la = leakydsp::attack;
namespace lc = leakydsp::crypto;
namespace lcore = leakydsp::core;
namespace lsim = leakydsp::sim;
namespace lv = leakydsp::victim;
namespace lu = leakydsp::util;

namespace {

lc::Block random_block(lu::Rng& rng) {
  lc::Block b;
  for (auto& byte : b) byte = static_cast<std::uint8_t>(rng() & 0xff);
  return b;
}

}  // namespace

// -------------------------------------------------------------- ThreadPool

TEST(ThreadPool, CoversEveryIndexExactlyOnce) {
  lu::ThreadPool pool(4);
  EXPECT_EQ(pool.size(), 4u);
  // Each index is claimed by exactly one executor, so the distinct
  // elements are written race-free.
  std::vector<int> hits(1000, 0);
  pool.parallel_for(hits.size(), [&](std::size_t i) { ++hits[i]; });
  for (const int h : hits) EXPECT_EQ(h, 1);
}

TEST(ThreadPool, SizeOnePoolRunsInline) {
  lu::ThreadPool pool(1);
  EXPECT_EQ(pool.size(), 1u);
  std::vector<std::size_t> order;
  pool.parallel_for(8, [&](std::size_t i) { order.push_back(i); });
  // No workers: the caller claims indices in order.
  std::vector<std::size_t> expected(8);
  std::iota(expected.begin(), expected.end(), 0u);
  EXPECT_EQ(order, expected);
}

TEST(ThreadPool, DefaultUsesHardwareConcurrency) {
  lu::ThreadPool pool;
  EXPECT_EQ(pool.size(), lu::ThreadPool::hardware_threads());
  EXPECT_GE(pool.size(), 1u);
}

TEST(ThreadPool, ZeroCountIsANoop) {
  lu::ThreadPool pool(2);
  pool.parallel_for(0, [&](std::size_t) { FAIL() << "must not be called"; });
}

TEST(ThreadPool, ExceptionPropagatesAndPoolSurvives) {
  lu::ThreadPool pool(3);
  std::atomic<int> completed{0};
  EXPECT_THROW(pool.parallel_for(100,
                                 [&](std::size_t i) {
                                   if (i == 37) {
                                     throw std::runtime_error("index 37");
                                   }
                                   ++completed;
                                 }),
               std::runtime_error);
  EXPECT_EQ(completed.load(), 99);
  // The pool stays usable after a failed batch.
  std::atomic<int> again{0};
  pool.parallel_for(10, [&](std::size_t) { ++again; });
  EXPECT_EQ(again.load(), 10);
}

TEST(ThreadPool, ParallelReduceMergesInIndexOrder) {
  lu::ThreadPool pool(4);
  const auto result = lu::parallel_reduce<std::vector<std::size_t>>(
      pool, 64, [](std::size_t i) { return std::vector<std::size_t>{i}; },
      [](std::vector<std::size_t>& acc, std::vector<std::size_t>&& part) {
        acc.insert(acc.end(), part.begin(), part.end());
      });
  ASSERT_TRUE(result.has_value());
  std::vector<std::size_t> expected(64);
  std::iota(expected.begin(), expected.end(), 0u);
  // Merge order follows the index space, never the schedule.
  EXPECT_EQ(*result, expected);
}

TEST(ThreadPool, ParallelReduceOverEmptyRangeIsEmpty) {
  lu::ThreadPool pool(2);
  const auto result = lu::parallel_reduce<int>(
      pool, 0, [](std::size_t) { return 1; }, [](int& a, int&& b) { a += b; });
  EXPECT_FALSE(result.has_value());
}

// ------------------------------------------------------- CPA shard algebra

TEST(CpaShards, AddTracesMatchesPerTraceAccumulation) {
  constexpr std::size_t kPoi = 7;
  constexpr std::size_t kTraces = 96;
  lu::Rng rng(501);
  std::vector<lc::Block> cts(kTraces);
  std::vector<double> rows(kTraces * kPoi);
  for (auto& ct : cts) ct = random_block(rng);
  for (auto& s : rows) s = rng.gaussian();

  la::CpaAttack one_by_one(kPoi, la::CpaKernel::kGemm);
  for (std::size_t t = 0; t < kTraces; ++t) {
    one_by_one.add_trace(cts[t], {rows.data() + t * kPoi, kPoi});
  }
  la::CpaAttack batched(kPoi, la::CpaKernel::kGemm);
  batched.add_traces(cts, rows);

  EXPECT_EQ(batched.trace_count(), one_by_one.trace_count());
  const auto a = one_by_one.snapshot();
  const auto b = batched.snapshot();
  for (int byte = 0; byte < 16; ++byte) {
    for (int g = 0; g < 256; ++g) {
      // Bit-identical, not approximately equal: the GEMM kernel performs
      // the same additions in the same order regardless of batch split.
      ASSERT_EQ(a[static_cast<std::size_t>(byte)].score[static_cast<std::size_t>(g)],
                b[static_cast<std::size_t>(byte)].score[static_cast<std::size_t>(g)]);
    }
  }
}

TEST(CpaShards, MergedShardsMatchSequentialAccumulation) {
  constexpr std::size_t kPoi = 5;
  constexpr std::size_t kTraces = 80;
  lu::Rng rng(502);
  std::vector<lc::Block> cts(kTraces);
  std::vector<double> rows(kTraces * kPoi);
  for (auto& ct : cts) ct = random_block(rng);
  for (auto& s : rows) s = rng.gaussian();

  la::CpaAttack whole(kPoi);
  whole.add_traces(cts, rows);

  const std::size_t split = 48;
  la::CpaAttack lo(kPoi);
  la::CpaAttack hi(kPoi);
  lo.add_traces({cts.data(), split}, {rows.data(), split * kPoi});
  hi.add_traces({cts.data() + split, kTraces - split},
                {rows.data() + split * kPoi, (kTraces - split) * kPoi});
  lo.merge(hi);

  EXPECT_EQ(lo.trace_count(), whole.trace_count());
  const auto a = whole.snapshot();
  const auto b = lo.snapshot();
  for (int byte = 0; byte < 16; ++byte) {
    for (int g = 0; g < 256; ++g) {
      // Merging sums shard subtotals, which is a different floating-point
      // reduction tree than one sequential fold — so scores agree to
      // rounding error, not bitwise. The campaign's bit-exactness across
      // thread counts comes from every thread count running the SAME block
      // schedule (checked below), not from merge being exact.
      ASSERT_NEAR(
          a[static_cast<std::size_t>(byte)].score[static_cast<std::size_t>(g)],
          b[static_cast<std::size_t>(byte)].score[static_cast<std::size_t>(g)],
          1e-12);
    }
  }
  EXPECT_EQ(whole.recovered_round_key(), lo.recovered_round_key());
}

TEST(CpaShards, MergeRequiresMatchingPoiCount) {
  la::CpaAttack a(3);
  la::CpaAttack b(4);
  EXPECT_THROW(a.merge(b), lu::PreconditionError);
}

// --------------------------------------------- campaign thread invariance

namespace {

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

class ParallelCampaignTest : public ::testing::Test {
 protected:
  la::CampaignResult run_with_threads(std::size_t threads) {
    // Everything — key, victim, sensor, rig calibration — is rebuilt from
    // the same seed, so config.threads is the only varying input.
    lu::Rng rng(212);
    const lc::Key key = random_block(rng);
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
    la::TraceCampaign campaign(rig, aes, config);
    return campaign.run(rng);
  }

  // Records 150 traces into a v2 file at `path` and returns its bytes.
  // Everything is rebuilt from the same seed, as in run_with_threads().
  std::string record_file(std::size_t threads, const std::string& path) {
    lu::Rng rng(219);
    const lc::Key key = random_block(rng);
    lv::AesCoreModel aes(key, scenario_.aes_site(), scenario_.grid());
    lcore::LeakyDspSensor sensor(
        scenario_.device(),
        scenario_
            .attack_placements()[lsim::Basys3Scenario::kBestPlacementIndex]);
    lsim::SensorRig rig(scenario_.grid(), sensor);
    rig.calibrate(rng);
    la::CampaignConfig config;
    config.threads = threads;
    config.block_traces = 16;  // 150 traces: 9 full blocks and a ragged one
    la::TraceCampaign campaign(rig, aes, config);
    lsim::TraceStoreWriter writer(path, campaign.trace_samples());
    campaign.record(rng, 150, writer);
    writer.finish();
    return file_bytes(path);
  }

  static std::string file_bytes(const std::string& path) {
    std::ifstream is(path, std::ios::binary);
    return std::string(std::istreambuf_iterator<char>(is),
                       std::istreambuf_iterator<char>());
  }

  lsim::Basys3Scenario scenario_;
};

TEST_F(ParallelCampaignTest, ResultIndependentOfThreadCount) {
  const auto serial = run_with_threads(1);
  EXPECT_TRUE(serial.broken);  // boosted leakage: the campaign does break
  ASSERT_FALSE(serial.checkpoints.empty());
  EXPECT_TRUE(identical_results(serial, run_with_threads(2)));
  EXPECT_TRUE(identical_results(serial, run_with_threads(8)));
}

TEST_F(ParallelCampaignTest, RecordedTracesIndependentOfThreadCount) {
  const std::string path = "/tmp/leakydsp_test_record_threads.ldtr";
  record_file(1, path);
  const auto serial = lsim::TraceStore::load(path);
  record_file(4, path);
  const auto parallel = lsim::TraceStore::load(path);
  std::remove(path.c_str());
  ASSERT_EQ(serial.size(), 150u);
  ASSERT_EQ(parallel.size(), serial.size());
  for (std::size_t t = 0; t < serial.size(); ++t) {
    ASSERT_EQ(serial.trace(t).ciphertext, parallel.trace(t).ciphertext);
    ASSERT_EQ(serial.trace(t).samples, parallel.trace(t).samples);
  }
}

TEST_F(ParallelCampaignTest, StreamedRecordingMatchesStoreByteForByte) {
  // record() streams into a v2 writer in waves; the file must be the exact
  // file an in-memory TraceStore holding the same traces writes with
  // save(), at every thread count: same fork discipline, waves drained in
  // trace order.
  const std::string path = "/tmp/leakydsp_test_streamed_record.ldtr";
  const auto streamed = record_file(1, path);
  const auto loaded = lsim::TraceStore::load(path);
  lsim::TraceStore store(loaded.samples_per_trace());
  for (std::size_t t = 0; t < loaded.size(); ++t) {
    store.add(loaded.trace(t).ciphertext, loaded.trace(t).samples);
  }
  store.save(path);
  EXPECT_EQ(file_bytes(path), streamed);
  EXPECT_EQ(record_file(4, path), streamed);
  std::remove(path.c_str());
}
