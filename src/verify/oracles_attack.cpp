// Differential oracles for the attack pipeline:
//   - CpaKernel::kSimd vs kGemm (and kGemm vs a per-trace add_trace
//     loop, which the API pins as bit-identical),
//   - the N-thread campaign vs the 1-thread campaign (bit-identical by the
//     determinism contract),
//   - a campaign killed at a generated point and resumed from its durable
//     checkpoint vs an uninterrupted straight run (bit-identical),
//   - the tail-pruned key-rank estimator vs the dense convolution chain
//     (bit-identical bounds).
#include <array>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <limits>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <utility>
#include <vector>

#include "attack/campaign.h"
#include "attack/cpa.h"
#include "attack/key_rank.h"
#include "core/leaky_dsp.h"
#include "crypto/aes128.h"
#include "sim/scenarios.h"
#include "sim/sensor_rig.h"
#include "stats/histogram.h"
#include "verify/key_rank_reference.h"
#include "verify/oracle.h"
#include "victim/aes_core.h"

namespace leakydsp::verify {

namespace {

// ------------------------------------------------------ kSimd vs kGemm

struct CpaKernelConfig {
  std::int64_t poi = 4;
  std::int64_t traces = 50;
  std::int64_t batch = 16;  ///< add_traces batch size for both kernels
  std::uint64_t seed = 0;
};

std::string describe_cpa(const CpaKernelConfig& c) {
  std::ostringstream oss;
  oss << "{poi=" << c.poi << " traces=" << c.traces << " batch=" << c.batch
      << " seed=" << c.seed << "}";
  return oss.str();
}

Property<CpaKernelConfig> cpa_kernel_property() {
  Property<CpaKernelConfig> prop;
  prop.name = "attack.cpa_simd_vs_gemm";
  prop.generate = [](util::Rng& rng) {
    CpaKernelConfig c;
    c.poi = gen_int(rng, 1, 12);
    c.traces = gen_int(rng, 2, 200);  // snapshot() needs >= 2 to correlate
    c.batch = gen_int(rng, 1, 64);
    c.seed = rng();
    return c;
  };
  prop.shrink = [](const CpaKernelConfig& c) {
    std::vector<CpaKernelConfig> out;
    for (const std::int64_t traces : shrink_int(c.traces, 2)) {
      CpaKernelConfig s = c;
      s.traces = traces;
      out.push_back(s);
    }
    for (const std::int64_t poi : shrink_int(c.poi, 1)) {
      CpaKernelConfig s = c;
      s.poi = poi;
      out.push_back(s);
    }
    for (const std::int64_t batch : shrink_int(c.batch, 1)) {
      CpaKernelConfig s = c;
      s.batch = batch;
      out.push_back(s);
    }
    return out;
  };
  prop.describe = describe_cpa;
  prop.check = [](const CpaKernelConfig& c) -> CheckOutcome {
    const std::size_t poi = static_cast<std::size_t>(c.poi);
    const std::size_t n = static_cast<std::size_t>(c.traces);
    util::Rng rng(c.seed);
    std::vector<crypto::Block> cts(n);
    std::vector<double> rows(n * poi);
    // Correlated synthetic leakage so scores are far from degenerate.
    for (std::size_t t = 0; t < n; ++t) {
      for (auto& b : cts[t]) b = static_cast<std::uint8_t>(rng() & 0xff);
      for (std::size_t k = 0; k < poi; ++k) {
        rows[t * poi + k] =
            static_cast<double>(cts[t][0] & 0x0f) + rng.gaussian();
      }
    }

    attack::CpaAttack simd_cpa(poi, attack::CpaKernel::kSimd);
    attack::CpaAttack gemm_cpa(poi, attack::CpaKernel::kGemm);
    attack::CpaAttack reference(poi, attack::CpaKernel::kGemm);
    const std::size_t batch = static_cast<std::size_t>(c.batch);
    for (std::size_t lo = 0; lo < n; lo += batch) {
      const std::size_t hi = std::min(lo + batch, n);
      const std::span<const crypto::Block> ct_span{cts.data() + lo, hi - lo};
      const std::span<const double> row_span{rows.data() + lo * poi,
                                             (hi - lo) * poi};
      simd_cpa.add_traces(ct_span, row_span);
      gemm_cpa.add_traces(ct_span, row_span);
    }
    // Per-trace reference: the API pins kGemm batches bit-identical to the
    // add_trace loop.
    for (std::size_t t = 0; t < n; ++t) {
      reference.add_trace(cts[t], {rows.data() + t * poi, poi});
    }

    const auto gemm_scores = gemm_cpa.snapshot();
    const auto ref_scores = reference.snapshot();
    const auto simd_scores = simd_cpa.snapshot();
    for (int b = 0; b < 16; ++b) {
      const auto& g = gemm_scores[static_cast<std::size_t>(b)];
      const auto& r = ref_scores[static_cast<std::size_t>(b)];
      const auto& si = simd_scores[static_cast<std::size_t>(b)];
      for (int guess = 0; guess < 256; ++guess) {
        const std::size_t gi = static_cast<std::size_t>(guess);
        if (g.score[gi] != r.score[gi]) {
          std::ostringstream oss;
          oss << "kGemm batches diverge bitwise from per-trace add_trace at "
              << "byte " << b << " guess " << guess << ": " << g.score[gi]
              << " vs " << r.score[gi];
          return fail(oss.str());
        }
        // kSimd fuses each multiply-add; scores must agree to that
        // rounding noise. n=1 must be bitwise.
        const double tol =
            n == 1 ? 0.0 : 1e-9 * std::max(1.0, std::fabs(r.score[gi]));
        if (!(std::fabs(si.score[gi] - r.score[gi]) <= tol)) {
          std::ostringstream oss;
          oss << "kSimd diverges from reference at byte " << b
              << " guess " << guess << ": " << si.score[gi] << " vs "
              << r.score[gi] << " (tol " << tol << ")";
          return fail(oss.str());
        }
      }
    }
    return pass();
  };
  return prop;
}

// --------------------------------------------------- campaign oracles

/// Thrown by the fuse interferer to simulate a mid-campaign kill.
struct KillSignal : std::runtime_error {
  KillSignal() : std::runtime_error("simulated kill") {}
};

constexpr long long kNeverKill = std::numeric_limits<long long>::max();

struct CampaignCase {
  std::int64_t max_traces = 96;
  std::int64_t block_traces = 32;
  std::int64_t break_stride = 48;
  std::int64_t rank_stride = 96;
  std::int64_t threads = 2;
  double victim_clock_mhz = 100.0;
  double current_per_hd_bit = 0.15;
  std::uint64_t seed = 0;
};

std::string describe_campaign(const CampaignCase& c) {
  std::ostringstream oss;
  oss << "{max_traces=" << c.max_traces << " block=" << c.block_traces
      << " break_stride=" << c.break_stride << " rank_stride=" << c.rank_stride
      << " threads=" << c.threads << " victim_mhz=" << c.victim_clock_mhz
      << " i_hd=" << c.current_per_hd_bit << " seed=" << c.seed << "}";
  return oss.str();
}

CampaignCase gen_campaign_case(util::Rng& rng) {
  CampaignCase c;
  c.max_traces = gen_int(rng, 64, 160);
  c.block_traces = gen_int(rng, 8, 64);
  c.break_stride = gen_int(rng, 16, 64);
  c.rank_stride = gen_int(rng, 32, 160);
  c.threads = gen_int(rng, 2, 4);
  c.victim_clock_mhz = gen_choice<double>(rng, {20.0, 50.0, 100.0, 150.0});
  c.current_per_hd_bit = gen_real(rng, 0.01, 0.2);
  c.seed = rng();
  return c;
}

std::vector<CampaignCase> shrink_campaign_case(const CampaignCase& c) {
  std::vector<CampaignCase> out;
  for (const std::int64_t traces : shrink_int(c.max_traces, 64)) {
    CampaignCase s = c;
    s.max_traces = traces;
    out.push_back(s);
  }
  for (const std::int64_t block : shrink_int(c.block_traces, 8)) {
    CampaignCase s = c;
    s.block_traces = block;
    out.push_back(s);
  }
  if (c.threads > 2) {
    CampaignCase s = c;
    s.threads = 2;
    out.push_back(s);
  }
  return out;
}

const sim::Basys3Scenario& shared_scenario() {
  static const sim::Basys3Scenario scenario;
  return scenario;
}

/// Rebuilds the full campaign from the case seed and executes it: fresh
/// key, victim, sensor and calibration every time, so two invocations with
/// the same case are exact replicas (the determinism contract's premise).
attack::CampaignResult execute_campaign(const CampaignCase& c,
                                        std::size_t threads,
                                        const std::string& checkpoint_dir,
                                        long long fuse_samples, bool resume) {
  const auto& scenario = shared_scenario();
  util::Rng rng(c.seed);
  crypto::Key key;
  for (auto& b : key) b = static_cast<std::uint8_t>(rng() & 0xff);
  victim::AesCoreParams aes_params;
  aes_params.clock_mhz = c.victim_clock_mhz;
  aes_params.current_per_hd_bit = c.current_per_hd_bit;
  victim::AesCoreModel aes(key, scenario.aes_site(), scenario.grid(),
                           aes_params);
  core::LeakyDspSensor sensor(
      scenario.device(),
      scenario.attack_placements()[sim::Basys3Scenario::kBestPlacementIndex]);
  sim::SensorRig rig(scenario.grid(), sensor);
  rig.calibrate(rng);
  attack::CampaignConfig config;
  config.max_traces = static_cast<std::size_t>(c.max_traces);
  config.break_check_stride = static_cast<std::size_t>(c.break_stride);
  config.rank_stride = static_cast<std::size_t>(c.rank_stride);
  config.block_traces = static_cast<std::size_t>(c.block_traces);
  config.threads = threads;
  config.checkpoint_dir = checkpoint_dir;
  attack::TraceCampaign campaign(rig, aes, config);
  auto fuse = std::make_shared<std::atomic<long long>>(fuse_samples);
  campaign.add_interferer(
      [fuse](double, util::Rng&, std::vector<pdn::CurrentInjection>&) {
        if (fuse->fetch_sub(1, std::memory_order_relaxed) <= 0) {
          throw KillSignal();
        }
      });
  return resume ? campaign.resume() : campaign.run(rng);
}

CheckOutcome compare_results(const attack::CampaignResult& a,
                             const attack::CampaignResult& b,
                             const char* what) {
  const auto mismatch = [&](const std::string& field) {
    return fail(std::string(what) + ": CampaignResult field '" + field +
                "' differs");
  };
  if (a.traces_to_break != b.traces_to_break)
    return mismatch("traces_to_break");
  if (a.broken != b.broken) return mismatch("broken");
  if (a.traces_run != b.traces_run) return mismatch("traces_run");
  if (a.mean_poi_readout != b.mean_poi_readout)
    return mismatch("mean_poi_readout");
  if (a.checkpoints.size() != b.checkpoints.size())
    return mismatch("checkpoints.size");
  for (std::size_t i = 0; i < a.checkpoints.size(); ++i) {
    const auto& ca = a.checkpoints[i];
    const auto& cb = b.checkpoints[i];
    if (ca.traces != cb.traces || ca.correct_bytes != cb.correct_bytes ||
        ca.full_key != cb.full_key ||
        ca.rank.log2_lower != cb.rank.log2_lower ||
        ca.rank.log2_upper != cb.rank.log2_upper) {
      return mismatch("checkpoints[" + std::to_string(i) + "]");
    }
  }
  return pass();
}

Property<CampaignCase> campaign_threads_property() {
  Property<CampaignCase> prop;
  prop.name = "attack.campaign_parallel_vs_serial";
  prop.generate = gen_campaign_case;
  prop.shrink = shrink_campaign_case;
  prop.describe = describe_campaign;
  prop.check = [](const CampaignCase& c) -> CheckOutcome {
    const auto serial = execute_campaign(c, 1, "", kNeverKill, false);
    const auto parallel = execute_campaign(
        c, static_cast<std::size_t>(c.threads), "", kNeverKill, false);
    return compare_results(serial, parallel,
                           "N-thread vs 1-thread campaign");
  };
  return prop;
}

class TempCheckpointDir {
 public:
  explicit TempCheckpointDir(std::uint64_t tag)
      : path_((std::filesystem::temp_directory_path() /
               ("leakydsp_verify_ckpt_" + std::to_string(tag)))
                  .string()) {
    std::filesystem::remove_all(path_);
    std::filesystem::create_directories(path_);
  }
  ~TempCheckpointDir() {
    std::error_code ec;
    std::filesystem::remove_all(path_, ec);
  }
  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

Property<CampaignCase> campaign_resume_property() {
  Property<CampaignCase> prop;
  prop.name = "attack.campaign_resume_vs_straight";
  prop.generate = gen_campaign_case;
  prop.shrink = shrink_campaign_case;
  prop.describe = describe_campaign;
  prop.check = [](const CampaignCase& c) -> CheckOutcome {
    const auto straight = execute_campaign(c, 1, "", kNeverKill, false);

    // Kill partway through: the fuse burns one sample per interferer call,
    // so scale by samples per trace to land the kill at a case-dependent
    // block boundary (anywhere from the first block to near completion).
    util::Rng fuse_rng(c.seed ^ 0xF05EULL);
    const auto samples_per_trace =
        static_cast<long long>((1e3 / c.victim_clock_mhz) / (1e3 / 300.0)) *
        13;
    const long long fuse =
        samples_per_trace *
        static_cast<long long>(1 + fuse_rng.uniform_u64(
                                       static_cast<std::uint64_t>(
                                           c.max_traces)));
    const TempCheckpointDir dir(c.seed);
    bool killed = false;
    try {
      (void)execute_campaign(c, static_cast<std::size_t>(c.threads),
                             dir.path(), fuse, false);
    } catch (const KillSignal&) {
      killed = true;
    }
    if (killed && !attack::TraceCampaign::checkpoint_exists(dir.path())) {
      // Killed before the first checkpoint boundary: nothing durable yet,
      // resume() must raise the typed error.
      try {
        (void)execute_campaign(c, 1, dir.path(), kNeverKill, true);
        return fail("resume() without a checkpoint did not throw "
                    "CheckpointError");
      } catch (const attack::CheckpointError&) {
        return pass();
      }
    }
    // Either the fuse outlived the campaign (checkpointed complete run) or
    // we killed it mid-run; both must resume to the straight-run result.
    const auto resumed =
        execute_campaign(c, 1, dir.path(), kNeverKill, true);
    return compare_results(straight, resumed,
                           killed ? "kill+resume vs straight run"
                                  : "resume of completed run vs straight run");
  };
  return prop;
}

// ------------------------------------------- key rank vs dense reference

enum class RankScoreShape : std::int64_t {
  kFlat = 0,
  kPeaked = 1,
  kCampaign = 2
};

struct KeyRankCase {
  std::int64_t n_bytes = 16;
  std::int64_t bins = 512;
  std::int64_t shape = 0;  ///< RankScoreShape
  std::uint64_t seed = 0;
};

std::string describe_key_rank(const KeyRankCase& c) {
  static const char* const kShapes[] = {"flat", "peaked", "campaign"};
  std::ostringstream oss;
  oss << "{n_bytes=" << c.n_bytes << " bins=" << c.bins
      << " shape=" << kShapes[c.shape] << " seed=" << c.seed << "}";
  return oss.str();
}

/// Three real campaigns' final scores: 128 and 6,144 traces at the
/// default victim current (log2 rank ~127 and ~82) and 1,024 traces at 20x
/// it (rank ~1). Built once per process.
const std::vector<RankScoreSet>& campaign_score_sets() {
  static const std::vector<RankScoreSet> sets = [] {
    const std::pair<std::size_t, double> runs[] = {
        {128, 1.0}, {6144, 1.0}, {1024, 20.0}};
    std::vector<RankScoreSet> out;
    for (const auto& [traces, current_scale] : runs) {
      out.push_back(campaign_rank_scores(shared_scenario(), traces,
                                         current_scale, 0x4B52ULL + traces));
    }
    return out;
  }();
  return sets;
}

Property<KeyRankCase> key_rank_property() {
  Property<KeyRankCase> prop;
  prop.name = "attack.key_rank_fast_vs_reference";
  prop.generate = [](util::Rng& rng) {
    KeyRankCase c;
    c.n_bytes = gen_int(rng, 1, 16);
    c.bins = gen_int(rng, 64, 1024);
    c.shape = gen_int(rng, 0, 2);
    c.seed = rng();
    return c;
  };
  prop.shrink = [](const KeyRankCase& c) {
    std::vector<KeyRankCase> out;
    for (const std::int64_t n : shrink_int(c.n_bytes, 1)) {
      KeyRankCase s = c;
      s.n_bytes = n;
      out.push_back(s);
    }
    for (const std::int64_t bins : shrink_int(c.bins, 64)) {
      KeyRankCase s = c;
      s.bins = bins;
      out.push_back(s);
    }
    return out;
  };
  prop.describe = describe_key_rank;
  prop.check = [](const KeyRankCase& c) -> CheckOutcome {
    const std::size_t n = static_cast<std::size_t>(c.n_bytes);
    util::Rng rng(c.seed);
    std::vector<std::array<double, 256>> scores(n);
    std::vector<std::uint8_t> truth(n);
    for (auto& t : truth) t = static_cast<std::uint8_t>(rng() & 0xff);
    switch (static_cast<RankScoreShape>(c.shape)) {
      case RankScoreShape::kFlat:
        for (auto& row : scores) {
          for (auto& s : row) s = rng.uniform(0.01, 0.02);
        }
        break;
      case RankScoreShape::kPeaked:
        // Some bytes peak on the truth, some on a wrong guess, some flat,
        // so generated keys range from rank 1 to fully unknown.
        for (std::size_t b = 0; b < n; ++b) {
          for (auto& s : scores[b]) s = rng.uniform(0.01, 0.03);
          const double kind = rng.uniform();
          const std::size_t peak =
              kind < 0.6 ? truth[b] : static_cast<std::size_t>(rng() & 0xff);
          if (kind < 0.85) scores[b][peak] += rng.uniform(0.02, 0.9);
        }
        break;
      case RankScoreShape::kCampaign: {
        const auto& sets = campaign_score_sets();
        const RankScoreSet& set = sets[rng() % sets.size()];
        const bool real_key = rng.bernoulli(0.5);
        for (std::size_t b = 0; b < n; ++b) {
          const std::size_t src = (b + rng() % 16) % 16;
          scores[b] = set.scores[src];
          if (real_key) truth[b] = set.truth[src];
        }
        break;
      }
    }
    attack::KeyRankParams params;
    params.bins = static_cast<std::size_t>(c.bins);
    const auto fast = attack::estimate_key_rank_general(scores, truth, params);
    const auto reference = reference_estimate_key_rank(scores, truth, params);
    if (std::memcmp(&fast.log2_lower, &reference.log2_lower,
                    sizeof(double)) != 0 ||
        std::memcmp(&fast.log2_upper, &reference.log2_upper,
                    sizeof(double)) != 0) {
      std::ostringstream oss;
      oss.precision(17);
      oss << "bounds differ: fast [" << fast.log2_lower << ", "
          << fast.log2_upper << "] vs reference [" << reference.log2_lower
          << ", " << reference.log2_upper << "]";
      return fail(oss.str());
    }
    return pass();
  };
  return prop;
}

}  // namespace

attack::KeyRankBounds reference_estimate_key_rank(
    const std::vector<std::array<double, 256>>& scores,
    const std::vector<std::uint8_t>& truth, attack::KeyRankParams params) {
  const auto geo = attack::detail::rank_geometry(scores, truth, params);
  std::size_t true_bin_sum = 0;
  stats::Histogram joint(geo.lo, geo.hi, geo.bins);
  for (std::size_t b = 0; b < scores.size(); ++b) {
    stats::Histogram h(geo.lo, geo.hi, geo.bins);
    for (const double v : geo.ll[b]) h.add(v);
    joint = b == 0 ? h : joint.convolve(h);
    true_bin_sum += h.bin_index(geo.ll[b][truth[b]]);
  }
  return attack::detail::rank_bounds(joint.counts().data(), joint.bins(),
                                     true_bin_sum, scores.size());
}

RankScoreSet campaign_rank_scores(const sim::Basys3Scenario& scenario,
                                  std::size_t traces, double current_scale,
                                  std::uint64_t seed) {
  util::Rng rng(seed);
  crypto::Key key;
  for (auto& b : key) b = static_cast<std::uint8_t>(rng() & 0xff);
  victim::AesCoreParams aes_params;
  aes_params.current_per_hd_bit *= current_scale;
  victim::AesCoreModel aes(key, scenario.aes_site(), scenario.grid(),
                           aes_params);
  core::LeakyDspSensor sensor(
      scenario.device(),
      scenario.attack_placements()[sim::Basys3Scenario::kBestPlacementIndex]);
  sim::SensorRig rig(scenario.grid(), sensor);
  rig.calibrate(rng);
  attack::CampaignConfig config;
  config.max_traces = traces;
  config.break_check_stride = traces;
  config.rank_stride = traces;
  config.keep_final_scores = true;
  const auto result = attack::TraceCampaign(rig, aes, config).run(rng);
  RankScoreSet set;
  set.scores.resize(16);
  for (std::size_t b = 0; b < 16; ++b) {
    std::copy_n(result.final_scores.begin() +
                    static_cast<std::ptrdiff_t>(b * 256),
                256, set.scores[b].begin());
  }
  const auto& rk = aes.cipher().round_keys()[10];
  set.truth.assign(rk.begin(), rk.end());
  return set;
}

void register_attack_oracles(std::vector<Oracle>& out) {
  out.push_back(make_oracle(
      "CpaAttack kSimd kernel vs kGemm vs per-trace add_trace: "
      "bitwise for kGemm/n=1, fused-rounding tolerance otherwise",
      1, cpa_kernel_property()));
  out.push_back(make_oracle(
      "TraceCampaign at N worker threads vs 1 thread: bit-identical "
      "CampaignResult (determinism contract)",
      1, campaign_threads_property()));
  out.push_back(make_oracle(
      "TraceCampaign killed at a generated point and resumed from its "
      "checkpoint vs an uninterrupted run: bit-identical CampaignResult",
      1, campaign_resume_property()));
  out.push_back(make_oracle(
      "estimate_key_rank_general (tail-only convolve_gather chain) vs the "
      "dense Histogram::convolve chain: memcmp-equal rank bounds",
      1, key_rank_property()));
}

}  // namespace leakydsp::verify
