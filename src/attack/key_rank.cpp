#include "attack/key_rank.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <vector>

#include "stats/histogram.h"
#include "util/contracts.h"
#include "util/simd_ops.h"

namespace leakydsp::attack {

namespace detail {

RankGeometry rank_geometry(const std::vector<std::array<double, 256>>& scores,
                           const std::vector<std::uint8_t>& truth,
                           const KeyRankParams& params) {
  LD_REQUIRE(!scores.empty() && scores.size() <= 16,
             "byte count " << scores.size() << " out of 1..16");
  LD_REQUIRE(truth.size() == scores.size(), "truth size mismatch");
  LD_REQUIRE(params.bins >= 64, "too few histogram bins");
  LD_REQUIRE(params.gamma > 0.0, "gamma must be positive");

  // Per-byte log2-probabilities from sharpened, normalized scores.
  RankGeometry geo;
  geo.ll.resize(scores.size());
  double ll_min = std::numeric_limits<double>::max();
  double ll_max = std::numeric_limits<double>::lowest();
  for (std::size_t b = 0; b < scores.size(); ++b) {
    double norm = 0.0;
    std::array<double, 256> p{};
    for (std::size_t g = 0; g < 256; ++g) {
      p[g] = std::pow(scores[b][g] + params.epsilon, params.gamma);
      norm += p[g];
    }
    for (std::size_t g = 0; g < 256; ++g) {
      const double v = std::log2(p[g] / norm);
      geo.ll[b][g] = v;
      ll_min = std::min(ll_min, v);
      ll_max = std::max(ll_max, v);
    }
  }

  // Shared bin geometry so per-byte histograms convolve exactly.
  const double width = (ll_max - ll_min) / static_cast<double>(params.bins);
  LD_ENSURE(width > 0.0, "degenerate score distribution");
  geo.lo = ll_min - 0.5 * width;
  geo.hi = ll_max + 0.5 * width;
  geo.bins = params.bins + 1;
  return geo;
}

KeyRankBounds rank_bounds(const double* joint, std::size_t joint_bins,
                          std::size_t true_bin_sum, std::size_t n_bytes) {
  // Quantization slack: each byte contributes at most one bin of error.
  const std::size_t slack = n_bytes;
  const std::size_t upper_from =
      true_bin_sum > slack ? true_bin_sum - slack : 0;
  const std::size_t lower_from =
      std::min(true_bin_sum + slack, joint_bins - 1);
  LD_REQUIRE(upper_from < joint_bins,
             "true bin sum " << true_bin_sum << " past the joint histogram");

  double at_or_above = 0.0;
  for (std::size_t k = upper_from; k < joint_bins; ++k) {
    at_or_above += joint[k];
  }
  double above = 0.0;
  for (std::size_t k = lower_from + 1; k < joint_bins; ++k) above += joint[k];
  const double upper_rank = 1.0 + at_or_above;
  const double lower_rank = 1.0 + above;

  const double max_log2 = 8.0 * static_cast<double>(n_bytes);
  KeyRankBounds bounds;
  bounds.log2_upper =
      std::log2(std::min(upper_rank, std::pow(2.0, max_log2)));
  bounds.log2_lower = std::log2(std::max(lower_rank, 1.0));
  if (bounds.log2_lower > bounds.log2_upper) {
    std::swap(bounds.log2_lower, bounds.log2_upper);
  }
  return bounds;
}

}  // namespace detail

KeyRankBounds estimate_key_rank_general(
    const std::vector<std::array<double, 256>>& scores,
    const std::vector<std::uint8_t>& truth, KeyRankParams params) {
  const detail::RankGeometry geo =
      detail::rank_geometry(scores, truth, params);
  const std::size_t n_bytes = scores.size();
  const std::size_t bins = geo.bins;
  const stats::Histogram grid(geo.lo, geo.hi, bins);  // bin_index only

  std::size_t true_bin_sum = 0;
  for (std::size_t b = 0; b < n_bytes; ++b) {
    true_bin_sum += grid.bin_index(geo.ll[b][truth[b]]);
  }
  const std::size_t upper_from =
      true_bin_sum > n_bytes ? true_bin_sum - n_bytes : 0;

  // Scratch: two joint buffers (the level being read and the one being
  // written) and one per-byte histogram inside convolve_gather's padding.
  constexpr std::size_t kPad = util::simd::kConvolvePad;
  const std::size_t final_bins = n_bytes * (bins - 1) + 1;
  std::vector<double> joint(final_bins);
  std::vector<double> next(final_bins);
  std::vector<double> padded(bins + 2 * kPad);
  double* const byte_hist = padded.data() + kPad;
  const auto fill_byte_hist = [&](std::size_t b) {
    std::fill(byte_hist, byte_hist + bins, 0.0);
    for (const double v : geo.ll[b]) byte_hist[grid.bin_index(v)] += 1.0;
  };

  fill_byte_hist(0);
  std::copy(byte_hist, byte_hist + bins, joint.begin());
  std::size_t joint_bins = bins;
  for (std::size_t b = 1; b < n_bytes; ++b) {
    fill_byte_hist(b);
    // The bytes after b add at most `reach` bins, so lower bins of this
    // level can never land at or above upper_from.
    const std::size_t reach = (n_bytes - 1 - b) * (bins - 1);
    const std::size_t from = upper_from > reach ? upper_from - reach : 0;
    const std::size_t out_bins = joint_bins + bins - 1;
    util::simd::convolve_gather(joint.data(), joint_bins, byte_hist, bins,
                                next.data(), from, out_bins);
    joint.swap(next);
    joint_bins = out_bins;
  }
  return detail::rank_bounds(joint.data(), joint_bins, true_bin_sum, n_bytes);
}

KeyRankBounds estimate_key_rank(const std::array<ByteScores, 16>& scores,
                                const crypto::RoundKey& true_round_key,
                                KeyRankParams params) {
  std::vector<std::array<double, 256>> raw(16);
  std::vector<std::uint8_t> truth(16);
  for (int b = 0; b < 16; ++b) {
    raw[static_cast<std::size_t>(b)] = scores[static_cast<std::size_t>(b)].score;
    truth[static_cast<std::size_t>(b)] =
        true_round_key[static_cast<std::size_t>(b)];
  }
  return estimate_key_rank_general(raw, truth, params);
}

double exact_key_rank(const std::vector<std::array<double, 256>>& scores,
                      const std::vector<std::uint8_t>& truth, double gamma,
                      double epsilon) {
  LD_REQUIRE(!scores.empty() && scores.size() <= 3,
             "exact enumeration limited to 3 bytes, got " << scores.size());
  LD_REQUIRE(truth.size() == scores.size(), "truth size mismatch");
  // Work in log space with the same sharpening as the estimator.
  std::vector<std::array<double, 256>> ll(scores.size());
  for (std::size_t b = 0; b < scores.size(); ++b) {
    for (int g = 0; g < 256; ++g) {
      ll[b][static_cast<std::size_t>(g)] =
          gamma * std::log2(scores[b][static_cast<std::size_t>(g)] + epsilon);
    }
  }
  double true_ll = 0.0;
  for (std::size_t b = 0; b < scores.size(); ++b) true_ll += ll[b][truth[b]];

  // Count keys strictly better than the truth.
  double better = 0.0;
  const std::size_t n = scores.size();
  const int limit0 = 256;
  const int limit1 = n >= 2 ? 256 : 1;
  const int limit2 = n >= 3 ? 256 : 1;
  for (int g0 = 0; g0 < limit0; ++g0) {
    const double l0 = ll[0][static_cast<std::size_t>(g0)];
    for (int g1 = 0; g1 < limit1; ++g1) {
      const double l01 =
          l0 + (n >= 2 ? ll[1][static_cast<std::size_t>(g1)] : 0.0);
      for (int g2 = 0; g2 < limit2; ++g2) {
        const double total =
            l01 + (n >= 3 ? ll[2][static_cast<std::size_t>(g2)] : 0.0);
        if (total > true_ll) better += 1.0;
      }
    }
  }
  return 1.0 + better;
}

}  // namespace leakydsp::attack
