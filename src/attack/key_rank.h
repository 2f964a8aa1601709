// Key-rank estimation with histogram convolution (Glowacz et al., FSE'15)
// — the metric of Fig. 5/6 and Table I. Per-byte CPA scores are turned
// into log-probabilities; the distribution of the 16-byte sum is built by
// convolving per-byte histograms; the rank of the true key is bounded by
// counting mass above the true key's bin, padded by the quantization slack
// of one bin per byte in each direction.
//
// Which bins get computed: the bounds read only the final joint histogram
// from upper_from = true_bin_sum - n_bytes upward, and a joint bin after
// byte b can still reach the final bin k only if it is at least
// k - (n_bytes - 1 - b) * (bins - 1). So the true key's bin sum is found
// first, and each convolution level computes just the bins at or above
// that threshold with util::simd::convolve_gather. Every computed bin is
// bit-identical to the dense chain of stats::Histogram::convolve calls,
// which stays the reference (verify/key_rank_reference.h): on a broken key
// almost nothing is computed, on an unbroken one about two thirds.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "attack/cpa.h"
#include "crypto/aes128.h"

namespace leakydsp::attack {

/// Bounds on log2(rank) of the true key. rank == 1 means broken.
struct KeyRankBounds {
  double log2_lower = 0.0;
  double log2_upper = 128.0;

  double log2_mid() const { return 0.5 * (log2_lower + log2_upper); }
};

/// Estimator configuration.
struct KeyRankParams {
  std::size_t bins = 512;  ///< histogram resolution per byte
  double gamma = 8.0;       ///< score sharpening exponent: p ∝ score^gamma
  double epsilon = 1e-9;    ///< floor added to scores before normalizing
};

/// Estimates rank bounds of `true_round_key` given per-byte CPA scores.
KeyRankBounds estimate_key_rank(const std::array<ByteScores, 16>& scores,
                                const crypto::RoundKey& true_round_key,
                                KeyRankParams params = {});

/// Generalized estimator over an arbitrary number of key bytes (1..16).
/// `scores[b][g]` is the CPA score of guess g for byte b; `truth[b]` the
/// correct byte. Used by the reduced-key-space verification below and by
/// tests.
KeyRankBounds estimate_key_rank_general(
    const std::vector<std::array<double, 256>>& scores,
    const std::vector<std::uint8_t>& truth, KeyRankParams params = {});

namespace detail {

/// The estimator's front end, shared with its dense reference: per-byte
/// sharpened log2-probabilities and the one bin geometry every per-byte
/// histogram uses, so they convolve exactly. `bins` = params.bins + 1.
struct RankGeometry {
  std::vector<std::array<double, 256>> ll;  ///< ll[b][g] = log2 P(g)
  double lo = 0.0;
  double hi = 0.0;
  std::size_t bins = 0;
};

/// Validates the arguments of estimate_key_rank_general and bins them.
RankGeometry rank_geometry(const std::vector<std::array<double, 256>>& scores,
                           const std::vector<std::uint8_t>& truth,
                           const KeyRankParams& params);

/// Rank bounds from the final joint histogram `joint[0, joint_bins)` of
/// `n_bytes` bytes. Reads only joint[k] for k >= true_bin_sum - n_bytes.
KeyRankBounds rank_bounds(const double* joint, std::size_t joint_bins,
                          std::size_t true_bin_sum, std::size_t n_bytes);

}  // namespace detail

/// Exact rank of the true key by full enumeration, feasible for up to 3
/// bytes (256^3 combinations): 1 + number of keys with a strictly larger
/// score product (log-likelihood sum). The property tests assert the
/// histogram estimator's bounds contain this value.
double exact_key_rank(const std::vector<std::array<double, 256>>& scores,
                      const std::vector<std::uint8_t>& truth,
                      double gamma = 8.0, double epsilon = 1e-9);

}  // namespace leakydsp::attack
