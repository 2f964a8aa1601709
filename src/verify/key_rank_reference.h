// Reference for the key-rank estimator: the dense FSE'15 chain that
// convolves every per-byte histogram in full with stats::Histogram's
// scatter loop. attack::estimate_key_rank_general computes only the joint
// bins its bounds read, with util::simd::convolve_gather, and must match
// this bit for bit — the attack.key_rank_fast_vs_reference oracle checks
// that; hotpath_micro times the pair on real campaign scores.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "attack/key_rank.h"
#include "sim/scenarios.h"

namespace leakydsp::verify {

/// Per-byte scores with the true key byte of each.
struct RankScoreSet {
  std::vector<std::array<double, 256>> scores;
  std::vector<std::uint8_t> truth;
};

/// Final CPA scores and true round-10 key of a `traces`-trace campaign at
/// `scenario`'s best placement, the victim current scaled by
/// `current_scale` (1 leaves the key at log2 rank ~80-127 for these trace
/// counts, 20 breaks it within 1,024 traces), key and noise from `seed`.
RankScoreSet campaign_rank_scores(const sim::Basys3Scenario& scenario,
                                  std::size_t traces, double current_scale,
                                  std::uint64_t seed);

/// attack::estimate_key_rank_general(scores, truth, params) with the full
/// joint histogram built by n_bytes - 1 dense Histogram::convolve calls.
attack::KeyRankBounds reference_estimate_key_rank(
    const std::vector<std::array<double, 256>>& scores,
    const std::vector<std::uint8_t>& truth, attack::KeyRankParams params = {});

}  // namespace leakydsp::verify
