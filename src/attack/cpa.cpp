#include "attack/cpa.h"

#include <algorithm>
#include <cmath>

#include "attack/cpa_kernels.h"
#include "attack/power_model.h"
#include "obs/metrics.h"
#include "util/contracts.h"

namespace leakydsp::attack {

CpaAttack::CpaAttack(std::size_t poi_count, CpaKernel kernel)
    : poi_(poi_count), kernel_(kernel) {
  LD_REQUIRE(poi_ >= 1, "need at least one point of interest");
  sum_t_.assign(poi_, 0.0);
  sum_t2_.assign(poi_, 0.0);
  for (auto& per_byte : sum_ht_) per_byte.assign(256 * poi_, 0.0);
}

void CpaAttack::add_trace(const crypto::Block& ciphertext,
                          std::span<const double> poi_samples) {
  add_traces({&ciphertext, 1}, poi_samples);
}

void CpaAttack::add_traces(std::span<const crypto::Block> ciphertexts,
                           std::span<const double> poi_matrix) {
  const std::size_t n = ciphertexts.size();
  LD_REQUIRE(poi_matrix.size() == n * poi_,
             "expected " << n * poi_ << " POI samples for " << n
                         << " traces, got " << poi_matrix.size());
  OBS_COUNT("cpa.add_traces.calls", 1);
  OBS_COUNT("cpa.traces_accumulated", n);
  OBS_HISTO("cpa.batch_traces", ({1, 8, 16, 32, 64, 128, 256, 512}), n);
  traces_ += n;
  // Trace-side sums are kernel-independent; the op's per-POI chains run in
  // trace order on every dispatch tier, bit-identical to the historical
  // inline loop.
  kernels::trace_sums(poi_matrix.data(), n, poi_, sum_t_.data(),
                      sum_t2_.data());
  switch (kernel_) {
    case CpaKernel::kGemm:
      add_traces_gemm(ciphertexts, poi_matrix);
      break;
    case CpaKernel::kSimd:
      add_traces_simd(ciphertexts, poi_matrix);
      break;
  }
}

void CpaAttack::add_traces_gemm(std::span<const crypto::Block> ciphertexts,
                                std::span<const double> poi_matrix) {
  const std::size_t n = ciphertexts.size();
  // Hypothesis rows for the whole batch, [t * 256 + g] per byte, so the
  // guess loop below streams them column-wise without re-deriving SBox
  // inversions inside the hot kernel.
  std::vector<std::uint8_t> hyp(n * 256);
  for (int b = 0; b < 16; ++b) {
    for (std::size_t t = 0; t < n; ++t) {
      const auto row = last_round_hd_row(ciphertexts[t], b);
      std::copy(row.begin(), row.end(), hyp.begin() + static_cast<std::ptrdiff_t>(t * 256));
    }
    auto& h_sums = sum_h_[static_cast<std::size_t>(b)];
    auto& h2_sums = sum_h2_[static_cast<std::size_t>(b)];
    auto& ht = sum_ht_[static_cast<std::size_t>(b)];
    // GEMM-style kernel: dst row (one guess x POI stripe) stays resident
    // across the whole batch instead of the per-trace axpy cycling through
    // all 256 stripes for every trace.
    for (int g = 0; g < 256; ++g) {
      const auto gi = static_cast<std::size_t>(g);
      double* dst = ht.data() + gi * poi_;
      double hs = 0.0;
      double h2s = 0.0;
      for (std::size_t t = 0; t < n; ++t) {
        const double h = static_cast<double>(hyp[t * 256 + gi]);
        hs += h;
        h2s += h * h;
        const double* src = poi_matrix.data() + t * poi_;
        for (std::size_t k = 0; k < poi_; ++k) {
          dst[k] += h * src[k];
        }
      }
      h_sums[gi] += hs;
      h2_sums[gi] += h2s;
    }
  }
}

void CpaAttack::add_traces_simd(std::span<const crypto::Block> ciphertexts,
                                std::span<const double> poi_matrix) {
  const std::size_t n = ciphertexts.size();
  // Trace blocks sized so one block's POI panel (block * poi doubles) stays
  // L1-resident while all 16 key bytes stream over it — the multi-byte
  // panel sharing that makes this kernel read each trace row once per
  // block instead of 16 times. Block boundaries never change results:
  // every (byte, guess, POI) fma chain still sees traces in global order,
  // and the per-block integer hypothesis folds are exact.
  const std::size_t block =
      std::clamp<std::size_t>(2048 / poi_, std::size_t{8}, std::size_t{512});
  std::array<std::uint64_t, 256> hs;
  std::array<std::uint64_t, 256> h2s;
  for (std::size_t t0 = 0; t0 < n; t0 += block) {
    const std::size_t m = std::min(block, n - t0);
    row_scratch_.resize(m);
    for (int b = 0; b < 16; ++b) {
      const auto bi = static_cast<std::size_t>(b);
      const int sr = crypto::Aes128::shift_rows_map(b);
      for (std::size_t t = 0; t < m; ++t) {
        const crypto::Block& ct = ciphertexts[t0 + t];
        row_scratch_[t] =
            last_round_hd_pair_row(ct[bi], ct[static_cast<std::size_t>(sr)]);
      }
      kernels::hypothesis_sums(row_scratch_.data(), m, hs.data(), h2s.data());
      auto& h_sums = sum_h_[bi];
      auto& h2_sums = sum_h2_[bi];
      for (std::size_t g = 0; g < 256; ++g) {
        h_sums[g] += static_cast<double>(hs[g]);
        h2_sums[g] += static_cast<double>(h2s[g]);
      }
      kernels::accumulate_panel(
          {row_scratch_.data(), poi_matrix.data() + t0 * poi_, m, poi_},
          sum_ht_[bi].data());
    }
  }
}

void CpaAttack::merge(const CpaAttack& other) {
  LD_REQUIRE(other.poi_ == poi_,
             "merging shards with different POI windows: " << other.poi_
                                                           << " vs " << poi_);
  traces_ += other.traces_;
  for (std::size_t k = 0; k < poi_; ++k) {
    sum_t_[k] += other.sum_t_[k];
    sum_t2_[k] += other.sum_t2_[k];
  }
  for (std::size_t b = 0; b < 16; ++b) {
    for (std::size_t g = 0; g < 256; ++g) {
      sum_h_[b][g] += other.sum_h_[b][g];
      sum_h2_[b][g] += other.sum_h2_[b][g];
    }
    const auto& src = other.sum_ht_[b];
    auto& dst = sum_ht_[b];
    for (std::size_t i = 0; i < dst.size(); ++i) dst[i] += src[i];
  }
}

std::size_t CpaAttack::approx_accumulator_bytes(std::size_t poi_count) {
  return sizeof(CpaAttack)                            // inline sum_h / sum_h2
         + 2 * poi_count * sizeof(double)             // sum_t, sum_t2
         + 16 * 256 * poi_count * sizeof(double);     // sum_ht cross sums
}

std::size_t CpaAttack::resident_bytes() const {
  std::size_t bytes = sizeof(CpaAttack) +
                      (sum_t_.capacity() + sum_t2_.capacity()) *
                          sizeof(double) +
                      row_scratch_.capacity() * sizeof(const std::uint8_t*);
  for (const auto& per_byte : sum_ht_) {
    bytes += per_byte.capacity() * sizeof(double);
  }
  return bytes;
}

void CpaAttack::serialize(util::ByteWriter& out) const {
  out.u64(poi_);
  out.u64(traces_);
  for (const double v : sum_t_) out.f64(v);
  for (const double v : sum_t2_) out.f64(v);
  for (const auto& per_byte : sum_h_) {
    for (const double v : per_byte) out.f64(v);
  }
  for (const auto& per_byte : sum_h2_) {
    for (const double v : per_byte) out.f64(v);
  }
  for (const auto& per_byte : sum_ht_) {
    for (const double v : per_byte) out.f64(v);
  }
}

CpaAttack CpaAttack::deserialize(util::ByteReader& in) {
  const std::uint64_t poi = in.u64();
  LD_REQUIRE(poi >= 1, "serialized CPA state has zero POI");
  // Each POI contributes two trace sums and 16*256 cross sums of 8 bytes;
  // checking against the buffer bounds the allocation below.
  LD_REQUIRE(poi <= in.remaining() / ((2 + 16 * 256) * sizeof(double)),
             "serialized CPA state truncated: " << poi
                                                << " POI don't fit in "
                                                << in.remaining() << " bytes");
  CpaAttack cpa(static_cast<std::size_t>(poi));
  cpa.traces_ = static_cast<std::size_t>(in.u64());
  for (double& v : cpa.sum_t_) v = in.f64();
  for (double& v : cpa.sum_t2_) v = in.f64();
  for (auto& per_byte : cpa.sum_h_) {
    for (double& v : per_byte) v = in.f64();
  }
  for (auto& per_byte : cpa.sum_h2_) {
    for (double& v : per_byte) v = in.f64();
  }
  for (auto& per_byte : cpa.sum_ht_) {
    for (double& v : per_byte) v = in.f64();
  }
  return cpa;
}

ByteScores CpaAttack::snapshot_byte(int byte_index) const {
  LD_REQUIRE(byte_index >= 0 && byte_index < 16, "bad byte index");
  LD_REQUIRE(traces_ >= 2, "need at least two traces to correlate");
  const auto b = static_cast<std::size_t>(byte_index);
  const double n = static_cast<double>(traces_);

  // The trace-side variance is guess-independent; hoist it out of the
  // 256-guess loop (it used to be recomputed 256x per byte).
  std::vector<double> var_t(poi_);
  for (std::size_t k = 0; k < poi_; ++k) {
    var_t[k] = sum_t2_[k] - sum_t_[k] * sum_t_[k] / n;
  }

  ByteScores result;
  for (int g = 0; g < 256; ++g) {
    const auto gi = static_cast<std::size_t>(g);
    const double var_h = sum_h2_[b][gi] - sum_h_[b][gi] * sum_h_[b][gi] / n;
    double best = 0.0;
    if (var_h > 1e-12) {
      const double* ht = sum_ht_[b].data() + gi * poi_;
      for (std::size_t k = 0; k < poi_; ++k) {
        if (var_t[k] <= 1e-12) continue;
        const double cov = ht[k] - sum_h_[b][gi] * sum_t_[k] / n;
        const double rho = std::abs(cov) / std::sqrt(var_h * var_t[k]);
        if (rho > best) best = rho;
      }
    }
    result.score[gi] = best;
    if (best > result.best_score) {
      result.runner_up_score = result.best_score;
      result.best_score = best;
      result.best_guess = static_cast<std::uint8_t>(g);
    } else if (best > result.runner_up_score) {
      result.runner_up_score = best;
    }
  }
  return result;
}

std::array<ByteScores, 16> CpaAttack::snapshot() const {
  std::array<ByteScores, 16> all;
  for (int b = 0; b < 16; ++b) {
    all[static_cast<std::size_t>(b)] = snapshot_byte(b);
  }
  return all;
}

crypto::RoundKey CpaAttack::recovered_round_key() const {
  crypto::RoundKey rk{};
  for (int b = 0; b < 16; ++b) {
    rk[static_cast<std::size_t>(b)] = snapshot_byte(b).best_guess;
  }
  return rk;
}

crypto::Key CpaAttack::recovered_master_key() const {
  return crypto::Aes128::invert_key_schedule(recovered_round_key());
}

}  // namespace leakydsp::attack
