// Online correlation power analysis.
//
// One accumulator set per (key byte, guess): sums of the hypothesis and,
// per point of interest, the hypothesis-trace cross products. Adding a
// trace is O(16 * 256 * K); correlations can be snapshotted at any
// checkpoint without rescanning traces — that is how Table I / Fig. 5
// evaluate every trace-count checkpoint from a single campaign pass.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "crypto/aes128.h"
#include "util/aligned.h"
#include "util/byte_io.h"

namespace leakydsp::attack {

/// Per-byte result of a correlation snapshot.
struct ByteScores {
  /// max_k |rho| over the POI window, per guess.
  std::array<double, 256> score{};
  std::uint8_t best_guess = 0;
  double best_score = 0.0;
  double runner_up_score = 0.0;
};

/// Batch-accumulation kernel of CpaAttack::add_traces.
enum class CpaKernel {
  /// GEMM-style reference kernel: per-(guess, POI) additions happen in
  /// trace order, bit-identical to calling add_trace per trace.
  kGemm,
  /// Runtime-dispatched SIMD kernel (cpa_kernels.h): register-blocked
  /// fma chains per (guess, POI) in global trace order, streamed in
  /// L1-sized trace blocks across all 16 key bytes, with exact-integer
  /// hypothesis sums. Every dispatch tier (scalar / AVX2 / AVX-512) and
  /// every batch split produces bit-identical accumulators; values differ
  /// from kGemm only by the fused rounding of each
  /// multiply-add step. Default.
  kSimd,
};

/// Online last-round CPA over a fixed number of points of interest.
class CpaAttack {
 public:
  explicit CpaAttack(std::size_t poi_count,
                     CpaKernel kernel = CpaKernel::kSimd);

  std::size_t poi_count() const { return poi_; }
  std::size_t trace_count() const { return traces_; }
  CpaKernel kernel() const { return kernel_; }

  /// Accumulates one trace: its ciphertext and the sensor readouts at the
  /// POI window (size must equal poi_count()). Routed through add_traces
  /// with a batch of one: kGemm accumulates that as the historical
  /// per-trace accumulation; kSimd accumulates its fused form, which is
  /// itself identical to kSimd at any batch size.
  void add_trace(const crypto::Block& ciphertext,
                 std::span<const double> poi_samples);

  /// Accumulates a batch of traces at once: `poi_matrix` holds the POI rows
  /// of `ciphertexts.size()` traces back to back (row t at offset
  /// t * poi_count()), dispatched to the configured CpaKernel. Deterministic
  /// for a given kernel and batch split; the two kernels differ only in
  /// the fused rounding of kSimd's multiply-adds.
  void add_traces(std::span<const crypto::Block> ciphertexts,
                  std::span<const double> poi_matrix);

  /// Folds another accumulator (same poi_count) into this one, as if this
  /// attack had also seen every trace `other` saw. This is how per-worker
  /// shards of a parallel campaign combine at checkpoint boundaries.
  void merge(const CpaAttack& other);

  /// Correlation snapshot for one key byte.
  ByteScores snapshot_byte(int byte_index) const;

  /// Snapshot of all 16 bytes.
  std::array<ByteScores, 16> snapshot() const;

  /// Round-10 key candidate: best guess per byte.
  crypto::RoundKey recovered_round_key() const;

  /// Master key obtained by inverting the key schedule of the recovered
  /// round-10 key.
  crypto::Key recovered_master_key() const;

  /// Appends the complete accumulator state — trace count, trace-side
  /// sums, per-(byte, guess) hypothesis sums and cross sums — to `out`.
  /// deserialize() reconstructs a bit-identical attack: snapshots of the
  /// restored object equal the original's exactly, which is what makes
  /// campaign resume byte-identical. Throws util::PreconditionError on a
  /// truncated or inconsistent buffer.
  void serialize(util::ByteWriter& out) const;
  static CpaAttack deserialize(util::ByteReader& in);

  /// Approximate heap footprint of one accumulator with `poi_count` points
  /// of interest: the trace-side sums and the flattened per-(byte, guess)
  /// cross sums. Coarse by design — the campaign
  /// service charges this against its memory budget per resident task.
  static std::size_t approx_accumulator_bytes(std::size_t poi_count);

  /// Actual bytes currently held by this accumulator's heap vectors.
  std::size_t resident_bytes() const;

 private:
  void add_traces_gemm(std::span<const crypto::Block> ciphertexts,
                       std::span<const double> poi_matrix);
  void add_traces_simd(std::span<const crypto::Block> ciphertexts,
                       std::span<const double> poi_matrix);

  std::size_t poi_;
  std::size_t traces_ = 0;
  CpaKernel kernel_ = CpaKernel::kSimd;  // not serialized

  // Kernel scratch, reused across batches (not part of the accumulator
  // state; never serialized or merged).
  std::vector<const std::uint8_t*> row_scratch_;  // per-trace pair rows

  // Trace-side sums (shared across guesses). 64-byte aligned so the SIMD
  // trace_sums kernel never splits a vector across cache lines.
  util::aligned_vector<double> sum_t_;   // [poi]
  util::aligned_vector<double> sum_t2_;  // [poi]

  // Hypothesis-side sums per (byte, guess).
  std::array<std::array<double, 256>, 16> sum_h_{};
  std::array<std::array<double, 256>, 16> sum_h2_{};

  // Cross sums: [byte][guess * poi + k], flattened for locality and
  // 64-byte aligned for the kSimd accumulation slabs.
  std::array<util::aligned_vector<double>, 16> sum_ht_;
};

}  // namespace leakydsp::attack
