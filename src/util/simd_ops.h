// Elementwise SIMD primitives behind the runtime dispatch facility in
// cpu_features.h. Every op has one scalar reference implementation and
// optional AVX2 / AVX-512 tiers; all tiers are bit-identical on every
// input, so which tier runs is invisible to results (goldens, checkpoints,
// oracles) and is chosen purely for speed.
//
// The identity argument: each output lane is an independent chain of
// individually rounded IEEE operations in a fixed order, and the vector
// tiers evaluate exactly the same per-lane operation sequence with packed
// instructions (no fused multiply-add unless the scalar reference uses
// std::fma, no reassociation, no reduced-precision approximations). The
// scalar TU is pinned to -ffp-contract=off so LEAKYDSP_NATIVE builds
// cannot silently fuse what the vector tiers keep separate.
//
// Tail lanes (n not a multiple of the vector width) are delegated to the
// scalar reference, which keeps the masked-edge logic in exactly one
// place per op.
#pragma once

#include <cstddef>

namespace leakydsp::util::simd {

/// Raw view of a cubic-Hermite table (timing::ScaleTable internals) for
/// batch evaluation. `f`/`d` hold `knots` values each; `h` is the knot
/// spacing and `inv_h` its reciprocal as stored by the table.
struct HermiteView {
  const double* f = nullptr;
  const double* d = nullptr;
  std::size_t knots = 0;  ///< >= 2
  double v_lo = 0.0;
  double h = 0.0;
  double inv_h = 0.0;
};

/// Count of i in [0, n) with a[i] <= bound. On a sorted-ascending array
/// this equals the std::upper_bound index. Exact (comparisons only).
std::size_t count_le(const double* a, std::size_t n, double bound);

/// out[0..n) = value.
void fill(double* out, std::size_t n, double value);

/// out[i] = num / den[i].
void div_scalar(double num, const double* den, double* out, std::size_t n);

/// out[i] = (c - a * x[i]) + y[i], every operation individually rounded —
/// the capture-budget expression of the TDC batch path.
void sub_mul_add(double c, double a, const double* x, const double* y,
                 double* out, std::size_t n);

/// out_norm[i] = num[i] / den[i]; out_q[i] = out_norm[i] / d2 — the
/// normalized-budget and uniform-stage-quotient pair of
/// DelayChain::stages_within_scaled.
void div_div(const double* num, const double* den, double d2,
             double* out_norm, double* out_q, std::size_t n);

/// y[i] += a * x[i], every operation individually rounded — the CG/PCG
/// search-direction update.
void axpy(double a, const double* x, double* y, std::size_t n);

/// y[i] = x[i] + b * y[i] — the PCG direction recombination p = z + beta p.
void xpby(const double* x, double b, double* y, std::size_t n);

/// y[i] += s * (a[i] - b[i]) — the explicit-Euler transient PDN update
/// v += (dt/C) (I - G v).
void add_scaled_diff(double s, const double* a, const double* b, double* y,
                     std::size_t n);

/// Dot product with a FIXED reduction order shared by every tier: element i
/// accumulates into partial sum i mod 8, and the eight partials combine as
/// ((s0+s1)+(s2+s3)) + ((s4+s5)+(s6+s7)). The scalar tier implements the
/// same eight-lane chains, so all tiers are bit-identical — but note the
/// order intentionally differs from a plain sequential loop.
double dot(const double* x, const double* y, std::size_t n);

/// CSR sparse matrix-vector product y = A x. Each row's accumulation is a
/// single sequential chain in nonzero order — exactly the scalar reference
/// loop — so every tier is bit-identical to it; the vector tiers win by
/// running several row chains in parallel lanes (one lane per row).
void spmv(const std::size_t* row_start, const std::size_t* cols,
          const double* values, const double* x, double* y,
          std::size_t n_rows);

/// out[i] = the cubic-Hermite interpolant of `t` at v[i], replicating
/// timing::ScaleTable::operator()'s expression tree bit for bit for
/// v[i] in [v_lo, v_hi]. Lanes outside the table range still produce a
/// defined value (the interpolation position is clamped into the table,
/// never read out of bounds) but it is NOT the table's exact-law fallback;
/// callers overwrite such lanes themselves. v[i] must not be NaN.
void hermite_eval(const HermiteView& t, const double* v, double* out,
                  std::size_t n);

/// Zero padding convolve_gather needs on each side of `b`.
inline constexpr std::size_t kConvolvePad = 64;

/// Gather-form discrete convolution over an output range: for each k in
/// [k_begin, k_end), out[k] = sum of a[i] * b[k - i] over i ascending from
/// max(0, k - (nb - 1)) to min(k, na - 1), starting from +0.0 with every
/// product and every add individually rounded. Per output bin that is
/// exactly the order stats::Histogram::convolve's scatter loop adds in.
/// Only out[k_begin, k_end) is written, and a[i] is read only for i >=
/// k_begin - (nb - 1), so bins below that may hold anything.
///
/// Requires k_end <= na + nb - 1, finite a and b, and kConvolvePad
/// readable +0.0 entries on each side of b (b[-kConvolvePad..-1] and
/// b[nb..nb + kConvolvePad)). The vector tiers run whole output tiles
/// over the union of their lanes' i ranges and let the padding supply the
/// out-of-range terms: each is a[i] * 0 = ±0, which leaves a running sum
/// that starts at +0.0 unchanged, so every tier is bit-identical.
void convolve_gather(const double* a, std::size_t na, const double* b,
                     std::size_t nb, double* out, std::size_t k_begin,
                     std::size_t k_end);

namespace detail {

// Per-tier entry points. The public functions above dispatch on
// util::current_simd_tier(); tests reach individual tiers through
// util::set_simd_tier_override instead of calling these directly.
std::size_t count_le_scalar(const double* a, std::size_t n, double bound);
void fill_scalar(double* out, std::size_t n, double value);
void div_scalar_scalar(double num, const double* den, double* out,
                       std::size_t n);
void sub_mul_add_scalar(double c, double a, const double* x, const double* y,
                        double* out, std::size_t n);
void div_div_scalar(const double* num, const double* den, double d2,
                    double* out_norm, double* out_q, std::size_t n);
void axpy_scalar(double a, const double* x, double* y, std::size_t n);
void xpby_scalar(const double* x, double b, double* y, std::size_t n);
void add_scaled_diff_scalar(double s, const double* a, const double* b,
                            double* y, std::size_t n);
double dot_scalar(const double* x, const double* y, std::size_t n);
void spmv_scalar(const std::size_t* row_start, const std::size_t* cols,
                 const double* values, const double* x, double* y,
                 std::size_t n_rows);
void hermite_eval_scalar(const HermiteView& t, const double* v, double* out,
                         std::size_t n);
void convolve_gather_scalar(const double* a, std::size_t na, const double* b,
                            std::size_t nb, double* out, std::size_t k_begin,
                            std::size_t k_end);

/// Shared by every dot tier: the eight partial sums (element i accumulates
/// into acc[i mod 8]) combine in this fixed tree. Vector tiers resume their
/// scalar tails at a multiple of 8, so lane assignment always lines up.
inline double dot_combine(const double acc[8]) {
  return ((acc[0] + acc[1]) + (acc[2] + acc[3])) +
         ((acc[4] + acc[5]) + (acc[6] + acc[7]));
}

#ifdef LEAKYDSP_SIMD_AVX2
std::size_t count_le_avx2(const double* a, std::size_t n, double bound);
void fill_avx2(double* out, std::size_t n, double value);
void div_scalar_avx2(double num, const double* den, double* out,
                     std::size_t n);
void sub_mul_add_avx2(double c, double a, const double* x, const double* y,
                      double* out, std::size_t n);
void div_div_avx2(const double* num, const double* den, double d2,
                  double* out_norm, double* out_q, std::size_t n);
void axpy_avx2(double a, const double* x, double* y, std::size_t n);
void xpby_avx2(const double* x, double b, double* y, std::size_t n);
void add_scaled_diff_avx2(double s, const double* a, const double* b,
                          double* y, std::size_t n);
double dot_avx2(const double* x, const double* y, std::size_t n);
void spmv_avx2(const std::size_t* row_start, const std::size_t* cols,
               const double* values, const double* x, double* y,
               std::size_t n_rows);
void hermite_eval_avx2(const HermiteView& t, const double* v, double* out,
                       std::size_t n);
void convolve_gather_avx2(const double* a, std::size_t na, const double* b,
                          std::size_t nb, double* out, std::size_t k_begin,
                          std::size_t k_end);
#endif

#ifdef LEAKYDSP_SIMD_AVX512
std::size_t count_le_avx512(const double* a, std::size_t n, double bound);
void fill_avx512(double* out, std::size_t n, double value);
void div_scalar_avx512(double num, const double* den, double* out,
                       std::size_t n);
void sub_mul_add_avx512(double c, double a, const double* x, const double* y,
                        double* out, std::size_t n);
void div_div_avx512(const double* num, const double* den, double d2,
                    double* out_norm, double* out_q, std::size_t n);
void axpy_avx512(double a, const double* x, double* y, std::size_t n);
void xpby_avx512(const double* x, double b, double* y, std::size_t n);
void add_scaled_diff_avx512(double s, const double* a, const double* b,
                            double* y, std::size_t n);
double dot_avx512(const double* x, const double* y, std::size_t n);
void spmv_avx512(const std::size_t* row_start, const std::size_t* cols,
                 const double* values, const double* x, double* y,
                 std::size_t n_rows);
void hermite_eval_avx512(const HermiteView& t, const double* v, double* out,
                         std::size_t n);
void convolve_gather_avx512(const double* a, std::size_t na, const double* b,
                            std::size_t nb, double* out, std::size_t k_begin,
                            std::size_t k_end);
#endif

}  // namespace detail

}  // namespace leakydsp::util::simd
