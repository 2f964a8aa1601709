// AVX-512 tier of the util::simd ops (F/DQ/BW/VL). Same bitwise contract
// as the AVX2 tier: packed counterparts of the scalar reference, no fusion
// or approximation, tails delegate to scalar.
#include "util/simd_ops.h"

#ifdef LEAKYDSP_SIMD_AVX512

#include <immintrin.h>

#include <algorithm>
#include <cstddef>

namespace leakydsp::util::simd::detail {

std::size_t count_le_avx512(const double* a, std::size_t n, double bound) {
  const __m512d vb = _mm512_set1_pd(bound);
  std::size_t count = 0;
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __mmask8 le =
        _mm512_cmp_pd_mask(_mm512_loadu_pd(a + i), vb, _CMP_LE_OQ);
    count += static_cast<std::size_t>(__builtin_popcount(le));
  }
  return count + count_le_scalar(a + i, n - i, bound);
}

void fill_avx512(double* out, std::size_t n, double value) {
  const __m512d v = _mm512_set1_pd(value);
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) _mm512_storeu_pd(out + i, v);
  fill_scalar(out + i, n - i, value);
}

void div_scalar_avx512(double num, const double* den, double* out,
                       std::size_t n) {
  const __m512d vn = _mm512_set1_pd(num);
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    _mm512_storeu_pd(out + i, _mm512_div_pd(vn, _mm512_loadu_pd(den + i)));
  }
  div_scalar_scalar(num, den + i, out + i, n - i);
}

void sub_mul_add_avx512(double c, double a, const double* x, const double* y,
                        double* out, std::size_t n) {
  const __m512d vc = _mm512_set1_pd(c);
  const __m512d va = _mm512_set1_pd(a);
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m512d prod = _mm512_mul_pd(va, _mm512_loadu_pd(x + i));
    const __m512d diff = _mm512_sub_pd(vc, prod);
    _mm512_storeu_pd(out + i, _mm512_add_pd(diff, _mm512_loadu_pd(y + i)));
  }
  sub_mul_add_scalar(c, a, x + i, y + i, out + i, n - i);
}

void div_div_avx512(const double* num, const double* den, double d2,
                    double* out_norm, double* out_q, std::size_t n) {
  const __m512d vd2 = _mm512_set1_pd(d2);
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m512d norm =
        _mm512_div_pd(_mm512_loadu_pd(num + i), _mm512_loadu_pd(den + i));
    _mm512_storeu_pd(out_norm + i, norm);
    _mm512_storeu_pd(out_q + i, _mm512_div_pd(norm, vd2));
  }
  div_div_scalar(num + i, den + i, d2, out_norm + i, out_q + i, n - i);
}

void axpy_avx512(double a, const double* x, double* y, std::size_t n) {
  const __m512d va = _mm512_set1_pd(a);
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m512d prod = _mm512_mul_pd(va, _mm512_loadu_pd(x + i));
    _mm512_storeu_pd(y + i, _mm512_add_pd(_mm512_loadu_pd(y + i), prod));
  }
  axpy_scalar(a, x + i, y + i, n - i);
}

void xpby_avx512(const double* x, double b, double* y, std::size_t n) {
  const __m512d vb = _mm512_set1_pd(b);
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m512d prod = _mm512_mul_pd(vb, _mm512_loadu_pd(y + i));
    _mm512_storeu_pd(y + i, _mm512_add_pd(_mm512_loadu_pd(x + i), prod));
  }
  xpby_scalar(x + i, b, y + i, n - i);
}

void add_scaled_diff_avx512(double s, const double* a, const double* b,
                            double* y, std::size_t n) {
  const __m512d vs = _mm512_set1_pd(s);
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m512d diff =
        _mm512_sub_pd(_mm512_loadu_pd(a + i), _mm512_loadu_pd(b + i));
    const __m512d prod = _mm512_mul_pd(vs, diff);
    _mm512_storeu_pd(y + i, _mm512_add_pd(_mm512_loadu_pd(y + i), prod));
  }
  add_scaled_diff_scalar(s, a + i, b + i, y + i, n - i);
}

double dot_avx512(const double* x, const double* y, std::size_t n) {
  // Lane j is partial sum j (element i lands in partial i mod 8), the same
  // assignment as the scalar and AVX2 tiers; fixed combine tree at the end.
  __m512d acc8 = _mm512_setzero_pd();
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    acc8 = _mm512_add_pd(
        acc8, _mm512_mul_pd(_mm512_loadu_pd(x + i), _mm512_loadu_pd(y + i)));
  }
  double acc[8];
  _mm512_storeu_pd(acc, acc8);
  for (; i < n; ++i) acc[i & 7] = acc[i & 7] + x[i] * y[i];
  return dot_combine(acc);
}

void spmv_avx512(const std::size_t* row_start, const std::size_t* cols,
                 const double* values, const double* x, double* y,
                 std::size_t n_rows) {
  // Eight rows per iteration, one lane per row; each lane's accumulation is
  // the row's sequential CSR-order chain, bit-identical to the scalar
  // reference. Native masks keep finished rows' sums untouched and
  // suppress gather faults on their lanes.
  std::size_t r = 0;
  for (; r + 8 <= n_rows; r += 8) {
    const __m512i starts = _mm512_loadu_si512(row_start + r);
    const __m512i ends = _mm512_loadu_si512(row_start + r + 1);
    std::size_t max_len = 0;
    for (std::size_t l = 0; l < 8; ++l) {
      max_len = std::max(max_len, row_start[r + l + 1] - row_start[r + l]);
    }
    __m512d sum = _mm512_setzero_pd();
    for (std::size_t j = 0; j < max_len; ++j) {
      const __m512i k = _mm512_add_epi64(
          starts, _mm512_set1_epi64(static_cast<long long>(j)));
      const __mmask8 active = _mm512_cmplt_epu64_mask(k, ends);
      const __m512d vals =
          _mm512_mask_i64gather_pd(_mm512_setzero_pd(), active, k, values, 8);
      const __m512i col = _mm512_mask_i64gather_epi64(
          _mm512_setzero_si512(), active, k, cols, 8);
      const __m512d xv =
          _mm512_mask_i64gather_pd(_mm512_setzero_pd(), active, col, x, 8);
      sum = _mm512_mask_add_pd(sum, active, sum,
                               _mm512_mul_pd(vals, xv));
    }
    _mm512_storeu_pd(y + r, sum);
  }
  spmv_scalar(row_start + r, cols, values, x, y + r, n_rows - r);
}

void hermite_eval_avx512(const HermiteView& t, const double* v, double* out,
                         std::size_t n) {
  const __m512d v_lo = _mm512_set1_pd(t.v_lo);
  const __m512d inv_h = _mm512_set1_pd(t.inv_h);
  const __m512d hv = _mm512_set1_pd(t.h);
  const __m512d zero = _mm512_setzero_pd();
  const __m512d last = _mm512_set1_pd(static_cast<double>(t.knots - 2));
  const __m512d one = _mm512_set1_pd(1.0);
  const __m512d two = _mm512_set1_pd(2.0);
  const __m512d three = _mm512_set1_pd(3.0);
  const __m512d minus_two = _mm512_set1_pd(-2.0);
  // Full-mask forms throughout: the unmasked intrinsics pass an undefined
  // source register, which gcc 12 reports as -Wmaybe-uninitialized.
  constexpr __mmask8 kAll = 0xFF;
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    __m512d s = _mm512_mul_pd(_mm512_sub_pd(_mm512_loadu_pd(v + i), v_lo),
                              inv_h);
    s = _mm512_maskz_max_pd(kAll, s, zero);
    __m512d fj = _mm512_maskz_roundscale_pd(
        kAll, s, _MM_FROUND_TO_ZERO | _MM_FROUND_NO_EXC);
    fj = _mm512_maskz_min_pd(kAll, fj, last);
    const __m256i idx = _mm512_maskz_cvttpd_epi32(kAll, fj);
    const __m512d fi = _mm512_mask_i32gather_pd(zero, kAll, idx, t.f, 8);
    const __m512d fi1 = _mm512_mask_i32gather_pd(zero, kAll, idx, t.f + 1, 8);
    const __m512d di = _mm512_mask_i32gather_pd(zero, kAll, idx, t.d, 8);
    const __m512d di1 = _mm512_mask_i32gather_pd(zero, kAll, idx, t.d + 1, 8);
    const __m512d tt = _mm512_sub_pd(s, fj);
    const __m512d t2 = _mm512_mul_pd(tt, tt);
    const __m512d t3 = _mm512_mul_pd(t2, tt);
    const __m512d c1 = _mm512_add_pd(
        _mm512_sub_pd(_mm512_mul_pd(two, t3), _mm512_mul_pd(three, t2)), one);
    const __m512d c2 =
        _mm512_add_pd(_mm512_sub_pd(t3, _mm512_mul_pd(two, t2)), tt);
    const __m512d c3 = _mm512_add_pd(_mm512_mul_pd(minus_two, t3),
                                     _mm512_mul_pd(three, t2));
    const __m512d c4 = _mm512_sub_pd(t3, t2);
    __m512d r = _mm512_mul_pd(c1, fi);
    r = _mm512_add_pd(r, _mm512_mul_pd(_mm512_mul_pd(c2, hv), di));
    r = _mm512_add_pd(r, _mm512_mul_pd(c3, fi1));
    r = _mm512_add_pd(r, _mm512_mul_pd(_mm512_mul_pd(c4, hv), di1));
    _mm512_storeu_pd(out + i, r);
  }
  hermite_eval_scalar(t, v + i, out + i, n - i);
}

namespace {

/// Output bins [k0, k0 + 8 * R) of convolve_gather: R accumulators of
/// 8 lanes each, one broadcast of a[i] per step over the union of the
/// lanes' i ranges. Lanes outside their own range read b's zero padding.
template <std::size_t R>
void convolve_tile_avx512(const double* a, std::size_t na, const double* b,
                          std::size_t nb, double* out, std::size_t k0) {
  constexpr std::size_t kLanes = 8 * R;
  static_assert(kLanes - 1 <= kConvolvePad, "tile overruns b's padding");
  const std::size_t i_lo = k0 >= nb ? k0 - (nb - 1) : 0;
  const std::size_t i_hi = std::min(k0 + kLanes - 1, na - 1);
  __m512d acc[R];
  for (std::size_t r = 0; r < R; ++r) acc[r] = _mm512_setzero_pd();
  for (std::size_t i = i_lo; i <= i_hi; ++i) {
    const __m512d ai = _mm512_set1_pd(a[i]);
    const double* bk = b + (static_cast<std::ptrdiff_t>(k0) -
                            static_cast<std::ptrdiff_t>(i));
    for (std::size_t r = 0; r < R; ++r) {
      acc[r] = _mm512_add_pd(acc[r],
                             _mm512_mul_pd(ai, _mm512_loadu_pd(bk + 8 * r)));
    }
  }
  for (std::size_t r = 0; r < R; ++r) {
    _mm512_storeu_pd(out + k0 + 8 * r, acc[r]);
  }
}

}  // namespace

void convolve_gather_avx512(const double* a, std::size_t na, const double* b,
                            std::size_t nb, double* out, std::size_t k_begin,
                            std::size_t k_end) {
  std::size_t k = k_begin;
  for (; k + 64 <= k_end; k += 64) {
    convolve_tile_avx512<8>(a, na, b, nb, out, k);
  }
  for (; k + 8 <= k_end; k += 8) convolve_tile_avx512<1>(a, na, b, nb, out, k);
  convolve_gather_scalar(a, na, b, nb, out, k, k_end);
}

}  // namespace leakydsp::util::simd::detail

#endif  // LEAKYDSP_SIMD_AVX512
