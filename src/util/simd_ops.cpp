// Scalar reference tier + runtime dispatch. This TU is compiled with
// -ffp-contract=off (see src/CMakeLists.txt): the reference implementations
// define the bitwise semantics every vector tier must reproduce, so the
// compiler must not fuse their multiplies and adds.
#include "util/simd_ops.h"

#include <algorithm>

#include "util/cpu_features.h"

namespace leakydsp::util::simd {

namespace detail {

std::size_t count_le_scalar(const double* a, std::size_t n, double bound) {
  std::size_t count = 0;
  for (std::size_t i = 0; i < n; ++i) {
    if (a[i] <= bound) ++count;
  }
  return count;
}

void fill_scalar(double* out, std::size_t n, double value) {
  std::fill_n(out, n, value);
}

void div_scalar_scalar(double num, const double* den, double* out,
                       std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) out[i] = num / den[i];
}

void sub_mul_add_scalar(double c, double a, const double* x, const double* y,
                        double* out, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) out[i] = (c - a * x[i]) + y[i];
}

void div_div_scalar(const double* num, const double* den, double d2,
                    double* out_norm, double* out_q, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) {
    const double norm = num[i] / den[i];
    out_norm[i] = norm;
    out_q[i] = norm / d2;
  }
}

void axpy_scalar(double a, const double* x, double* y, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) y[i] = y[i] + a * x[i];
}

void xpby_scalar(const double* x, double b, double* y, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) y[i] = x[i] + b * y[i];
}

void add_scaled_diff_scalar(double s, const double* a, const double* b,
                            double* y, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) y[i] = y[i] + s * (a[i] - b[i]);
}

double dot_scalar(const double* x, const double* y, std::size_t n) {
  double acc[8] = {0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0};
  for (std::size_t i = 0; i < n; ++i) acc[i & 7] = acc[i & 7] + x[i] * y[i];
  return dot_combine(acc);
}

void spmv_scalar(const std::size_t* row_start, const std::size_t* cols,
                 const double* values, const double* x, double* y,
                 std::size_t n_rows) {
  for (std::size_t r = 0; r < n_rows; ++r) {
    double sum = 0.0;
    for (std::size_t k = row_start[r]; k < row_start[r + 1]; ++k) {
      sum += values[k] * x[cols[k]];
    }
    y[r] = sum;
  }
}

void hermite_eval_scalar(const HermiteView& t, const double* v, double* out,
                         std::size_t n) {
  const double last = static_cast<double>(t.knots - 2);
  for (std::size_t i = 0; i < n; ++i) {
    // Identical expression tree to ScaleTable::operator(), except the
    // interpolation position is clamped at both ends instead of only the
    // top: in-range inputs never have s < 0, so the extra clamp only
    // changes out-of-range lanes the caller overwrites anyway (and keeps
    // the index math defined for them).
    double s = (v[i] - t.v_lo) * t.inv_h;
    if (!(s > 0.0)) s = 0.0;
    double fj = static_cast<double>(static_cast<std::size_t>(s));
    if (fj > last) fj = last;
    const std::size_t j = static_cast<std::size_t>(fj);
    const double tt = s - fj;
    const double t2 = tt * tt;
    const double t3 = t2 * tt;
    out[i] = (2.0 * t3 - 3.0 * t2 + 1.0) * t.f[j] +
             (t3 - 2.0 * t2 + tt) * t.h * t.d[j] +
             (-2.0 * t3 + 3.0 * t2) * t.f[j + 1] +
             (t3 - t2) * t.h * t.d[j + 1];
  }
}

void convolve_gather_scalar(const double* a, std::size_t na, const double* b,
                            std::size_t nb, double* out, std::size_t k_begin,
                            std::size_t k_end) {
  for (std::size_t k = k_begin; k < k_end; ++k) {
    const std::size_t i_lo = k >= nb ? k - (nb - 1) : 0;
    const std::size_t i_hi = std::min(k, na - 1);
    double acc = 0.0;
    for (std::size_t i = i_lo; i <= i_hi; ++i) acc = acc + a[i] * b[k - i];
    out[k] = acc;
  }
}

}  // namespace detail

std::size_t count_le(const double* a, std::size_t n, double bound) {
  switch (current_simd_tier()) {
#ifdef LEAKYDSP_SIMD_AVX512
    case SimdTier::kAvx512:
      return detail::count_le_avx512(a, n, bound);
#endif
#ifdef LEAKYDSP_SIMD_AVX2
    case SimdTier::kAvx2:
      return detail::count_le_avx2(a, n, bound);
#endif
    default:
      return detail::count_le_scalar(a, n, bound);
  }
}

void fill(double* out, std::size_t n, double value) {
  switch (current_simd_tier()) {
#ifdef LEAKYDSP_SIMD_AVX512
    case SimdTier::kAvx512:
      return detail::fill_avx512(out, n, value);
#endif
#ifdef LEAKYDSP_SIMD_AVX2
    case SimdTier::kAvx2:
      return detail::fill_avx2(out, n, value);
#endif
    default:
      return detail::fill_scalar(out, n, value);
  }
}

void div_scalar(double num, const double* den, double* out, std::size_t n) {
  switch (current_simd_tier()) {
#ifdef LEAKYDSP_SIMD_AVX512
    case SimdTier::kAvx512:
      return detail::div_scalar_avx512(num, den, out, n);
#endif
#ifdef LEAKYDSP_SIMD_AVX2
    case SimdTier::kAvx2:
      return detail::div_scalar_avx2(num, den, out, n);
#endif
    default:
      return detail::div_scalar_scalar(num, den, out, n);
  }
}

void sub_mul_add(double c, double a, const double* x, const double* y,
                 double* out, std::size_t n) {
  switch (current_simd_tier()) {
#ifdef LEAKYDSP_SIMD_AVX512
    case SimdTier::kAvx512:
      return detail::sub_mul_add_avx512(c, a, x, y, out, n);
#endif
#ifdef LEAKYDSP_SIMD_AVX2
    case SimdTier::kAvx2:
      return detail::sub_mul_add_avx2(c, a, x, y, out, n);
#endif
    default:
      return detail::sub_mul_add_scalar(c, a, x, y, out, n);
  }
}

void div_div(const double* num, const double* den, double d2,
             double* out_norm, double* out_q, std::size_t n) {
  switch (current_simd_tier()) {
#ifdef LEAKYDSP_SIMD_AVX512
    case SimdTier::kAvx512:
      return detail::div_div_avx512(num, den, d2, out_norm, out_q, n);
#endif
#ifdef LEAKYDSP_SIMD_AVX2
    case SimdTier::kAvx2:
      return detail::div_div_avx2(num, den, d2, out_norm, out_q, n);
#endif
    default:
      return detail::div_div_scalar(num, den, d2, out_norm, out_q, n);
  }
}

void axpy(double a, const double* x, double* y, std::size_t n) {
  switch (current_simd_tier()) {
#ifdef LEAKYDSP_SIMD_AVX512
    case SimdTier::kAvx512:
      return detail::axpy_avx512(a, x, y, n);
#endif
#ifdef LEAKYDSP_SIMD_AVX2
    case SimdTier::kAvx2:
      return detail::axpy_avx2(a, x, y, n);
#endif
    default:
      return detail::axpy_scalar(a, x, y, n);
  }
}

void xpby(const double* x, double b, double* y, std::size_t n) {
  switch (current_simd_tier()) {
#ifdef LEAKYDSP_SIMD_AVX512
    case SimdTier::kAvx512:
      return detail::xpby_avx512(x, b, y, n);
#endif
#ifdef LEAKYDSP_SIMD_AVX2
    case SimdTier::kAvx2:
      return detail::xpby_avx2(x, b, y, n);
#endif
    default:
      return detail::xpby_scalar(x, b, y, n);
  }
}

void add_scaled_diff(double s, const double* a, const double* b, double* y,
                     std::size_t n) {
  switch (current_simd_tier()) {
#ifdef LEAKYDSP_SIMD_AVX512
    case SimdTier::kAvx512:
      return detail::add_scaled_diff_avx512(s, a, b, y, n);
#endif
#ifdef LEAKYDSP_SIMD_AVX2
    case SimdTier::kAvx2:
      return detail::add_scaled_diff_avx2(s, a, b, y, n);
#endif
    default:
      return detail::add_scaled_diff_scalar(s, a, b, y, n);
  }
}

double dot(const double* x, const double* y, std::size_t n) {
  switch (current_simd_tier()) {
#ifdef LEAKYDSP_SIMD_AVX512
    case SimdTier::kAvx512:
      return detail::dot_avx512(x, y, n);
#endif
#ifdef LEAKYDSP_SIMD_AVX2
    case SimdTier::kAvx2:
      return detail::dot_avx2(x, y, n);
#endif
    default:
      return detail::dot_scalar(x, y, n);
  }
}

void spmv(const std::size_t* row_start, const std::size_t* cols,
          const double* values, const double* x, double* y,
          std::size_t n_rows) {
  switch (current_simd_tier()) {
#ifdef LEAKYDSP_SIMD_AVX512
    case SimdTier::kAvx512:
      return detail::spmv_avx512(row_start, cols, values, x, y, n_rows);
#endif
#ifdef LEAKYDSP_SIMD_AVX2
    case SimdTier::kAvx2:
      return detail::spmv_avx2(row_start, cols, values, x, y, n_rows);
#endif
    default:
      return detail::spmv_scalar(row_start, cols, values, x, y, n_rows);
  }
}

void hermite_eval(const HermiteView& t, const double* v, double* out,
                  std::size_t n) {
  switch (current_simd_tier()) {
#ifdef LEAKYDSP_SIMD_AVX512
    case SimdTier::kAvx512:
      return detail::hermite_eval_avx512(t, v, out, n);
#endif
#ifdef LEAKYDSP_SIMD_AVX2
    case SimdTier::kAvx2:
      return detail::hermite_eval_avx2(t, v, out, n);
#endif
    default:
      return detail::hermite_eval_scalar(t, v, out, n);
  }
}

void convolve_gather(const double* a, std::size_t na, const double* b,
                     std::size_t nb, double* out, std::size_t k_begin,
                     std::size_t k_end) {
  switch (current_simd_tier()) {
#ifdef LEAKYDSP_SIMD_AVX512
    case SimdTier::kAvx512:
      return detail::convolve_gather_avx512(a, na, b, nb, out, k_begin, k_end);
#endif
#ifdef LEAKYDSP_SIMD_AVX2
    case SimdTier::kAvx2:
      return detail::convolve_gather_avx2(a, na, b, nb, out, k_begin, k_end);
#endif
    default:
      return detail::convolve_gather_scalar(a, na, b, nb, out, k_begin, k_end);
  }
}

}  // namespace leakydsp::util::simd
