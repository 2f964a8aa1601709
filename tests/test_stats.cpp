// Unit and property tests for the stats substrate: accumulators agree with
// closed-form batch formulas, histogram convolution matches brute force,
// and the gather-form SIMD convolution matches Histogram::convolve bitwise.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <optional>
#include <vector>

#include "stats/accumulators.h"
#include "stats/descriptive.h"
#include "stats/histogram.h"
#include "util/contracts.h"
#include "util/cpu_features.h"
#include "util/rng.h"
#include "util/simd_ops.h"

namespace ls = leakydsp::stats;
namespace lu = leakydsp::util;

TEST(MeanVar, SimpleSequence) {
  ls::MeanVar acc;
  for (const double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) acc.add(x);
  EXPECT_EQ(acc.count(), 8u);
  EXPECT_DOUBLE_EQ(acc.mean(), 5.0);
  EXPECT_DOUBLE_EQ(acc.variance(), 4.0);
  EXPECT_DOUBLE_EQ(acc.stddev(), 2.0);
}

TEST(MeanVar, SampleVarianceDenominator) {
  ls::MeanVar acc;
  acc.add(1.0);
  acc.add(3.0);
  EXPECT_DOUBLE_EQ(acc.variance(), 1.0);
  EXPECT_DOUBLE_EQ(acc.sample_variance(), 2.0);
}

TEST(MeanVar, MergeMatchesSequential) {
  lu::Rng rng(5);
  ls::MeanVar whole;
  ls::MeanVar left;
  ls::MeanVar right;
  for (int i = 0; i < 1000; ++i) {
    const double x = rng.gaussian(2.0, 3.0);
    whole.add(x);
    (i < 400 ? left : right).add(x);
  }
  left.merge(right);
  EXPECT_EQ(left.count(), whole.count());
  EXPECT_NEAR(left.mean(), whole.mean(), 1e-12);
  EXPECT_NEAR(left.variance(), whole.variance(), 1e-9);
}

TEST(MeanVar, MergeWithEmpty) {
  ls::MeanVar a;
  a.add(1.0);
  a.add(2.0);
  ls::MeanVar empty;
  a.merge(empty);
  EXPECT_EQ(a.count(), 2u);
  empty.merge(a);
  EXPECT_EQ(empty.count(), 2u);
  EXPECT_DOUBLE_EQ(empty.mean(), 1.5);
}

TEST(Correlation, PerfectLinearRelation) {
  ls::Correlation acc;
  for (int i = 0; i < 50; ++i) {
    acc.add(i, 3.0 * i + 1.0);
  }
  EXPECT_NEAR(acc.pearson(), 1.0, 1e-12);
  EXPECT_NEAR(acc.slope(), 3.0, 1e-12);
  EXPECT_NEAR(acc.intercept(), 1.0, 1e-9);
}

TEST(Correlation, PerfectNegativeRelation) {
  ls::Correlation acc;
  for (int i = 0; i < 50; ++i) acc.add(i, -2.0 * i + 7.0);
  EXPECT_NEAR(acc.pearson(), -1.0, 1e-12);
  EXPECT_NEAR(acc.slope(), -2.0, 1e-12);
}

TEST(Correlation, IndependentVariablesNearZero) {
  lu::Rng rng(9);
  ls::Correlation acc;
  for (int i = 0; i < 100000; ++i) acc.add(rng.gaussian(), rng.gaussian());
  EXPECT_NEAR(acc.pearson(), 0.0, 0.02);
}

TEST(Correlation, ZeroVarianceGivesZero) {
  ls::Correlation acc;
  acc.add(1.0, 2.0);
  acc.add(1.0, 5.0);
  EXPECT_DOUBLE_EQ(acc.pearson(), 0.0);
  EXPECT_DOUBLE_EQ(acc.slope(), 0.0);
}

TEST(Descriptive, BatchMatchesOnline) {
  lu::Rng rng(21);
  std::vector<double> xs;
  std::vector<double> ys;
  ls::Correlation acc;
  for (int i = 0; i < 2000; ++i) {
    const double x = rng.uniform(0.0, 10.0);
    const double y = 2.0 * x + rng.gaussian(0.0, 1.0);
    xs.push_back(x);
    ys.push_back(y);
    acc.add(x, y);
  }
  EXPECT_NEAR(ls::pearson(xs, ys), acc.pearson(), 1e-12);
  const auto fit = ls::linear_fit(xs, ys);
  EXPECT_NEAR(fit.slope, acc.slope(), 1e-12);
  EXPECT_NEAR(fit.slope, 2.0, 0.05);
  EXPECT_NEAR(fit.r2, fit.r * fit.r, 1e-12);
}

TEST(Descriptive, QuantileInterpolation) {
  const std::vector<double> xs = {1.0, 2.0, 3.0, 4.0};
  EXPECT_DOUBLE_EQ(ls::quantile(xs, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(ls::quantile(xs, 1.0), 4.0);
  EXPECT_DOUBLE_EQ(ls::median(xs), 2.5);
  EXPECT_DOUBLE_EQ(ls::quantile(xs, 0.25), 1.75);
}

TEST(Descriptive, EmptyInputThrows) {
  const std::vector<double> empty;
  EXPECT_THROW(ls::mean(empty), lu::PreconditionError);
  EXPECT_THROW(ls::quantile(empty, 0.5), lu::PreconditionError);
  EXPECT_THROW(ls::min_value(empty), lu::PreconditionError);
}

TEST(Descriptive, MismatchedSizesThrow) {
  const std::vector<double> a = {1.0, 2.0};
  const std::vector<double> b = {1.0, 2.0, 3.0};
  EXPECT_THROW(ls::pearson(a, b), lu::PreconditionError);
  EXPECT_THROW(ls::linear_fit(a, b), lu::PreconditionError);
}

TEST(Descriptive, MinMax) {
  const std::vector<double> xs = {3.0, -1.0, 7.0, 2.0};
  EXPECT_DOUBLE_EQ(ls::min_value(xs), -1.0);
  EXPECT_DOUBLE_EQ(ls::max_value(xs), 7.0);
}

TEST(Histogram, BasicBinning) {
  ls::Histogram h(0.0, 10.0, 10);
  h.add(0.5);
  h.add(5.5);
  h.add(9.5);
  EXPECT_DOUBLE_EQ(h.count(0), 1.0);
  EXPECT_DOUBLE_EQ(h.count(5), 1.0);
  EXPECT_DOUBLE_EQ(h.count(9), 1.0);
  EXPECT_DOUBLE_EQ(h.total(), 3.0);
}

TEST(Histogram, OutOfRangeClamped) {
  ls::Histogram h(0.0, 1.0, 4);
  h.add(-5.0);
  h.add(2.0);
  EXPECT_DOUBLE_EQ(h.count(0), 1.0);
  EXPECT_DOUBLE_EQ(h.count(3), 1.0);
}

TEST(Histogram, MassAbove) {
  ls::Histogram h(0.0, 4.0, 4);
  h.add(0.5, 1.0);
  h.add(1.5, 2.0);
  h.add(2.5, 3.0);
  h.add(3.5, 4.0);
  EXPECT_DOUBLE_EQ(h.mass_above(1), 7.0);
  EXPECT_DOUBLE_EQ(h.mass_at_or_above(1), 9.0);
  EXPECT_DOUBLE_EQ(h.mass_above(3), 0.0);
}

TEST(Histogram, ConvolutionMatchesBruteForce) {
  // Distribution of the sum of two fair 4-sided dice.
  ls::Histogram a(0.0, 4.0, 4);
  ls::Histogram b(0.0, 4.0, 4);
  for (int i = 0; i < 4; ++i) {
    a.add(i + 0.5);
    b.add(i + 0.5);
  }
  const auto c = a.convolve(b);
  EXPECT_EQ(c.bins(), 7u);
  // counts of sums: 1,2,3,4,3,2,1
  const std::vector<double> expected = {1, 2, 3, 4, 3, 2, 1};
  for (std::size_t i = 0; i < expected.size(); ++i) {
    EXPECT_DOUBLE_EQ(c.count(i), expected[i]) << "bin " << i;
  }
  EXPECT_DOUBLE_EQ(c.total(), 16.0);
}

TEST(Histogram, ConvolveGatherMatchesScatterBitwise) {
  // Key-rank-like operands: a joint histogram with large non-integer
  // counts (so the adds round) and empty bins, convolved with a byte
  // histogram of 256 unit counts.
  // Every tier must reproduce Histogram::convolve bit for bit, on the full
  // output range and on tail ranges (the bins the key-rank bounds read).
  struct TierRelease {
    ~TierRelease() { lu::set_simd_tier_override(std::nullopt); }
  } release;
  std::vector<lu::SimdTier> tiers{lu::SimdTier::kScalar};
  if (lu::detected_simd_tier() >= lu::SimdTier::kAvx2)
    tiers.push_back(lu::SimdTier::kAvx2);
  if (lu::detected_simd_tier() >= lu::SimdTier::kAvx512)
    tiers.push_back(lu::SimdTier::kAvx512);

  lu::Rng rng(4242);
  constexpr std::size_t kPad = lu::simd::kConvolvePad;
  for (const std::size_t na : {std::size_t{1}, std::size_t{7}, std::size_t{65},
                               std::size_t{513}, std::size_t{1537}}) {
    for (const std::size_t nb : {std::size_t{1}, std::size_t{9},
                                 std::size_t{129}, std::size_t{513}}) {
      ls::Histogram a(0.0, static_cast<double>(na), na);
      ls::Histogram b(0.0, static_cast<double>(nb), nb);
      for (std::size_t i = 0; i < na; ++i) {
        if (rng.bernoulli(0.3)) continue;
        a.add(static_cast<double>(i) + 0.5,
              std::floor(rng.uniform(0.0, 1e9)) + rng.uniform());
      }
      for (int g = 0; g < 256; ++g) {
        b.add(rng.uniform(0.0, static_cast<double>(nb)));
      }
      const auto dense = a.convolve(b);
      const std::size_t out_bins = na + nb - 1;
      ASSERT_EQ(dense.bins(), out_bins);
      std::vector<double> padded(nb + 2 * kPad, 0.0);
      std::copy(b.counts().begin(), b.counts().end(), padded.begin() + kPad);
      for (const lu::SimdTier tier : tiers) {
        lu::set_simd_tier_override(tier);
        for (const std::size_t from :
             {std::size_t{0}, out_bins / 3, out_bins - 1}) {
          std::vector<double> out(out_bins, -1.0);
          lu::simd::convolve_gather(a.counts().data(), na,
                                    padded.data() + kPad, nb, out.data(), from,
                                    out_bins);
          EXPECT_EQ(std::memcmp(out.data() + from,
                                dense.counts().data() + from,
                                (out_bins - from) * sizeof(double)),
                    0)
              << "tier " << lu::to_string(tier) << " na " << na << " nb "
              << nb << " from " << from;
          for (std::size_t k = 0; k < from; ++k) {
            ASSERT_EQ(out[k], -1.0) << "wrote below the requested range";
          }
        }
      }
    }
  }
}

TEST(Histogram, ConvolveRequiresEqualWidths) {
  ls::Histogram a(0.0, 4.0, 4);
  ls::Histogram b(0.0, 4.0, 8);
  EXPECT_THROW(a.convolve(b), lu::PreconditionError);
}

TEST(Histogram, InvalidConstructionThrows) {
  EXPECT_THROW(ls::Histogram(1.0, 1.0, 4), lu::PreconditionError);
  EXPECT_THROW(ls::Histogram(0.0, 1.0, 0), lu::PreconditionError);
}

TEST(Histogram, GaussianQuantization) {
  // Property: histogram of many Gaussian samples has ~68% mass within 1
  // sigma of the mean.
  lu::Rng rng(33);
  ls::Histogram h(-5.0, 5.0, 200);
  const int n = 100000;
  for (int i = 0; i < n; ++i) h.add(rng.gaussian());
  double inner = 0.0;
  for (std::size_t b = 0; b < h.bins(); ++b) {
    const double c = h.bin_center(b);
    if (c > -1.0 && c < 1.0) inner += h.count(b);
  }
  EXPECT_NEAR(inner / n, 0.6827, 0.01);
}
