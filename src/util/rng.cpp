#include "util/rng.h"

#include <bit>
#include <cmath>
#include <numbers>

#include "util/contracts.h"

namespace leakydsp::util {

namespace {

std::uint64_t splitmix64(std::uint64_t& x) {
  x += 0x9e3779b97f4a7c15ULL;
  std::uint64_t z = x;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

constexpr std::uint64_t rotl(std::uint64_t x, int k) {
  return (x << k) | (x >> (64 - k));
}

/// Layer tables of the 256-layer ziggurat for the standard normal
/// (Marsaglia & Tsang 2000). x_ holds the layer abscissae in descending
/// order (x_[0] = V/f(R) > x_[1] = R > ... > x_[256] = 0), y_ the density
/// f(x) = exp(-x^2/2) at each abscissa.
struct ZigguratTables {
  static constexpr double kR = 3.6541528853610088;       // rightmost layer edge
  static constexpr double kV = 0.00492867323399;         // per-layer area
  std::array<double, 257> x{};
  std::array<double, 257> y{};

  ZigguratTables() {
    const auto f = [](double t) { return std::exp(-0.5 * t * t); };
    x[0] = kV / f(kR);
    x[1] = kR;
    x[256] = 0.0;
    for (int i = 2; i < 256; ++i) {
      x[static_cast<std::size_t>(i)] = std::sqrt(
          -2.0 * std::log(kV / x[static_cast<std::size_t>(i - 1)] +
                          f(x[static_cast<std::size_t>(i - 1)])));
    }
    for (int i = 0; i <= 256; ++i) {
      y[static_cast<std::size_t>(i)] = f(x[static_cast<std::size_t>(i)]);
    }
  }
};

const ZigguratTables& ziggurat() {
  static const ZigguratTables tables;
  return tables;
}

}  // namespace

Rng::Rng(std::uint64_t seed) {
  std::uint64_t s = seed;
  for (auto& word : state_) word = splitmix64(s);
}

std::uint64_t Rng::operator()() {
  ++draws_;
  const std::uint64_t result = rotl(state_[0] + state_[3], 23) + state_[0];
  const std::uint64_t t = state_[1] << 17;
  state_[2] ^= state_[0];
  state_[3] ^= state_[1];
  state_[1] ^= state_[2];
  state_[0] ^= state_[3];
  state_[2] ^= t;
  state_[3] = rotl(state_[3], 45);
  return result;
}

double Rng::uniform() {
  // 53 high bits -> double in [0, 1).
  return static_cast<double>((*this)() >> 11) * 0x1.0p-53;
}

double Rng::uniform(double lo, double hi) {
  LD_REQUIRE(lo <= hi, "uniform bounds out of order: " << lo << " > " << hi);
  return lo + (hi - lo) * uniform();
}

std::uint64_t Rng::uniform_u64(std::uint64_t n) {
  LD_REQUIRE(n > 0, "uniform_u64 requires n > 0");
  // Lemire-style rejection to remove modulo bias.
  const std::uint64_t threshold = (~n + 1) % n;  // (2^64 - n) mod n
  for (;;) {
    const std::uint64_t r = (*this)();
    if (r >= threshold) return r % n;
  }
}

std::array<double, 2> Rng::box_muller_uniforms() {
  double u1 = 0.0;
  do {
    u1 = uniform();
  } while (u1 <= 0.0);
  return {u1, uniform()};
}

double Rng::spare() const {
  if (!spare_deferred_) return cached_gaussian_;
  const double radius = std::sqrt(-2.0 * std::log(deferred_u_[0]));
  const double angle = 2.0 * std::numbers::pi * deferred_u_[1];
  return radius * std::sin(angle);
}

double Rng::gaussian() {
  if (has_cached_gaussian_) {
    has_cached_gaussian_ = false;
    return spare();
  }
  const auto [u1, u2] = box_muller_uniforms();
  const double radius = std::sqrt(-2.0 * std::log(u1));
  const double angle = 2.0 * std::numbers::pi * u2;
  cached_gaussian_ = radius * std::sin(angle);
  spare_deferred_ = false;
  has_cached_gaussian_ = true;
  return radius * std::cos(angle);
}

void Rng::skip_gaussians(std::size_t n) {
  if (n == 0) return;
  if (has_cached_gaussian_) {
    has_cached_gaussian_ = false;
    --n;
  }
  // The remaining skips consume ceil(n / 2) fresh pairs. Only the last
  // pair's uniforms matter: they define the spare, which gaussian()
  // returns next iff n is odd.
  const std::size_t pairs = (n + 1) / 2;
  if (pairs == 0) return;
  for (std::size_t p = 0; p < pairs; ++p) deferred_u_ = box_muller_uniforms();
  spare_deferred_ = true;
  has_cached_gaussian_ = n % 2 == 1;
}

double Rng::gaussian(double mean, double stddev) {
  LD_REQUIRE(stddev >= 0.0, "negative stddev " << stddev);
  return mean + stddev * gaussian();
}

double Rng::gaussian_zig() {
  const ZigguratTables& t = ziggurat();
  for (;;) {
    // One raw draw carries everything the common path needs: 8 layer bits,
    // 1 sign bit, and 53 mantissa bits for the uniform abscissa.
    const std::uint64_t bits = (*this)();
    const std::size_t i = static_cast<std::size_t>(bits & 0xff);
    const bool negative = (bits & 0x100) != 0;
    const double u = static_cast<double>(bits >> 11) * 0x1.0p-53;
    const double x = u * t.x[i];
    if (x < t.x[i + 1]) return negative ? -x : x;
    if (i == 0) {
      // Tail beyond R: Marsaglia's exponential-rejection sampler.
      double xx = 0.0;
      double yy = 0.0;
      do {
        double u1 = 0.0;
        do {
          u1 = uniform();
        } while (u1 <= 0.0);
        double u2 = 0.0;
        do {
          u2 = uniform();
        } while (u2 <= 0.0);
        xx = -std::log(u1) / ZigguratTables::kR;
        yy = -std::log(u2);
      } while (yy + yy < xx * xx);
      const double v = ZigguratTables::kR + xx;
      return negative ? -v : v;
    }
    // Wedge: accept under the true density. Layer i's slab spans densities
    // [y[i], y[i + 1]] (x descends with i, so y ascends; i + 1 <= 256).
    if (t.y[i] + uniform() * (t.y[i + 1] - t.y[i]) <
        std::exp(-0.5 * x * x)) {
      return negative ? -x : x;
    }
  }
}

double Rng::gaussian_zig(double mean, double stddev) {
  LD_REQUIRE(stddev >= 0.0, "negative stddev " << stddev);
  return mean + stddev * gaussian_zig();
}

bool Rng::bernoulli(double p) {
  LD_REQUIRE(p >= 0.0 && p <= 1.0, "probability out of range: " << p);
  return uniform() < p;
}

unsigned Rng::poisson(double mean) {
  LD_REQUIRE(mean >= 0.0, "negative Poisson mean " << mean);
  if (mean == 0.0) return 0;
  if (mean > 64.0) {
    const double v = gaussian(mean, std::sqrt(mean));
    return v <= 0.0 ? 0U : static_cast<unsigned>(v + 0.5);
  }
  const double limit = std::exp(-mean);
  unsigned k = 0;
  double product = uniform();
  while (product > limit) {
    ++k;
    product *= uniform();
  }
  return k;
}

double Rng::exponential(double rate) {
  LD_REQUIRE(rate > 0.0, "exponential rate must be positive, got " << rate);
  double u = 0.0;
  do {
    u = uniform();
  } while (u <= 0.0);
  return -std::log(u) / rate;
}

double Rng::student_t(double dof) {
  LD_REQUIRE(dof > 0.0, "student_t dof must be positive, got " << dof);
  // t = Z / sqrt(ChiSq(dof)/dof); ChiSq via sum of squared normals for
  // integral dof is wasteful, use the gamma-free ratio-of-normals trick:
  // for moderate dof this Marsaglia-style construction is accurate enough
  // for noise synthesis.
  const double z = gaussian();
  double chi = 0.0;
  const int whole = static_cast<int>(dof);
  for (int i = 0; i < whole; ++i) {
    const double g = gaussian();
    chi += g * g;
  }
  const double frac = dof - whole;
  if (frac > 0.0) {
    const double g = gaussian();
    chi += frac * g * g;
  }
  if (chi <= 0.0) return z;
  return z / std::sqrt(chi / dof);
}

void Rng::fill_bytes(std::vector<std::uint8_t>& out) {
  for (auto& b : out) b = static_cast<std::uint8_t>((*this)() & 0xff);
}

std::array<std::uint64_t, 6> Rng::serialize() const {
  return {state_[0], state_[1], state_[2], state_[3],
          std::bit_cast<std::uint64_t>(spare()),
          has_cached_gaussian_ ? 1ULL : 0ULL};
}

Rng Rng::deserialize(const std::array<std::uint64_t, 6>& words) {
  Rng rng;
  for (std::size_t i = 0; i < 4; ++i) rng.state_[i] = words[i];
  rng.cached_gaussian_ = std::bit_cast<double>(words[4]);
  rng.has_cached_gaussian_ = words[5] != 0;
  return rng;
}

Rng Rng::fork(std::uint64_t stream_index) const {
  std::uint64_t mix = state_[0] ^ rotl(state_[2], 29) ^
                      (0xd1342543de82ef95ULL * (stream_index + 1));
  Rng child(splitmix64(mix));
  return child;
}

}  // namespace leakydsp::util
