// Deterministic, seedable random number generation used by every stochastic
// model in the repository. xoshiro256++ core (Blackman & Vigna, public
// domain algorithm) with distribution helpers; no global state, so every
// experiment is reproducible from its --seed.
#pragma once

#include <array>
#include <cstdint>

namespace leakydsp::util {

/// xoshiro256++ pseudo-random generator with distribution helpers.
///
/// Satisfies UniformRandomBitGenerator, so it also composes with <random>
/// distributions, but the members below are what the models use (they are
/// cheaper and fully specified, keeping traces bit-reproducible across
/// standard libraries).
class Rng {
 public:
  using result_type = std::uint64_t;

  /// Seeds via splitmix64 so that consecutive small seeds give uncorrelated
  /// streams.
  explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ULL);

  static constexpr result_type min() { return 0; }
  static constexpr result_type max() { return ~0ULL; }

  /// Next raw 64-bit value.
  std::uint64_t operator()();

  /// Number of raw 64-bit draws this generator has produced since
  /// construction. Observability bookkeeping only: not part of
  /// serialize()/deserialize() state (a resumed generator restarts at 0),
  /// and fork() children start at 0.
  std::uint64_t draws() const { return draws_; }

  /// Uniform double in [0, 1).
  double uniform();

  /// Uniform double in [lo, hi).
  double uniform(double lo, double hi);

  /// Uniform integer in [0, n). Requires n > 0.
  std::uint64_t uniform_u64(std::uint64_t n);

  /// Standard normal via Box–Muller (cached second variate).
  double gaussian();

  /// Bound on |gaussian()|. The Box–Muller radius sqrt(-2 ln u1) peaks at
  /// the smallest u1 the u1 > 0 rejection lets through, 2^-53, where it is
  /// sqrt(106 ln 2) ~ 8.5716; |cos| and |sin| never exceed 1. Jitter
  /// farther than kGaussianBound standard deviations cannot occur.
  static constexpr double kGaussianBound = 8.6;

  /// Advances the generator exactly as `n` calls to gaussian() would: the
  /// same raw draws (the u1 > 0 rejection included), the same draws()
  /// count, future stream and serialize() words. The skipped variates are
  /// never evaluated; the Box–Muller spare of the last pair drawn stays
  /// deferred as its (u1, u2) until gaussian() or serialize() needs it.
  void skip_gaussians(std::size_t n);

  /// Normal with the given mean and standard deviation.
  double gaussian(double mean, double stddev);

  /// Standard normal via a 256-layer ziggurat (Marsaglia & Tsang 2000):
  /// one raw draw plus a compare in ~98.9% of calls, no transcendentals on
  /// the common path — several times faster than gaussian(). Kept separate
  /// from gaussian() on purpose: it neither reads nor writes the Box–Muller
  /// cache, so code (and tests) pinned to the gaussian() stream and the
  /// serialized RNG state stay bit-compatible. Batched hot paths use this.
  double gaussian_zig();

  /// Ziggurat normal with the given mean and standard deviation.
  double gaussian_zig(double mean, double stddev);

  /// Bernoulli trial with probability p of true.
  bool bernoulli(double p);

  /// Exponential inter-arrival time with the given rate (events per unit).
  double exponential(double rate);

  /// Forks an independent child stream; children of distinct indices are
  /// decorrelated even for the same parent.
  Rng fork(std::uint64_t stream_index) const;

  /// Opaque serialized state: the four xoshiro words plus the Box–Muller
  /// spare (its value and whether gaussian() returns it next).
  /// deserialize() reconstructs a generator whose entire future stream is
  /// bit-identical to this one's — the campaign checkpoint format stores
  /// exactly this to make resumed runs reproducible.
  std::array<std::uint64_t, 6> serialize() const;
  static Rng deserialize(const std::array<std::uint64_t, 6>& words);

 private:
  /// Draws one Box–Muller uniform pair: u1 in (0, 1) by rejection, then u2.
  std::array<double, 2> box_muller_uniforms();
  /// The spare's value, evaluating a deferred pair if need be.
  double spare() const;

  std::array<std::uint64_t, 4> state_{};
  std::uint64_t draws_ = 0;
  // Box–Muller spare: the sine variate of the last pair drawn. It keeps its
  // value after gaussian() returns it (serialize() writes it either way);
  // has_cached_gaussian_ says whether gaussian() returns it next. When
  // spare_deferred_ is set the value is not computed yet and lives in
  // deferred_u_ as the pair's uniforms.
  double cached_gaussian_ = 0.0;
  std::array<double, 2> deferred_u_{};
  bool has_cached_gaussian_ = false;
  bool spare_deferred_ = false;
};

}  // namespace leakydsp::util
