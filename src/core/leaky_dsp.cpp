#include "core/leaky_dsp.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numbers>

#include "fabric/netlist_builders.h"
#include "util/contracts.h"
#include "util/simd_ops.h"

namespace leakydsp::core {

LeakyDspSensor::LeakyDspSensor(const fabric::Device& device,
                               fabric::SiteCoord site, LeakyDspParams params)
    : arch_(device.architecture()),
      site_(site),
      params_(params),
      scale_lut_(params.law) {
  LD_REQUIRE(params_.n_dsp >= 1, "need at least one DSP block");
  LD_REQUIRE(params_.clock_mhz > 0.0, "clock must be positive");
  LD_REQUIRE(params_.bit_spread_ns > 0.0, "bit spread must be positive");
  LD_REQUIRE(device.site_type(site) == fabric::SiteType::kDsp,
             "LeakyDSP must be placed on a DSP site, got "
                 << fabric::to_string(device.site_type(site)) << " at ("
                 << site.x << "," << site.y << ")");
  // The cascade occupies consecutive DSP sites upward in the column.
  for (std::size_t i = 1; i < params_.n_dsp; ++i) {
    const fabric::SiteCoord next{site.x, site.y + static_cast<int>(i)};
    LD_REQUIRE(device.contains(next) &&
                   device.site_type(next) == fabric::SiteType::kDsp,
               "DSP column too short for a " << params_.n_dsp
                                             << "-block cascade at ("
                                             << site.x << "," << site.y << ")");
  }

  configs_.reserve(params_.n_dsp);
  for (std::size_t i = 0; i < params_.n_dsp; ++i) {
    configs_.push_back(fabric::Dsp48Config::leaky_identity(
        arch_, /*first_in_chain=*/i == 0,
        /*last_in_chain=*/i + 1 == params_.n_dsp));
  }

  // Per-bit nominal settle times: chain base delay plus a non-uniform
  // spread across the output word (tapered spacing + periodic ripple).
  LD_REQUIRE(params_.taper * 0.5 + params_.ripple_beta < 1.0,
             "taper/ripple combination makes spacing non-positive");
  const double base = params_.dsp_delay_ns * static_cast<double>(params_.n_dsp);
  settle_ns_.reserve(kOutputBits);
  const double mean_spacing =
      params_.bit_spread_ns / static_cast<double>(kOutputBits);
  double cumulative = base;
  for (std::size_t i = 0; i < kOutputBits; ++i) {
    const double frac = (static_cast<double>(i) + 0.5) /
                        static_cast<double>(kOutputBits);
    const double taper_factor = 1.0 + params_.taper * (0.5 - frac);
    const double ripple =
        1.0 + params_.ripple_beta *
                  std::sin(2.0 * std::numbers::pi * static_cast<double>(i) /
                           params_.ripple_period_bits);
    cumulative += mean_spacing * taper_factor * ripple;
    settle_ns_.push_back(cumulative);
  }

  // Whole sample clocks spanned by the chain: the capture edge nearest the
  // end of the settle window. The two IDELAY lines then trim the phase by
  // up to ±31 taps (±2.4 ns), which always reaches the window because the
  // rounding error is at most half a 3.33 ns period.
  const double period = clock_period_ns();
  capture_cycles_ = static_cast<int>(std::lround(
      (base + params_.bit_spread_ns) / period));
  if (capture_cycles_ < 1) capture_cycles_ = 1;
}

void LeakyDspSensor::set_taps(int a_taps, int clk_taps) {
  fabric::IDelayConfig a{arch_, a_taps};
  fabric::IDelayConfig c{arch_, clk_taps};
  a.validate();
  c.validate();
  a_taps_ = a_taps;
  clk_taps_ = clk_taps;
}

void LeakyDspSensor::set_fine_phase(int steps) {
  LD_REQUIRE(steps >= 0 && steps <= 5, "fine phase " << steps
                                                     << " outside 0..5");
  fine_phase_ = steps;
}

double LeakyDspSensor::sampling_time_ns() const {
  const double tap_ns = fabric::idelay_taps(arch_).tap_ps * 1e-3;
  // Delaying the input signal (A) moves the settle window later, which is
  // equivalent to moving the capture edge *earlier* by the same amount;
  // delaying the capture clock (IDELAY taps or MMCM fine phase) moves it
  // later.
  return capture_cycles_ * clock_period_ns() - a_taps_ * tap_ns +
         clk_taps_ * tap_ns + fine_phase_ * tap_ns / 5.0;
}

double LeakyDspSensor::bit_settle_ns(std::size_t i) const {
  LD_REQUIRE(i < kOutputBits, "bit " << i << " out of range");
  return settle_ns_[i];
}

double LeakyDspSensor::sample(double supply_v, util::Rng& rng) {
  return readout(params_.law.scale(supply_v), sampling_time_ns(), rng);
}

double LeakyDspSensor::readout(double scale, double t_capture,
                               util::Rng& rng) {
  const bool jittered = params_.jitter_sigma_ns > 0.0;
  const double sigma = jittered ? params_.jitter_sigma_ns : 0.0;
  // Each jitter is sigma * z with |z| < kGaussianBound, so it lies within
  // +-reach, and fl(a + j) is monotone in j: bit i settles for every draw
  // if fl(a_i + reach) <= t_capture, and for none if fl(a_i - reach) >
  // t_capture. For scale >= 0, a_i = settle_ns_[i] * scale is
  // non-decreasing in i, so the always-settling bits are a prefix
  // [0, lo) and the never-settling ones a suffix [hi, 48).
  const double reach = sigma * util::Rng::kGaussianBound;
  const double* const first = settle_ns_.data();
  const double* const last = first + kOutputBits;
  const double* lo = first;
  const double* hi = last;
  if (scale >= 0.0) {
    lo = std::partition_point(first, last, [&](double settle) {
      return settle * scale + reach <= t_capture;
    });
    hi = std::partition_point(lo, last, [&](double settle) {
      return settle * scale - reach <= t_capture;
    });
  }
  std::size_t settled = static_cast<std::size_t>(lo - first);
  if (jittered) rng.skip_gaussians(settled);
  for (const double* bit = lo; bit < hi; ++bit) {
    const double t =
        *bit * scale + (jittered ? rng.gaussian(0.0, sigma) : 0.0);
    if (t <= t_capture) ++settled;
  }
  if (jittered) rng.skip_gaussians(static_cast<std::size_t>(last - hi));
  input_phase_ = !input_phase_;
  return static_cast<double>(settled);
}

void LeakyDspSensor::sample_batch(std::span<const double> supply_v,
                                  std::span<double> out, util::Rng& rng) {
  LD_REQUIRE(out.size() >= supply_v.size(),
             "output span too small: " << out.size() << " < "
                                       << supply_v.size());
  const double t_capture = sampling_time_ns();
  const double sigma = params_.jitter_sigma_ns;
  const std::size_t n = supply_v.size();
  const double* const settle = settle_ns_.data();
  // Per-sample voltage scales and capture bounds go through the SIMD ops
  // (bit-identical to the per-sample expressions on every dispatch tier);
  // bit counts use the vectorized count_le, which on the strictly
  // ascending settle array equals the historical upper_bound index.
  scale_scratch_.resize(n);
  scale_lut_.eval_batch(supply_v.data(), scale_scratch_.data(), n);
  if (sigma <= 0.0) {
    // Jitter-free: bit i settles iff settle_ns_[i] * scale <= t_capture.
    bound_scratch_.resize(n);
    util::simd::div_scalar(t_capture, scale_scratch_.data(),
                           bound_scratch_.data(), n);
    for (std::size_t s = 0; s < n; ++s) {
      input_phase_ = !input_phase_;
      out[s] = static_cast<double>(
          util::simd::count_le(settle, kOutputBits, bound_scratch_[s]));
    }
  } else {
    // Bits whose nominal arrival sits more than kJitterCutSigma jitter
    // sigmas before (after) the capture edge always (never) settle; only
    // the narrow uncertain window needs Gaussian draws. With the default
    // geometry that is ~2-4 of the 48 bits per sample.
    const double cut = kJitterCutSigma * sigma;
    bound_scratch_.resize(n);
    bound_hi_scratch_.resize(n);
    util::simd::div_scalar(t_capture - cut, scale_scratch_.data(),
                           bound_scratch_.data(), n);
    util::simd::div_scalar(t_capture + cut, scale_scratch_.data(),
                           bound_hi_scratch_.data(), n);
    for (std::size_t s = 0; s < n; ++s) {
      const double scale = scale_scratch_[s];
      const std::size_t first =
          util::simd::count_le(settle, kOutputBits, bound_scratch_[s]);
      const std::size_t last =
          util::simd::count_le(settle, kOutputBits, bound_hi_scratch_[s]);
      std::size_t count = first;
      for (std::size_t i = first; i < last; ++i) {
        if (settle[i] * scale + sigma * rng.gaussian_zig() <= t_capture) {
          ++count;
        }
      }
      input_phase_ = !input_phase_;
      out[s] = static_cast<double>(count);
    }
  }
}

util::BitVec LeakyDspSensor::sample_word(double supply_v, util::Rng& rng) {
  const bool phase = input_phase_;
  const double scale = params_.law.scale(supply_v);
  const double t_capture = sampling_time_ns();
  util::BitVec word(kOutputBits);
  for (std::size_t i = 0; i < kOutputBits; ++i) {
    const double t = settle_ns_[i] * scale +
                     (params_.jitter_sigma_ns > 0.0
                          ? rng.gaussian(0.0, params_.jitter_sigma_ns)
                          : 0.0);
    // Settled bits carry the current word; unsettled bits still hold the
    // previous, complementary word.
    const bool settled = t <= t_capture;
    word.set(i, settled ? phase : !phase);
  }
  input_phase_ = !input_phase_;
  return word;
}

sensors::CalibrationResult LeakyDspSensor::calibrate(
    double idle_v, util::Rng& rng, std::size_t samples_per_setting) {
  LD_REQUIRE(samples_per_setting >= 1, "need at least one sample per tap");
  const int tap_count = fabric::idelay_taps(arch_).tap_count;
  const int settings = 2 * tap_count - 1;  // clk taps down, then A taps up

  // Setting k sweeps the capture edge monotonically *earlier*: k = 0 is
  // maximum clock-line delay (latest capture, everything settled), k =
  // settings-1 is maximum signal-line delay (earliest capture).
  auto apply = [&](int k) {
    if (k < tap_count) {
      set_taps(0, tap_count - 1 - k);
    } else {
      set_taps(k - tap_count + 1, 0);
    }
  };

  // Every readout of the sweep is at idle_v: one std::pow for all of them.
  const double scale = params_.law.scale(idle_v);
  const auto mean_readout = [&] {
    const double t_capture = sampling_time_ns();
    double sum = 0.0;
    for (std::size_t s = 0; s < samples_per_setting; ++s) {
      sum += readout(scale, t_capture, rng);
    }
    return sum / static_cast<double>(samples_per_setting);
  };

  std::vector<double> mean(static_cast<std::size_t>(settings), 0.0);
  for (int k = 0; k < settings; ++k) {
    apply(k);
    mean[static_cast<std::size_t>(k)] = mean_readout();
  }

  // The paper's rule: iteratively increase the delay until the readout
  // variation between two consecutive adjustments reaches its maximum.
  // With the tapered settle window the steepest zone sits at the top of
  // the word, so this parks the capture edge just inside the window —
  // maximally sensitive, with the full readout range left for
  // droop-induced (always slower) shifts. Earliest winner on near-ties.
  double global_max = 0.0;
  for (int k = 1; k < settings; ++k) {
    global_max = std::max(global_max,
                          std::abs(mean[static_cast<std::size_t>(k)] -
                                   mean[static_cast<std::size_t>(k - 1)]));
  }
  sensors::CalibrationResult result;
  const double threshold = 0.9 * global_max;
  for (int k = 1; k < settings; ++k) {
    const double variation = std::abs(mean[static_cast<std::size_t>(k)] -
                                      mean[static_cast<std::size_t>(k - 1)]);
    if (variation >= threshold) {
      result.chosen_setting = k;
      result.steepness = variation;
      break;
    }
  }
  result.success = result.steepness > 0.0;
  apply(result.chosen_setting);

  // Second stage: MMCM fine phase shift (sub-tap resolution). The coarse
  // step leaves the capture edge somewhere inside the steep top zone of
  // the settle window; the fine sweep parks the idle readout near 85% of
  // full scale — maximum sensitivity with headroom for large droops.
  const double target = 0.85 * static_cast<double>(kOutputBits);
  int best_phase = 0;
  double best_dist = std::numeric_limits<double>::max();
  double best_mean = 0.0;
  for (int phase = 0; phase <= 5; ++phase) {
    set_fine_phase(phase);
    const double m = mean_readout();
    const double dist = std::abs(m - target);
    if (dist < best_dist) {
      best_dist = dist;
      best_phase = phase;
      best_mean = m;
    }
  }
  set_fine_phase(best_phase);
  result.idle_readout = best_mean;
  return result;
}

std::int64_t LeakyDspSensor::compute_identity(std::int64_t a) const {
  const auto widths = fabric::dsp48_widths(arch_);
  const std::int64_t a_mask = (1LL << widths.a_mult_bits) - 1;
  const std::int64_t p_mask = (1LL << widths.p_bits) - 1;
  std::int64_t value = a;
  for (const auto& cfg : configs_) {
    // The multiplier operand is two's complement: the low a_mult_bits of
    // the incoming word are sign-extended, so "P = A" preserves the low
    // bits and replicates the sign into the upper P bits — all-zeros maps
    // to all-zeros and all-ones to all-ones, exactly the toggling words
    // the sensor launches.
    std::int64_t operand = value & a_mask;
    if (operand & (1LL << (widths.a_mult_bits - 1))) {
      operand -= (1LL << widths.a_mult_bits);
    }
    const std::int64_t pre = operand + cfg.static_d;  // pre-adder
    const std::int64_t product = pre * cfg.static_b;  // multiplier
    const std::int64_t alu = product + cfg.static_c;  // ALU
    value = alu & p_mask;
  }
  return value;
}

fabric::Netlist LeakyDspSensor::netlist() const {
  return fabric::build_leakydsp_netlist(arch_, params_.n_dsp);
}

}  // namespace leakydsp::core
