// Differential oracles for the batched sensor kernels: for every generated
// sensor configuration, VoltageSensor::sample_batch must follow the same
// readout distribution as the scalar sample() loop. The two paths consume
// the rng stream differently by design (ziggurat vs Box-Muller, jitter
// truncation), so agreement is statistical — means within an 8-sigma
// standard-error bound and variances within a wide F-ratio band — which at
// the sample counts used is a ~1e-14 false-positive rate per case while
// still catching any real kernel drift (a single miscounted bit shifts the
// mean by orders of magnitude more than the bound).
//
// The scalar LeakyDSP path is held to a stricter contract: sample() and
// calibrate() must equal the plain per-bit reference loop (defined here)
// bit for bit, rng state included.
#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <memory>
#include <sstream>
#include <vector>

#include "core/leaky_dsp.h"
#include "fabric/device.h"
#include "sensors/sensor.h"
#include "sensors/tdc.h"
#include "verify/leakydsp_reference.h"
#include "verify/oracle.h"

namespace leakydsp::verify {

namespace {

constexpr std::size_t kSamples = 1500;

/// Supply trace shared by both paths: nominal minus a slow droop ramp with
/// a ripple, covering the calibrated operating point and mV-scale
/// excursions to either side.
std::vector<double> make_supply_trace(double droop_mv, std::uint64_t seed) {
  std::vector<double> supply(kSamples);
  util::Rng rng(seed);
  const double phase = rng.uniform(0.0, 6.283185307179586);
  for (std::size_t i = 0; i < kSamples; ++i) {
    const double x = static_cast<double>(i) / static_cast<double>(kSamples);
    const double ramp = droop_mv * 1e-3 * x;
    const double ripple =
        0.3 * droop_mv * 1e-3 * std::sin(phase + 40.0 * x);
    supply[i] = 1.0 - ramp - ripple;
  }
  return supply;
}

struct Moments {
  double mean = 0.0;
  double var = 0.0;
};

Moments moments(const std::vector<double>& xs) {
  Moments m;
  for (const double x : xs) m.mean += x;
  m.mean /= static_cast<double>(xs.size());
  for (const double x : xs) m.var += (x - m.mean) * (x - m.mean);
  m.var /= static_cast<double>(xs.size() - 1);
  return m;
}

/// Runs both paths on clones of a calibrated sensor and compares moments.
CheckOutcome compare_batch_to_scalar(const sensors::VoltageSensor& calibrated,
                                     const std::vector<double>& supply,
                                     std::uint64_t noise_seed) {
  const auto scalar_sensor = calibrated.clone();
  const auto batch_sensor = calibrated.clone();
  util::Rng scalar_rng = util::Rng(noise_seed).fork(1);
  util::Rng batch_rng = util::Rng(noise_seed).fork(2);

  std::vector<double> scalar_out(supply.size());
  for (std::size_t i = 0; i < supply.size(); ++i) {
    scalar_out[i] = scalar_sensor->sample(supply[i], scalar_rng);
  }
  std::vector<double> batch_out(supply.size());
  batch_sensor->sample_batch(supply, batch_out, batch_rng);

  const Moments s = moments(scalar_out);
  const Moments b = moments(batch_out);
  const double n = static_cast<double>(supply.size());
  // 8-sigma bound on the difference of two independent sample means.
  const double bound = 8.0 * std::sqrt((s.var + b.var) / n) + 1e-9;
  if (std::fabs(s.mean - b.mean) > bound) {
    std::ostringstream oss;
    oss << "mean drift: scalar=" << s.mean << " batch=" << b.mean
        << " |diff|=" << std::fabs(s.mean - b.mean) << " bound=" << bound;
    return fail(oss.str());
  }
  // Variance band. Sample variance of n samples has relative std
  // ~sqrt(2/n) (~3.7% here); [0.6, 1.67] is ~15 sigma wide. Near-zero
  // variance means a deterministic readout on both paths.
  const double tiny = 1e-9;
  if (s.var < tiny && b.var < tiny) return pass();
  const double ratio = (b.var + tiny) / (s.var + tiny);
  if (ratio < 0.6 || ratio > 1.67) {
    std::ostringstream oss;
    oss << "variance drift: scalar=" << s.var << " batch=" << b.var
        << " ratio=" << ratio;
    return fail(oss.str());
  }
  return pass();
}

// --------------------------------------------------- LeakyDSP batch kernel

struct LeakyBatchConfig {
  std::int64_t n_dsp = 3;
  double bit_spread_ns = 0.40;
  double taper = 1.55;
  double jitter_sigma_ns = 0.008;
  double droop_mv = 8.0;
  std::uint64_t seed = 0;
};

std::string describe_leaky(const LeakyBatchConfig& c) {
  std::ostringstream oss;
  oss << "{n_dsp=" << c.n_dsp << " spread=" << c.bit_spread_ns
      << " taper=" << c.taper << " jitter=" << c.jitter_sigma_ns
      << " droop_mv=" << c.droop_mv << " seed=" << c.seed << "}";
  return oss.str();
}

Property<LeakyBatchConfig> leaky_batch_property() {
  Property<LeakyBatchConfig> prop;
  prop.name = "sensors.leakydsp_batch_vs_scalar";
  prop.generate = [](util::Rng& rng) {
    LeakyBatchConfig c;
    c.n_dsp = gen_int(rng, 1, 4);
    c.bit_spread_ns = gen_real(rng, 0.25, 0.60);
    c.taper = gen_real(rng, 0.0, 1.55);
    c.jitter_sigma_ns = gen_real(rng, 0.004, 0.012);
    c.droop_mv = gen_real(rng, 0.0, 12.0);
    c.seed = rng();
    return c;
  };
  prop.shrink = [](const LeakyBatchConfig& c) {
    std::vector<LeakyBatchConfig> out;
    for (const std::int64_t n : shrink_int(c.n_dsp, 1)) {
      LeakyBatchConfig s = c;
      s.n_dsp = n;
      out.push_back(s);
    }
    for (const double taper : shrink_real(c.taper, 0.0)) {
      LeakyBatchConfig s = c;
      s.taper = taper;
      out.push_back(s);
    }
    for (const double droop : shrink_real(c.droop_mv, 0.0)) {
      LeakyBatchConfig s = c;
      s.droop_mv = droop;
      out.push_back(s);
    }
    return out;
  };
  prop.describe = describe_leaky;
  prop.check = [](const LeakyBatchConfig& c) -> CheckOutcome {
    const fabric::Device device = fabric::Device::basys3();
    core::LeakyDspParams params;
    params.n_dsp = static_cast<std::size_t>(c.n_dsp);
    params.bit_spread_ns = c.bit_spread_ns;
    params.taper = c.taper;
    params.jitter_sigma_ns = c.jitter_sigma_ns;
    core::LeakyDspSensor sensor(device, {16, 20}, params);
    util::Rng cal_rng(c.seed);
    const auto cal = sensor.calibrate(1.0, cal_rng, 64);
    if (!cal.success) return pass();  // outside the calibratable domain
    return compare_batch_to_scalar(
        sensor, make_supply_trace(c.droop_mv, c.seed ^ 0xBA7C4ull),
        c.seed ^ 0x5EEDull);
  };
  return prop;
}

// ------------------------------------ LeakyDSP scalar path vs reference

struct LeakyScalarConfig {
  std::int64_t n_dsp = 3;
  /// 0: no jitter; 1: nominal jitter; 2: large jitter (most of the word
  /// within reach); 3: tiny jitter (below the capture edge's ulp).
  std::int64_t sigma_regime = 1;
  double jitter_sigma_ns = 0.008;
  double idle_v = 1.0;
  std::int64_t samples_per_setting = 4;
  bool prime_spare = false;  ///< start with a live Box–Muller spare
  bool retap = false;        ///< readouts at random taps, not calibrated
  std::int64_t a_taps = 0;
  std::int64_t clk_taps = 0;
  std::int64_t fine_phase = 0;
  std::uint64_t seed = 0;
};

std::string describe_leaky_scalar(const LeakyScalarConfig& c) {
  std::ostringstream oss;
  oss << "{n_dsp=" << c.n_dsp << " sigma_regime=" << c.sigma_regime
      << " jitter=" << c.jitter_sigma_ns << " idle_v=" << c.idle_v
      << " samples_per_setting=" << c.samples_per_setting
      << " prime_spare=" << c.prime_spare << " retap=" << c.retap
      << " a_taps=" << c.a_taps << " clk_taps=" << c.clk_taps
      << " fine_phase=" << c.fine_phase << " seed=" << c.seed << "}";
  return oss.str();
}

bool same_bits(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

/// Empty when the two generators are indistinguishable from here on.
std::string rng_mismatch(const util::Rng& fast, const util::Rng& ref) {
  if (fast.serialize() != ref.serialize()) return "rng.serialize() differs";
  if (fast.draws() != ref.draws()) {
    std::ostringstream oss;
    oss << "rng.draws() " << fast.draws() << " vs " << ref.draws();
    return oss.str();
  }
  return {};
}

Property<LeakyScalarConfig> leaky_scalar_property() {
  Property<LeakyScalarConfig> prop;
  prop.name = "sensors.leakydsp_scalar_vs_reference";
  prop.generate = [](util::Rng& rng) {
    LeakyScalarConfig c;
    c.n_dsp = gen_int(rng, 1, 4);
    c.sigma_regime = gen_int(rng, 0, 3);
    switch (c.sigma_regime) {
      case 0: c.jitter_sigma_ns = 0.0; break;
      case 1: c.jitter_sigma_ns = gen_real(rng, 0.002, 0.02); break;
      case 2: c.jitter_sigma_ns = gen_real(rng, 0.05, 2.0); break;
      default: c.jitter_sigma_ns = std::pow(10.0, gen_real(rng, -300, -14));
    }
    c.idle_v = gen_real(rng, 0.95, 1.05);
    c.samples_per_setting = gen_int(rng, 1, 8);
    c.prime_spare = rng.bernoulli(0.5);
    c.retap = rng.bernoulli(0.5);
    c.a_taps = gen_int(rng, 0, 31);
    c.clk_taps = gen_int(rng, 0, 31);
    c.fine_phase = gen_int(rng, 0, 5);
    c.seed = rng();
    return c;
  };
  prop.shrink = [](const LeakyScalarConfig& c) {
    std::vector<LeakyScalarConfig> out;
    for (const std::int64_t n : shrink_int(c.samples_per_setting, 1)) {
      LeakyScalarConfig s = c;
      s.samples_per_setting = n;
      out.push_back(s);
    }
    for (const std::int64_t n : shrink_int(c.n_dsp, 1)) {
      LeakyScalarConfig s = c;
      s.n_dsp = n;
      out.push_back(s);
    }
    if (c.prime_spare) {
      LeakyScalarConfig s = c;
      s.prime_spare = false;
      out.push_back(s);
    }
    return out;
  };
  prop.describe = describe_leaky_scalar;
  prop.check = [](const LeakyScalarConfig& c) -> CheckOutcome {
    const fabric::Device device = fabric::Device::basys3();
    core::LeakyDspParams params;
    params.n_dsp = static_cast<std::size_t>(c.n_dsp);
    params.jitter_sigma_ns = c.jitter_sigma_ns;
    core::LeakyDspSensor fast(device, {16, 20}, params);
    core::LeakyDspSensor ref = fast;
    util::Rng fast_rng(c.seed);
    if (c.prime_spare) (void)fast_rng.gaussian();
    util::Rng ref_rng = fast_rng;

    const auto spp = static_cast<std::size_t>(c.samples_per_setting);
    const auto fast_cal = fast.calibrate(c.idle_v, fast_rng, spp);
    const auto ref_cal =
        reference_leakydsp_calibrate(ref, c.idle_v, ref_rng, spp);
    if (fast_cal.success != ref_cal.success ||
        fast_cal.chosen_setting != ref_cal.chosen_setting ||
        !same_bits(fast_cal.steepness, ref_cal.steepness) ||
        !same_bits(fast_cal.idle_readout, ref_cal.idle_readout) ||
        fast.a_taps() != ref.a_taps() || fast.clk_taps() != ref.clk_taps() ||
        fast.fine_phase() != ref.fine_phase()) {
      std::ostringstream oss;
      oss << "calibrate() differs: setting " << fast_cal.chosen_setting
          << " vs " << ref_cal.chosen_setting << ", idle readout "
          << fast_cal.idle_readout << " vs " << ref_cal.idle_readout
          << ", fine phase " << fast.fine_phase() << " vs "
          << ref.fine_phase();
      return fail(oss.str());
    }
    if (const std::string m = rng_mismatch(fast_rng, ref_rng); !m.empty()) {
      return fail("after calibrate(): " + m);
    }

    if (c.retap) {
      for (core::LeakyDspSensor* s : {&fast, &ref}) {
        s->set_taps(static_cast<int>(c.a_taps), static_cast<int>(c.clk_taps));
        s->set_fine_phase(static_cast<int>(c.fine_phase));
      }
    }
    // Readouts around the idle point and across the whole supply range.
    util::Rng supply_rng = util::Rng(c.seed).fork(1);
    for (int i = 0; i < 256; ++i) {
      const double v = i % 2 == 0
                           ? c.idle_v + gen_real(supply_rng, -0.02, 0.02)
                           : gen_real(supply_rng, 0.6, 1.2);
      const double got = fast.sample(v, fast_rng);
      const double want = reference_leakydsp_sample(ref, v, ref_rng);
      if (!same_bits(got, want)) {
        std::ostringstream oss;
        oss << "readout " << i << " at " << v << " V: " << got << " vs "
            << want;
        return fail(oss.str());
      }
      if (const std::string m = rng_mismatch(fast_rng, ref_rng); !m.empty()) {
        std::ostringstream oss;
        oss << "after readout " << i << " at " << v << " V: " << m;
        return fail(oss.str());
      }
    }
    return pass();
  };
  return prop;
}

// -------------------------------------------------------- TDC batch kernel

struct TdcBatchConfig {
  std::int64_t stages = 128;
  double stage_ps = 15.0;
  double init_delay_ns = 5.9;
  double jitter_sigma_ns = 0.005;
  double droop_mv = 8.0;
  std::uint64_t seed = 0;
};

std::string describe_tdc(const TdcBatchConfig& c) {
  std::ostringstream oss;
  oss << "{stages=" << c.stages << " stage_ps=" << c.stage_ps
      << " init=" << c.init_delay_ns << " jitter=" << c.jitter_sigma_ns
      << " droop_mv=" << c.droop_mv << " seed=" << c.seed << "}";
  return oss.str();
}

Property<TdcBatchConfig> tdc_batch_property() {
  Property<TdcBatchConfig> prop;
  prop.name = "sensors.tdc_batch_vs_scalar";
  prop.generate = [](util::Rng& rng) {
    TdcBatchConfig c;
    c.stages = gen_choice<std::int64_t>(rng, {64, 96, 128, 192, 256});
    c.stage_ps = gen_real(rng, 10.0, 20.0);
    c.init_delay_ns = gen_real(rng, 3.0, 9.0);
    c.jitter_sigma_ns = gen_real(rng, 0.002, 0.010);
    c.droop_mv = gen_real(rng, 0.0, 12.0);
    c.seed = rng();
    return c;
  };
  prop.shrink = [](const TdcBatchConfig& c) {
    std::vector<TdcBatchConfig> out;
    for (const std::int64_t stages : shrink_int(c.stages, 64)) {
      TdcBatchConfig s = c;
      s.stages = stages;
      out.push_back(s);
    }
    for (const double droop : shrink_real(c.droop_mv, 0.0)) {
      TdcBatchConfig s = c;
      s.droop_mv = droop;
      out.push_back(s);
    }
    return out;
  };
  prop.describe = describe_tdc;
  prop.check = [](const TdcBatchConfig& c) -> CheckOutcome {
    sensors::TdcParams params;
    params.stages = static_cast<std::size_t>(c.stages);
    params.stage_ps = c.stage_ps;
    params.init_delay_ns = c.init_delay_ns;
    params.jitter_sigma_ns = c.jitter_sigma_ns;
    sensors::TdcSensor sensor(fabric::Device::basys3(), {2, 10}, params);
    util::Rng cal_rng(c.seed);
    const auto cal = sensor.calibrate(1.0, cal_rng, 64);
    if (!cal.success) return pass();  // outside the calibratable domain
    return compare_batch_to_scalar(
        sensor, make_supply_trace(c.droop_mv, c.seed ^ 0xBA7C4ull),
        c.seed ^ 0x5EEDull);
  };
  return prop;
}

}  // namespace

double reference_leakydsp_sample(const core::LeakyDspSensor& sensor,
                                 double supply_v, util::Rng& rng) {
  const double sigma = sensor.params().jitter_sigma_ns;
  const double scale = sensor.params().law.scale(supply_v);
  const double t_capture = sensor.sampling_time_ns();
  double settled = 0.0;
  for (std::size_t i = 0; i < sensor.readout_bits(); ++i) {
    const double t = sensor.bit_settle_ns(i) * scale +
                     (sigma > 0.0 ? rng.gaussian(0.0, sigma) : 0.0);
    if (t <= t_capture) settled += 1.0;
  }
  return settled;
}

sensors::CalibrationResult reference_leakydsp_calibrate(
    core::LeakyDspSensor& sensor, double idle_v, util::Rng& rng,
    std::size_t samples_per_setting) {
  const int tap_count = fabric::idelay_taps(sensor.architecture()).tap_count;
  const int settings = 2 * tap_count - 1;
  const auto apply = [&](int k) {
    if (k < tap_count) {
      sensor.set_taps(0, tap_count - 1 - k);
    } else {
      sensor.set_taps(k - tap_count + 1, 0);
    }
  };
  const auto mean_readout = [&] {
    double sum = 0.0;
    for (std::size_t s = 0; s < samples_per_setting; ++s) {
      sum += reference_leakydsp_sample(sensor, idle_v, rng);
    }
    return sum / static_cast<double>(samples_per_setting);
  };

  std::vector<double> mean(static_cast<std::size_t>(settings));
  for (int k = 0; k < settings; ++k) {
    apply(k);
    mean[static_cast<std::size_t>(k)] = mean_readout();
  }
  const auto variation = [&](int k) {
    return std::abs(mean[static_cast<std::size_t>(k)] -
                    mean[static_cast<std::size_t>(k - 1)]);
  };
  double global_max = 0.0;
  for (int k = 1; k < settings; ++k) {
    global_max = std::max(global_max, variation(k));
  }
  sensors::CalibrationResult result;
  for (int k = 1; k < settings; ++k) {
    if (variation(k) >= 0.9 * global_max) {
      result.chosen_setting = k;
      result.steepness = variation(k);
      break;
    }
  }
  result.success = result.steepness > 0.0;
  apply(result.chosen_setting);

  const double target = 0.85 * static_cast<double>(sensor.readout_bits());
  int best_phase = 0;
  double best_dist = std::numeric_limits<double>::max();
  for (int phase = 0; phase <= 5; ++phase) {
    sensor.set_fine_phase(phase);
    const double m = mean_readout();
    if (std::abs(m - target) < best_dist) {
      best_dist = std::abs(m - target);
      best_phase = phase;
      result.idle_readout = m;
    }
  }
  sensor.set_fine_phase(best_phase);
  return result;
}

void register_sensor_oracles(std::vector<Oracle>& out) {
  out.push_back(make_oracle(
      "LeakyDspSensor::sample_batch (LUT scale + ziggurat + 8-sigma jitter "
      "truncation) vs scalar sample() loop: same readout distribution",
      1, leaky_batch_property()));
  out.push_back(make_oracle(
      "LeakyDspSensor::sample()/calibrate() (Box-Muller skipped for bits "
      "the jitter cannot reach) vs the plain per-bit loop: readouts, "
      "calibration and rng state bit-identical",
      1, leaky_scalar_property()));
  out.push_back(make_oracle(
      "TdcSensor::sample_batch (LUT scale + ziggurat + O(1) uniform chain) "
      "vs scalar sample() loop: same readout distribution",
      1, tdc_batch_property()));
}

}  // namespace leakydsp::verify
