#include "sim/sensor_rig.h"

#include "obs/span.h"
#include "util/contracts.h"

namespace leakydsp::sim {

SensorRig::SensorRig(const pdn::PdnGrid& grid, sensors::VoltageSensor& sensor,
                     RigParams params)
    : grid_(grid),
      sensor_(&sensor),
      params_(params),
      coupling_(grid, sensor.site()),
      filter_(params.dynamics, params.sample_period_ns),
      ambient_(params.ambient_sigma_v, params.ambient_correlation_ns,
               params.sample_period_ns) {
  LD_REQUIRE(params_.vnom > 0.0, "nominal voltage must be positive");
}

double SensorRig::supply_for_droop(double static_droop_v, util::Rng& rng) {
  const double dynamic_droop = filter_.step(static_droop_v);
  return params_.vnom - dynamic_droop - ambient_.step(rng);
}

double SensorRig::sample(std::span<const pdn::CurrentInjection> draws,
                         util::Rng& rng) {
  const double v = supply_for_droop(coupling_.droop_for(draws), rng);
  return sensor_->sample(v, rng);
}

std::vector<double> SensorRig::collect(
    std::size_t n, util::Rng& rng,
    const std::function<void(std::vector<pdn::CurrentInjection>&)>& draw_fn) {
  std::vector<double> readouts;
  readouts.reserve(n);
  std::vector<pdn::CurrentInjection> draws;
  for (std::size_t i = 0; i < n; ++i) {
    draws.clear();
    draw_fn(draws);
    readouts.push_back(sample(draws, rng));
  }
  return readouts;
}

std::vector<double> SensorRig::collect_constant(
    std::size_t n, std::span<const pdn::CurrentInjection> draws,
    util::Rng& rng) {
  std::vector<double> readouts;
  readouts.reserve(n);
  for (std::size_t i = 0; i < n; ++i) readouts.push_back(sample(draws, rng));
  return readouts;
}

sensors::CalibrationResult SensorRig::calibrate(util::Rng& rng) {
  OBS_SPAN("sensor.calibrate");
  settle();
  // 256 samples per setting: enough averaging that the coarse-tap choice is
  // stable against ambient noise (a mis-parked capture edge costs up to
  // ~20% sensitivity through the tapered settle spacing).
  return sensor_->calibrate(params_.vnom, rng, 256);
}

void SensorRig::settle() {
  filter_.reset();
  ambient_.reset();
}

}  // namespace leakydsp::sim
