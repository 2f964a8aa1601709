// Reference for the scalar LeakyDSP readout: the plain per-bit loop that
// evaluates one Box–Muller jitter per output bit, and the paper's
// calibration sweep driven by it. LeakyDspSensor::sample() and calibrate()
// skip the gaussians of bits the jitter cannot reach and must match these
// bit for bit — readouts, calibration results and rng state. The
// sensors.leakydsp_scalar_vs_reference oracle checks that; hotpath_micro
// times the pair.
#pragma once

#include <cstddef>

#include "core/leaky_dsp.h"
#include "sensors/sensor.h"
#include "util/rng.h"

namespace leakydsp::verify {

/// sensor.sample(supply_v, rng) as the plain per-bit loop. Leaves the
/// sensor untouched (sample() also toggles its input phase, which only
/// sample_word() reads).
double reference_leakydsp_sample(const core::LeakyDspSensor& sensor,
                                 double supply_v, util::Rng& rng);

/// sensor.calibrate(idle_v, rng, samples_per_setting) with every readout
/// taken by reference_leakydsp_sample(); sets the same taps and fine phase.
sensors::CalibrationResult reference_leakydsp_calibrate(
    core::LeakyDspSensor& sensor, double idle_v, util::Rng& rng,
    std::size_t samples_per_setting);

}  // namespace leakydsp::verify
