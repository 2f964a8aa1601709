// Extension study: LeakyDSP against every on-chip sensor family the
// paper's related work lists — TDC (carry chains), RDS (routing delays),
// VITI (tiny self-calibrating LUT chain), PPWM (pulse-width modulation)
// and RO (counting oscillator). Each sensor sees the same supply
// staircase; the table reports sensitivity, noise, the resulting
// signal-to-noise ratio per millivolt, and which bitstream rule (if any)
// catches the design.
#include <iostream>
#include <cmath>
#include <memory>
#include <vector>

#include "core/leaky_dsp.h"
#include "fabric/bitstream_checker.h"
#include "sensors/ppwm.h"
#include "sensors/rds.h"
#include "sensors/ro_sensor.h"
#include "sensors/tdc.h"
#include "sensors/viti.h"
#include "sim/scenarios.h"
#include "stats/descriptive.h"
#include "util/cli.h"
#include "util/rng.h"
#include "util/table.h"

using namespace leakydsp;

namespace {

struct ZooEntry {
  std::unique_ptr<sensors::VoltageSensor> sensor;
  fabric::Netlist netlist;
  std::string resources;
};

struct Measurement {
  double slope_per_mv = 0.0;
  double noise = 0.0;
  double snr_per_mv = 0.0;
};

Measurement measure(sensors::VoltageSensor& sensor, util::Rng& rng) {
  sensor.calibrate(1.0, rng, 256);
  auto mean_and_std = [&](double v, double& mean, double& stddev) {
    std::vector<double> xs;
    for (int i = 0; i < 4000; ++i) xs.push_back(sensor.sample(v, rng));
    mean = stats::mean(xs);
    stddev = stats::stddev(xs);
  };
  double m0, s0, m1, s1;
  mean_and_std(1.0, m0, s0);
  mean_and_std(1.0 - 10e-3, m1, s1);
  Measurement result;
  // Report magnitudes: PPWM's readout grows with droop, thermometer
  // sensors shrink; what matters for an attacker is |d readout / dV|.
  result.slope_per_mv = std::abs(m0 - m1) / 10.0;
  result.noise = s0;
  result.snr_per_mv =
      result.noise > 0.0 ? result.slope_per_mv / result.noise : 0.0;
  return result;
}

std::string scan_verdict(const fabric::Netlist& nl) {
  const auto report =
      audit_bitstream(nl, fabric::CheckPolicy::deployed());
  if (report.accepted()) return "passes";
  return "caught: " + report.violations.front().rule;
}

int run(int argc, char** argv) {
  const util::Cli cli(argc, argv, {"seed"});
  util::Rng rng(cli.get_seed("seed", 14));
  const sim::Basys3Scenario scenario;
  const auto& device = scenario.device();

  std::vector<ZooEntry> zoo;
  {
    auto s = std::make_unique<core::LeakyDspSensor>(device,
                                                    fabric::SiteCoord{16, 20});
    auto nl = s->netlist();
    zoo.push_back({std::move(s), std::move(nl), "3x DSP48 + 2x IDELAY"});
  }
  {
    auto s = std::make_unique<sensors::TdcSensor>(device,
                                                  fabric::SiteCoord{15, 20});
    auto nl = s->netlist();
    zoo.push_back({std::move(s), std::move(nl), "32x CARRY4 + 128x FF"});
  }
  {
    auto s = std::make_unique<sensors::RdsSensor>(device,
                                                  fabric::SiteCoord{14, 20});
    auto nl = s->netlist();
    zoo.push_back({std::move(s), std::move(nl), "routing + 33x FF"});
  }
  {
    auto s = std::make_unique<sensors::VitiSensor>(device,
                                                   fabric::SiteCoord{13, 20});
    auto nl = s->netlist();
    zoo.push_back({std::move(s), std::move(nl), "6x LUT + 6x FF"});
  }
  {
    auto s = std::make_unique<sensors::PpwmSensor>(device,
                                                   fabric::SiteCoord{12, 20});
    auto nl = s->netlist();
    zoo.push_back({std::move(s), std::move(nl), "2 racing paths + counter"});
  }
  {
    auto s = std::make_unique<sensors::RoSensor>(device,
                                                 fabric::SiteCoord{11, 20});
    auto nl = s->netlist();
    zoo.push_back({std::move(s), std::move(nl), "LUT loop + counter"});
  }

  std::cout << "=== Sensor zoo: every family from the paper's related work "
               "===\n"
            << "10 mV supply staircase, 4000 readouts per level\n\n";
  util::Table table({"sensor", "resources", "output bits",
                     "slope [lsb/mV]", "noise [lsb rms]", "SNR [1/mV]",
                     "deployed bitstream scan"});
  for (auto& entry : zoo) {
    const auto m = measure(*entry.sensor, rng);
    table.row()
        .add(entry.sensor->name())
        .add(entry.resources)
        .add(entry.sensor->readout_bits())
        .add(m.slope_per_mv, 2)
        .add(m.noise, 2)
        .add(m.snr_per_mv, 2)
        .add(scan_verdict(entry.netlist));
  }
  table.print(std::cout);
  std::cout << "\nLeakyDSP pairs TDC-class SNR with a netlist no deployed "
               "structure rule flags; every\ntraditional-logic family is "
               "either caught (TDC, RO) or built from the LUT/FF resources\n"
               "that bitstream scanners focus on (RDS, VITI, PPWM).\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return util::cli_main(argc, argv, run);
}
