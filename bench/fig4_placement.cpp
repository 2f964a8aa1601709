// Regenerates Fig. 4: sensitivity of LeakyDSP and TDC under different
// placements.
//
// 8,000 power-virus instances are constrained to clock regions 1 and 2;
// the sensor is then placed in each of the six clock regions (Pblock
// constraint) and calibrated there. For each region the bench reports the
// mean readout with the virus off and on (2,000 readouts each) and the
// sensitivity (readout drop). The dashed line of the paper's figure is the
// per-sensor average, printed as the last row.
//
// Paper reference: region 2 performs best; regions 5 and 6 (far from the
// victim) are worst but still clearly sense the activity.
#include <iostream>
#include <memory>
#include <vector>

#include "core/leaky_dsp.h"
#include "sensors/tdc.h"
#include "sim/scenarios.h"
#include "sim/sensor_rig.h"
#include "stats/descriptive.h"
#include "util/cli.h"
#include "util/rng.h"
#include "util/table.h"
#include "victim/power_virus.h"

using namespace leakydsp;

namespace {

struct RegionResult {
  double off = 0.0;
  double on = 0.0;
  double delta() const { return off - on; }
};

RegionResult measure(sensors::VoltageSensor& sensor,
                     const sim::Basys3Scenario& scenario,
                     victim::PowerVirus& virus, std::size_t readouts,
                     util::Rng& rng) {
  sim::SensorRig rig(scenario.grid(), sensor);
  rig.calibrate(rng);
  auto draw_fn = [&](std::vector<pdn::CurrentInjection>& draws) {
    for (const auto& d : virus.draws(rng)) draws.push_back(d);
  };
  RegionResult result;
  virus.set_enabled(false);
  rig.settle();
  result.off = stats::mean(rig.collect(readouts, rng, draw_fn));
  virus.set_enabled(true);
  rig.settle();
  result.on = stats::mean(rig.collect(readouts, rng, draw_fn));
  virus.set_enabled(false);
  return result;
}

int run(int argc, char** argv) {
  const util::Cli cli(argc, argv, {"seed", "readouts"});
  const auto seed = cli.get_seed("seed", 2);
  const auto readouts =
      static_cast<std::size_t>(cli.get_int("readouts", 2000));

  const sim::Basys3Scenario scenario;
  util::Rng rng(seed);
  victim::PowerVirus virus(scenario.device(), scenario.grid(),
                           scenario.virus_regions());

  std::cout << "=== Fig. 4: sensitivity under different placements ===\n"
            << "8000 virus instances fixed in clock regions 1-2; sensor "
               "swept over all 6 regions;\n"
            << readouts << " readouts per setting, seed " << seed << "\n\n";

  util::Table table({"region", "LeakyDSP off", "LeakyDSP on",
                     "LeakyDSP delta", "TDC off", "TDC on", "TDC delta"});
  double leaky_sum = 0.0;
  double tdc_sum = 0.0;
  std::vector<double> leaky_deltas;
  for (int r = 1; r <= 6; ++r) {
    core::LeakyDspSensor leaky(scenario.device(),
                               scenario.region_dsp_site(r));
    sensors::TdcSensor tdc(scenario.device(), scenario.region_clb_site(r));
    const auto lres = measure(leaky, scenario, virus, readouts, rng);
    const auto tres = measure(tdc, scenario, virus, readouts, rng);
    leaky_sum += lres.delta();
    tdc_sum += tres.delta();
    leaky_deltas.push_back(lres.delta());
    table.row()
        .add(r)
        .add(lres.off, 2)
        .add(lres.on, 2)
        .add(lres.delta(), 2)
        .add(tres.off, 2)
        .add(tres.on, 2)
        .add(tres.delta(), 2);
  }
  table.row()
      .add("avg")
      .add("")
      .add("")
      .add(leaky_sum / 6.0, 2)
      .add("")
      .add("")
      .add(tdc_sum / 6.0, 2);
  table.print(std::cout);

  int best_region = 1;
  int worst_region = 1;
  for (int r = 2; r <= 6; ++r) {
    if (leaky_deltas[static_cast<std::size_t>(r - 1)] >
        leaky_deltas[static_cast<std::size_t>(best_region - 1)]) {
      best_region = r;
    }
    if (leaky_deltas[static_cast<std::size_t>(r - 1)] <
        leaky_deltas[static_cast<std::size_t>(worst_region - 1)]) {
      worst_region = r;
    }
  }
  std::cout << "\nbest region: " << best_region
            << " (paper: 2); worst region: " << worst_region
            << " (paper: 5 or 6); all regions sense the activity: "
            << (stats::min_value(leaky_deltas) > 1.0 ? "yes" : "no") << "\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return util::cli_main(argc, argv, run);
}
