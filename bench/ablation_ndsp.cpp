// Ablation (Section V future work): how does the number of cascaded DSP
// blocks n affect LeakyDSP's sensitivity? The paper fixes n = 3 as an
// empirical balance of sensitivity, resource usage and calibration ease;
// this bench sweeps n = 1..6 and repeats the Fig. 3 activity sweep for
// each, reporting the regression slope, linearity and the idle noise
// floor.
//
// Expected shape: the amplified delay (and therefore the readout shift per
// group) grows with n, while calibration headroom shrinks (the settle
// window is a fixed fraction of a growing path, so large-droop swings
// saturate more easily).
#include <iostream>
#include <vector>

#include "core/leaky_dsp.h"
#include "sim/scenarios.h"
#include "sim/sensor_rig.h"
#include "stats/descriptive.h"
#include "util/cli.h"
#include "util/rng.h"
#include "util/table.h"
#include "victim/power_virus.h"

using namespace leakydsp;

namespace {

int run(int argc, char** argv) {
  const util::Cli cli(argc, argv, {"seed", "readouts"});
  const auto seed = cli.get_seed("seed", 8);
  const auto readouts =
      static_cast<std::size_t>(cli.get_int("readouts", 1000));

  const sim::Basys3Scenario scenario;
  util::Rng rng(seed);
  victim::PowerVirus virus(scenario.device(), scenario.grid(),
                           scenario.virus_regions());

  std::cout << "=== Ablation: number of cascaded DSP blocks (paper: n=3) "
               "===\n"
            << "Fig. 3 activity sweep per n; " << readouts
            << " readouts per level; seed " << seed << "\n\n";

  util::Table table({"n DSP", "amplified path [ns]", "slope [bits/group]",
                     "Pearson r", "idle noise [bits rms]", "DSP sites used"});
  for (std::size_t n = 1; n <= 6; ++n) {
    core::LeakyDspParams params;
    params.n_dsp = n;
    core::LeakyDspSensor sensor(scenario.device(), scenario.fig3_dsp_site(),
                                params);
    sim::SensorRig rig(scenario.grid(), sensor);
    rig.calibrate(rng);

    std::vector<double> levels;
    std::vector<double> means;
    auto draw_fn = [&](std::vector<pdn::CurrentInjection>& draws) {
      for (const auto& d : virus.draws(rng)) draws.push_back(d);
    };
    double idle_noise = 0.0;
    for (std::size_t level = 0; level <= virus.group_count(); ++level) {
      virus.set_active_groups(level);
      rig.settle();
      const auto samples = rig.collect(readouts, rng, draw_fn);
      if (level == 0) idle_noise = stats::stddev(samples);
      levels.push_back(static_cast<double>(level));
      means.push_back(stats::mean(samples));
    }
    virus.set_active_groups(0);
    const auto fit = stats::linear_fit(levels, means);
    table.row()
        .add(n)
        .add(params.dsp_delay_ns * static_cast<double>(n), 1)
        .add(fit.slope, 2)
        .add(fit.r, 3)
        .add(idle_noise, 2)
        .add(n);
  }
  table.print(std::cout);
  std::cout << "\nExpected shape: |slope| grows with n (longer amplified "
               "path); n = 3 already resolves single-group activity "
               "changes, matching the paper's choice.\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return util::cli_main(argc, argv, run);
}
