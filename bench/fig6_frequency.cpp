// Regenerates Fig. 6: impact of the AES clock frequency on the attack.
//
// The sensor stays at the best-case placement (P6) sampling at 300 MHz
// while the victim AES core runs at 20, 33.3, 50 and 100 MHz (15, 9, 6 and
// 3 sensor samples per victim cycle). Faster victim clocks give the
// attacker fewer samples per round and smear adjacent rounds through the
// PDN's droop dynamics, so key extraction needs more traces.
//
// Paper reference: efficiency decreases monotonically with frequency; at
// 100 MHz the key needs ~78 k traces (collected 60 k + an extra 20 k).
#include <iostream>

#include "attack/campaign.h"
#include "core/leaky_dsp.h"
#include "sim/scenarios.h"
#include "sim/sensor_rig.h"
#include "util/cli.h"
#include "util/rng.h"
#include "util/table.h"
#include "victim/aes_core.h"

using namespace leakydsp;

namespace {

int run(int argc, char** argv) {
  const util::Cli cli(argc, argv, {"seed", "max-traces", "quick!"});
  const auto seed = cli.get_seed("seed", 8);
  const bool quick = cli.get_flag("quick");
  const auto max_traces = static_cast<std::size_t>(
      cli.get_int("max-traces", quick ? 12000 : 160000));

  const sim::Basys3Scenario scenario;
  util::Rng rng(seed);
  crypto::Key key;
  for (auto& b : key) b = static_cast<std::uint8_t>(rng() & 0xff);

  const auto best_site =
      scenario
          .attack_placements()[sim::Basys3Scenario::kBestPlacementIndex];

  std::cout << "=== Fig. 6: impact of the AES frequency (placement P6) ===\n"
            << "Sensor @ 300 MHz at (" << best_site.x << "," << best_site.y
            << "); seed " << seed
            << (quick ? " [--quick: leakage boosted 3x]" : "") << "\n\n";

  util::Table table({"AES clock [MHz]", "sensor samples/cycle",
                     "traces to break", "paper"});
  const double freqs[] = {20.0, 100.0 / 3.0, 50.0, 100.0};
  const char* paper[] = {"25k", "-", "-", "78k (worst)"};
  for (std::size_t f = 0; f < 4; ++f) {
    util::Rng run_rng = rng.fork(f);
    victim::AesCoreParams aes_params;
    aes_params.clock_mhz = freqs[f];
    if (quick) aes_params.current_per_hd_bit *= 3.0;
    victim::AesCoreModel aes(key, scenario.aes_site(), scenario.grid(),
                             aes_params);
    core::LeakyDspSensor sensor(scenario.device(), best_site);
    sim::SensorRig rig(scenario.grid(), sensor);
    rig.calibrate(run_rng);

    attack::CampaignConfig config;
    config.max_traces = max_traces;
    config.rank_stride = 10000;
    attack::TraceCampaign campaign(rig, aes, config);
    const auto result = campaign.run(run_rng);
    table.row()
        .add(freqs[f], 1)
        .add(campaign.samples_per_cycle())
        .add(result.broken
                 ? util::format_count(result.traces_to_break)
                 : ("not broken in " + util::format_count(result.traces_run)))
        .add(paper[f]);
  }
  table.print(std::cout);
  std::cout << "\nExpected shape: traces to break increase monotonically "
               "with the victim clock frequency.\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return util::cli_main(argc, argv, run);
}
