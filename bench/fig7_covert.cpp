// Regenerates Fig. 7: timing parameters of the LeakyDSP-based covert
// channel on the UltraScale+ board (AXU3EGB scenario).
//
// The sender (8,000-instance power virus) idles to transmit '1' and
// activates to transmit '0'; the LeakyDSP receiver averages readouts per
// bit window and thresholds against the preamble-learned midpoint. For
// each bit time from 2.0 to 7.5 ms the bench transmits 10 kb of random
// payload in each of 10 runs and reports mean BER and TR.
//
// Paper reference: BER stabilizes below 1% above 3.5 ms, rises steeply
// below 3 ms; the recommended 4 ms setting gives TR = 247.94 b/s at
// BER = 0.24%.
#include <iostream>
#include <vector>

#include "attack/covert_channel.h"
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
  const util::Cli cli(argc, argv, {"seed", "runs", "payload"});
  const auto seed = cli.get_seed("seed", 6);
  const auto runs = static_cast<std::size_t>(cli.get_int("runs", 10));
  const auto payload_bits =
      static_cast<std::size_t>(cli.get_int("payload", 9680));

  const sim::Axu3egbScenario scenario;
  util::Rng rng(seed);

  core::LeakyDspSensor sensor(scenario.device(), scenario.receiver_site());
  sim::SensorRig rig(scenario.grid(), sensor);
  victim::PowerVirus sender(scenario.device(), scenario.grid(),
                            scenario.sender_regions());
  rig.calibrate(rng);  // receiver deployment calibration, done once

  std::cout << "=== Fig. 7: covert-channel timing parameters (AXU3EGB) ===\n"
            << scenario.device().name() << "; receiver LeakyDSP at ("
            << scenario.receiver_site().x << ","
            << scenario.receiver_site().y << "); "
            << util::format_count(payload_bits) << " random bits (10 full frames) x " << runs
            << " runs per setting; seed " << seed << "\n\n";

  util::Table table({"bit time [ms]", "TR [bit/s]", "BER mean [%]",
                     "BER min [%]", "BER max [%]"});
  for (const double bit_ms : {2.0, 2.5, 3.0, 3.5, 4.0, 4.5, 5.0, 5.5, 6.0,
                              6.5, 7.0, 7.5}) {
    attack::CovertChannelParams params;
    params.bit_time_ms = bit_ms;
    attack::CovertChannel channel(rig, sender, params, rng);
    std::vector<double> bers;
    double tr = 0.0;
    for (std::size_t r = 0; r < runs; ++r) {
      std::vector<bool> payload(payload_bits);
      for (auto&& b : payload) b = rng.bernoulli(0.5);
      const auto stats = channel.transmit(payload, rng);
      bers.push_back(stats.ber() * 100.0);
      tr = stats.transmission_rate();
    }
    table.row()
        .add(bit_ms, 1)
        .add(tr, 2)
        .add(stats::mean(bers), 3)
        .add(stats::min_value(bers), 3)
        .add(stats::max_value(bers), 3);
  }
  table.print(std::cout);
  std::cout << "\nPaper reference at 4.0 ms: TR = 247.94 bit/s, "
               "BER = 0.24%; BER < 1% for bit times >= 3.5 ms.\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return util::cli_main(argc, argv, run);
}
