// Covert-channel demo (the Section IV-C case study): two colluding tenants
// on the UltraScale+ board exchange an ASCII message through supply-voltage
// modulation — the sender toggles a power virus, the LeakyDSP receiver
// thresholds bit-window readout averages.
//
//   $ ./example_covert_message [--message "text"] [--bit-ms 4.0]
#include <iostream>
#include <string>
#include <vector>

#include "attack/covert_channel.h"
#include "core/leaky_dsp.h"
#include "sim/scenarios.h"
#include "sim/sensor_rig.h"
#include "util/cli.h"
#include "util/rng.h"
#include "victim/power_virus.h"

using namespace leakydsp;

namespace {

std::vector<bool> to_bits(const std::string& text) {
  std::vector<bool> bits;
  for (const char c : text) {
    for (int b = 7; b >= 0; --b) {
      bits.push_back((static_cast<unsigned char>(c) >> b) & 1);
    }
  }
  return bits;
}

std::string from_bits(const std::vector<bool>& bits) {
  std::string text;
  for (std::size_t i = 0; i + 8 <= bits.size(); i += 8) {
    unsigned char c = 0;
    for (int b = 0; b < 8; ++b) {
      c = static_cast<unsigned char>((c << 1) | (bits[i + b] ? 1 : 0));
    }
    text.push_back(static_cast<char>(c));
  }
  return text;
}

int run(int argc, char** argv) {
  const util::Cli cli(argc, argv, {"message", "bit-ms", "seed"});
  const std::string message = cli.get_string(
      "message", "LeakyDSP: covert FPGA-to-FPGA channel at 247.94 b/s");
  const double bit_ms = cli.get_double("bit-ms", 4.0);
  util::Rng rng(cli.get_seed("seed", 11));

  const sim::Axu3egbScenario scenario;
  std::cout << "Board: " << scenario.device().name() << "\n";

  core::LeakyDspSensor sensor(scenario.device(), scenario.receiver_site());
  sim::SensorRig rig(scenario.grid(), sensor);
  victim::PowerVirus sender(scenario.device(), scenario.grid(),
                            scenario.sender_regions());
  rig.calibrate(rng);

  attack::CovertChannelParams params;
  params.bit_time_ms = bit_ms;
  attack::CovertChannel channel(rig, sender, params, rng);
  std::cout << "receiver levels: idle " << channel.level_idle()
            << " bits, active " << channel.level_active()
            << " bits; bit time " << bit_ms << " ms\n\n";

  const auto payload = to_bits(message);
  std::vector<bool> decoded;
  const auto stats = channel.transmit(payload, rng, &decoded);

  std::cout << "sent     (" << payload.size() << " bits): \"" << message
            << "\"\n"
            << "received (" << decoded.size() << " bits): \""
            << from_bits(decoded) << "\"\n\n"
            << "TR = " << stats.transmission_rate() << " bit/s, BER = "
            << stats.ber() * 100.0 << "% (" << stats.bit_errors
            << " bit errors)\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return util::cli_main(argc, argv, run);
}
