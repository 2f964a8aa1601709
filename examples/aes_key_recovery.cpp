// End-to-end AES-128 key extraction (the Section IV-B case study) at demo
// scale: a LeakyDSP sensor at the best placement observes an AES core with
// (for demo speed) 3x-boosted leakage, and correlation power analysis
// recovers the full key from a few thousand traces.
//
//   $ ./example_aes_key_recovery [--traces N] [--seed S] [--threads T]
//
// The result is byte-identical for every --threads value; see DESIGN.md
// ("Threading model & determinism").
#include <iomanip>
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

std::string hex(const crypto::Key& key) {
  std::ostringstream oss;
  oss << std::hex << std::setfill('0');
  for (const auto b : key) oss << std::setw(2) << static_cast<int>(b);
  return oss.str();
}

int run(int argc, char** argv) {
  const util::Cli cli(argc, argv, {"traces", "seed", "threads"});
  const auto max_traces =
      static_cast<std::size_t>(cli.get_int("traces", 8000));
  const std::size_t threads = cli.get_threads();
  util::Rng rng(cli.get_seed("seed", 7));

  const sim::Basys3Scenario scenario;

  // The victim tenant: AES-128 with a secret key, 20 MHz clock.
  crypto::Key secret_key;
  for (auto& b : secret_key) b = static_cast<std::uint8_t>(rng() & 0xff);
  victim::AesCoreParams aes_params;
  aes_params.current_per_hd_bit *= 3.0;  // demo scale: breaks in ~3k traces
  victim::AesCoreModel aes(secret_key, scenario.aes_site(), scenario.grid(),
                           aes_params);

  // The attacker tenant: LeakyDSP at the best placement (P6).
  core::LeakyDspSensor sensor(
      scenario.device(),
      scenario.attack_placements()[sim::Basys3Scenario::kBestPlacementIndex]);
  sim::SensorRig rig(scenario.grid(), sensor);
  rig.calibrate(rng);

  std::cout << "victim AES-128 @ " << aes_params.clock_mhz
            << " MHz, secret key " << hex(secret_key) << "\n"
            << "attacker LeakyDSP @ 300 MHz at P6; collecting up to "
            << util::format_count(max_traces) << " traces on " << threads
            << " thread(s)...\n\n";

  attack::CampaignConfig config;
  config.max_traces = max_traces;
  config.break_check_stride = 250;
  config.rank_stride = 1000;
  config.threads = threads;
  attack::TraceCampaign campaign(rig, aes, config);
  const auto result = campaign.run(rng);

  util::Table table({"traces", "log2 key rank [lo, up]", "key bytes correct"});
  for (const auto& cp : result.checkpoints) {
    table.row()
        .add(util::format_count(cp.traces))
        .add("[" + util::format_double(cp.rank.log2_lower, 1) + ", " +
             util::format_double(cp.rank.log2_upper, 1) + "]")
        .add(cp.correct_bytes);
  }
  table.print(std::cout);

  if (result.broken) {
    std::cout << "\nfull key recovered after "
              << util::format_count(result.traces_to_break) << " traces\n";
  } else {
    std::cout << "\nkey not fully recovered within "
              << util::format_count(result.traces_run)
              << " traces (try more --traces)\n";
  }
  return result.broken ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  return util::cli_main(argc, argv, run);
}
