// Extension study: workload fingerprinting with LeakyDSP readouts — the
// "classify computations on multi-tenant FPGAs" application (reference
// [14]) rebuilt on the DSP sensor. Five workload classes run at the victim
// site; the attacker records 16 k readouts per observation, extracts
// spectral band-energy features and classifies with nearest centroids.
// The table is the confusion matrix over held-out observations.
#include <iostream>
#include <vector>

#include "attack/fingerprint.h"
#include "core/leaky_dsp.h"
#include "sim/scenarios.h"
#include "sim/sensor_rig.h"
#include "util/cli.h"
#include "util/rng.h"
#include "util/table.h"
#include "victim/workloads.h"

using namespace leakydsp;

namespace {

int run(int argc, char** argv) {
  const util::Cli cli(argc, argv, {"seed", "train", "test"});
  util::Rng rng(cli.get_seed("seed", 15));
  const auto train_reps = static_cast<std::size_t>(cli.get_int("train", 4));
  const auto test_reps = static_cast<std::size_t>(cli.get_int("test", 8));

  const sim::Basys3Scenario scenario;
  crypto::Key key;
  for (auto& b : key) b = static_cast<std::uint8_t>(rng() & 0xff);

  core::LeakyDspSensor sensor(
      scenario.device(),
      scenario.attack_placements()[sim::Basys3Scenario::kBestPlacementIndex]);
  sim::SensorRig rig(scenario.grid(), sensor);
  rig.calibrate(rng);
  const std::size_t victim_node =
      scenario.grid().node_of_site(scenario.aes_site());

  attack::FingerprintParams params;
  attack::WorkloadClassifier classifier(params);
  auto zoo = victim::make_workload_zoo(key);

  std::cout << "=== Workload fingerprinting via LeakyDSP (extension, cf. "
               "[14]) ===\n"
            << zoo.size() << " workload classes; " << params.samples
            << " readouts/observation; " << train_reps << " training + "
            << test_reps << " test observations per class\n\n";

  // Train.
  for (auto& workload : zoo) {
    for (std::size_t rep = 0; rep < train_reps; ++rep) {
      const auto readouts = attack::record_workload(
          rig, *workload, victim_node, params.samples, rng);
      classifier.train(workload->name(), readouts);
    }
  }

  // Test: confusion matrix.
  attack::ConfusionMatrix confusion;
  for (const auto& workload : zoo) confusion.labels.push_back(workload->name());
  confusion.counts.assign(zoo.size(),
                          std::vector<std::size_t>(zoo.size(), 0));
  for (std::size_t w = 0; w < zoo.size(); ++w) {
    for (std::size_t rep = 0; rep < test_reps; ++rep) {
      const auto readouts = attack::record_workload(
          rig, *zoo[w], victim_node, params.samples, rng);
      const auto predicted = classifier.classify(readouts);
      for (std::size_t p = 0; p < confusion.labels.size(); ++p) {
        if (confusion.labels[p] == predicted) {
          ++confusion.counts[w][p];
          break;
        }
      }
    }
  }

  std::vector<std::string> headers{"true \\ predicted"};
  for (const auto& l : confusion.labels) headers.push_back(l);
  util::Table table(headers);
  for (std::size_t w = 0; w < confusion.labels.size(); ++w) {
    auto& row = table.row();
    row.add(confusion.labels[w]);
    for (std::size_t p = 0; p < confusion.labels.size(); ++p) {
      row.add(confusion.counts[w][p]);
    }
  }
  table.print(std::cout);
  std::cout << "\naccuracy: " << confusion.accuracy() * 100.0
            << "% (chance: " << 100.0 / static_cast<double>(zoo.size())
            << "%)\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return util::cli_main(argc, argv, run);
}
