// Regenerates Fig. 5: key-rank estimation for LeakyDSP.
//
// (a) All eight placements ranked by their estimated key rank after 20 k
//     traces — the paper's colour-gradient heat map, printed as a ranked
//     table.
// (b) Key-rank upper/lower bounds vs. trace count for five selected
//     placements: the best case (P6), the worst case, the placement closest
//     to the victim (P2), and two mid-field placements.
//
// Paper reference: rank falls with traces everywhere, at placement-
// dependent speed; the ordering matches the placement quality of Table I.
#include <algorithm>
#include <iostream>
#include <map>
#include <vector>

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
  const auto seed = cli.get_seed("seed", 4);
  const bool quick = cli.get_flag("quick");
  const auto max_traces = static_cast<std::size_t>(
      cli.get_int("max-traces", quick ? 10000 : 60000));

  const sim::Basys3Scenario scenario;
  util::Rng rng(seed);
  crypto::Key key;
  for (auto& b : key) b = static_cast<std::uint8_t>(rng() & 0xff);

  victim::AesCoreParams aes_params;
  if (quick) aes_params.current_per_hd_bit *= 3.0;

  attack::CampaignConfig config;
  config.max_traces = max_traces;
  config.rank_stride = quick ? 2000 : 5000;

  std::cout << "=== Fig. 5: key-rank estimation for LeakyDSP ===\n"
            << "Rank bounds every " << config.rank_stride
            << " traces up to " << util::format_count(max_traces)
            << "; seed " << seed
            << (quick ? " [--quick: leakage boosted 3x]" : "") << "\n\n";

  // Run every placement once, keeping all rank checkpoints.
  std::vector<attack::CampaignResult> results;
  for (std::size_t i = 0; i < scenario.attack_placements().size(); ++i) {
    util::Rng run_rng = rng.fork(i);
    victim::AesCoreModel aes(key, scenario.aes_site(), scenario.grid(),
                             aes_params);
    core::LeakyDspSensor sensor(scenario.device(),
                                scenario.attack_placements()[i]);
    sim::SensorRig rig(scenario.grid(), sensor);
    rig.calibrate(run_rng);
    attack::TraceCampaign campaign(rig, aes, config);
    results.push_back(campaign.run(run_rng, /*stop_when_broken=*/false));
  }

  // (a) heat ranking at 20 k traces (or the nearest checkpoint).
  const std::size_t heat_traces = std::min<std::size_t>(20000, max_traces);
  std::cout << "--- Fig. 5(a): placements ranked by key rank at "
            << util::format_count(heat_traces) << " traces ---\n";
  std::vector<std::pair<double, std::size_t>> heat;
  for (std::size_t i = 0; i < results.size(); ++i) {
    double mid = 128.0;
    for (const auto& cp : results[i].checkpoints) {
      if (cp.traces <= heat_traces) mid = cp.rank.log2_mid();
    }
    heat.push_back({mid, i});
  }
  std::sort(heat.begin(), heat.end());
  util::Table heat_table({"rank order", "placement", "log2 key rank",
                          "bytes correct"});
  for (std::size_t order = 0; order < heat.size(); ++order) {
    const std::size_t i = heat[order].second;
    int correct = 0;
    for (const auto& cp : results[i].checkpoints) {
      if (cp.traces <= heat_traces) correct = cp.correct_bytes;
    }
    heat_table.row()
        .add(order + 1)
        .add(std::string("P").append(std::to_string(i + 1)))
        .add(heat[order].first, 1)
        .add(correct);
  }
  heat_table.print(std::cout);

  // (b) rank curves for 5 selected placements: best, worst, closest and
  // the two mid-field ones nearest the median heat rank.
  const std::size_t best = heat.front().second;
  const std::size_t worst = heat.back().second;
  const auto closest =
      static_cast<std::size_t>(sim::Basys3Scenario::kClosestPlacementIndex);
  std::vector<std::size_t> selected{best, worst, closest};
  for (const auto& [mid, i] : heat) {
    if (selected.size() >= 5) break;
    if (std::find(selected.begin(), selected.end(), i) == selected.end()) {
      selected.push_back(i);
    }
  }
  std::sort(selected.begin(), selected.end());

  std::cout << "\n--- Fig. 5(b): log2 key-rank bounds [lower, upper] vs "
               "traces ---\n";
  std::vector<std::string> headers{"traces"};
  for (const auto i : selected) {
    headers.push_back(std::string("P").append(std::to_string(i + 1)));
  }
  util::Table curves(headers);
  const std::size_t checkpoints = results[selected[0]].checkpoints.size();
  for (std::size_t c = 0; c < checkpoints; ++c) {
    auto& row = curves.row();
    row.add(util::format_count(results[selected[0]].checkpoints[c].traces));
    for (const auto i : selected) {
      const auto& cp = results[i].checkpoints[c];
      row.add(std::string("[")
                  .append(util::format_double(cp.rank.log2_lower, 1))
                  .append(", ")
                  .append(util::format_double(cp.rank.log2_upper, 1))
                  .append("]"));
    }
  }
  curves.print(std::cout);
  std::cout << "\nbest placement this run: P" << best + 1
            << "; worst: P" << worst + 1 << "; closest to victim: P"
            << closest + 1 << "\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return util::cli_main(argc, argv, run);
}
