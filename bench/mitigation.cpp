// Mitigations (Section V discussion):
//
// 1. Bitstream checks: audits the three sensor families' netlists against
//    the deployed provider policy (combinational loops, latches, vertical
//    carry chains) and against the paper's proposed extension (reject
//    fully-asynchronous DSP configurations). Also demonstrates the
//    programmable-clock bypass of static timing rules.
// 2. Active-fence noise injection: a defender tenant injects random
//    switching noise into the PDN next to the AES core; the bench measures
//    how many traces the best-placement attack needs as the fence
//    amplitude grows.
#include <iostream>
#include <vector>

#include <cmath>
#include <memory>

#include "attack/campaign.h"
#include "attack/cpa.h"
#include "attack/key_enumeration.h"
#include "attack/second_order_cpa.h"
#include "core/leaky_dsp.h"
#include "fabric/bitstream_checker.h"
#include "fabric/netlist_builders.h"
#include "sim/scenarios.h"
#include "sim/sensor_rig.h"
#include "util/cli.h"
#include "util/rng.h"
#include "util/table.h"
#include "victim/active_fence.h"
#include "victim/aes_core.h"
#include "victim/masked_aes_core.h"

using namespace leakydsp;

namespace {

std::string verdict(const fabric::CheckReport& report) {
  if (report.accepted()) return "ACCEPTED";
  std::string out = "REJECTED (";
  for (std::size_t i = 0; i < report.violations.size(); ++i) {
    if (i != 0) out += ", ";
    out += report.violations[i].rule;
  }
  return out + ")";
}

int run(int argc, char** argv) {
  const util::Cli cli(argc, argv, {"seed", "max-traces", "quick!"});
  const auto seed = cli.get_seed("seed", 10);
  const bool quick = cli.get_flag("quick");
  const auto max_traces = static_cast<std::size_t>(
      cli.get_int("max-traces", quick ? 10000 : 80000));

  std::cout << "=== Mitigation study (Section V) ===\n\n"
            << "--- 1. Bitstream checks ---\n";
  {
    const auto deployed = fabric::CheckPolicy::deployed();
    const auto proposed = fabric::CheckPolicy::with_dsp_rule();
    util::Table table({"design", "deployed checks", "+ proposed DSP rule"});
    const auto leaky = fabric::build_leakydsp_netlist(
        fabric::Architecture::kSeries7, 3);
    const auto tdc = fabric::build_tdc_netlist(32, 5, 0);
    const auto ro = fabric::build_ro_netlist(64);
    table.row()
        .add("LeakyDSP (3 DSP48E1)")
        .add(verdict(audit_bitstream(leaky, deployed)))
        .add(verdict(audit_bitstream(leaky, proposed)));
    table.row()
        .add("TDC (128 stages)")
        .add(verdict(audit_bitstream(tdc, deployed)))
        .add(verdict(audit_bitstream(tdc, proposed)));
    table.row()
        .add("RO virus (64 loops)")
        .add(verdict(audit_bitstream(ro, deployed)))
        .add(verdict(audit_bitstream(ro, proposed)));
    table.print(std::cout);

    fabric::CheckPolicy timing = fabric::CheckPolicy::deployed();
    timing.declared_clock_period_ns = 3.333;  // honest 300 MHz declaration
    fabric::CheckPolicy bypassed = fabric::CheckPolicy::deployed();
    bypassed.declared_clock_period_ns = 100.0;  // programmable-clock bypass
    std::cout << "\ntiming rule, honest 300 MHz declaration: "
              << verdict(audit_bitstream(leaky, timing))
              << "\ntiming rule, declared 10 MHz (paper's bypass): "
              << verdict(audit_bitstream(leaky, bypassed)) << "\n";
  }

  std::cout << "\n--- 2. Active-fence noise injection ---\n"
            << "Defender fence cells (shared-PRNG toggling) ring the victim "
               "Pblock; attack at best placement (P6)"
            << (quick ? "; [--quick: leakage boosted 3x]" : "") << "\n\n";
  {
    const sim::Basys3Scenario scenario;
    util::Rng rng(seed);
    crypto::Key key;
    for (auto& b : key) b = static_cast<std::uint8_t>(rng() & 0xff);

    util::Table table({"fence cells", "fence mean current [A]",
                       "traces to break"});
    for (const std::size_t fence_cells : {0u, 500u, 1000u, 2000u}) {
      util::Rng run_rng = rng.fork(fence_cells + 1);
      victim::AesCoreParams aes_params;
      if (quick) aes_params.current_per_hd_bit *= 3.0;
      victim::AesCoreModel aes(key, scenario.aes_site(), scenario.grid(),
                               aes_params);
      core::LeakyDspSensor sensor(
          scenario.device(),
          scenario.attack_placements()
              [sim::Basys3Scenario::kBestPlacementIndex]);
      sim::SensorRig rig(scenario.grid(), sensor);
      rig.calibrate(run_rng);

      attack::CampaignConfig config;
      config.max_traces = max_traces;
      config.rank_stride = 20000;
      attack::TraceCampaign campaign(rig, aes, config);

      // Fence cells occupy the guard band directly above the victim
      // Pblock (between the AES core and the attacker placements).
      std::unique_ptr<victim::ActiveFence> fence;
      if (fence_cells > 0) {
        victim::ActiveFenceParams fence_params;
        fence_params.instance_count = fence_cells;
        fence = std::make_unique<victim::ActiveFence>(
            scenario.device(), scenario.grid(), fabric::Rect{6, 17, 24, 24},
            fence_params);
        campaign.add_interferer(
            [&fence](double, util::Rng& r,
                     std::vector<pdn::CurrentInjection>& out) {
              for (const auto& d : fence->draws(r)) out.push_back(d);
            });
      }
      const auto result = campaign.run(run_rng);
      table.row()
          .add(fence_cells)
          .add(fence ? fence->mean_current() : 0.0, 2)
          .add(result.broken
                   ? util::format_count(result.traces_to_break)
                   : ("not broken in " +
                      util::format_count(result.traces_run)));
    }
    table.print(std::cout);
    std::cout << "\nExpected shape: traces to break grow with the fence "
                 "size (the paper notes noise injection obscures power "
                 "patterns at a power/area cost).\n";
  }

  std::cout << "\n--- 3. Masked (constant-power-style) implementation ---\n"
            << "First-order Boolean masking with fresh per-round masks; "
               "CPA on the last-round HD model\n\n";
  {
    const sim::Basys3Scenario scenario;
    util::Rng rng(seed + 1);
    crypto::Key key;
    for (auto& b : key) b = static_cast<std::uint8_t>(rng() & 0xff);
    victim::AesCoreParams aes_params;
    aes_params.current_per_hd_bit *= 3.0;  // generous leakage for the demo
    const auto site =
        scenario
            .attack_placements()[sim::Basys3Scenario::kBestPlacementIndex];
    const std::size_t traces = quick ? 4000 : 12000;

    // Shared trace loop over any core exposing the AesCoreModel interface.
    auto attack_bytes_recovered = [&](auto& core, util::Rng& run_rng) {
      core::LeakyDspSensor sensor(scenario.device(), site);
      sim::SensorRig rig(scenario.grid(), sensor);
      rig.calibrate(run_rng);
      const double gain = rig.coupling().gain_at_node(core.pdn_node());
      const auto spc = static_cast<std::size_t>(
          std::lround(core.clock_period_ns() /
                      rig.params().sample_period_ns));
      const std::size_t trace_samples =
          (core.cycles_per_encryption() + 2) * spc;
      const std::size_t poi_begin = 10 * spc;
      const std::size_t poi_count = 2 * spc;
      attack::CpaAttack cpa(poi_count);
      std::vector<double> poi(poi_count);
      crypto::Block pt;
      for (auto& b : pt) b = static_cast<std::uint8_t>(run_rng() & 0xff);
      for (std::size_t t = 0; t < traces; ++t) {
        core.start_encryption(pt);
        for (std::size_t s = 0; s < trace_samples; ++s) {
          const double droop = gain * core.current_at_cycle(s / spc);
          const double v = rig.supply_for_droop(droop, run_rng);
          const double readout = rig.sensor().sample(v, run_rng);
          if (s >= poi_begin && s < poi_begin + poi_count) {
            poi[s - poi_begin] = readout;
          }
        }
        cpa.add_trace(core.ciphertext(), poi);
        pt = core.ciphertext();
      }
      const auto recovered = cpa.recovered_round_key();
      const auto& truth = core.cipher().round_keys()[10];
      int correct = 0;
      for (int b = 0; b < 16; ++b) {
        if (recovered[static_cast<std::size_t>(b)] ==
            truth[static_cast<std::size_t>(b)]) {
          ++correct;
        }
      }
      return correct;
    };

    util::Table table({"implementation", "traces", "key bytes recovered"});
    {
      util::Rng run_rng = rng.fork(1);
      victim::AesCoreModel plain(key, scenario.aes_site(), scenario.grid(),
                                 aes_params);
      table.row()
          .add("unprotected")
          .add(util::format_count(traces))
          .add(attack_bytes_recovered(plain, run_rng));
    }
    {
      util::Rng run_rng = rng.fork(2);
      victim::MaskedAesCoreModel masked(key, scenario.aes_site(),
                                        scenario.grid(), aes_params);
      table.row()
          .add("first-order masked")
          .add(util::format_count(traces))
          .add(attack_bytes_recovered(masked, run_rng));
    }
    table.print(std::cout);
    std::cout << "\nExpected shape: the unprotected core loses most or all "
                 "key bytes at this trace count; the masked core's "
                 "share-register transitions decorrelate the leakage and "
                 "first-order CPA recovers ~0 bytes (2-3 by chance).\n";
  }

  if (!quick) {
    std::cout << "\n--- 4. Second-order CPA defeats the masking ---\n"
              << "Centered-square preprocessing converts the masked shares' "
                 "variance leakage back into a\ncorrelatable first moment "
                 "(quadratic SNR penalty). High-leakage core (~21x "
                 "calibrated),\n140k traces, same trace set fed to both "
                 "attacks.\n\n";
    const sim::Basys3Scenario scenario;
    util::Rng rng(seed + 2);
    crypto::Key key;
    for (auto& b : key) b = static_cast<std::uint8_t>(rng() & 0xff);
    victim::AesCoreParams aes_params;
    aes_params.current_per_hd_bit = 0.2;
    victim::MaskedAesCoreModel masked(key, scenario.aes_site(),
                                      scenario.grid(), aes_params);
    core::LeakyDspSensor sensor(
        scenario.device(),
        scenario
            .attack_placements()[sim::Basys3Scenario::kBestPlacementIndex]);
    sim::SensorRig rig(scenario.grid(), sensor);
    rig.calibrate(rng);

    const double gain = rig.coupling().gain_at_node(masked.pdn_node());
    const std::size_t spc = 15;
    const std::size_t poi_begin = 10 * spc;
    const std::size_t poi_count = 2 * spc;
    const std::size_t trace_samples = 13 * spc;
    const std::size_t traces = 140000;

    attack::CpaAttack first_order(poi_count);
    attack::SecondOrderCpa second_order(poi_count);
    std::vector<std::vector<double>> stored;
    std::vector<crypto::Block> cts;
    stored.reserve(traces);
    cts.reserve(traces);
    crypto::Block pt;
    for (auto& b : pt) b = static_cast<std::uint8_t>(rng() & 0xff);
    crypto::Block known_pt{};
    crypto::Block known_ct{};
    for (std::size_t t = 0; t < traces; ++t) {
      masked.start_encryption(pt);
      std::vector<double> poi(poi_count);
      for (std::size_t s = 0; s < trace_samples; ++s) {
        const double droop = gain * masked.current_at_cycle(s / spc);
        const double readout =
            rig.sensor().sample(rig.supply_for_droop(droop, rng), rng);
        if (s >= poi_begin && s < poi_begin + poi_count) {
          poi[s - poi_begin] = readout;
        }
      }
      first_order.add_trace(masked.ciphertext(), poi);
      second_order.add_profile(poi);
      stored.push_back(std::move(poi));
      cts.push_back(masked.ciphertext());
      known_pt = pt;
      known_ct = masked.ciphertext();
      pt = masked.ciphertext();
    }
    for (std::size_t t = 0; t < traces; ++t) {
      second_order.add_trace(cts[t], stored[t]);
    }

    const auto& truth = masked.cipher().round_keys()[10];
    auto correct_of = [&](const crypto::RoundKey& recovered) {
      int correct = 0;
      for (int b = 0; b < 16; ++b) {
        if (recovered[static_cast<std::size_t>(b)] ==
            truth[static_cast<std::size_t>(b)]) {
          ++correct;
        }
      }
      return correct;
    };
    util::Table table({"attack on the masked core", "traces",
                       "key bytes recovered"});
    table.row()
        .add("first-order CPA")
        .add(util::format_count(traces))
        .add(correct_of(first_order.recovered_round_key()));
    table.row()
        .add("second-order CPA (centered-square)")
        .add(util::format_count(traces))
        .add(correct_of(second_order.recovered_round_key()));
    table.print(std::cout);

    // Any byte the second-order argmax leaves buried falls to optimal-order
    // enumeration — the real attacker's final step.
    std::array<attack::ByteScores, 16> scores;
    for (int b = 0; b < 16; ++b) {
      scores[static_cast<std::size_t>(b)] = second_order.snapshot_byte(b);
    }
    const auto enumeration =
        attack::enumerate_and_verify(scores, known_pt, known_ct, 1u << 22);
    std::cout << "\nsecond-order scores + key enumeration: "
              << (enumeration.found
                      ? ("FULL KEY after " +
                         util::format_count(enumeration.candidates_tested) +
                         " candidates")
                      : "not found within 2^22 candidates")
              << "\n";
    std::cout << "\nExpected shape: first-order CPA stays blind at any "
                 "trace count; second-order CPA\n(plus enumeration of the "
                 "residual rank) recovers the full key — but needs ~1000x\n"
                 "the traces the unprotected core would at this leakage, "
                 "which is precisely the\nprotection margin masking "
                 "buys.\n";
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return util::cli_main(argc, argv, run);
}
