#include "verify/golden_corpus.h"

#include <unistd.h>

#include <cstdint>
#include <filesystem>
#include <string>
#include <utility>
#include <vector>

#include "attack/campaign.h"
#include "attack/cpa.h"
#include "core/leaky_dsp.h"
#include "crypto/aes128.h"
#include "fabric/device_spec.h"
#include "scenario/placement_sweep.h"
#include "sensors/tdc.h"
#include "sim/scenarios.h"
#include "sim/sensor_rig.h"
#include "sim/trace_store.h"
#include "util/rng.h"
#include "victim/aes_core.h"

namespace leakydsp::verify {

namespace {

// Every corpus computation keys off this seed; bumping it is a corpus
// change and needs a re-bless.
constexpr std::uint64_t kCorpusSeed = 212;

GoldenEntry exact(std::string name, std::vector<double> values) {
  GoldenEntry e;
  e.name = std::move(name);
  e.values = std::move(values);
  return e;
}

GoldenEntry within(std::string name, double abs_tol, double rel_tol,
                   std::vector<double> values) {
  GoldenEntry e = exact(std::move(name), std::move(values));
  e.abs_tol = abs_tol;
  e.rel_tol = rel_tol;
  return e;
}

// ------------------------------------------------------- sensors.ldgc

GoldenFile sensor_corpus(const sim::Basys3Scenario& scenario) {
  GoldenFile golden;

  // One full-pipeline LeakyDSP trace: victim AES encryption -> PDN droop
  // -> supply -> sensor readouts through generate_trace, the serial scalar
  // rig path (the campaign's batched path is pinned by campaign.ldgc).
  {
    util::Rng rng(kCorpusSeed);
    crypto::Key key;
    for (auto& b : key) b = static_cast<std::uint8_t>(rng() & 0xff);
    victim::AesCoreParams aes_params;
    aes_params.current_per_hd_bit = 0.15;
    victim::AesCoreModel aes(key, scenario.aes_site(), scenario.grid(),
                             aes_params);
    core::LeakyDspSensor sensor(
        scenario.device(),
        scenario.attack_placements()[sim::Basys3Scenario::kBestPlacementIndex]);
    sim::SensorRig rig(scenario.grid(), sensor);
    rig.calibrate(rng);
    attack::TraceCampaign campaign(rig, aes);
    crypto::Block plaintext{};
    for (std::size_t i = 0; i < plaintext.size(); ++i) {
      plaintext[i] = static_cast<std::uint8_t>(i * 17 + 3);
    }
    golden.entries.push_back(
        exact("leakydsp.trace", campaign.generate_trace(plaintext, rng)));
  }

  // A standalone TDC readout sweep over a fixed supply ramp — the
  // alternative sensor family, scalar path.
  {
    sensors::TdcSensor tdc(scenario.device(), {2, 10});
    util::Rng rng(kCorpusSeed ^ 0x7DCull);
    const auto cal = tdc.calibrate(1.0, rng, 64);
    std::vector<double> readouts;
    if (cal.success) {
      for (int i = 0; i < 200; ++i) {
        const double supply = 1.0 - 8e-3 * static_cast<double>(i) / 200.0;
        readouts.push_back(tdc.sample(supply, rng));
      }
    }
    golden.entries.push_back(exact("tdc.trace", std::move(readouts)));
  }

  return golden;
}

// ----------------------------------------------------------- cpa.ldgc

GoldenFile cpa_corpus() {
  util::Rng rng(kCorpusSeed ^ 0xC9Aull);
  constexpr std::size_t kPoi = 4;
  constexpr std::size_t kTraces = 96;
  std::vector<crypto::Block> cts(kTraces);
  std::vector<double> rows(kTraces * kPoi);
  for (std::size_t t = 0; t < kTraces; ++t) {
    for (auto& b : cts[t]) b = static_cast<std::uint8_t>(rng() & 0xff);
    for (std::size_t k = 0; k < kPoi; ++k) {
      rows[t * kPoi + k] =
          static_cast<double>(cts[t][0] & 0x0f) + rng.gaussian();
    }
  }
  attack::CpaAttack cpa(kPoi);
  cpa.add_traces(cts, rows);
  const auto scores = cpa.snapshot();

  GoldenFile golden;
  // Full 256-guess correlation sums for byte 0: the entry the 1-ULP
  // regression test perturbs — zero tolerance, the determinism contract
  // makes these exactly reproducible.
  std::vector<double> byte0(scores[0].score.begin(), scores[0].score.end());
  golden.entries.push_back(exact("cpa.byte0.scores", std::move(byte0)));
  std::vector<double> best_guess, best_score;
  for (const auto& s : scores) {
    best_guess.push_back(static_cast<double>(s.best_guess));
    best_score.push_back(s.best_score);
  }
  golden.entries.push_back(exact("cpa.best_guess", std::move(best_guess)));
  golden.entries.push_back(exact("cpa.best_score", std::move(best_score)));
  return golden;
}

// ------------------------------------------------------ campaign.ldgc

GoldenFile campaign_corpus(const sim::Basys3Scenario& scenario) {
  util::Rng rng(kCorpusSeed);
  crypto::Key key;
  for (auto& b : key) b = static_cast<std::uint8_t>(rng() & 0xff);
  victim::AesCoreParams aes_params;
  aes_params.current_per_hd_bit = 0.15;  // boosted: breaks within ~1k
  victim::AesCoreModel aes(key, scenario.aes_site(), scenario.grid(),
                           aes_params);
  core::LeakyDspSensor sensor(
      scenario.device(),
      scenario.attack_placements()[sim::Basys3Scenario::kBestPlacementIndex]);
  sim::SensorRig rig(scenario.grid(), sensor);
  rig.calibrate(rng);
  attack::CampaignConfig config;
  config.max_traces = 600;
  config.break_check_stride = 150;
  config.rank_stride = 300;
  config.threads = 1;
  attack::TraceCampaign campaign(rig, aes, config);
  const auto result = campaign.run(rng, /*stop_when_broken=*/false);

  GoldenFile golden;
  golden.entries.push_back(exact(
      "campaign.summary",
      {static_cast<double>(result.traces_to_break),
       result.broken ? 1.0 : 0.0, static_cast<double>(result.traces_run)}));
  // The mean readout is deterministic too, but a tolerance entry keeps one
  // representative of the tolerance-aware comparison path in the corpus.
  golden.entries.push_back(
      within("campaign.mean_poi_readout", 0.0, 1e-12,
             {result.mean_poi_readout}));
  std::vector<double> traces, correct, full, lower, upper;
  for (const auto& c : result.checkpoints) {
    traces.push_back(static_cast<double>(c.traces));
    correct.push_back(static_cast<double>(c.correct_bytes));
    full.push_back(c.full_key ? 1.0 : 0.0);
    lower.push_back(c.rank.log2_lower);
    upper.push_back(c.rank.log2_upper);
  }
  golden.entries.push_back(
      exact("campaign.checkpoint.traces", std::move(traces)));
  golden.entries.push_back(
      exact("campaign.checkpoint.correct_bytes", std::move(correct)));
  golden.entries.push_back(
      exact("campaign.checkpoint.full_key", std::move(full)));
  // Rank bounds come from a seeded Monte-Carlo estimator — deterministic
  // today, but the estimator's sample count is not part of the numerical
  // contract; a loose absolute tolerance keeps the corpus pinned to the
  // attack's behavior rather than the estimator's internals.
  golden.entries.push_back(
      within("campaign.checkpoint.rank_log2_lower", 1e-6, 0.0,
             std::move(lower)));
  golden.entries.push_back(
      within("campaign.checkpoint.rank_log2_upper", 1e-6, 0.0,
             std::move(upper)));

  // The record path through the same campaign: 130 full traces streamed
  // into a v2 file (two 64-trace blocks and a ragged 2-trace one), read
  // back and pinned sample for sample with their ciphertexts.
  {
    constexpr std::size_t kRecordTraces = 130;
    util::Rng record_rng(kCorpusSeed ^ 0x7ECull);
    const std::string path =
        (std::filesystem::temp_directory_path() /
         ("leakydsp-golden-" + std::to_string(::getpid()) + ".ldtr"))
            .string();
    {
      sim::TraceStoreWriter writer(path, campaign.trace_samples());
      campaign.record(record_rng, kRecordTraces, writer);
      writer.finish();
    }
    std::vector<double> samples, ciphertexts;
    sim::TraceStoreReader reader(path);
    sim::StoredTrace rec;
    while (reader.next(rec)) {
      samples.insert(samples.end(), rec.samples.begin(), rec.samples.end());
      ciphertexts.insert(ciphertexts.end(), rec.ciphertext.begin(),
                         rec.ciphertext.end());
    }
    std::filesystem::remove(path);
    golden.entries.push_back(
        exact("campaign.record.samples", std::move(samples)));
    golden.entries.push_back(
        exact("campaign.record.ciphertexts", std::move(ciphertexts)));
  }
  return golden;
}

// -------------------------------------------------- generated_die.ldgc

GoldenFile generated_die_corpus() {
  // A mid-size parametric die (no hand-built factory equivalent): 180x180
  // UltraScale+-like, 8 periodic DSP columns at 12 + 22k, BRAM interleaved
  // at 6 + 22k, 2x3 clock regions — pinning the generate_device ->
  // PdnGrid -> sensor -> campaign pipeline on a floorplan that only the
  // spec generator can produce.
  fabric::DeviceSpec spec;
  spec.name = "Golden 180x180";
  spec.arch = fabric::Architecture::kUltraScalePlus;
  spec.width = 180;
  spec.height = 180;
  spec.region_cols = 2;
  spec.region_rows = 3;
  spec.columns.push_back({fabric::SiteType::kDsp, 12, 22});
  spec.columns.push_back({fabric::SiteType::kBram, 6, 22});

  scenario::CellWorldSpec world_spec;
  world_spec.device_spec = spec;
  world_spec.victim_site = {90, 90};   // CLB between the column stripes
  world_spec.sensor_site = {78, 60};   // DSP column 12 + 3*22
  world_spec.cell_seed = kCorpusSeed ^ 0x6E0ull;
  world_spec.campaign.max_traces = 150;
  world_spec.campaign.break_check_stride = 75;
  world_spec.campaign.rank_stride = 150;
  world_spec.campaign.stop_when_broken = false;
  world_spec = scenario::with_generated_die(std::move(world_spec));

  GoldenFile golden;
  {
    auto world = scenario::make_sweep_world(world_spec);
    crypto::Block plaintext{};
    for (std::size_t i = 0; i < plaintext.size(); ++i) {
      plaintext[i] = static_cast<std::uint8_t>(i * 29 + 5);
    }
    golden.entries.push_back(exact(
        "generated.trace",
        world->campaign().generate_trace(plaintext, world->rng())));
  }
  const auto result = scenario::run_sweep_campaign(world_spec, /*threads=*/1);
  golden.entries.push_back(exact(
      "generated.campaign.summary",
      {static_cast<double>(result.traces_to_break),
       result.broken ? 1.0 : 0.0, static_cast<double>(result.traces_run)}));
  // Sweep campaigns keep their final score vectors for fusion; byte 0's
  // 256-guess vector pins that path end to end.
  golden.entries.push_back(exact(
      "generated.cpa.byte0.scores",
      std::vector<double>(result.final_scores.begin(),
                          result.final_scores.begin() + 256)));
  return golden;
}

}  // namespace

std::vector<std::pair<std::string, GoldenFile>> compute_golden_corpus() {
  const sim::Basys3Scenario scenario;
  std::vector<std::pair<std::string, GoldenFile>> corpus;
  corpus.emplace_back("sensors.ldgc", sensor_corpus(scenario));
  corpus.emplace_back("cpa.ldgc", cpa_corpus());
  corpus.emplace_back("campaign.ldgc", campaign_corpus(scenario));
  corpus.emplace_back("generated_die.ldgc", generated_die_corpus());
  return corpus;
}

}  // namespace leakydsp::verify
