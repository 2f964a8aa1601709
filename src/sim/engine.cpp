#include "sim/engine.h"

#include <algorithm>
#include <span>

#include "obs/log.h"
#include "obs/metrics.h"
#include "obs/span.h"
#include "util/contracts.h"
#include "util/thread_pool.h"

namespace leakydsp::sim {

NodeSource::NodeSource(std::string name, std::size_t node, Modulator current)
    : name_(std::move(name)), node_(node), current_(std::move(current)) {
  LD_REQUIRE(current_ != nullptr, "NodeSource needs a modulator");
}

void NodeSource::draws_at(double t_ns, util::Rng& rng,
                          std::vector<pdn::CurrentInjection>& out) {
  out.push_back({node_, current_(t_ns, rng)});
}

Engine::Engine(const pdn::PdnGrid& grid) : grid_(grid) {}

void Engine::add_source(std::unique_ptr<CurrentSource> source) {
  LD_REQUIRE(source != nullptr, "null source");
  sources_.push_back(std::move(source));
}

void Engine::add_rig(SensorRig& rig) {
  // Each rig steps its own dynamics state during run(); registering the
  // same one twice would make two "tenants" share mutable state (and race
  // in the parallel stage).
  LD_REQUIRE(std::find(rigs_.begin(), rigs_.end(), &rig) == rigs_.end(),
             "rig already registered with this engine");
  rigs_.push_back(&rig);
}

std::vector<SensorTraceResult> Engine::run(std::size_t samples,
                                           util::Rng& rng) {
  LD_REQUIRE(!rigs_.empty(), "engine has no sensor rigs");
  OBS_LOG(obs::LogLevel::kInfo, "engine", "run started",
          obs::f("samples", samples), obs::f("rigs", rigs_.size()),
          obs::f("sources", sources_.size()));
  util::Rng source_rng = rng.fork(0);
  std::vector<util::Rng> rig_rngs;
  std::vector<SensorTraceResult> results(rigs_.size());
  rig_rngs.reserve(rigs_.size());
  for (std::size_t r = 0; r < rigs_.size(); ++r) {
    rigs_[r]->settle();
    rig_rngs.push_back(rng.fork(r + 1));
    results[r].sensor_name = rigs_[r]->sensor().name();
    results[r].readouts.reserve(samples);
  }

  // Stage 1 (serial): materialize every tenant's draw schedule. Sources
  // may carry state across samples, so they step once, in sample order,
  // from their own forked stream. Flattened layout: sample s owns
  // injections [offsets[s], offsets[s + 1]).
  std::vector<pdn::CurrentInjection> draws;
  std::vector<std::size_t> offsets(samples + 1, 0);
  {
    OBS_SPAN("engine.schedule");
    for (std::size_t s = 0; s < samples; ++s) {
      // All rigs share the sample clock of the first rig (the paper's
      // setup: one attacker tenant, one sample domain).
      const double t_ns =
          static_cast<double>(s) * rigs_.front()->params().sample_period_ns;
      for (auto& src : sources_) src->draws_at(t_ns, source_rng, draws);
      offsets[s + 1] = draws.size();
    }
  }

  // Stage 2 (parallel): every rig consumes the shared schedule with its own
  // dynamics and noise stream. Rigs are distinct objects, so stepping them
  // concurrently shares only the read-only draw schedule.
  util::ThreadPool pool(std::min(
      threads_ == 0 ? util::ThreadPool::hardware_threads() : threads_,
      rigs_.size()));
  pool.parallel_for(rigs_.size(), [&](std::size_t r) {
    OBS_SPAN("engine.rig");
    for (std::size_t s = 0; s < samples; ++s) {
      const std::span<const pdn::CurrentInjection> sample_draws{
          draws.data() + offsets[s], offsets[s + 1] - offsets[s]};
      results[r].readouts.push_back(
          rigs_[r]->sample(sample_draws, rig_rngs[r]));
    }
  });
  OBS_COUNT("engine.samples", samples * rigs_.size());
  return results;
}

}  // namespace leakydsp::sim
