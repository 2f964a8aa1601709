// Multi-tenant simulation engine: several current-drawing tenants with
// independent clocks/schedules share the PDN, observed by one or more
// sensor rigs sampling on the sensor clock. This is the generic composition
// path promised in DESIGN.md — the specialized attack::TraceCampaign loop
// is its flattened single-victim equivalent, and the two are checked
// against each other in the integration tests.
#pragma once

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "pdn/grid.h"
#include "sim/sensor_rig.h"
#include "util/rng.h"

namespace leakydsp::sim {

/// A tenant circuit drawing PDN current over time.
class CurrentSource {
 public:
  virtual ~CurrentSource() = default;

  virtual std::string name() const = 0;

  /// Appends this tenant's draws for the sample interval starting at
  /// `t_ns` to `out`.
  virtual void draws_at(double t_ns, util::Rng& rng,
                        std::vector<pdn::CurrentInjection>& out) = 0;
};

/// A fixed draw at one node, optionally modulated by a callback.
class NodeSource : public CurrentSource {
 public:
  using Modulator = std::function<double(double t_ns, util::Rng& rng)>;

  NodeSource(std::string name, std::size_t node, Modulator current);

  std::string name() const override { return name_; }
  void draws_at(double t_ns, util::Rng& rng,
                std::vector<pdn::CurrentInjection>& out) override;

 private:
  std::string name_;
  std::size_t node_;
  Modulator current_;
};

/// One sensor's readout stream from an engine run.
struct SensorTraceResult {
  std::string sensor_name;
  std::vector<double> readouts;
};

/// The engine: tenants + rigs stepped on the sensor sample clock.
class Engine {
 public:
  explicit Engine(const pdn::PdnGrid& grid);

  /// Registers a tenant; the engine does not own non-unique_ptr rigs.
  void add_source(std::unique_ptr<CurrentSource> source);

  /// Attaches a sensor rig (borrowed; must outlive the engine).
  void add_rig(SensorRig& rig);

  /// Worker threads used to step rigs in run() (0 = hardware concurrency).
  /// Results are identical for every value: each rig samples from its own
  /// forked RNG stream, so the schedule never shows in the readouts.
  void set_threads(std::size_t threads) { threads_ = threads; }
  std::size_t threads() const { return threads_; }

  /// Runs `samples` sensor-clock steps from t = 0, returning one readout
  /// stream per attached rig. Every rig's dynamics are reset first. The
  /// tenants' draw schedule is materialized serially (sources may be
  /// stateful), then the attached rigs consume it in parallel — rig r draws
  /// its sampling noise from rng.fork(r + 1), the sources from rng.fork(0).
  std::vector<SensorTraceResult> run(std::size_t samples, util::Rng& rng);

 private:
  const pdn::PdnGrid& grid_;
  std::vector<std::unique_ptr<CurrentSource>> sources_;
  std::vector<SensorRig*> rigs_;
  std::size_t threads_ = 0;
};

}  // namespace leakydsp::sim
