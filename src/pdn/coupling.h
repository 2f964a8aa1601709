// Per-sensor spatial coupling: the transfer-gain vector of one sensor
// location, with site-level lookup. This is the object victim models and
// sensors share — a victim registers where its current flows, the coupling
// converts aggregate current into static droop at the sensor.
#pragma once

#include <cstddef>
#include <memory>
#include <vector>

#include "fabric/geometry.h"
#include "pdn/grid.h"

namespace leakydsp::pdn {

/// A solved, immutable transfer-gain vector (one entry per mesh node).
/// Couplings at the same sensor node may share one.
using SharedGains = std::shared_ptr<const std::vector<double>>;

/// PdnGrid::transfer_gains for the node covering `sensor_site`, shared.
SharedGains solve_gains(const PdnGrid& grid, fabric::SiteCoord sensor_site);

/// Spatial transfer gains from every die location to one sensor node.
class SensorCoupling {
 public:
  /// Solves the gains of `sensor_site` on `grid`.
  SensorCoupling(const PdnGrid& grid, fabric::SiteCoord sensor_site);

  /// Borrows gains already solved for `sensor_site` on `grid`; their size
  /// must equal grid.node_count().
  SensorCoupling(const PdnGrid& grid, fabric::SiteCoord sensor_site,
                 SharedGains gains);

  fabric::SiteCoord sensor_site() const { return sensor_site_; }
  std::size_t sensor_node() const { return sensor_node_; }

  /// Droop at the sensor per unit current drawn at `site` [V/unit].
  double gain_at(fabric::SiteCoord site) const;

  /// Droop at the sensor per unit current drawn at mesh node `node`.
  double gain_at_node(std::size_t node) const;

  /// Static droop at the sensor for a set of draws [V].
  double droop_for(std::span<const CurrentInjection> draws) const;

  const std::vector<double>& gains() const { return *gains_; }

 private:
  const PdnGrid& grid_;
  fabric::SiteCoord sensor_site_;
  std::size_t sensor_node_;
  SharedGains gains_;
};

}  // namespace leakydsp::pdn
