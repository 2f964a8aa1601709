#include "pdn/coupling.h"

#include <utility>

#include "util/contracts.h"

namespace leakydsp::pdn {

SharedGains solve_gains(const PdnGrid& grid, fabric::SiteCoord sensor_site) {
  return std::make_shared<const std::vector<double>>(
      grid.transfer_gains(grid.node_of_site(sensor_site)));
}

SensorCoupling::SensorCoupling(const PdnGrid& grid,
                               fabric::SiteCoord sensor_site)
    : SensorCoupling(grid, sensor_site, solve_gains(grid, sensor_site)) {}

SensorCoupling::SensorCoupling(const PdnGrid& grid,
                               fabric::SiteCoord sensor_site,
                               SharedGains gains)
    : grid_(grid),
      sensor_site_(sensor_site),
      sensor_node_(grid.node_of_site(sensor_site)),
      gains_(std::move(gains)) {
  LD_REQUIRE(gains_ != nullptr && gains_->size() == grid.node_count(),
             "transfer gains sized " << (gains_ ? gains_->size() : 0)
                                     << " for a " << grid.node_count()
                                     << "-node mesh");
}

double SensorCoupling::gain_at(fabric::SiteCoord site) const {
  return (*gains_)[grid_.node_of_site(site)];
}

double SensorCoupling::gain_at_node(std::size_t node) const {
  LD_REQUIRE(node < gains_->size(), "node " << node << " out of range");
  return (*gains_)[node];
}

double SensorCoupling::droop_for(
    std::span<const CurrentInjection> draws) const {
  const std::vector<double>& gains = *gains_;
  double droop = 0.0;
  for (const auto& d : draws) {
    LD_REQUIRE(d.node < gains.size(), "draw at unknown node " << d.node);
    droop += gains[d.node] * d.current;
  }
  return droop;
}

}  // namespace leakydsp::pdn
