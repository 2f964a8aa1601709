// Differential oracles for the preconditioned PDN solvers:
//   - pdn.pcg_vs_cg: the IC(0) PCG path vs the plain Jacobi-CG
//     reference on randomized grid shapes — including 1xN degenerate strips
//     and all-pad rows — for multi-draw droop maps, unit-RHS transfer
//     gains, and a warm-started re-solve against a perturbed draw map.
//   - pdn.twogrid_vs_cg: the geometric two-grid hierarchy forced on
//     (coarsenable) randomized meshes, same agreement contract.
//
// Both solvers run at the production tolerance (1e-12 relative residual);
// agreement with the reference is checked in the solution (relative
// inf-norm) and through the true residual of the optimized path.
#include <algorithm>
#include <cmath>
#include <sstream>
#include <vector>

#include "pdn/grid.h"
#include "pdn/solver.h"
#include "pdn/sparse.h"
#include "verify/oracle.h"

namespace leakydsp::verify {

namespace {

struct PdnSolverConfig {
  std::int64_t nx = 4;
  std::int64_t ny = 4;
  std::int64_t bottom_stride = 2;
  std::int64_t top_stride = 5;
  std::int64_t draws = 3;
  std::uint64_t seed = 0;
};

std::string describe_pdn(const PdnSolverConfig& c) {
  std::ostringstream oss;
  oss << "{nx=" << c.nx << " ny=" << c.ny << " bottom_stride="
      << c.bottom_stride << " top_stride=" << c.top_stride
      << " draws=" << c.draws << " seed=" << c.seed
      << "}";
  return oss.str();
}

std::vector<PdnSolverConfig> shrink_pdn(const PdnSolverConfig& c,
                                        std::int64_t min_dim) {
  std::vector<PdnSolverConfig> out;
  for (const std::int64_t nx : shrink_int(c.nx, min_dim)) {
    PdnSolverConfig s = c;
    s.nx = nx;
    out.push_back(s);
  }
  for (const std::int64_t ny : shrink_int(c.ny, min_dim)) {
    PdnSolverConfig s = c;
    s.ny = ny;
    out.push_back(s);
  }
  for (const std::int64_t draws : shrink_int(c.draws, 0)) {
    PdnSolverConfig s = c;
    s.draws = draws;
    out.push_back(s);
  }
  return out;
}

pdn::PdnParams params_for(const PdnSolverConfig& c, pdn::SolverKind solver) {
  pdn::PdnParams p;
  p.bottom_pad_stride = static_cast<int>(c.bottom_stride);
  p.top_pad_stride = static_cast<int>(c.top_stride);
  p.solver = solver;
  return p;
}

std::vector<pdn::CurrentInjection> gen_draws(util::Rng& rng, std::size_t n,
                                             std::size_t count) {
  std::vector<pdn::CurrentInjection> draws(count);
  for (auto& d : draws) {
    d.node = static_cast<std::size_t>(rng.uniform_u64(n));
    d.current = rng.uniform(0.05, 0.5);
  }
  return draws;
}

double rel_inf_diff(std::span<const double> a, std::span<const double> b) {
  double diff = 0.0;
  double scale = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    diff = std::max(diff, std::abs(a[i] - b[i]));
    scale = std::max(scale, std::abs(b[i]));
  }
  return diff / std::max(scale, 1e-30);
}

double rel_residual(const pdn::SparseMatrix& a, std::span<const double> b,
                    std::span<const double> x) {
  std::vector<double> ax(a.size());
  a.multiply(x, ax);
  double rn = 0.0;
  double bn = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    rn += (b[i] - ax[i]) * (b[i] - ax[i]);
    bn += b[i] * b[i];
  }
  return std::sqrt(rn) / std::max(std::sqrt(bn), 1e-300);
}

// Agreement bound: both paths converge to 1e-12 relative residual, and the
// forward error is the residual amplified by the system's conditioning, so
// the solutions must agree far tighter than 1e-7 on these mesh sizes.
constexpr double kAgree = 1e-7;
// The preconditioned recurrence tracks the true residual to rounding; 100x
// slack over the 1e-12 stopping threshold absorbs the drift.
constexpr double kResidual = 1e-10;

CheckOutcome check_against_reference(const pdn::PdnGrid& grid,
                                     const PdnSolverConfig& c,
                                     pdn::SolverKind expected) {
  const std::size_t n = grid.node_count();
  if (grid.solver_context().resolved_kind() != expected) {
    std::ostringstream oss;
    oss << "context resolved to "
        << pdn::to_string(grid.solver_context().resolved_kind())
        << ", expected " << pdn::to_string(expected)
        << " (IC(0) must not break down on the SPD mesh system)";
    return fail(oss.str());
  }

  util::Rng rng(c.seed);
  const auto draws =
      gen_draws(rng, n, static_cast<std::size_t>(c.draws));

  // Droop map: optimized path vs the plain Jacobi-CG reference.
  std::vector<double> rhs(n, 0.0);
  for (const auto& d : draws) rhs[d.node] += d.current;
  const auto droop = grid.dc_droop(draws);
  std::vector<double> ref(n, 0.0);
  const auto ref_result =
      pdn::conjugate_gradient(grid.conductance(), rhs, ref, 1e-12);
  if (!ref_result.converged) return fail("reference CG did not converge");
  if (const double d = rel_inf_diff(droop, ref); d > kAgree) {
    std::ostringstream oss;
    oss << "dc_droop diverges from reference CG: rel inf diff " << d;
    return fail(oss.str());
  }
  if (const double r = rel_residual(grid.conductance(), rhs, droop);
      r > kResidual) {
    std::ostringstream oss;
    oss << "dc_droop true residual " << r << " above " << kResidual;
    return fail(oss.str());
  }

  // Unit RHS (the transfer-gain cold-start fast path).
  const std::size_t sensor = static_cast<std::size_t>(rng.uniform_u64(n));
  const auto gains = grid.transfer_gains(sensor);
  std::vector<double> unit(n, 0.0);
  unit[sensor] = 1.0;
  std::vector<double> gains_ref(n, 0.0);
  pdn::conjugate_gradient(grid.conductance(), unit, gains_ref, 1e-12);
  if (const double d = rel_inf_diff(gains, gains_ref); d > kAgree) {
    std::ostringstream oss;
    oss << "transfer_gains diverges from reference CG: rel inf diff " << d;
    return fail(oss.str());
  }

  // Warm start: perturb the draws, re-solve seeded from the previous
  // solution, and demand the same agreement as a cold solve.
  auto perturbed = draws;
  for (auto& d : perturbed) d.current *= rng.uniform(0.8, 1.2);
  perturbed.push_back({static_cast<std::size_t>(rng.uniform_u64(n)), 0.1});
  std::vector<double> warm(droop.begin(), droop.end());
  const auto warm_result =
      grid.dc_droop_into(perturbed, warm, /*warm_start=*/true);
  if (!warm_result.converged) return fail("warm-started solve did not "
                                          "converge");
  std::vector<double> rhs2(n, 0.0);
  for (const auto& d : perturbed) rhs2[d.node] += d.current;
  std::vector<double> ref2(n, 0.0);
  pdn::conjugate_gradient(grid.conductance(), rhs2, ref2, 1e-12);
  if (const double d = rel_inf_diff(warm, ref2); d > kAgree) {
    std::ostringstream oss;
    oss << "warm-started dc_droop_into diverges from reference CG: rel inf "
           "diff "
        << d;
    return fail(oss.str());
  }
  return pass();
}

Property<PdnSolverConfig> pcg_property() {
  Property<PdnSolverConfig> prop;
  prop.name = "pdn.pcg_vs_cg";
  prop.generate = [](util::Rng& rng) {
    PdnSolverConfig c;
    // Down to 1xN strips; stride 1 produces all-pad rows.
    c.nx = gen_int(rng, 1, 32);
    c.ny = gen_int(rng, 1, 32);
    c.bottom_stride = gen_int(rng, 1, 4);
    c.top_stride = gen_int(rng, 1, 6);
    c.draws = gen_int(rng, 0, 8);
    c.seed = rng();
    return c;
  };
  prop.shrink = [](const PdnSolverConfig& c) { return shrink_pdn(c, 1); };
  prop.describe = describe_pdn;
  prop.check = [](const PdnSolverConfig& c) -> CheckOutcome {
    const pdn::PdnGrid grid(static_cast<int>(c.nx), static_cast<int>(c.ny),
                            params_for(c, pdn::SolverKind::kPcgIc0));
    return check_against_reference(grid, c, pdn::SolverKind::kPcgIc0);
  };
  return prop;
}

Property<PdnSolverConfig> twogrid_property() {
  Property<PdnSolverConfig> prop;
  prop.name = "pdn.twogrid_vs_cg";
  prop.generate = [](util::Rng& rng) {
    PdnSolverConfig c;
    // >= 3 per axis so the mesh is coarsenable and the hierarchy actually
    // engages (resolve() would silently degrade 1xN to IC(0)).
    c.nx = gen_int(rng, 3, 48);
    c.ny = gen_int(rng, 3, 48);
    c.bottom_stride = gen_int(rng, 1, 4);
    c.top_stride = gen_int(rng, 1, 6);
    c.draws = gen_int(rng, 0, 8);
    c.seed = rng();
    return c;
  };
  prop.shrink = [](const PdnSolverConfig& c) { return shrink_pdn(c, 3); };
  prop.describe = describe_pdn;
  prop.check = [](const PdnSolverConfig& c) -> CheckOutcome {
    const pdn::PdnGrid grid(static_cast<int>(c.nx), static_cast<int>(c.ny),
                            params_for(c, pdn::SolverKind::kTwoGrid));
    return check_against_reference(grid, c, pdn::SolverKind::kTwoGrid);
  };
  return prop;
}

}  // namespace

void register_pdn_oracles(std::vector<Oracle>& out) {
  out.push_back(make_oracle(
      "IC(0) preconditioned CG vs the plain Jacobi-CG reference on "
      "randomized meshes (incl. 1xN strips and all-pad rows): solutions "
      "within 1e-7 rel inf-norm, true residual within 1e-10, for droop "
      "maps, unit-RHS gains, and warm-started re-solves",
      1, pcg_property()));
  out.push_back(make_oracle(
      "geometric two-grid PCG vs the plain Jacobi-CG reference on "
      "randomized coarsenable meshes: same 1e-7 / 1e-10 agreement contract",
      2, twogrid_property()));
}

}  // namespace leakydsp::verify
