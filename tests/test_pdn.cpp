// Tests for the PDN substrate: sparse algebra, CG convergence, the
// preconditioned solver variants and their setup cache, mesh physics
// (superposition, reciprocity, distance decay), droop dynamics and
// transient-vs-static consistency.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "fabric/device.h"
#include "pdn/coupling.h"
#include "pdn/droop_filter.h"
#include "pdn/grid.h"
#include "pdn/solver.h"
#include "pdn/sparse.h"
#include "pdn/transient.h"
#include "util/contracts.h"
#include "util/rng.h"

namespace lp = leakydsp::pdn;
namespace lf = leakydsp::fabric;
namespace lu = leakydsp::util;

// ------------------------------------------------------------------ sparse

TEST(Sparse, AssembleAndMultiply) {
  lp::SparseMatrix m(3);
  m.add(0, 0, 2.0);
  m.add(1, 1, 3.0);
  m.add(2, 2, 4.0);
  m.add(0, 1, 1.0);
  m.add(1, 0, 1.0);
  m.freeze();
  const std::vector<double> x = {1.0, 2.0, 3.0};
  std::vector<double> y(3);
  m.multiply(x, y);
  EXPECT_DOUBLE_EQ(y[0], 4.0);
  EXPECT_DOUBLE_EQ(y[1], 7.0);
  EXPECT_DOUBLE_EQ(y[2], 12.0);
}

TEST(Sparse, DuplicateEntriesSum) {
  lp::SparseMatrix m(2);
  m.add(0, 0, 1.0);
  m.add(0, 0, 2.5);
  m.add(1, 1, 1.0);
  m.freeze();
  EXPECT_DOUBLE_EQ(m.at(0, 0), 3.5);
  EXPECT_DOUBLE_EQ(m.at(0, 1), 0.0);
}

TEST(Sparse, UsageContractsEnforced) {
  lp::SparseMatrix m(2);
  EXPECT_THROW(m.add(2, 0, 1.0), lu::PreconditionError);
  std::vector<double> x(2), y(2);
  EXPECT_THROW(m.multiply(x, y), lu::PreconditionError);  // not frozen
  m.add(0, 0, 1.0);
  m.add(1, 1, 1.0);
  m.freeze();
  EXPECT_THROW(m.add(0, 0, 1.0), lu::PreconditionError);  // frozen
  std::vector<double> bad(3);
  EXPECT_THROW(m.multiply(bad, y), lu::PreconditionError);
}

TEST(Cg, SolvesDiagonalSystem) {
  lp::SparseMatrix m(4);
  for (std::size_t i = 0; i < 4; ++i) m.add(i, i, static_cast<double>(i + 1));
  m.freeze();
  const std::vector<double> b = {1.0, 2.0, 3.0, 4.0};
  std::vector<double> x(4, 0.0);
  const auto res = lp::conjugate_gradient(m, b, x);
  EXPECT_TRUE(res.converged);
  for (std::size_t i = 0; i < 4; ++i) EXPECT_NEAR(x[i], 1.0, 1e-9);
}

TEST(Cg, SolvesLaplacianSystem) {
  // 1-D chain with grounding at both ends: tridiagonal SPD.
  const std::size_t n = 50;
  lp::SparseMatrix m(n);
  for (std::size_t i = 0; i < n; ++i) {
    double diag = 0.0;
    if (i > 0) {
      m.add(i, i - 1, -1.0);
      diag += 1.0;
    }
    if (i + 1 < n) {
      m.add(i, i + 1, -1.0);
      diag += 1.0;
    }
    if (i == 0 || i == n - 1) diag += 10.0;  // ground ties
    m.add(i, i, diag);
  }
  m.freeze();
  std::vector<double> b(n, 0.0);
  b[n / 2] = 1.0;
  std::vector<double> x(n, 0.0);
  const auto res = lp::conjugate_gradient(m, b, x);
  EXPECT_TRUE(res.converged);
  // Residual check: ||Ax - b|| small.
  std::vector<double> ax(n);
  m.multiply(x, ax);
  double err = 0.0;
  for (std::size_t i = 0; i < n; ++i) err += (ax[i] - b[i]) * (ax[i] - b[i]);
  EXPECT_LT(std::sqrt(err), 1e-8);
  // Physically: peak at the injection, decaying outward.
  EXPECT_GT(x[n / 2], x[n / 2 + 5]);
  EXPECT_GT(x[n / 2 + 5], x[n - 1]);
}

TEST(Sparse, DiagonalCachedMatchesAt) {
  lu::Rng rng(41);
  const std::size_t n = 23;
  lp::SparseMatrix m(n);
  for (std::size_t i = 0; i < n; ++i) {
    if (i != 7) m.add(i, i, 1.0 + static_cast<double>(rng() % 100));
    if (i + 1 < n) m.add(i, i + 1, -0.25);
  }
  m.freeze();
  const auto diag = m.diagonal();
  ASSERT_EQ(diag.size(), n);
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_DOUBLE_EQ(diag[i], m.at(i, i)) << "row " << i;
  }
  EXPECT_DOUBLE_EQ(diag[7], 0.0);  // structurally absent diagonal
}

// ------------------------------------------------------------- pdn solver

namespace {

// Max relative (inf-norm) deviation of `x` from the plain Jacobi-CG
// reference solution of G x = rhs at the production tolerance.
double deviation_from_reference(const lp::SparseMatrix& g,
                                const std::vector<double>& rhs,
                                const std::vector<double>& x) {
  std::vector<double> ref(g.size(), 0.0);
  const auto res = lp::conjugate_gradient(g, rhs, ref, 1e-12);
  EXPECT_TRUE(res.converged);
  double diff = 0.0;
  double scale = 0.0;
  for (std::size_t i = 0; i < g.size(); ++i) {
    diff = std::max(diff, std::abs(x[i] - ref[i]));
    scale = std::max(scale, std::abs(ref[i]));
  }
  return diff / std::max(scale, 1e-30);
}

}  // namespace

TEST(PdnSolver, ResolveSelectsKind) {
  using lp::SolverContext;
  using lp::SolverKind;
  EXPECT_EQ(SolverContext::resolve(SolverKind::kAuto, 15, 15, 16384),
            SolverKind::kPcgIc0);
  EXPECT_EQ(SolverContext::resolve(SolverKind::kAuto, 150, 150, 16384),
            SolverKind::kTwoGrid);
  EXPECT_EQ(SolverContext::resolve(SolverKind::kAuto, 4, 4, 16),
            SolverKind::kTwoGrid);
  // Degenerate strips cannot coarsen: forced two-grid degrades to IC(0).
  EXPECT_EQ(SolverContext::resolve(SolverKind::kTwoGrid, 1, 40, 0),
            SolverKind::kPcgIc0);
  EXPECT_EQ(SolverContext::resolve(SolverKind::kTwoGrid, 40, 2, 0),
            SolverKind::kPcgIc0);
  EXPECT_EQ(SolverContext::resolve(SolverKind::kReferenceCg, 99, 99, 0),
            SolverKind::kReferenceCg);
}

TEST(PdnSolver, AutoThresholdSwitchesToTwoGrid) {
  lp::PdnParams low;
  low.two_grid_threshold = 64;
  const lp::PdnGrid coarse_capable(10, 10, low);
  EXPECT_EQ(coarse_capable.solver_context().resolved_kind(),
            lp::SolverKind::kTwoGrid);
  const lp::PdnGrid below(10, 10, lp::PdnParams{});
  EXPECT_EQ(below.solver_context().resolved_kind(), lp::SolverKind::kPcgIc0);
}

TEST(PdnSolver, VariantsAgreeWithReferenceOnRandomShapes) {
  lu::Rng rng(57);
  const lp::SolverKind kinds[] = {lp::SolverKind::kPcgIc0,
                                  lp::SolverKind::kTwoGrid};
  for (int trial = 0; trial < 6; ++trial) {
    const int nx = 1 + static_cast<int>(rng() % 24);
    const int ny = 1 + static_cast<int>(rng() % 24);
    for (const lp::SolverKind kind : kinds) {
      lp::PdnParams p;
      p.solver = kind;
      const lp::PdnGrid grid(nx, ny, p);
      std::vector<lp::CurrentInjection> draws;
      std::vector<double> rhs(grid.node_count(), 0.0);
      for (int d = 0; d < 4; ++d) {
        const std::size_t node = rng() % grid.node_count();
        const double current = 0.1 + 0.1 * static_cast<double>(d);
        draws.push_back({node, current});
        rhs[node] += current;
      }
      const auto droop = grid.dc_droop(draws);
      EXPECT_LT(deviation_from_reference(grid.conductance(), rhs, droop),
                1e-7)
          << nx << "x" << ny << " " << lp::to_string(kind);
    }
  }
}

TEST(PdnSolver, DegenerateShapesAndAllPadRowsAgree) {
  // 1xN / Nx1 strips (two-grid must degrade, IC(0) must still factor) and
  // stride-1 pads (every bottom/top node padded).
  struct Shape {
    int nx, ny;
  };
  const Shape shapes[] = {{1, 1}, {1, 37}, {37, 1}, {2, 2}, {3, 19}};
  for (const auto& s : shapes) {
    for (const lp::SolverKind kind :
         {lp::SolverKind::kPcgIc0, lp::SolverKind::kTwoGrid}) {
      lp::PdnParams p;
      p.solver = kind;
      p.bottom_pad_stride = 1;
      p.top_pad_stride = 1;
      const lp::PdnGrid grid(s.nx, s.ny, p);
      std::vector<double> rhs(grid.node_count(), 0.0);
      rhs[grid.node_count() / 2] = 1.0;
      const auto droop = grid.dc_droop(
          std::vector<lp::CurrentInjection>{{grid.node_count() / 2, 1.0}});
      EXPECT_LT(deviation_from_reference(grid.conductance(), rhs, droop),
                1e-7)
          << s.nx << "x" << s.ny << " " << lp::to_string(kind);
    }
  }
}

TEST(PdnSolver, Ic0DoesNotFallBackOnMeshSystems) {
  // The mesh Laplacian is an M-matrix, so IC(0) builds without throwing.
  for (const int dim : {1, 2, 7, 30}) {
    lp::PdnParams p;
    p.solver = lp::SolverKind::kPcgIc0;
    EXPECT_NO_THROW({
      const lp::PdnGrid grid(dim, dim, p);
      EXPECT_EQ(grid.solver_context().resolved_kind(),
                lp::SolverKind::kPcgIc0);
    }) << dim;
  }
}

TEST(PdnSolver, Ic0BreakdownOnNonMMatrixThrowsSolverError) {
  // An SPD matrix on the 3x3 five-point stencil whose mixed-sign
  // off-diagonals make the IC(0) pivot of the last row go negative: not an
  // M-matrix, so incomplete Cholesky is not guaranteed to exist.
  constexpr double kDiag[9] = {6, 3, 5, 3, 6, 4, 2, 3, 6};
  struct Edge {
    std::size_t i, j;
    double v;
  };
  constexpr Edge kEdges[] = {{0, 1, 1},  {0, 3, -1}, {1, 2, -3}, {1, 4, 1},
                             {2, 5, -1}, {3, 4, 3},  {3, 6, 1},  {4, 5, 1},
                             {4, 7, 1},  {5, 8, -2}, {6, 7, -2}, {7, 8, -1}};
  lp::SparseMatrix a(9);
  for (std::size_t i = 0; i < 9; ++i) a.add(i, i, kDiag[i]);
  for (const Edge& e : kEdges) {
    a.add(e.i, e.j, e.v);
    a.add(e.j, e.i, e.v);
  }
  a.freeze();

  // SPD: the unpreconditioned reference CG converges on it.
  const lp::SolverContext reference(a, 3, 3, lp::SolverKind::kReferenceCg);
  const std::vector<double> b = {1, -2, 3, 0.5, 1, -1, 2, 0, 1};
  std::vector<double> x(9, 0.0);
  EXPECT_TRUE(reference.solve(a, b, x).converged);

  EXPECT_THROW(lp::SolverContext(a, 3, 3, lp::SolverKind::kPcgIc0),
               lp::SolverError);
}

TEST(PdnSolver, PreconditioningReducesIterations) {
  lp::PdnParams ref;
  ref.solver = lp::SolverKind::kReferenceCg;
  lp::PdnParams pcg;
  pcg.solver = lp::SolverKind::kPcgIc0;
  const lp::PdnGrid grid_ref(40, 40, ref);
  const lp::PdnGrid grid_pcg(40, 40, pcg);
  const std::vector<lp::CurrentInjection> draws = {
      {grid_ref.node_index(20, 20), 1.0}};
  std::vector<double> a(grid_ref.node_count(), 0.0);
  std::vector<double> b(grid_ref.node_count(), 0.0);
  const auto res_ref = grid_ref.dc_droop_into(draws, a);
  const auto res_pcg = grid_pcg.dc_droop_into(draws, b);
  EXPECT_TRUE(res_ref.converged);
  EXPECT_TRUE(res_pcg.converged);
  EXPECT_LT(res_pcg.iterations * 2, res_ref.iterations)
      << "IC(0) should cut iterations well below half of plain CG";
}

TEST(PdnSolver, WarmStartConvergesFasterAndAgrees) {
  lp::PdnParams p;
  p.solver = lp::SolverKind::kPcgIc0;
  const lp::PdnGrid grid(30, 30, p);
  std::vector<lp::CurrentInjection> draws = {{grid.node_index(7, 21), 1.0},
                                             {grid.node_index(22, 4), 0.5}};
  std::vector<double> droop(grid.node_count(), 0.0);
  const auto cold = grid.dc_droop_into(draws, droop, /*warm_start=*/false);
  ASSERT_TRUE(cold.converged);

  // Small perturbation: the previous solution is an excellent guess.
  for (auto& d : draws) d.current *= 1.01;
  const auto warm = grid.dc_droop_into(draws, droop, /*warm_start=*/true);
  ASSERT_TRUE(warm.converged);
  EXPECT_LT(warm.iterations, cold.iterations);

  std::vector<double> rhs(grid.node_count(), 0.0);
  for (const auto& d : draws) rhs[d.node] += d.current;
  EXPECT_LT(deviation_from_reference(grid.conductance(), rhs, droop), 1e-7);
}

TEST(PdnSolver, TopologyKeyDistinguishesShapes) {
  const lp::PdnGrid a(12, 9, lp::PdnParams{});
  const lp::PdnGrid b(12, 9, lp::PdnParams{});
  const lp::PdnGrid c(9, 12, lp::PdnParams{});
  lp::PdnParams stiffer;
  stiffer.pad_conductance = 80.0;
  const lp::PdnGrid d(12, 9, stiffer);
  EXPECT_EQ(a.topology_key(), b.topology_key());
  EXPECT_FALSE(a.topology_key() == c.topology_key());
  EXPECT_FALSE(a.topology_key() == d.topology_key());
}

TEST(PdnSolver, ContextCacheSharedAcrossIdenticalGrids) {
  lp::SolverContext::clear_cache();
  const auto before = lp::SolverContext::cache_stats();
  const lp::PdnGrid a(12, 9, lp::PdnParams{});
  const auto mid = lp::SolverContext::cache_stats();
  EXPECT_EQ(mid.misses - before.misses, 1u);
  const lp::PdnGrid b(12, 9, lp::PdnParams{});
  const auto after = lp::SolverContext::cache_stats();
  EXPECT_EQ(after.hits - mid.hits, 1u);
  EXPECT_EQ(after.misses, mid.misses);
  // Same setup object, not merely equivalent ones.
  EXPECT_EQ(&a.solver_context(), &b.solver_context());
}

// -------------------------------------------------------------------- grid

class PdnGridTest : public ::testing::Test {
 protected:
  lf::Device dev_ = lf::Device::basys3();
  lp::PdnGrid grid_{dev_};
};

TEST_F(PdnGridTest, MeshDimensions) {
  EXPECT_EQ(grid_.nodes_x(), 15);
  EXPECT_EQ(grid_.nodes_y(), 15);
  EXPECT_EQ(grid_.node_count(), 225u);
  EXPECT_GT(grid_.pad_count(), 10u);
}

TEST_F(PdnGridTest, PadCountMatchesIsPad) {
  std::size_t manual = 0;
  for (std::size_t n = 0; n < grid_.node_count(); ++n) {
    if (grid_.is_pad(n)) ++manual;
  }
  EXPECT_EQ(grid_.pad_count(), manual);
}

TEST_F(PdnGridTest, SiteToNodeMapping) {
  EXPECT_EQ(grid_.node_of_site({0, 0}), grid_.node_index(0, 0));
  EXPECT_EQ(grid_.node_of_site({3, 3}), grid_.node_index(0, 0));
  EXPECT_EQ(grid_.node_of_site({4, 0}), grid_.node_index(1, 0));
  EXPECT_EQ(grid_.node_of_site({59, 59}), grid_.node_index(14, 14));
}

TEST_F(PdnGridTest, DroopPositiveAndPeaksAtSource) {
  const std::size_t src = grid_.node_index(7, 7);
  const std::vector<lp::CurrentInjection> draws = {{src, 1.0}};
  const auto droop = grid_.dc_droop(draws);
  for (std::size_t i = 0; i < droop.size(); ++i) {
    EXPECT_GT(droop[i], 0.0) << "node " << i;
    if (i != src) {
      EXPECT_LT(droop[i], droop[src]);
    }
  }
}

TEST_F(PdnGridTest, DroopDecaysWithDistance) {
  const std::size_t src = grid_.node_index(7, 7);
  const auto droop = grid_.dc_droop(
      std::vector<lp::CurrentInjection>{{src, 1.0}});
  const double near = droop[grid_.node_index(8, 7)];
  const double mid = droop[grid_.node_index(11, 7)];
  const double far = droop[grid_.node_index(14, 7)];
  EXPECT_GT(near, mid);
  EXPECT_GT(mid, far);
}

TEST_F(PdnGridTest, SuperpositionHolds) {
  // Linearity: droop(a + b) == droop(a) + droop(b).
  const std::vector<lp::CurrentInjection> a = {{grid_.node_index(3, 3), 2.0}};
  const std::vector<lp::CurrentInjection> b = {{grid_.node_index(10, 10), 1.5}};
  std::vector<lp::CurrentInjection> both = a;
  both.insert(both.end(), b.begin(), b.end());
  const auto da = grid_.dc_droop(a);
  const auto db = grid_.dc_droop(b);
  const auto dboth = grid_.dc_droop(both);
  for (std::size_t i = 0; i < dboth.size(); ++i) {
    EXPECT_NEAR(dboth[i], da[i] + db[i], 1e-9);
  }
}

TEST_F(PdnGridTest, ReciprocityHolds) {
  // Gain from j to s equals gain from s to j: the property that lets one CG
  // solve produce the whole transfer vector.
  const std::size_t s = grid_.node_index(2, 12);
  const std::size_t j = grid_.node_index(12, 3);
  const auto gains_s = grid_.transfer_gains(s);
  const auto gains_j = grid_.transfer_gains(j);
  EXPECT_NEAR(gains_s[j], gains_j[s], 1e-10);
}

TEST_F(PdnGridTest, TransferGainsMatchDcSolve) {
  const std::size_t s = grid_.node_index(5, 9);
  const auto gains = grid_.transfer_gains(s);
  const std::size_t src = grid_.node_index(13, 2);
  const auto droop = grid_.dc_droop(
      std::vector<lp::CurrentInjection>{{src, 3.0}});
  EXPECT_NEAR(droop[s], gains[src] * 3.0, 1e-9);
}

TEST_F(PdnGridTest, PadLayoutIsAsymmetric) {
  // The bottom edge carries more pads than the top: droop from the same
  // current is larger in the top half (weaker supply).
  const auto top_droop = grid_.dc_droop(
      std::vector<lp::CurrentInjection>{{grid_.node_index(7, 13), 1.0}});
  const auto bottom_droop = grid_.dc_droop(
      std::vector<lp::CurrentInjection>{{grid_.node_index(7, 1), 1.0}});
  EXPECT_GT(top_droop[grid_.node_index(7, 13)],
            bottom_droop[grid_.node_index(7, 1)]);
}

TEST_F(PdnGridTest, InvalidInputsThrow) {
  EXPECT_THROW(grid_.node_index(15, 0), lu::PreconditionError);
  EXPECT_THROW(grid_.transfer_gains(grid_.node_count()),
               lu::PreconditionError);
  const std::vector<lp::CurrentInjection> bad = {{grid_.node_count(), 1.0}};
  EXPECT_THROW(grid_.dc_droop(bad), lu::PreconditionError);
}

// ---------------------------------------------------------------- coupling

TEST_F(PdnGridTest, CouplingMatchesTransferGains) {
  const lf::SiteCoord sensor{16, 10};
  const lp::SensorCoupling coupling(grid_, sensor);
  const auto gains = grid_.transfer_gains(grid_.node_of_site(sensor));
  EXPECT_EQ(coupling.gains(), gains);
  EXPECT_DOUBLE_EQ(coupling.gain_at({40, 40}),
                   gains[grid_.node_of_site({40, 40})]);
  const std::vector<lp::CurrentInjection> draws = {
      {grid_.node_index(4, 4), 2.0}, {grid_.node_index(9, 9), 1.0}};
  EXPECT_NEAR(coupling.droop_for(draws),
              2.0 * gains[grid_.node_index(4, 4)] +
                  1.0 * gains[grid_.node_index(9, 9)],
              1e-12);
}

TEST_F(PdnGridTest, NearbyCouplingStrongerThanFar) {
  const lf::SiteCoord victim{16, 10};
  const lp::SensorCoupling near_coupling(grid_, {20, 10});
  const lp::SensorCoupling far_coupling(grid_, {52, 50});
  EXPECT_GT(near_coupling.gain_at(victim), far_coupling.gain_at(victim));
}

// -------------------------------------------------------------- transient

TEST_F(PdnGridTest, TransientSettlesToDcSolution) {
  lp::TransientSolver solver(grid_, 3.2e-5, /*step_ns=*/10.0);
  const std::size_t src = grid_.node_index(7, 7);
  const std::vector<lp::CurrentInjection> draws = {{src, 1.0}};
  // Global equilibration across the mesh is diffusive and much slower than
  // the local droop time constant; run well past it.
  solver.run(draws, 5000);  // 50 us
  const auto dc = grid_.dc_droop(draws);
  for (const std::size_t probe :
       {src, grid_.node_index(3, 3), grid_.node_index(12, 12)}) {
    EXPECT_NEAR(solver.droop(probe), dc[probe], 0.02 * dc[src] + 1e-9)
        << "node " << probe;
  }
}

TEST_F(PdnGridTest, TransientStartsAtZeroAndRises) {
  lp::TransientSolver solver(grid_);
  const std::size_t src = grid_.node_index(7, 7);
  EXPECT_DOUBLE_EQ(solver.droop(src), 0.0);
  const std::vector<lp::CurrentInjection> draws = {{src, 1.0}};
  solver.step(draws);
  const double after_one = solver.droop(src);
  EXPECT_GT(after_one, 0.0);
  solver.run(draws, 20);
  EXPECT_GT(solver.droop(src), after_one);
}

TEST_F(PdnGridTest, TransientUnstableStepRejected) {
  EXPECT_THROW(lp::TransientSolver(grid_, 3.2e-5, /*step_ns=*/100.0),
               lu::PreconditionError);
}

TEST_F(PdnGridTest, TransientStabilityBoundTracksDiagonal) {
  // The ctor enforces dt_s < C / max_diag with max_diag from the cached
  // diagonal; pin the boundary from both sides.
  double max_diag = 0.0;
  for (const double d : grid_.conductance().diagonal()) {
    max_diag = std::max(max_diag, d);
  }
  const double cap = 3.2e-5;
  const double limit_ns = cap / max_diag * 1e9;
  EXPECT_NO_THROW(lp::TransientSolver(grid_, cap, limit_ns * 0.999));
  EXPECT_THROW(lp::TransientSolver(grid_, cap, limit_ns * 1.001),
               lu::PreconditionError);
}

TEST_F(PdnGridTest, SettleJumpsToDcSolution) {
  lp::TransientSolver solver(grid_);
  const std::vector<lp::CurrentInjection> draws = {
      {grid_.node_index(7, 7), 1.0}, {grid_.node_index(2, 11), 0.4}};
  // Partially relax first so settle() starts from a nontrivial state.
  solver.run(draws, 50);
  const auto cold = solver.settle(draws);
  EXPECT_TRUE(cold.converged);
  const auto dc = grid_.dc_droop(draws);
  for (std::size_t i = 0; i < dc.size(); ++i) {
    EXPECT_NEAR(solver.droop(i), dc[i], 1e-9) << "node " << i;
  }
  // Settling again from the settled state is (near) free.
  const auto again = solver.settle(draws);
  EXPECT_TRUE(again.converged);
  EXPECT_LE(again.iterations, 1u);
}

// ------------------------------------------------------------ droop filter

TEST(DroopFilter, UnitDcGain) {
  lp::DroopFilter filter(lp::DroopDynamics{}, 3.333);
  double out = 0.0;
  for (int i = 0; i < 3000; ++i) out = filter.step(1.0);
  EXPECT_NEAR(out, 1.0, 1e-6);
}

TEST(DroopFilter, UnderdampedOvershoot) {
  lp::DroopFilter filter(lp::DroopDynamics{25.0, 0.35}, 1.0);
  double peak = 0.0;
  for (int i = 0; i < 200; ++i) peak = std::max(peak, filter.step(1.0));
  EXPECT_GT(peak, 1.05);  // zeta=0.35 overshoots ~30%
  EXPECT_LT(peak, 1.6);
}

TEST(DroopFilter, ZeroInputStaysZero) {
  lp::DroopFilter filter(lp::DroopDynamics{}, 1.0);
  for (int i = 0; i < 100; ++i) EXPECT_DOUBLE_EQ(filter.step(0.0), 0.0);
}

TEST(DroopFilter, ResetClearsState) {
  lp::DroopFilter filter(lp::DroopDynamics{}, 1.0);
  for (int i = 0; i < 50; ++i) filter.step(1.0);
  filter.reset();
  EXPECT_DOUBLE_EQ(filter.step(0.0), 0.0);
}

TEST(DroopFilter, FasterClockTracksSlowerDynamics) {
  // Response after a fixed physical time should not depend strongly on the
  // sample rate (discretization consistency).
  lp::DroopFilter fast(lp::DroopDynamics{}, 1.0);
  lp::DroopFilter slow(lp::DroopDynamics{}, 5.0);
  double out_fast = 0.0;
  for (int i = 0; i < 100; ++i) out_fast = fast.step(1.0);  // 100 ns
  double out_slow = 0.0;
  for (int i = 0; i < 20; ++i) out_slow = slow.step(1.0);  // 100 ns
  EXPECT_NEAR(out_fast, out_slow, 0.05);
}

TEST(DroopFilter, InvalidParamsThrow) {
  EXPECT_THROW(lp::DroopFilter(lp::DroopDynamics{-1.0, 0.3}, 1.0),
               lu::PreconditionError);
  EXPECT_THROW(lp::DroopFilter(lp::DroopDynamics{}, 0.0),
               lu::PreconditionError);
}

// ------------------------------------------------------------ ambient noise

TEST(AmbientNoise, StationaryVariance) {
  lu::Rng rng(77);
  lp::AmbientNoise noise(0.4e-3, 50.0, 3.333);
  double sum_sq = 0.0;
  const int n = 200000;
  for (int i = 0; i < 2000; ++i) noise.step(rng);  // warm up
  for (int i = 0; i < n; ++i) {
    const double v = noise.step(rng);
    sum_sq += v * v;
  }
  EXPECT_NEAR(std::sqrt(sum_sq / n), 0.4e-3, 0.03e-3);
}

TEST(AmbientNoise, TemporalCorrelation) {
  lu::Rng rng(78);
  lp::AmbientNoise noise(1.0, 50.0, 3.333);
  double prev = noise.step(rng);
  double corr = 0.0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) {
    const double cur = noise.step(rng);
    corr += prev * cur;
    prev = cur;
  }
  corr /= n;
  EXPECT_NEAR(corr, noise.rho(), 0.02);  // unit variance: E[x x'] = rho
  EXPECT_GT(noise.rho(), 0.9);           // 50 ns correlation at 3.3 ns steps
}

TEST(AmbientNoise, ZeroSigmaIsSilent) {
  lu::Rng rng(79);
  lp::AmbientNoise noise(0.0, 50.0, 1.0);
  for (int i = 0; i < 100; ++i) EXPECT_DOUBLE_EQ(noise.step(rng), 0.0);
}
