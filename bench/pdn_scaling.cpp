// PDN solver scalability sweep:
//
//   scaling  — iterations and wall time per cold dc-droop solve vs grid
//              size, for every solver variant (plain reference CG, IC(0)
//              PCG, geometric two-grid), plus the one-time
//              preconditioner setup cost
//   repeated — the campaign-shaped workload: K fresh right-hand sides
//              against one frozen topology. The pre-PR path re-ran plain
//              CG per RHS; the cached-context path pays setup once and
//              solves preconditioned
//   warm     — slowly varying draw maps re-solved with the previous
//              solution as the initial guess vs cold starts
//
//   $ ./pdn_scaling [--quick]
//
// Prints a table and writes BENCH_pdn_scaling.json (host metadata + obs
// metrics) into the working directory. Acceptance on this machine class:
// the best preconditioned variant needs >= 5x fewer iterations than plain
// CG on the largest grid, and the repeated-RHS path is >= 3x faster in
// wall time.
#include <chrono>
#include <cstdint>
#include <iostream>
#include <string>
#include <vector>

#include "obs/obs.h"
#include "pdn/grid.h"
#include "pdn/solver.h"
#include "pdn/sparse.h"
#include "util/bench_json.h"
#include "util/cli.h"
#include "util/rng.h"
#include "util/table.h"

using namespace leakydsp;

namespace {

volatile double g_sink = 0.0;

double ms_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - start)
      .count();
}

std::vector<pdn::CurrentInjection> make_draws(util::Rng& rng, std::size_t n,
                                              std::size_t count) {
  std::vector<pdn::CurrentInjection> draws(count);
  for (auto& d : draws) {
    d.node = static_cast<std::size_t>(rng.uniform_u64(n));
    d.current = rng.uniform(0.1, 0.6);
  }
  return draws;
}

int run(int argc, char** argv) {
  const util::Cli cli(argc, argv, {"quick!"}, obs::cli_options());
  const std::string trace_out = obs::apply_cli(cli);
  const bool quick = cli.get_flag("quick");

  util::BenchJson report("pdn_scaling");
  util::Table table(
      {"section", "grid", "variant", "setup_ms", "iters", "solve_ms"});

  const std::vector<int> sizes =
      quick ? std::vector<int>{24, 48} : std::vector<int>{48, 96, 144, 224};
  const pdn::SolverKind variants[] = {
      pdn::SolverKind::kReferenceCg, pdn::SolverKind::kPcgIc0,
      pdn::SolverKind::kTwoGrid};
  const std::size_t reps = quick ? 1 : 3;

  // ------------------------------------------------ scaling vs grid size
  std::size_t ref_iters_largest = 0;
  std::size_t best_pcg_iters_largest = 0;
  for (const int dim : sizes) {
    // One grid builds the frozen system; each variant's setup is then
    // timed directly (cache bypassed) so the rows separate setup cost from
    // solve cost.
    pdn::PdnParams base;
    base.solver = pdn::SolverKind::kReferenceCg;
    const pdn::PdnGrid grid(dim, dim, base);
    const pdn::SparseMatrix& g = grid.conductance();
    const std::size_t n = grid.node_count();

    util::Rng rng(2025);
    const auto draws = make_draws(rng, n, 12);
    std::vector<double> rhs(n, 0.0);
    for (const auto& d : draws) rhs[d.node] += d.current;

    for (const pdn::SolverKind kind : variants) {
      const auto setup_start = std::chrono::steady_clock::now();
      const pdn::SolverContext ctx(g, dim, dim, kind);
      const double setup_ms = ms_since(setup_start);

      std::vector<double> x(n, 0.0);
      pdn::CgResult result;
      (void)ctx.solve(g, rhs, x, 1e-12);  // warm-up (page in, no timing)
      const auto solve_start = std::chrono::steady_clock::now();
      for (std::size_t r = 0; r < reps; ++r) {
        result = ctx.solve(g, rhs, x, 1e-12);
      }
      const double solve_ms = ms_since(solve_start) / static_cast<double>(reps);
      g_sink = x[n / 2];

      const std::string grid_name =
          std::to_string(dim) + "x" + std::to_string(dim);
      table.row()
          .add("scaling")
          .add(grid_name)
          .add(pdn::to_string(kind))
          .add(setup_ms, 3)
          .add(result.iterations)
          .add(solve_ms, 3);
      report.row()
          .set("section", "scaling")
          .set("grid", grid_name)
          .set("variant", pdn::to_string(kind))
          .set("nodes", static_cast<std::uint64_t>(n))
          .set("setup_ms", setup_ms)
          .set("iterations", static_cast<std::uint64_t>(result.iterations))
          .set("solve_ms", solve_ms)
          .set("converged", result.converged);

      if (dim == sizes.back()) {
        if (kind == pdn::SolverKind::kReferenceCg) {
          ref_iters_largest = result.iterations;
        } else if (best_pcg_iters_largest == 0 ||
                   result.iterations < best_pcg_iters_largest) {
          best_pcg_iters_largest = result.iterations;
        }
      }
    }
  }

  // -------------------------------------- repeated-RHS amortization (K=16)
  // The workload dc_droop/transfer_gains actually run: one frozen topology,
  // many right-hand sides. Old path: plain Jacobi-CG per RHS. New path:
  // cached context (setup charged to the first solve) + PCG per RHS.
  double repeated_speedup = 0.0;
  {
    const int dim = sizes.back();
    const std::size_t k_rhs = 16;
    pdn::PdnParams base;
    base.solver = pdn::SolverKind::kReferenceCg;
    const pdn::PdnGrid grid(dim, dim, base);
    const pdn::SparseMatrix& g = grid.conductance();
    const std::size_t n = grid.node_count();

    util::Rng rng(77);
    std::vector<std::vector<double>> rhss(k_rhs,
                                          std::vector<double>(n, 0.0));
    for (auto& rhs : rhss) {
      for (const auto& d : make_draws(rng, n, 12)) rhs[d.node] += d.current;
    }

    std::vector<double> x(n);
    const auto old_start = std::chrono::steady_clock::now();
    for (const auto& rhs : rhss) {
      std::fill(x.begin(), x.end(), 0.0);
      (void)pdn::conjugate_gradient(g, rhs, x, 1e-12);
      g_sink = x[0];
    }
    const double old_ms = ms_since(old_start);

    const pdn::SolverKind kind =
        pdn::SolverContext::resolve(pdn::SolverKind::kAuto, dim, dim, 16384);
    const auto new_start = std::chrono::steady_clock::now();
    const pdn::SolverContext ctx(g, dim, dim, kind);  // setup charged here
    for (const auto& rhs : rhss) {
      (void)ctx.solve(g, rhs, x, 1e-12);
      g_sink = x[0];
    }
    const double new_ms = ms_since(new_start);
    repeated_speedup = old_ms / new_ms;

    const std::string grid_name =
        std::to_string(dim) + "x" + std::to_string(dim);
    table.row()
        .add("repeated")
        .add(grid_name)
        .add("plain_cg_per_rhs")
        .add(0.0, 3)
        .add(k_rhs)
        .add(old_ms / static_cast<double>(k_rhs), 3);
    table.row()
        .add("repeated")
        .add(grid_name)
        .add(std::string("cached_") + pdn::to_string(kind))
        .add(0.0, 3)
        .add(k_rhs)
        .add(new_ms / static_cast<double>(k_rhs), 3);
    report.row()
        .set("section", "repeated")
        .set("grid", grid_name)
        .set("variant", "plain_cg_per_rhs")
        .set("rhs_count", static_cast<std::uint64_t>(k_rhs))
        .set("total_ms", old_ms)
        .set("speedup", 1.0);
    report.row()
        .set("section", "repeated")
        .set("grid", grid_name)
        .set("variant", std::string("cached_") + pdn::to_string(kind))
        .set("rhs_count", static_cast<std::uint64_t>(k_rhs))
        .set("total_ms", new_ms)
        .set("speedup", repeated_speedup);
  }

  // ------------------------------------------------ warm-started re-solves
  {
    const int dim = quick ? 48 : 96;
    pdn::PdnParams p;
    p.solver = pdn::SolverKind::kPcgIc0;
    const pdn::PdnGrid grid(dim, dim, p);
    const std::size_t n = grid.node_count();
    util::Rng rng(11);
    auto draws = make_draws(rng, n, 12);

    std::vector<double> droop(n, 0.0);
    const auto cold = grid.dc_droop_into(draws, droop, /*warm_start=*/false);
    std::size_t warm_iters = 0;
    const std::size_t steps = 8;
    const auto warm_start = std::chrono::steady_clock::now();
    for (std::size_t s = 0; s < steps; ++s) {
      for (auto& d : draws) d.current *= rng.uniform(0.97, 1.03);
      warm_iters +=
          grid.dc_droop_into(draws, droop, /*warm_start=*/true).iterations;
    }
    const double warm_ms = ms_since(warm_start) / static_cast<double>(steps);
    g_sink = droop[0];

    const std::string grid_name =
        std::to_string(dim) + "x" + std::to_string(dim);
    table.row()
        .add("warm")
        .add(grid_name)
        .add("cold_start")
        .add(0.0, 3)
        .add(cold.iterations)
        .add(0.0, 3);
    table.row()
        .add("warm")
        .add(grid_name)
        .add("warm_start")
        .add(0.0, 3)
        .add(warm_iters / steps)
        .add(warm_ms, 3);
    report.row()
        .set("section", "warm")
        .set("grid", grid_name)
        .set("variant", "cold_start")
        .set("iterations", static_cast<std::uint64_t>(cold.iterations));
    report.row()
        .set("section", "warm")
        .set("grid", grid_name)
        .set("variant", "warm_start")
        .set("iterations_avg",
             static_cast<double>(warm_iters) / static_cast<double>(steps))
        .set("solve_ms", warm_ms);
  }

  const double iter_reduction =
      best_pcg_iters_largest == 0
          ? 0.0
          : static_cast<double>(ref_iters_largest) /
                static_cast<double>(best_pcg_iters_largest);

  std::cout << "=== PDN solver scaling" << (quick ? " (--quick)" : "")
            << " ===\n\n";
  table.print(std::cout);
  std::cout << "\niteration reduction (largest grid, best preconditioner vs "
               "plain CG): "
            << iter_reduction << "x (acceptance: >= 5x)\n"
            << "repeated-RHS wall-time speedup (K=16, incl. setup): "
            << repeated_speedup << "x (acceptance: >= 3x)\n";

  obs::fill_bench_metrics(report.metrics());
  report.metrics()
      .set("iter_reduction_largest", iter_reduction)
      .set("repeated_rhs_speedup", repeated_speedup);
  report.write("BENCH_pdn_scaling.json");
  obs::write_trace_out(trace_out);
  std::cout << "\nwrote BENCH_pdn_scaling.json\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return util::cli_main(argc, argv, run);
}
