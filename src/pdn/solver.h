// Preconditioned solver infrastructure for the PDN conductance system.
//
// Every scenario re-solves the same frozen G with a fresh right-hand side
// (DC droop maps, per-sensor transfer gains, transient settling), so the
// expensive part — preconditioner setup — is hoisted into a SolverContext
// that is built once per grid topology and shared through a process-wide
// cache keyed on that topology. The solve itself is preconditioned
// conjugate gradient with two interchangeable preconditioners:
//
//   IC(0)    — incomplete Cholesky with zero fill-in; the default below the
//              two-grid threshold. It exists without breakdown for every
//              M-matrix (Meijerink & van der Vorst, Math. Comp. 1977), which
//              the diagonally dominant mesh Laplacian is. A non-positive
//              pivot can only come from a non-M-matrix passed to
//              SolverContext directly, and throws SolverError.
//   Two-grid — geometric coarse-grid correction exploiting node_index's
//              row-major nx x ny structure: one forward Gauss–Seidel
//              pre-smooth, a Galerkin-coarsened (P^T A P, bilinear P,
//              factor-2 coarsening) correction, one backward post-smooth.
//              The coarse level recurses — while the coarse mesh is still
//              large its correction is one V-cycle of its own nested
//              context, bottoming out in a small IC(0)-PCG solve — so the
//              apply costs a fixed ~1.3x of fine-grid work and iteration
//              counts stay near-flat as dies grow. Selected automatically
//              above a node-count threshold.
//
// The plain Jacobi-CG in sparse.h remains the untouched differential
// reference; the pdn.pcg_vs_cg / pdn.twogrid_vs_cg oracles pin every
// context kind against it. All PCG vector kernels route through
// util::simd_ops dispatch tiers with fixed reduction order, so results are
// bit-identical across scalar/AVX2/AVX-512.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "pdn/sparse.h"
#include "util/contracts.h"

namespace leakydsp::pdn {

/// Thrown when a preconditioner cannot be built for the given matrix: an
/// IC(0) pivot that is non-positive or structurally missing. Derives from
/// util::PreconditionError so generic catch sites keep working while
/// callers (and tests) can assert the precise type.
class SolverError : public util::PreconditionError {
 public:
  using util::PreconditionError::PreconditionError;
};

/// Solver selection for a PdnGrid (PdnParams::solver).
enum class SolverKind : std::uint8_t {
  kAuto = 0,     ///< IC(0) PCG below the two-grid threshold, two-grid above
  kReferenceCg,  ///< plain Jacobi-CG — the differential reference path
  kPcgIc0,       ///< PCG with incomplete-Cholesky IC(0)
  kTwoGrid,      ///< PCG with the geometric two-grid V-cycle preconditioner
};

std::string to_string(SolverKind kind);

/// Identity of a frozen conductance system for the setup cache: mesh
/// dimensions, resolved solver kind, and two independent hashes over the
/// CSR structure and value bits. Two keys compare equal only when every
/// field matches, so a collision requires both hashes to collide at equal
/// (n, nnz, nx, ny, kind) — vanishingly unlikely, and documented as the
/// cache's correctness assumption.
struct TopologyKey {
  std::uint64_t fnv = 0;   ///< FNV-1a over dims + CSR arrays + value bits
  std::uint32_t crc = 0;   ///< CRC-32 over the same byte stream
  std::uint64_t n = 0;     ///< matrix dimension
  std::uint64_t nnz = 0;   ///< stored nonzeros
  std::int32_t nx = 0;     ///< mesh nodes per row
  std::int32_t ny = 0;     ///< mesh rows
  std::uint8_t kind = 0;   ///< resolved SolverKind
  bool operator==(const TopologyKey&) const = default;
};

/// Cached per-topology solver setup: preconditioner factorization plus (for
/// the two-grid kind) the coarse hierarchy. Immutable after construction,
/// so one context can serve concurrent solves from many threads; per-solve
/// scratch lives on the caller's stack.
class SolverContext {
 public:
  /// Builds the setup directly (no cache). `kind` must be resolved — pass
  /// the result of resolve(), not kAuto.
  SolverContext(const SparseMatrix& a, int nx, int ny, SolverKind kind);

  /// Maps a requested kind to the concrete one for this mesh: kAuto picks
  /// kTwoGrid at or above `two_grid_threshold` nodes (when the mesh is
  /// actually coarsenable), else kPcgIc0; concrete kinds pass through,
  /// except kTwoGrid on an uncoarsenable mesh, which degrades to kPcgIc0.
  static SolverKind resolve(SolverKind requested, int nx, int ny,
                            std::size_t two_grid_threshold);

  /// The cache key for a frozen system (O(nnz); PdnGrid computes it once
  /// at construction).
  static TopologyKey make_key(const SparseMatrix& a, int nx, int ny,
                              SolverKind resolved_kind);

  /// Fetches the context for `key` from the process-wide cache, building
  /// it from `a` on a miss. Thread-safe; identical topologies (e.g. the
  /// same board across thousands of campaigns in the serve scheduler)
  /// share one setup.
  static std::shared_ptr<const SolverContext> obtain(const TopologyKey& key,
                                                     const SparseMatrix& a);

  /// The kind this context runs.
  SolverKind resolved_kind() const { return resolved_; }

  /// Solves A x = b to `tolerance` (relative residual). With
  /// `warm_start` false, x is zero-initialized by the solver and the
  /// initial A*x product is skipped (the sparse-RHS fast path for unit
  /// vectors and fresh droop maps); with it true, x is the initial guess —
  /// repeated solves with slowly varying RHS converge in a fraction of the
  /// cold iteration count. `a` must be the matrix this context was built
  /// for.
  CgResult solve(const SparseMatrix& a, std::span<const double> b,
                 std::span<double> x, double tolerance = 1e-10,
                 std::size_t max_iterations = 10000,
                 bool warm_start = false) const;

  /// Process-wide cache statistics (cumulative since process start).
  struct CacheStats {
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t entries = 0;  ///< contexts currently cached
  };
  static CacheStats cache_stats();

  /// Drops every cached context (tests and long-running servers changing
  /// board generations).
  static void clear_cache();

 private:
  struct Workspace;

  void build_ic0(const SparseMatrix& a);
  void build_two_grid(const SparseMatrix& a);

  void apply_ic0(std::span<const double> r, std::span<double> z) const;
  void apply_two_grid(const SparseMatrix& a, std::span<const double> r,
                      std::span<double> z, Workspace& ws) const;

  SolverKind resolved_;
  /// Per-resolved-kind iteration histogram (obs::Registry::MetricId),
  /// registered at construction so every solve() pays only the shard add.
  /// Unused when built with -DLEAKYDSP_OBS=OFF.
  std::uint32_t iters_histogram_id_ = 0;
  int nx_ = 0;
  int ny_ = 0;
  std::size_t n_ = 0;

  // Cached inverse diagonal (two-grid Gauss–Seidel smoothing).
  std::vector<double> inv_diag_;

  // IC(0) factor L (lower triangle incl. diagonal, CSR, cols ascending).
  std::vector<std::size_t> l_row_start_;
  std::vector<std::size_t> l_cols_;
  std::vector<double> l_vals_;

  // Two-grid hierarchy: prolongation (fine rows -> up to 4 coarse weights,
  // CSR), its transpose (restriction), the Galerkin coarse operator, and
  // the nested coarse context (recursively two-grid while the coarse mesh
  // is large, IC(0) at the coarsest level).
  int ncx_ = 0;
  int ncy_ = 0;
  std::size_t nc_ = 0;
  std::vector<std::size_t> p_row_start_;
  std::vector<std::size_t> p_cols_;
  std::vector<double> p_w_;
  std::unique_ptr<SparseMatrix> coarse_a_;
  std::unique_ptr<SolverContext> coarse_ctx_;
};

}  // namespace leakydsp::pdn
