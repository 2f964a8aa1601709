#include "pdn/solver.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <mutex>
#include <string>
#include <utility>

#include "obs/metrics.h"
#include "obs/span.h"
#include "util/contracts.h"
#include "util/crc32.h"
#include "util/simd_ops.h"

namespace leakydsp::pdn {

namespace {

// Dual hash accumulator for TopologyKey: FNV-1a (64-bit) and CRC-32 over
// the same byte stream. Two independent polynomials make an accidental
// joint collision at equal (n, nnz, nx, ny, kind) astronomically unlikely.
struct DualHasher {
  std::uint64_t fnv = 14695981039346656037ULL;
  util::Crc32 crc;

  void bytes(const void* p, std::size_t len) {
    const auto* b = static_cast<const std::uint8_t*>(p);
    for (std::size_t i = 0; i < len; ++i) {
      fnv = (fnv ^ b[i]) * 1099511628211ULL;
    }
    crc.update(std::span<const std::uint8_t>(b, len));
  }

  template <class T>
  void value(T v) {
    bytes(&v, sizeof v);
  }
};

// Process-wide setup cache. Bounded and LRU-ordered (back = most recent);
// a handful of board topologies is the realistic working set, so 16 slots
// is generous. Contexts are built while the lock is held: concurrent
// first-touch of the SAME topology (the common campaign-fan-out case) then
// builds exactly once and everyone else hits.
constexpr std::size_t kMaxCacheEntries = 16;

struct ContextCache {
  std::mutex mu;
  std::vector<std::pair<TopologyKey, std::shared_ptr<const SolverContext>>>
      entries;
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
};

ContextCache& cache() {
  static ContextCache c;
  return c;
}

// Node count below which the two-grid recursion bottoms out in an exact
// IC(0)-PCG coarsest solve. Small enough that the coarsest solve is noise
// next to one fine-grid sweep, large enough to keep the hierarchy shallow.
constexpr std::size_t kCoarsestNodes = 2048;

}  // namespace

std::string to_string(SolverKind kind) {
  switch (kind) {
    case SolverKind::kAuto:
      return "auto";
    case SolverKind::kReferenceCg:
      return "reference_cg";
    case SolverKind::kPcgIc0:
      return "pcg_ic0";
    case SolverKind::kTwoGrid:
      return "twogrid";
  }
  return "unknown";
}

SolverKind SolverContext::resolve(SolverKind requested, int nx, int ny,
                                  std::size_t two_grid_threshold) {
  // Coarsening halves each axis; below 3 nodes an axis cannot shrink, and
  // degenerate 1xN strips gain nothing from a "coarse grid" of themselves.
  const bool coarsenable = nx >= 3 && ny >= 3;
  if (requested == SolverKind::kAuto) {
    const std::size_t nodes =
        static_cast<std::size_t>(nx) * static_cast<std::size_t>(ny);
    if (coarsenable && nodes >= two_grid_threshold) {
      return SolverKind::kTwoGrid;
    }
    return SolverKind::kPcgIc0;
  }
  if (requested == SolverKind::kTwoGrid && !coarsenable) {
    return SolverKind::kPcgIc0;
  }
  return requested;
}

TopologyKey SolverContext::make_key(const SparseMatrix& a, int nx, int ny,
                                    SolverKind resolved_kind) {
  LD_REQUIRE(a.frozen(), "freeze() before make_key()");
  DualHasher h;
  h.value<std::int32_t>(nx);
  h.value<std::int32_t>(ny);
  h.value<std::uint8_t>(static_cast<std::uint8_t>(resolved_kind));
  h.value<std::uint64_t>(a.size());
  h.value<std::uint64_t>(a.nonzeros());
  const auto rs = a.row_start();
  h.bytes(rs.data(), rs.size_bytes());
  const auto cs = a.cols();
  h.bytes(cs.data(), cs.size_bytes());
  // Raw value bits, not rounded: two grids share a setup only when their
  // conductances are bit-for-bit the same system.
  const auto vs = a.values();
  h.bytes(vs.data(), vs.size_bytes());

  TopologyKey key;
  key.fnv = h.fnv;
  key.crc = h.crc.value();
  key.n = a.size();
  key.nnz = a.nonzeros();
  key.nx = nx;
  key.ny = ny;
  key.kind = static_cast<std::uint8_t>(resolved_kind);
  return key;
}

std::shared_ptr<const SolverContext> SolverContext::obtain(
    const TopologyKey& key, const SparseMatrix& a) {
  ContextCache& c = cache();
  std::lock_guard<std::mutex> lock(c.mu);
  for (std::size_t i = 0; i < c.entries.size(); ++i) {
    if (c.entries[i].first == key) {
      ++c.hits;
      OBS_COUNT("pdn.solver.cache.hits", 1);
      auto hit = std::move(c.entries[i]);
      c.entries.erase(c.entries.begin() + static_cast<std::ptrdiff_t>(i));
      c.entries.push_back(std::move(hit));
      return c.entries.back().second;
    }
  }
  ++c.misses;
  OBS_COUNT("pdn.solver.cache.misses", 1);
  auto ctx = std::make_shared<const SolverContext>(
      a, key.nx, key.ny, static_cast<SolverKind>(key.kind));
  if (c.entries.size() >= kMaxCacheEntries) {
    c.entries.erase(c.entries.begin());
  }
  c.entries.emplace_back(key, ctx);
  return ctx;
}

SolverContext::CacheStats SolverContext::cache_stats() {
  ContextCache& c = cache();
  std::lock_guard<std::mutex> lock(c.mu);
  return {c.hits, c.misses, c.entries.size()};
}

void SolverContext::clear_cache() {
  ContextCache& c = cache();
  std::lock_guard<std::mutex> lock(c.mu);
  c.entries.clear();
}

SolverContext::SolverContext(const SparseMatrix& a, int nx, int ny,
                             SolverKind kind)
    : resolved_(kind), nx_(nx), ny_(ny), n_(a.size()) {
  LD_REQUIRE(a.frozen(), "freeze() before building a SolverContext");
  LD_REQUIRE(kind != SolverKind::kAuto, "resolve() the kind first");
  LD_REQUIRE(nx > 0 && ny > 0 &&
                 static_cast<std::size_t>(nx) * static_cast<std::size_t>(ny) ==
                     n_,
             "mesh " << nx << "x" << ny << " disagrees with matrix size "
                     << n_);
  OBS_COUNT("pdn.solver.setup.calls", 1);
  OBS_SPAN("pdn.solver.setup");

  const std::span<const double> diag = a.diagonal();
  inv_diag_.resize(n_);
  for (std::size_t i = 0; i < n_; ++i) {
    LD_REQUIRE(diag[i] > 0.0, "non-positive diagonal at " << i
                                                          << " — matrix not "
                                                             "SPD");
    inv_diag_[i] = 1.0 / diag[i];
  }

  switch (kind) {
    case SolverKind::kReferenceCg:
      break;  // setup-free
    case SolverKind::kPcgIc0:
      build_ic0(a);
      break;
    case SolverKind::kTwoGrid:
      build_two_grid(a);
      break;
    case SolverKind::kAuto:
      break;  // rejected above
  }

#if defined(LEAKYDSP_OBS)
  // Registered after the build, so a context whose setup threw never
  // shows up in the per-kind series.
  obs::Registry& reg = obs::Registry::global();
  reg.add(reg.labeled_counter("pdn.solver.resolved_kind", to_string(resolved_),
                              /*max_labels=*/8),
          1);
  iters_histogram_id_ = reg.histogram(
      "pdn.solve.iters." + to_string(resolved_),
      {1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024});
#endif
}

void SolverContext::build_ic0(const SparseMatrix& a) {
  const auto rs = a.row_start();
  const auto acols = a.cols();
  const auto avals = a.values();

  l_row_start_.assign(n_ + 1, 0);
  l_cols_.clear();
  l_vals_.clear();
  l_cols_.reserve(a.nonzeros() / 2 + n_);
  l_vals_.reserve(a.nonzeros() / 2 + n_);

  // Row-wise IC(0) on the lower-triangle sparsity of A. Rows are short
  // (<= 5 nonzeros for the 5-point stencil), so the L(i,:)·L(j,:) partial
  // dot is a two-pointer merge over a handful of entries.

  for (std::size_t i = 0; i < n_; ++i) {
    const std::size_t i_begin = l_row_start_[i];
    for (std::size_t k = rs[i]; k < rs[i + 1]; ++k) {
      const std::size_t j = acols[k];
      if (j > i) break;  // columns ascend within a row
      double sum = avals[k];
      if (j < i) {
        // L(i,j) = (A(i,j) - sum_{t<j} L(i,t) L(j,t)) / L(j,j)
        std::size_t pi = i_begin;
        std::size_t pj = l_row_start_[j];
        const std::size_t pj_end = l_row_start_[j + 1] - 1;  // excl. diag
        while (pi < l_cols_.size() && pj < pj_end) {
          if (l_cols_[pi] < l_cols_[pj]) {
            ++pi;
          } else if (l_cols_[pi] > l_cols_[pj]) {
            ++pj;
          } else {
            sum -= l_vals_[pi] * l_vals_[pj];
            ++pi;
            ++pj;
          }
        }
        l_cols_.push_back(j);
        l_vals_.push_back(sum / l_vals_[pj_end]);
      } else {
        // L(i,i) = sqrt(A(i,i) - sum_t L(i,t)^2)
        for (std::size_t t = i_begin; t < l_vals_.size(); ++t) {
          sum -= l_vals_[t] * l_vals_[t];
        }
        if (!(sum > 0.0)) {
          throw SolverError("IC(0) pivot " + std::to_string(sum) +
                            " at row " + std::to_string(i) +
                            " is not positive — matrix is not an M-matrix");
        }
        l_cols_.push_back(i);
        l_vals_.push_back(std::sqrt(sum));
      }
    }
    if (l_cols_.size() == i_begin || l_cols_.back() != i) {
      throw SolverError("IC(0) row " + std::to_string(i) +
                        " has no diagonal entry — not factorable with zero "
                        "fill");
    }
    l_row_start_[i + 1] = l_cols_.size();
  }
}

void SolverContext::apply_ic0(std::span<const double> r,
                              std::span<double> z) const {
  // Forward substitution L y = r (y stored in z). The diagonal entry is
  // always the last in its row (columns ascend, diag col == row).
  for (std::size_t i = 0; i < n_; ++i) {
    double s = r[i];
    const std::size_t dk = l_row_start_[i + 1] - 1;
    for (std::size_t k = l_row_start_[i]; k < dk; ++k) {
      s -= l_vals_[k] * z[l_cols_[k]];
    }
    z[i] = s / l_vals_[dk];
  }
  // Backward substitution L^T z = y, column-oriented and in place: once
  // z[i] is final, scatter its contribution up into the rows above.
  for (std::size_t i = n_; i-- > 0;) {
    const std::size_t dk = l_row_start_[i + 1] - 1;
    const double zi = z[i] / l_vals_[dk];
    z[i] = zi;
    for (std::size_t k = l_row_start_[i]; k < dk; ++k) {
      z[l_cols_[k]] -= l_vals_[k] * zi;
    }
  }
}

void SolverContext::build_two_grid(const SparseMatrix& a) {
  ncx_ = (nx_ + 1) / 2;
  ncy_ = (ny_ + 1) / 2;
  nc_ = static_cast<std::size_t>(ncx_) * static_cast<std::size_t>(ncy_);
  LD_REQUIRE(nc_ >= 2 && nc_ < n_, "mesh " << nx_ << "x" << ny_
                                           << " is not coarsenable — "
                                              "resolve() should have "
                                              "degraded the kind");

  // Bilinear prolongation over the row-major mesh: coarse points sit at
  // even fine coordinates; odd fine coordinates average their two coarse
  // neighbors (clamped and merged at the high boundary so each row of P
  // still sums to 1 and constants are preserved exactly).
  auto axis_weights = [](int f, int nc) {
    std::array<std::pair<int, double>, 2> w;
    if ((f & 1) == 0) {
      w[0] = {f / 2, 1.0};
      return std::pair<std::array<std::pair<int, double>, 2>, int>{w, 1};
    }
    const int c0 = f / 2;
    const int c1 = std::min(c0 + 1, nc - 1);
    if (c1 == c0) {
      w[0] = {c0, 1.0};
      return std::pair<std::array<std::pair<int, double>, 2>, int>{w, 1};
    }
    w[0] = {c0, 0.5};
    w[1] = {c1, 0.5};
    return std::pair<std::array<std::pair<int, double>, 2>, int>{w, 2};
  };

  p_row_start_.assign(n_ + 1, 0);
  p_cols_.clear();
  p_w_.clear();
  p_cols_.reserve(n_ * 2);
  p_w_.reserve(n_ * 2);
  for (int iy = 0; iy < ny_; ++iy) {
    const auto [wy, nwy] = axis_weights(iy, ncy_);
    for (int ix = 0; ix < nx_; ++ix) {
      const auto [wx, nwx] = axis_weights(ix, ncx_);
      for (int a_y = 0; a_y < nwy; ++a_y) {
        for (int a_x = 0; a_x < nwx; ++a_x) {
          p_cols_.push_back(static_cast<std::size_t>(wy[a_y].first) *
                                static_cast<std::size_t>(ncx_) +
                            static_cast<std::size_t>(wx[a_x].first));
          p_w_.push_back(wy[a_y].second * wx[a_x].second);
        }
      }
      const std::size_t i = static_cast<std::size_t>(iy) *
                                static_cast<std::size_t>(nx_) +
                            static_cast<std::size_t>(ix);
      p_row_start_[i + 1] = p_cols_.size();
    }
  }

  // Galerkin coarse operator Ac = P^T A P, assembled row-of-B at a time
  // (B = A P): each fine row contributes at most |A row| * |P row| merged
  // B entries, scattered into Ac through the fine row's P weights. The
  // SparseMatrix triplet path then sums duplicates at freeze().
  auto coarse = std::make_unique<SparseMatrix>(nc_);
  const auto rs = a.row_start();
  const auto acols = a.cols();
  const auto avals = a.values();
  std::vector<std::pair<std::size_t, double>> brow;
  for (std::size_t i = 0; i < n_; ++i) {
    brow.clear();
    for (std::size_t k = rs[i]; k < rs[i + 1]; ++k) {
      const std::size_t fc = acols[k];
      const double av = avals[k];
      for (std::size_t q = p_row_start_[fc]; q < p_row_start_[fc + 1]; ++q) {
        brow.emplace_back(p_cols_[q], av * p_w_[q]);
      }
    }
    std::sort(brow.begin(), brow.end(),
              [](const auto& x, const auto& y) { return x.first < y.first; });
    std::size_t w = 0;
    for (std::size_t rdx = 0; rdx < brow.size();) {
      std::size_t e = rdx + 1;
      double s = brow[rdx].second;
      while (e < brow.size() && brow[e].first == brow[rdx].first) {
        s += brow[e].second;
        ++e;
      }
      brow[w++] = {brow[rdx].first, s};
      rdx = e;
    }
    brow.resize(w);
    for (std::size_t q = p_row_start_[i]; q < p_row_start_[i + 1]; ++q) {
      const std::size_t ci = p_cols_[q];
      const double wi = p_w_[q];
      for (const auto& [cj, bv] : brow) {
        coarse->add(ci, cj, wi * bv);
      }
    }
  }
  coarse->freeze();
  // Recurse while the coarse mesh is still large: its correction will be
  // applied as one V-cycle, so the whole hierarchy costs a fixed multiple
  // of fine-grid work. Small (or uncoarsenable) meshes get an exact IC(0)
  // coarsest context instead.
  const SolverKind coarse_kind =
      resolve(SolverKind::kAuto, ncx_, ncy_, kCoarsestNodes);
  coarse_ctx_ = std::make_unique<SolverContext>(*coarse, ncx_, ncy_,
                                                coarse_kind);
  coarse_a_ = std::move(coarse);
}

struct SolverContext::Workspace {
  std::vector<double> az;  ///< fine-grid A*z for the residual restriction
  std::vector<double> rc;  ///< restricted residual
  std::vector<double> ec;  ///< coarse correction
  std::unique_ptr<Workspace> coarse;  ///< next level's scratch (V-cycle)
};

void SolverContext::apply_two_grid(const SparseMatrix& a,
                                   std::span<const double> r,
                                   std::span<double> z, Workspace& ws) const {
  const auto rs = a.row_start();
  const auto acols = a.cols();
  const auto avals = a.values();

  // 1. Pre-smooth: one forward Gauss–Seidel sweep starting from z = 0
  //    (entries above the diagonal multiply zeros, so they are skipped and
  //    the incoming contents of z never matter).
  for (std::size_t i = 0; i < n_; ++i) {
    double s = r[i];
    for (std::size_t k = rs[i]; k < rs[i + 1]; ++k) {
      const std::size_t j = acols[k];
      if (j >= i) break;
      s -= avals[k] * z[j];
    }
    z[i] = s * inv_diag_[i];
  }

  // 2. Restrict the smoothed residual: rc = P^T (r - A z).
  ws.az.resize(n_);
  a.multiply(z, ws.az);
  ws.rc.assign(nc_, 0.0);
  for (std::size_t i = 0; i < n_; ++i) {
    const double rr = r[i] - ws.az[i];
    for (std::size_t q = p_row_start_[i]; q < p_row_start_[i + 1]; ++q) {
      ws.rc[p_cols_[q]] += p_w_[q] * rr;
    }
  }

  // 3. Coarse correction. While the coarse mesh is itself two-grid, apply
  //    ONE V-cycle of the nested context — a fixed symmetric linear
  //    operator, which is all PCG needs from its preconditioner. At the
  //    coarsest level solve exactly (tight IC(0)-PCG on <= kCoarsestNodes
  //    nodes — noise next to one fine-grid sweep).
  if (!ws.coarse) ws.coarse = std::make_unique<Workspace>();
  ws.ec.resize(nc_);
  if (coarse_ctx_->resolved_kind() == SolverKind::kTwoGrid) {
    coarse_ctx_->apply_two_grid(*coarse_a_, ws.rc, ws.ec, *ws.coarse);
  } else {
    std::fill(ws.ec.begin(), ws.ec.end(), 0.0);
    coarse_ctx_->solve(*coarse_a_, ws.rc, ws.ec, 1e-12, 2000, false);
  }

  // 4. Prolong: z += P ec.
  for (std::size_t i = 0; i < n_; ++i) {
    double e = 0.0;
    for (std::size_t q = p_row_start_[i]; q < p_row_start_[i + 1]; ++q) {
      e += p_w_[q] * ws.ec[p_cols_[q]];
    }
    z[i] += e;
  }

  // 5. Post-smooth: one backward Gauss–Seidel sweep — the adjoint of the
  //    pre-smoother, which keeps M symmetric (required for PCG).
  for (std::size_t i = n_; i-- > 0;) {
    double s = r[i];
    for (std::size_t k = rs[i]; k < rs[i + 1]; ++k) {
      const std::size_t j = acols[k];
      if (j != i) s -= avals[k] * z[j];
    }
    z[i] = s * inv_diag_[i];
  }
}

CgResult SolverContext::solve(const SparseMatrix& a, std::span<const double> b,
                              std::span<double> x, double tolerance,
                              std::size_t max_iterations,
                              bool warm_start) const {
  LD_REQUIRE(a.size() == n_ && b.size() == n_ && x.size() == n_,
             "dimension mismatch");
  LD_REQUIRE(tolerance > 0.0, "tolerance must be positive");

  if (resolved_ == SolverKind::kReferenceCg) {
    if (!warm_start) std::fill(x.begin(), x.end(), 0.0);
    CgResult result = conjugate_gradient(a, b, x, tolerance, max_iterations);
#if defined(LEAKYDSP_OBS)
    obs::Registry::global().observe(
        iters_histogram_id_, static_cast<double>(result.iterations));
#endif
    return result;
  }

  Workspace ws;
  std::vector<double> r(n_);
  std::vector<double> z(n_);
  std::vector<double> p(n_);
  std::vector<double> ap(n_);

  if (warm_start) {
    a.multiply(x, ap);
    for (std::size_t i = 0; i < n_; ++i) r[i] = b[i] - ap[i];
  } else {
    // Cold start from x = 0: r = b, no A*x product. This is the sparse-RHS
    // fast path — for a unit RHS (transfer gains) the whole setup of the
    // iteration touches only O(n) memory.
    std::fill(x.begin(), x.end(), 0.0);
    std::copy(b.begin(), b.end(), r.begin());
  }

  auto precondition = [&](std::span<const double> rr, std::span<double> zz) {
    switch (resolved_) {
      case SolverKind::kPcgIc0:
        apply_ic0(rr, zz);
        break;
      case SolverKind::kTwoGrid: {
        OBS_SPAN("pdn.solver.vcycle");
        apply_two_grid(a, rr, zz, ws);
        break;
      }
      default:
        LD_REQUIRE(false, "unhandled solver kind");
    }
  };

  const double b_norm = std::sqrt(util::simd::dot(b.data(), b.data(), n_));
  const double stop = tolerance * std::max(b_norm, 1e-300);

  precondition(r, z);
  std::copy(z.begin(), z.end(), p.begin());
  double rz = util::simd::dot(r.data(), z.data(), n_);

  CgResult result;
  for (std::size_t it = 0; it < max_iterations; ++it) {
    const double r_norm = std::sqrt(util::simd::dot(r.data(), r.data(), n_));
    result.residual_norm = r_norm;
    result.iterations = it;
    if (r_norm <= stop) {
      result.converged = true;
      break;
    }
    a.multiply(p, ap);
    const double p_ap = util::simd::dot(p.data(), ap.data(), n_);
    LD_ENSURE(p_ap > 0.0, "direction with non-positive curvature — matrix "
                          "not SPD");
    const double alpha = rz / p_ap;
    util::simd::axpy(alpha, p.data(), x.data(), n_);
    util::simd::axpy(-alpha, ap.data(), r.data(), n_);
    precondition(r, z);
    const double rz_next = util::simd::dot(r.data(), z.data(), n_);
    const double beta = rz_next / rz;
    rz = rz_next;
    util::simd::xpby(z.data(), beta, p.data(), n_);
  }
#if defined(LEAKYDSP_OBS)
  obs::Registry::global().observe(iters_histogram_id_,
                                  static_cast<double>(result.iterations));
#endif
  return result;
}

}  // namespace leakydsp::pdn
