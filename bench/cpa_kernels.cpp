// Per-tier microbenchmarks of the CpaKernel::kSimd accumulation layer:
//
//   tiers      — add_traces under each dispatch tier (scalar / AVX2 /
//                AVX-512, whichever the host offers) against the
//                kGemm reference measured in the same run
//   multibyte  — byte-major panel accumulation (each key byte re-streams
//                the whole POI matrix) vs the L1-blocked multi-byte order
//                add_traces_simd uses (each trace block streamed once
//                across all 16 bytes) — same fma chains, identical output
//                bits, different cache behavior
//
//   $ ./cpa_kernels [--quick]
//
// Prints a table and writes BENCH_cpa_kernels.json (host metadata
// included) into the working directory. The acceptance bar for this
// machine class: simd_kernel at the detected tier >= 3x gemm.
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <iostream>
#include <optional>
#include <vector>

#include "attack/cpa.h"
#include "attack/cpa_kernels.h"
#include "crypto/aes128.h"
#include "obs/obs.h"
#include "util/aligned.h"
#include "util/bench_json.h"
#include "util/cli.h"
#include "util/cpu_features.h"
#include "util/rng.h"
#include "util/table.h"

using namespace leakydsp;

namespace {

volatile double g_sink = 0.0;

struct BenchResult {
  double ns_per_op = 0.0;
  std::size_t ops = 0;
};

template <typename Body>
BenchResult run_bench(std::size_t iterations, Body&& body) {
  (void)body(iterations / 8 + 1);  // warm-up
  const auto start = std::chrono::steady_clock::now();
  const std::size_t ops = body(iterations);
  const double seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  return {seconds / static_cast<double>(ops) * 1e9, ops};
}

std::vector<util::SimdTier> available_tiers() {
  std::vector<util::SimdTier> tiers{util::SimdTier::kScalar};
  if (util::detected_simd_tier() >= util::SimdTier::kAvx2)
    tiers.push_back(util::SimdTier::kAvx2);
  if (util::detected_simd_tier() >= util::SimdTier::kAvx512)
    tiers.push_back(util::SimdTier::kAvx512);
  return tiers;
}

int run(int argc, char** argv) {
  const util::Cli cli(argc, argv, {"quick!"}, obs::cli_options());
  const std::string trace_out = obs::apply_cli(cli);
  const bool quick = cli.get_flag("quick");
  const std::size_t kScale = quick ? 1 : 10;

  util::BenchJson report("cpa_kernels");
  util::Table table({"section", "variant", "ns/op", "ops", "speedup"});

  // Same shape as the hotpath cpa_add_traces rows so the ns/op columns are
  // directly comparable across the two reports.
  constexpr std::size_t kPoi = 12;
  constexpr std::size_t kBatch = 64;
  util::Rng rng(10);
  std::vector<crypto::Block> cts(kBatch);
  std::vector<double> rows(kBatch * kPoi);
  for (auto& ct : cts) {
    for (auto& b : ct) b = static_cast<std::uint8_t>(rng() & 0xff);
  }
  for (auto& s : rows) s = 40.0 + rng.gaussian();

  // ---- kGemm reference + kSimd under every available tier ----
  attack::CpaAttack gemm(kPoi, attack::CpaKernel::kGemm);
  const auto baseline = run_bench(40 * kScale, [&](std::size_t n) {
    for (std::size_t r = 0; r < n; ++r) gemm.add_traces(cts, rows);
    g_sink = static_cast<double>(gemm.trace_count());
    return n * kBatch;
  });
  table.row()
      .add("tiers")
      .add("gemm")
      .add(baseline.ns_per_op, 2)
      .add(baseline.ops)
      .add(1.0, 2);
  report.row()
      .set("section", "tiers")
      .set("variant", "gemm")
      .set("ns_per_op", baseline.ns_per_op)
      .set("speedup_vs_gemm", 1.0);

  for (const util::SimdTier tier : available_tiers()) {
    util::set_simd_tier_override(tier);
    attack::CpaAttack simd(kPoi, attack::CpaKernel::kSimd);
    const auto res = run_bench(40 * kScale, [&](std::size_t n) {
      for (std::size_t r = 0; r < n; ++r) simd.add_traces(cts, rows);
      g_sink = static_cast<double>(simd.trace_count());
      return n * kBatch;
    });
    const double speedup = baseline.ns_per_op / res.ns_per_op;
    const std::string variant =
        std::string("simd_kernel/") + util::to_string(tier);
    table.row()
        .add("tiers")
        .add(variant)
        .add(res.ns_per_op, 2)
        .add(res.ops)
        .add(speedup, 2);
    report.row()
        .set("section", "tiers")
        .set("variant", variant)
        .set("ns_per_op", res.ns_per_op)
        .set("speedup_vs_gemm", speedup);
  }
  util::set_simd_tier_override(std::nullopt);

  // ---- multi-byte panel sharing: byte-major vs L1-blocked order ----
  // A panel big enough that re-streaming it 16 times misses cache: the POI
  // matrix is kTraces x kPoi doubles (~1.5 MB), far beyond the ~16 KB trace
  // blocks add_traces_simd keeps resident while it sweeps all key bytes.
  {
    const std::size_t kTraces = quick ? 4096 : 16384;
    std::vector<std::uint8_t> row_storage(kTraces * 256);
    std::vector<const std::uint8_t*> hrows(kTraces);
    util::aligned_vector<double> poi(kTraces * kPoi);
    for (std::size_t t = 0; t < kTraces; ++t) {
      hrows[t] = row_storage.data() + t * 256;
      for (std::size_t g = 0; g < 256; ++g) {
        row_storage[t * 256 + g] = static_cast<std::uint8_t>(rng() % 9);
      }
    }
    for (auto& v : poi) v = rng.gaussian();
    std::vector<util::aligned_vector<double>> sums(
        16, util::aligned_vector<double>(256 * kPoi, 0.0));

    const auto byte_major = run_bench(2 * kScale, [&](std::size_t n) {
      for (std::size_t r = 0; r < n; ++r) {
        for (int b = 0; b < 16; ++b) {
          attack::kernels::Panel p{hrows.data(), poi.data(), kTraces, kPoi};
          attack::kernels::accumulate_panel(
              p, sums[static_cast<std::size_t>(b)].data());
        }
      }
      g_sink = sums[0][0];
      return n * kTraces;
    });
    const std::size_t block =
        std::clamp<std::size_t>(2048 / kPoi, std::size_t{8}, std::size_t{512});
    const auto blocked = run_bench(2 * kScale, [&](std::size_t n) {
      for (std::size_t r = 0; r < n; ++r) {
        for (std::size_t t0 = 0; t0 < kTraces; t0 += block) {
          const std::size_t m = std::min(block, kTraces - t0);
          for (int b = 0; b < 16; ++b) {
            attack::kernels::Panel p{hrows.data() + t0,
                                     poi.data() + t0 * kPoi, m, kPoi};
            attack::kernels::accumulate_panel(
                p, sums[static_cast<std::size_t>(b)].data());
          }
        }
      }
      g_sink = sums[0][0];
      return n * kTraces;
    });
    const double speedup = byte_major.ns_per_op / blocked.ns_per_op;
    table.row()
        .add("multibyte")
        .add("byte_major")
        .add(byte_major.ns_per_op, 2)
        .add(byte_major.ops)
        .add(1.0, 2);
    table.row()
        .add("multibyte")
        .add("trace_blocked")
        .add(blocked.ns_per_op, 2)
        .add(blocked.ops)
        .add(speedup, 2);
    report.row()
        .set("section", "multibyte")
        .set("variant", "byte_major")
        .set("ns_per_op", byte_major.ns_per_op)
        .set("speedup_vs_byte_major", 1.0);
    report.row()
        .set("section", "multibyte")
        .set("variant", "trace_blocked")
        .set("ns_per_op", blocked.ns_per_op)
        .set("speedup_vs_byte_major", speedup);
  }

  std::cout << "=== CPA kernel tiers" << (quick ? " (--quick)" : "")
            << " — detected tier: "
            << util::to_string(util::detected_simd_tier()) << " ===\n\n";
  table.print(std::cout);
  obs::fill_bench_metrics(report.metrics());
  report.write("BENCH_cpa_kernels.json");
  obs::write_trace_out(trace_out);
  std::cout << "\nwrote BENCH_cpa_kernels.json\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return util::cli_main(argc, argv, run);
}
