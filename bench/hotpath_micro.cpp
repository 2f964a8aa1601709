// Microbenchmarks of the single-core hot-path kernels, pairing each
// optimized kernel with the exact/scalar path it replaced:
//
//   scale        — AlphaPowerLaw::scale (std::pow) vs ScaleTable (cubic LUT)
//   stages       — binary-search stages_within vs the O(1) uniform fast path
//   gaussian     — Box–Muller gaussian() vs the ziggurat gaussian_zig()
//   sample       — LeakyDSP / TDC scalar sample() loop vs sample_batch()
//   calibrate    — LeakyDSP calibration on the per-bit reference loop vs
//                  calibrate(), which skips out-of-reach jitter
//   cpa          — CpaAttack add_trace loop vs batched GEMM vs kSimd kernel
//   key_rank     — the dense Histogram::convolve chain vs
//                  estimate_key_rank's tail-only SIMD convolution, on the
//                  final scores of an unbroken and a broken campaign
//
//   $ ./hotpath_micro [--quick]
//
// Prints a table and writes BENCH_hotpath.json (with host metadata) into
// the working directory — the perf-regression record for this machine.
// --quick cuts the iteration counts ~10x for use as a smoke test
// (`cmake --build build --target bench_smoke`).
#include <chrono>
#include <cstdint>
#include <iostream>
#include <vector>

#include "attack/cpa.h"
#include "attack/key_rank.h"
#include "core/leaky_dsp.h"
#include "crypto/aes128.h"
#include "obs/obs.h"
#include "sensors/tdc.h"
#include "sim/scenarios.h"
#include "timing/delay_model.h"
#include "util/bench_json.h"
#include "util/cli.h"
#include "util/rng.h"
#include "util/table.h"
#include "verify/key_rank_reference.h"
#include "verify/leakydsp_reference.h"

using namespace leakydsp;

namespace {

// Keeps results observable so the compiler cannot delete a timed loop.
volatile double g_sink = 0.0;

struct BenchResult {
  double ns_per_op = 0.0;
  std::size_t ops = 0;
};

/// Runs `body(iterations)` once to warm caches, then timed; `body` returns
/// the number of elementary operations it performed.
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

int run(int argc, char** argv) {
  const util::Cli cli(argc, argv, {"quick!"}, obs::cli_options());
  const std::string trace_out = obs::apply_cli(cli);
  const bool quick = cli.get_flag("quick");
  const std::size_t kScale = quick ? 1 : 10;

  util::BenchJson report("hotpath_micro");
  util::Table table({"kernel", "variant", "ns/op", "ops", "speedup"});

  const auto record = [&](const char* kernel, const char* baseline_name,
                          BenchResult baseline, const char* fast_name,
                          BenchResult fast) {
    const double speedup = baseline.ns_per_op / fast.ns_per_op;
    table.row()
        .add(kernel)
        .add(baseline_name)
        .add(baseline.ns_per_op, 2)
        .add(baseline.ops)
        .add(1.0, 2);
    table.row().add("").add(fast_name).add(fast.ns_per_op, 2).add(fast.ops).add(
        speedup, 2);
    report.row()
        .set("kernel", kernel)
        .set("baseline", baseline_name)
        .set("baseline_ns_per_op", baseline.ns_per_op)
        .set("fast", fast_name)
        .set("fast_ns_per_op", fast.ns_per_op)
        .set("speedup", speedup);
  };

  // ---- voltage→delay scale: exact std::pow law vs cubic-Hermite LUT ----
  {
    const timing::AlphaPowerLaw law{};
    const timing::ScaleTable lut(law);
    std::vector<double> volts;
    util::Rng rng(1);
    for (int i = 0; i < 4096; ++i) volts.push_back(rng.uniform(0.92, 1.0));
    const auto exact = run_bench(200000 * kScale, [&](std::size_t n) {
      double acc = 0.0;
      for (std::size_t i = 0; i < n; ++i) acc += law.scale(volts[i & 4095]);
      g_sink = acc;
      return n;
    });
    const auto fast = run_bench(200000 * kScale, [&](std::size_t n) {
      double acc = 0.0;
      for (std::size_t i = 0; i < n; ++i) acc += lut(volts[i & 4095]);
      g_sink = acc;
      return n;
    });
    record("scale", "alpha_power_exact", exact, "scale_table_lut", fast);
  }

  // ---- TDC traversal count: binary search vs O(1) uniform fast path ----
  {
    const timing::AlphaPowerLaw law{};
    const timing::DelayChain uniform(std::vector<double>(128, 0.015), law);
    std::vector<double> perturbed(128, 0.015);
    perturbed[64] = 0.0150000001;  // defeats uniform detection only
    const timing::DelayChain nonuniform(perturbed, law);
    std::vector<double> budgets;
    util::Rng rng(2);
    for (int i = 0; i < 4096; ++i) budgets.push_back(rng.uniform(0.0, 2.2));
    const auto search = run_bench(200000 * kScale, [&](std::size_t n) {
      std::size_t acc = 0;
      for (std::size_t i = 0; i < n; ++i) {
        acc += nonuniform.stages_within_scaled(budgets[i & 4095], 1.07);
      }
      g_sink = static_cast<double>(acc);
      return n;
    });
    const auto fast = run_bench(200000 * kScale, [&](std::size_t n) {
      std::size_t acc = 0;
      for (std::size_t i = 0; i < n; ++i) {
        acc += uniform.stages_within_scaled(budgets[i & 4095], 1.07);
      }
      g_sink = static_cast<double>(acc);
      return n;
    });
    record("stages_within", "binary_search", search, "uniform_divide", fast);
  }

  // ---- standard normal: Box–Muller vs 256-layer ziggurat ----
  {
    util::Rng rng_a(3);
    util::Rng rng_b(3);
    const auto bm = run_bench(200000 * kScale, [&](std::size_t n) {
      double acc = 0.0;
      for (std::size_t i = 0; i < n; ++i) acc += rng_a.gaussian();
      g_sink = acc;
      return n;
    });
    const auto zig = run_bench(200000 * kScale, [&](std::size_t n) {
      double acc = 0.0;
      for (std::size_t i = 0; i < n; ++i) acc += rng_b.gaussian_zig();
      g_sink = acc;
      return n;
    });
    record("gaussian", "box_muller", bm, "ziggurat", zig);
  }

  // ---- sensor readouts: scalar sample() loop vs sample_batch() ----
  const sim::Basys3Scenario scenario;
  {
    core::LeakyDspSensor sensor(scenario.device(), scenario.fig3_dsp_site());
    util::Rng cal(4);
    sensor.calibrate(1.0, cal);
    std::vector<double> supplies;
    util::Rng rng(5);
    for (int i = 0; i < 4096; ++i) supplies.push_back(rng.uniform(0.99, 1.0));
    std::vector<double> out(supplies.size());
    util::Rng rng_a(6);
    util::Rng rng_b(6);
    const auto scalar = run_bench(20 * kScale, [&](std::size_t n) {
      for (std::size_t r = 0; r < n; ++r) {
        double acc = 0.0;
        for (const double v : supplies) acc += sensor.sample(v, rng_a);
        g_sink = acc;
      }
      return n * supplies.size();
    });
    const auto batch = run_bench(20 * kScale, [&](std::size_t n) {
      for (std::size_t r = 0; r < n; ++r) {
        sensor.sample_batch(supplies, out, rng_b);
        g_sink = out[0];
      }
      return n * supplies.size();
    });
    record("leakydsp_sample", "scalar_loop", scalar, "sample_batch", batch);
  }
  {
    // The world-build calibration: 69 settings x 256 readouts at idle.
    // Both variants run the same sweep from the same rng state and end
    // bit-identical; ops are whole calibrations.
    constexpr std::size_t kSamplesPerSetting = 256;
    core::LeakyDspSensor sensor(scenario.device(), scenario.fig3_dsp_site());
    util::Rng rng_a(11);
    util::Rng rng_b(11);
    const auto reference = run_bench(2 * kScale, [&](std::size_t n) {
      for (std::size_t r = 0; r < n; ++r) {
        g_sink = verify::reference_leakydsp_calibrate(sensor, 1.0, rng_a,
                                                      kSamplesPerSetting)
                     .idle_readout;
      }
      return n;
    });
    const auto fast = run_bench(2 * kScale, [&](std::size_t n) {
      for (std::size_t r = 0; r < n; ++r) {
        g_sink = sensor.calibrate(1.0, rng_b, kSamplesPerSetting).idle_readout;
      }
      return n;
    });
    record("leakydsp_calibrate", "reference_loop", reference,
           "skip_unreachable", fast);
  }
  {
    sensors::TdcSensor sensor(scenario.device(), scenario.fig3_clb_site());
    util::Rng cal(7);
    sensor.calibrate(1.0, cal);
    std::vector<double> supplies;
    util::Rng rng(8);
    for (int i = 0; i < 4096; ++i) supplies.push_back(rng.uniform(0.99, 1.0));
    std::vector<double> out(supplies.size());
    util::Rng rng_a(9);
    util::Rng rng_b(9);
    const auto scalar = run_bench(50 * kScale, [&](std::size_t n) {
      for (std::size_t r = 0; r < n; ++r) {
        double acc = 0.0;
        for (const double v : supplies) acc += sensor.sample(v, rng_a);
        g_sink = acc;
      }
      return n * supplies.size();
    });
    const auto batch = run_bench(50 * kScale, [&](std::size_t n) {
      for (std::size_t r = 0; r < n; ++r) {
        sensor.sample_batch(supplies, out, rng_b);
        g_sink = out[0];
      }
      return n * supplies.size();
    });
    record("tdc_sample", "scalar_loop", scalar, "sample_batch", batch);
  }

  // ---- CPA accumulation: per-trace loop vs GEMM batch vs kSimd kernel ----
  {
    constexpr std::size_t kPoi = 12;
    constexpr std::size_t kBatch = 64;
    util::Rng rng(10);
    std::vector<crypto::Block> cts(kBatch);
    std::vector<double> rows(kBatch * kPoi);
    for (auto& ct : cts) {
      for (auto& b : ct) b = static_cast<std::uint8_t>(rng() & 0xff);
    }
    for (auto& s : rows) s = 40.0 + rng.gaussian();

    attack::CpaAttack per_trace(kPoi, attack::CpaKernel::kGemm);
    const auto loop = run_bench(40 * kScale, [&](std::size_t n) {
      for (std::size_t r = 0; r < n; ++r) {
        for (std::size_t t = 0; t < kBatch; ++t) {
          per_trace.add_trace(cts[t], {rows.data() + t * kPoi, kPoi});
        }
      }
      g_sink = static_cast<double>(per_trace.trace_count());
      return n * kBatch;
    });
    attack::CpaAttack gemm(kPoi, attack::CpaKernel::kGemm);
    const auto gemm_res = run_bench(40 * kScale, [&](std::size_t n) {
      for (std::size_t r = 0; r < n; ++r) gemm.add_traces(cts, rows);
      g_sink = static_cast<double>(gemm.trace_count());
      return n * kBatch;
    });
    attack::CpaAttack simd(kPoi, attack::CpaKernel::kSimd);
    const auto simd_res = run_bench(40 * kScale, [&](std::size_t n) {
      for (std::size_t r = 0; r < n; ++r) simd.add_traces(cts, rows);
      g_sink = static_cast<double>(simd.trace_count());
      return n * kBatch;
    });
    record("cpa_add_traces", "add_trace_loop", loop, "gemm_batch", gemm_res);
    record("cpa_add_traces", "gemm_batch", gemm_res, "simd_kernel", simd_res);
  }

  // ---- key rank: dense convolution chain vs tail-only gather kernel ----
  {
    // Final scores of two 1,024-trace Basys3 campaigns: at the default
    // victim current (log2 rank ~124) and at 20x it (rank ~1). Ops are
    // whole 16-byte rank estimates at the default 512 bins.
    for (const auto& [kernel, current_scale] :
         {std::pair<const char*, double>{"key_rank_unbroken", 1.0},
          std::pair<const char*, double>{"key_rank_broken", 20.0}}) {
      const auto [scores, truth] =
          verify::campaign_rank_scores(scenario, 1024, current_scale, 12);
      const auto reference = run_bench(10 * kScale, [&](std::size_t n) {
        for (std::size_t r = 0; r < n; ++r) {
          g_sink = verify::reference_estimate_key_rank(scores, truth)
                       .log2_upper;
        }
        return n;
      });
      const auto fast = run_bench(10 * kScale, [&](std::size_t n) {
        for (std::size_t r = 0; r < n; ++r) {
          g_sink = attack::estimate_key_rank_general(scores, truth).log2_upper;
        }
        return n;
      });
      record(kernel, "dense_reference", reference, "tail_gather", fast);
    }
  }

  std::cout << "=== hot-path microbenchmarks"
            << (quick ? " (--quick)" : "") << " ===\n\n";
  table.print(std::cout);
  obs::fill_bench_metrics(report.metrics());
  report.write("BENCH_hotpath.json");
  obs::write_trace_out(trace_out);
  std::cout << "\nwrote BENCH_hotpath.json\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return util::cli_main(argc, argv, run);
}
