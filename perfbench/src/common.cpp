#include <stdlib.h>
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <sstream>
#include <stdexcept>

#include "bench.h"
#include "core/leaky_dsp.h"
#include "crypto/aes128.h"
#include "obs/export.h"
#include "obs/metrics.h"
#include "obs/span.h"
#include "sim/sensor_rig.h"
#include "util/bench_json.h"
#include "victim/aes_core.h"

namespace perfbench {

using namespace leakydsp;

// ------------------------------------------------------------ report

void Report::check(bool ok, const std::string& what) {
  ++attempted_;
  if (!ok) {
    ++failed_;
    std::cerr << "perfbench: check failed: " << what << "\n";
  }
}

void Report::fail(const std::string& what) {
  ++attempted_;
  ++failed_;
  std::cerr << "perfbench: operation failed: " << what << "\n";
}

void Report::metric(const std::string& name, double value,
                    const std::string& unit, const std::string& note) {
  metrics_.push_back({name, value, unit, note});
}

void Report::print_table(std::ostream& out) const {
  for (const Metric& m : metrics_) {
    out << "  " << std::left << std::setw(30) << m.name << std::right
        << std::setw(16) << std::setprecision(6) << m.value << " "
        << std::left << std::setw(6) << m.unit << " " << m.note << "\n";
  }
  out << std::right;
}

std::string Report::json() const {
  std::ostringstream out;
  out << std::setprecision(17);
  out << "{\"correct\": " << (failed_ == 0 && attempted_ > 0 ? "true" : "false")
      << ", \"attempted\": " << attempted_ << ", \"failed\": " << failed_
      << ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics_.size(); ++i) {
    const Metric& m = metrics_[i];
    out << (i ? ", " : "") << "\"" << m.name << "\": {\"value\": ";
    if (std::isfinite(m.value)) {
      out << m.value;
    } else {
      out << "null";
    }
    out << ", \"unit\": \"" << m.unit << "\"}";
  }
  out << "}}";
  return out.str();
}

// ------------------------------------------------------------ statistics

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2]
                    : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

double per_second(double count, const std::vector<double>& ms) {
  const double m = median(ms);
  return m > 0 ? count / (m / 1e3) : 0.0;
}

Tail tail(std::vector<double> values) {
  if (values.empty()) return {};
  std::sort(values.begin(), values.end());
  const double n = static_cast<double>(values.size());
  for (const double p : {99.9, 99.0, 95.0, 90.0, 75.0}) {
    if (n * (1.0 - p / 100.0) >= 10.0) {
      const auto rank = static_cast<std::size_t>(std::ceil(p / 100.0 * n));
      return {p, values[std::max<std::size_t>(rank, 1) - 1]};
    }
  }
  return {50.0, median(values)};
}

double cpu_seconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  const auto secs = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) + 1e-6 * tv.tv_usec;
  };
  return secs(usage.ru_utime) + secs(usage.ru_stime);
}

double peak_rss_mb() {
  return static_cast<double>(util::peak_rss_kb()) / 1024.0;
}

// ------------------------------------------------------------ identity

namespace {
void put(std::string& out, const void* data, std::size_t n) {
  out.append(static_cast<const char*>(data), n);
}
void put_u64(std::string& out, std::uint64_t v) { put(out, &v, sizeof v); }
void put_f64(std::string& out, double v) { put(out, &v, sizeof v); }
}  // namespace

std::string digest(const attack::CampaignResult& result) {
  std::string out;
  put_u64(out, result.checkpoints.size());
  for (const auto& c : result.checkpoints) {
    put_u64(out, c.traces);
    put_f64(out, c.rank.log2_lower);
    put_f64(out, c.rank.log2_upper);
    put_u64(out, static_cast<std::uint64_t>(c.correct_bytes));
    put_u64(out, c.full_key ? 1 : 0);
  }
  put_u64(out, result.traces_to_break);
  put_u64(out, result.broken ? 1 : 0);
  put_u64(out, result.traces_run);
  put_f64(out, result.mean_poi_readout);
  put_u64(out, result.final_scores.size());
  for (const double s : result.final_scores) put_f64(out, s);
  return out;
}

std::string file_bytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

std::uint64_t mix(std::uint64_t seed, std::uint64_t salt) {
  std::uint64_t z = seed + 0x9e3779b97f4a7c15ULL * (salt + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

// ------------------------------------------------------------ scratch

ScratchDir::ScratchDir(const std::string& parent) {
  std::filesystem::create_directories(parent);
  std::string pattern = parent + "/perfbench-XXXXXX";
  if (mkdtemp(pattern.data()) == nullptr) {
    throw std::runtime_error("cannot create a scratch directory under " +
                             parent + ": " + std::strerror(errno));
  }
  path_ = pattern;
}

ScratchDir::~ScratchDir() {
  std::error_code ignored;
  std::filesystem::remove_all(path_, ignored);
}

std::string ScratchDir::fresh(const std::string& name) const {
  const std::string dir = path_ + "/" + name;
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir;
}

// ------------------------------------------------------------ obs readers

void SpanTotals::start() {
  auto& sink = obs::SpanSink::global();
  sink.disable();
  sink.clear();
  sink.enable();
}

void SpanTotals::stop() {
  auto& sink = obs::SpanSink::global();
  sink.disable();
  for (const auto& event : sink.events()) {
    ms_[event.name] += 1e-6 * static_cast<double>(event.dur_ns);
  }
  dropped_ += sink.dropped();
  sink.clear();
}

double SpanTotals::ms(const std::string& name) const {
  const auto it = ms_.find(name);
  return it == ms_.end() ? 0.0 : it->second;
}

std::uint64_t counter(const std::string& name) {
  return obs::Registry::global().counter_value(name);
}

obs::Registry::HistogramSnapshot histogram(const std::string& name) {
  for (auto& [key, h] : obs::Registry::global().snapshot().histograms) {
    if (key == name) return h;
  }
  return {};
}

double histogram_median(const obs::Registry::HistogramSnapshot& h) {
  return obs::estimate_quantile(h, 0.5);
}

Tail histogram_tail(const obs::Registry::HistogramSnapshot& h) {
  const double n = static_cast<double>(h.total);
  for (const double p : {99.9, 99.0, 95.0, 90.0, 75.0}) {
    if (n * (1.0 - p / 100.0) >= 10.0) {
      return {p, obs::estimate_quantile(h, p / 100.0)};
    }
  }
  return {50.0, histogram_median(h)};
}

void warm_up(const attack::TraceCampaign& campaign, util::Rng rng) {
  auto task = campaign.start(rng);
  auto plan = campaign.plan_step(task, false);
  if (!plan.empty()) campaign.run_block(plan, 0);
}

// ------------------------------------------------------------ timed worlds

void BuildLog::record(const BuildPieces& pieces) {
  std::lock_guard<std::mutex> lock(mutex_);
  builds_.push_back(pieces);
}

std::vector<BuildPieces> BuildLog::builds() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return builds_;
}

void BuildLog::clear() {
  std::lock_guard<std::mutex> lock(mutex_);
  builds_.clear();
}

namespace {

/// Runs `make` and adds its host time to `ms`.
template <typename Make>
auto timed(double& ms, Make&& make) {
  const auto start = Clock::now();
  auto made = make();
  ms += ms_since(start);
  return made;
}

/// Owns one world's objects; the factories below fill it in the library
/// factory's order.
class TimedWorld final : public serve::CampaignWorld {
 public:
  explicit TimedWorld(std::uint64_t seed) : rng_(seed) {}

  attack::TraceCampaign& campaign() override { return *campaign_; }
  util::Rng& rng() override { return rng_; }

  util::Rng rng_;
  std::unique_ptr<fabric::Device> device_;
  std::unique_ptr<pdn::PdnGrid> grid_;
  std::unique_ptr<victim::AesCoreModel> aes_;
  std::unique_ptr<core::LeakyDspSensor> sensor_;
  std::unique_ptr<sim::SensorRig> rig_;
  std::unique_ptr<attack::TraceCampaign> campaign_;
};

crypto::Key draw_key(util::Rng& rng) {
  crypto::Key key;
  for (auto& b : key) b = static_cast<std::uint8_t>(rng() & 0xff);
  return key;
}

/// Rig constructor, calibration and campaign: the tail both factories
/// share.
void finish_world(TimedWorld& world, const pdn::PdnGrid& grid,
                  const attack::CampaignConfig& config, BuildPieces& pieces) {
  world.rig_ = timed(pieces.coupling_ms, [&] {
    return std::make_unique<sim::SensorRig>(grid, *world.sensor_);
  });
  timed(pieces.calibrate_ms, [&] { return world.rig_->calibrate(world.rng_); });
  world.campaign_ = std::make_unique<attack::TraceCampaign>(
      *world.rig_, *world.aes_, config);
}

}  // namespace

Basys3Fabric::Basys3Fabric()
    : device(timed(device_ms, [] { return fabric::Device::basys3(); })),
      grid(timed(grid_ms, [this] { return pdn::PdnGrid(device); })) {}

std::unique_ptr<serve::CampaignWorld> make_timed_standard_world(
    const serve::StandardCampaignSpec& spec, const Basys3Fabric& fabric,
    BuildLog& log) {
  const auto start = Clock::now();
  BuildPieces pieces;
  auto world = std::make_unique<TimedWorld>(spec.seed);
  const crypto::Key key = draw_key(world->rng_);
  victim::AesCoreParams aes_params;
  aes_params.clock_mhz = spec.victim_clock_mhz;
  aes_params.current_per_hd_bit = spec.current_per_hd_bit;
  world->aes_ = std::make_unique<victim::AesCoreModel>(
      key, fabric.scenario.aes_site(), fabric.grid, aes_params);
  world->sensor_ = std::make_unique<core::LeakyDspSensor>(
      fabric.device, fabric.scenario.attack_placements()
                         [sim::Basys3Scenario::kBestPlacementIndex]);
  attack::CampaignConfig config;
  config.max_traces = spec.max_traces;
  config.break_check_stride = spec.break_check_stride;
  config.rank_stride = spec.rank_stride;
  config.block_traces = spec.block_traces;
  config.threads = spec.threads;
  config.checkpoint_dir = spec.checkpoint_dir;
  config.campaign_id = spec.id;
  finish_world(*world, fabric.grid, config, pieces);
  pieces.total_ms = ms_since(start);
  log.record(pieces);
  return world;
}

std::unique_ptr<serve::CampaignWorld> make_timed_sweep_world(
    const scenario::CellWorldSpec& spec, BuildLog& log) {
  const auto start = Clock::now();
  BuildPieces pieces;
  auto world = std::make_unique<TimedWorld>(spec.cell_seed);
  world->device_ = timed(pieces.device_ms, [&] {
    return std::make_unique<fabric::Device>(
        fabric::generate_device(spec.device_spec));
  });
  world->grid_ = timed(pieces.grid_ms, [&] {
    return std::make_unique<pdn::PdnGrid>(
        *world->device_, pdn::params_from_pad_spec(spec.device_spec.pads));
  });
  const crypto::Key key = draw_key(world->rng_);
  world->rng_ = world->rng_.fork(static_cast<std::uint64_t>(spec.sensor_index));
  victim::AesCoreParams aes_params;
  aes_params.clock_mhz = spec.campaign.victim_clock_mhz;
  aes_params.current_per_hd_bit = spec.campaign.current_per_hd_bit;
  world->aes_ = std::make_unique<victim::AesCoreModel>(key, spec.victim_site,
                                                       *world->grid_,
                                                       aes_params);
  core::LeakyDspParams sensor_params;
  sensor_params.n_dsp = spec.cascade_dsps;
  world->sensor_ = std::make_unique<core::LeakyDspSensor>(
      *world->device_, spec.sensor_site, sensor_params);
  attack::CampaignConfig config;
  config.max_traces = spec.campaign.max_traces;
  config.break_check_stride = spec.campaign.break_check_stride;
  config.rank_stride = spec.campaign.rank_stride;
  config.block_traces = spec.campaign.block_traces;
  config.threads = spec.threads;
  config.checkpoint_dir = spec.checkpoint_dir;
  config.campaign_id = spec.campaign_id;
  config.keep_final_scores = true;
  finish_world(*world, *world->grid_, config, pieces);
  pieces.total_ms = ms_since(start);
  log.record(pieces);
  return world;
}

// ------------------------------------------------------------ metric sets

void Layers::add_builds(const std::vector<BuildPieces>& builds) {
  std::vector<double> totals;
  for (const auto& b : builds) {
    generate_device_ms += b.device_ms;
    grid_build_ms += b.grid_ms;
    coupling_ms += b.coupling_ms;
    calibrate_ms += b.calibrate_ms;
    world_build_ms += b.total_ms;
    totals.push_back(b.total_ms);
  }
  world_builds += static_cast<double>(builds.size());
  world_build_p50_ms = median(totals);
  world_build_tail = tail(totals);
}

void Layers::read_counters() {
  rng_draws = static_cast<double>(counter("rng.draws"));
  traces_sampled = static_cast<double>(counter("campaign.traces_sampled"));
  traces_accumulated = static_cast<double>(counter("cpa.traces_accumulated"));
  solve_calls = static_cast<double>(counter("pdn.solve.calls"));
  solve_iterations = static_cast<double>(counter("pdn.solve.iterations"));
  checkpoint_bytes = static_cast<double>(counter("campaign.checkpoint.bytes"));
}

void Layers::emit(Report& r) const {
  const std::string exact = "exact";
  // Exact on campaign_long (one world build); on the service workloads
  // these follow the number of rehydrations.
  const std::string sched = scheduled ? "schedule" : "exact";
  r.metric("util.pool_busy_frac", pool_busy_frac, "ratio");
  r.metric("host.cpu_util", cpu_util, "ratio");
  r.metric("attack.plan_step_ms", plan_step_ms, "ms");
  r.metric("attack.run_block_ms", run_block_ms, "ms");
  r.metric("attack.run_block_p50_ms", run_block_p50_ms, "ms");
  r.metric("attack.run_block_tail_ms", run_block_tail.value, "ms");
  r.metric("attack.run_block_tail_pct", run_block_tail.percentile, "%", exact);
  r.metric("attack.blocks", blocks, "count", exact);
  r.metric("attack.finish_step_ms", finish_step_ms, "ms");
  r.metric("attack.take_result_ms", take_result_ms, "ms");
  r.metric("attack.cpa_accumulate_ms", cpa_accumulate_ms, "ms");
  r.metric("attack.checkpoint_ms", checkpoint_ms, "ms");
  r.metric("sensors.sample_ms", sample_ms, "ms");
  r.metric("sensors.calibrate_ms", calibrate_ms, "ms");
  r.metric("pdn.grid_build_ms", grid_build_ms, "ms");
  r.metric("pdn.coupling_ms", coupling_ms, "ms");
  r.metric("pdn.supply_solve_ms", supply_solve_ms, "ms");
  r.metric("pdn.solve.calls", solve_calls, "count", sched);
  r.metric("pdn.solve.iterations", solve_iterations, "count", sched);
  r.metric("fabric.generate_device_ms", generate_device_ms, "ms");
  r.metric("scenario.plan_sweep_ms", plan_sweep_ms, "ms");
  r.metric("scenario.fuse_cell_ms", fuse_cell_ms, "ms");
  r.metric("serve.drain_ms", drain_ms, "ms");
  r.metric("serve.world_builds", world_builds, "count", sched);
  r.metric("serve.world_build_ms", world_build_ms, "ms");
  r.metric("serve.world_build_p50_ms", world_build_p50_ms, "ms");
  r.metric("serve.world_build_tail_ms", world_build_tail.value, "ms");
  r.metric("serve.world_build_tail_pct", world_build_tail.percentile, "%", sched);
  r.metric("serve.builds_per_job", builds_per_job, "ratio", sched);
  r.metric("world.build_share", world_build_share, "ratio");
  r.metric("serve.checkpoint_bytes", checkpoint_bytes, "bytes", sched);
  r.metric("sim.trace_file_bytes", trace_file_bytes, "bytes", exact);
  r.metric("serve.evictions", evictions, "count", "schedule");
  r.metric("serve.rehydrations", rehydrations, "count", "schedule");
  r.metric("serve.blocks_run", blocks_run, "count", exact);
  r.metric("serve.blocks_stolen", blocks_stolen, "count", "schedule");
  r.metric("serve.max_step_gap", max_step_gap, "count", "schedule");
  r.metric("serve.peak_resident_bytes", peak_resident_bytes, "bytes", "schedule");
  r.metric("rng.draws", rng_draws, "count", exact);
  r.metric("campaign.traces_sampled", traces_sampled, "count", exact);
  r.metric("cpa.traces_accumulated", traces_accumulated, "count", exact);
  r.metric("sim.traces_to_break", traces_to_break, "count", exact);
  r.metric("serve.jobs_broken", jobs_broken, "count", exact);
  r.metric("scenario.fused_correct_bytes", fused_correct_bytes, "count", exact);
  r.metric("trace.overhead_ms", overhead_ms, "ms");
  r.metric("trace.overhead_frac", overhead_frac, "ratio");
  r.metric("trace.spans_dropped", spans_dropped, "count", "schedule");
}

void EndToEnd::emit(Report& r) const {
  r.metric("traces_per_s", traces_per_s, "1/s");
  r.metric("traces_per_s_1t", traces_per_s_1t, "1/s");
  r.metric("campaigns_per_s", campaigns_per_s, "1/s");
  r.metric("setup_s", setup_s, "s");
  r.metric("peak_rss_mb", peak_rss_mb(), "MiB");
}

}  // namespace perfbench
