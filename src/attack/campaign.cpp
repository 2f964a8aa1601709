#include "attack/campaign.h"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <memory>
#include <system_error>
#include <utility>

#include "obs/log.h"
#include "obs/metrics.h"
#include "obs/progress.h"
#include "obs/span.h"
#include "util/byte_io.h"
#include "util/contracts.h"
#include "util/crc32.h"
#include "util/simd_ops.h"
#include "util/thread_pool.h"

namespace leakydsp::attack {

TraceCampaign::TraceCampaign(sim::SensorRig& rig, victim::AesCoreModel& aes,
                             CampaignConfig config)
    : rig_(&rig), aes_(&aes), config_(config) {
  // A single-trace campaign is a valid degenerate shape: it generates its
  // one trace and reports no break (the CPA needs two traces to
  // correlate, and every break/rank check already guards on t >= 2).
  LD_REQUIRE(config_.max_traces >= 1, "campaign needs traces");
  LD_REQUIRE(config_.break_check_stride >= 1, "bad break stride");
  LD_REQUIRE(config_.rank_stride >= 1, "bad rank stride");
  LD_REQUIRE(config_.block_traces >= 1, "bad block size");

  const double sensor_period = rig.params().sample_period_ns;
  const double victim_period = aes.clock_period_ns();
  spc_ = static_cast<std::size_t>(std::lround(victim_period / sensor_period));
  LD_REQUIRE(spc_ >= 1,
             "victim clock faster than the sensor sample clock (period "
                 << victim_period << " ns vs " << sensor_period << " ns)");

  // Trace covers the whole encryption plus two cycles of droop ringing.
  const std::size_t cycles = aes.cycles_per_encryption() + 2;
  trace_samples_ = cycles * spc_;

  // POI window: the victim cycle in which round 10 registers, plus one
  // cycle of ringing.
  const std::size_t round10_cycle = aes.params().load_cycles + 9;
  poi_begin_ = round10_cycle * spc_;
  poi_count_ = 2 * spc_;
  LD_ENSURE(poi_begin_ + poi_count_ <= trace_samples_, "POI outside trace");
}

void TraceCampaign::add_interferer(Interferer interferer) {
  LD_REQUIRE(interferer != nullptr, "null interferer");
  interferers_.push_back(std::move(interferer));
}

double TraceCampaign::interference_droop(
    double t_ns, util::Rng& rng,
    std::vector<pdn::CurrentInjection>& scratch) const {
  if (interferers_.empty()) return 0.0;
  scratch.clear();
  for (const auto& f : interferers_) f(t_ns, rng, scratch);
  return rig_->coupling().droop_for(scratch);
}

std::vector<double> TraceCampaign::generate_trace(
    const crypto::Block& plaintext, util::Rng& rng) {
  aes_->start_encryption(plaintext);
  const double gain = rig_->coupling().gain_at_node(aes_->pdn_node());
  const double dt = rig_->params().sample_period_ns;
  std::vector<double> samples;
  samples.reserve(trace_samples_);
  std::vector<pdn::CurrentInjection> scratch;
  for (std::size_t s = 0; s < trace_samples_; ++s) {
    const std::size_t cycle = s / spc_;
    const double droop =
        gain * aes_->current_at_cycle(cycle) +
        interference_droop(static_cast<double>(s) * dt, rng, scratch);
    const double v = rig_->supply_for_droop(droop, rng);
    samples.push_back(rig_->sensor().sample(v, rng));
  }
  return samples;
}

void TraceCampaign::sample_trace(sim::SensorRig::Sampler& sampler,
                                 victim::AesCoreModel& aes,
                                 const crypto::Block& plaintext, double gain,
                                 util::Rng& rng, TraceScratch& scratch,
                                 std::span<double> out) const {
  LD_REQUIRE(out.size() >= trace_samples_,
             "trace buffer too small: " << out.size() << " < "
                                        << trace_samples_);
  sampler.settle();  // idle between encryptions, as on the board
  aes.start_encryption(plaintext);
  scratch.droops.resize(trace_samples_);
  scratch.supplies.resize(trace_samples_);

  // Stage 1 (SoA): static droop per sensor sample. The victim current is
  // constant within a cycle, so evaluate it once per cycle and broadcast
  // through the vectorized fill.
  for (std::size_t s = 0; s < trace_samples_; s += spc_) {
    const double d = gain * aes.current_at_cycle(s / spc_);
    const std::size_t hi = std::min(s + spc_, trace_samples_);
    util::simd::fill(scratch.droops.data() + s, hi - s, d);
  }
  if (!interferers_.empty()) {
    const double dt = rig_->params().sample_period_ns;
    for (std::size_t s = 0; s < trace_samples_; ++s) {
      scratch.droops[s] += interference_droop(static_cast<double>(s) * dt, rng,
                                              scratch.injections);
    }
  }

  {
    // Stage 2: droop dynamics + ambient noise -> supply voltages.
    OBS_SPAN("pdn.supply_solve");
    sampler.supply_batch(scratch.droops, scratch.supplies, rng);
  }
  {
    // Stage 3: the sensor's batched digitization kernel.
    OBS_SPAN("sensor.sample");
    sampler.sensor().sample_batch(scratch.supplies, out, rng);
  }
}

std::vector<crypto::Block> TraceCampaign::plaintext_chain(
    crypto::Block& plaintext, std::size_t count) const {
  std::vector<crypto::Block> chain(count);
  for (std::size_t i = 0; i < count; ++i) {
    chain[i] = plaintext;
    plaintext = aes_->cipher().encrypt(plaintext);
  }
  return chain;
}

/// Per-block CPA accumulator a worker fills before the ordered merge.
/// Record blocks do not use it: growing it, even by an empty trace vector,
/// shifted glibc's arena reuse enough to raise the campaign's peak RSS by
/// about 10%, so record traces live in separate plan slots.
struct TraceCampaign::BlockShard {
  CpaAttack cpa;
  double poi_sum = 0.0;
  explicit BlockShard(std::size_t poi) : cpa(poi) {}
};

void TraceCampaign::process_block(std::size_t first_trace,
                                  std::span<const crypto::Block> plaintexts,
                                  const util::Rng& trace_parent,
                                  BlockShard* shard,
                                  std::vector<sim::StoredTrace>* traces) const {
  OBS_SCOPED_HISTO_MS("campaign.block_ms", ({1, 5, 10, 50, 100, 500, 1000}));
  sim::SensorRig::Sampler sampler = rig_->make_sampler();
  victim::AesCoreModel aes = *aes_;  // thread-private encryption state
  const double gain = rig_->coupling().gain_at_node(aes.pdn_node());
  const std::size_t n = plaintexts.size();
  std::vector<crypto::Block> ciphertexts(n);
  util::aligned_vector<double> poi_rows(shard != nullptr ? n * poi_count_ : 0);
  std::vector<double> trace(trace_samples_);
  TraceScratch scratch;

#if defined(LEAKYDSP_OBS)
  std::uint64_t rng_draws = 0;
#endif
  for (std::size_t i = 0; i < n; ++i) {
    util::Rng rng = trace_parent.fork(first_trace + i);
    sample_trace(sampler, aes, plaintexts[i], gain, rng, scratch, trace);
#if defined(LEAKYDSP_OBS)
    rng_draws += rng.draws();
#endif
    ciphertexts[i] = aes.ciphertext();
    if (shard == nullptr) {
      traces->push_back({ciphertexts[i], trace});
      continue;
    }
    double* poi = poi_rows.data() + i * poi_count_;
    for (std::size_t k = 0; k < poi_count_; ++k) {
      poi[k] = trace[poi_begin_ + k];
      shard->poi_sum += poi[k];
    }
  }
  OBS_COUNT("campaign.traces_sampled", n);
  OBS_COUNT("rng.draws", rng_draws);
  if (shard != nullptr) {
    OBS_SPAN("cpa.accumulate");
    shard->cpa.add_traces(ciphertexts, poi_rows);
  }
  OBS_PROGRESS_TICK();
}

// ----------------------------------------------------------- checkpoints

namespace {

constexpr char kCheckpointMagic[4] = {'L', 'D', 'C', 'K'};
constexpr std::uint32_t kCheckpointVersion = 1;
constexpr std::uint64_t kCheckpointOverhead = 20;  // magic+version+size+crc
constexpr char kUnkeyedCheckpointFile[] = "campaign.ckpt";

/// File-name-safe form of a campaign id: [A-Za-z0-9._-] passes through,
/// everything else (separators included — ids must never name directories)
/// becomes '_'.
std::string sanitize_id(const std::string& id) {
  std::string out = id;
  for (char& c : out) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '.' || c == '_' || c == '-';
    if (!ok) c = '_';
  }
  return out;
}

/// Checkpoint file for `id` inside `dir`. An empty id keeps the historical
/// single-file name so pre-id checkpoints (and every existing test corpus)
/// stay valid; non-empty ids get their own keyed file, which is what lets
/// many campaigns share one checkpoint directory.
std::string checkpoint_path(const std::string& dir, const std::string& id) {
  if (id.empty()) return dir + "/" + kUnkeyedCheckpointFile;
  return dir + "/campaign-" + sanitize_id(id) + ".ckpt";
}

[[noreturn]] void checkpoint_fail(const std::string& path,
                                  const std::string& what) {
  OBS_LOG(obs::LogLevel::kError, "campaign", "checkpoint load failed",
          obs::f("path", path), obs::f("reason", what));
  throw CheckpointError("campaign checkpoint '" + path + "': " + what);
}

/// Failure of a checkpoint filesystem operation: logs the errno alongside
/// the path and throws the typed error with the decoded message, so EACCES
/// can never masquerade as "no checkpoint yet".
[[noreturn]] void checkpoint_io_fail(const std::string& path,
                                     const std::string& what, int err) {
  OBS_LOG(obs::LogLevel::kError, "campaign", "checkpoint io failed",
          obs::f("path", path), obs::f("reason", what), obs::f("errno", err));
  throw CheckpointError(
      "campaign checkpoint '" + path + "': " + what + " (errno " +
      std::to_string(err) + ": " +
      std::error_code(err, std::generic_category()).message() + ")");
}

/// Smallest multiple of `stride` strictly greater than `t`.
std::size_t next_multiple(std::size_t t, std::size_t stride) {
  return (t / stride + 1) * stride;
}

}  // namespace

bool TraceCampaign::checkpoint_exists(const std::string& dir,
                                      const std::string& campaign_id) {
  const std::string path = checkpoint_path(dir, campaign_id);
  std::error_code ec;
  const std::filesystem::file_status st = std::filesystem::status(path, ec);
  // status() reports "nothing there" (ENOENT/ENOTDIR along the path) as
  // file_type::not_found; an indeterminate status (file_type::none with ec
  // set — EACCES, ELOOP, EIO, ...) is a failure to answer and must
  // surface, because callers branch to restart-from-scratch on `false`.
  if (st.type() == std::filesystem::file_type::none && ec) {
    checkpoint_io_fail(path, "cannot stat", ec.value());
  }
  if (st.type() == std::filesystem::file_type::not_found) {
    // No committed checkpoint. A stray sibling .tmp is crash garbage (the
    // commit point is the rename), so reap it instead of leaking it.
    const std::string tmp = path + ".tmp";
    std::error_code tmp_ec;
    if (std::filesystem::remove(tmp, tmp_ec)) {
      OBS_LOG(obs::LogLevel::kWarn, "campaign",
              "removed stray uncommitted checkpoint tmp", obs::f("path", tmp));
    }
    return false;
  }
  return std::filesystem::is_regular_file(st);
}

void TraceCampaign::write_checkpoint(const RunState& state) const {
  OBS_SPAN("campaign.checkpoint");
  util::ByteWriter payload;
  // Config fields that shape results: resume() refuses a checkpoint whose
  // campaign was configured differently (threads excluded by design — the
  // determinism contract makes it irrelevant).
  payload.u32(static_cast<std::uint32_t>(poi_count_));
  payload.u64(config_.block_traces);
  payload.u64(config_.break_check_stride);
  payload.u64(config_.rank_stride);
  payload.u64(config_.stable_breaks);
  payload.u64(config_.max_traces);
  // Loop state.
  payload.u8(state.completed ? 1 : 0);
  payload.u64(state.t);
  payload.f64(state.poi_sum);
  payload.u64(state.consecutive_ok);
  payload.bytes(state.plaintext);
  for (const std::uint64_t w : state.trace_parent.serialize()) payload.u64(w);
  // Result so far.
  payload.u8(state.result.broken ? 1 : 0);
  payload.u64(state.result.traces_to_break);
  payload.u64(state.result.traces_run);
  payload.f64(state.result.mean_poi_readout);
  payload.u64(state.result.checkpoints.size());
  for (const Checkpoint& cp : state.result.checkpoints) {
    payload.u64(cp.traces);
    payload.f64(cp.rank.log2_lower);
    payload.f64(cp.rank.log2_upper);
    payload.u32(static_cast<std::uint32_t>(cp.correct_bytes));
    payload.u8(cp.full_key ? 1 : 0);
  }
  // CPA accumulators.
  state.cpa.serialize(payload);

  util::ByteWriter file;
  file.bytes({reinterpret_cast<const std::uint8_t*>(kCheckpointMagic), 4});
  file.u32(kCheckpointVersion);
  file.u64(payload.size());
  file.bytes(payload.span());
  file.u32(util::crc32(payload.span()));

  // Durable atomic replace. ofstream::flush only hands bytes to the OS, so
  // flush-then-rename survives a crash of this process but not of the
  // machine: after power loss the rename can be on disk while the data is
  // not, surfacing a zero-length or stale checkpoint file. The crash-safe
  // sequence is write(fd) -> fsync(fd) -> rename -> fsync(parent dir): the
  // data blocks are durable before the name flips, and the directory entry
  // is durable before we report progress.
  std::error_code ec;
  std::filesystem::create_directories(config_.checkpoint_dir, ec);
  if (ec) {
    checkpoint_io_fail(config_.checkpoint_dir,
                       "cannot create checkpoint directory", ec.value());
  }
  const std::string path =
      checkpoint_path(config_.checkpoint_dir, config_.campaign_id);
  const std::string tmp = path + ".tmp";
  const int fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC,
                        0644);
  if (fd < 0) checkpoint_io_fail(tmp, "cannot open for writing", errno);
  std::span<const std::uint8_t> rest = file.span();
  while (!rest.empty()) {
    const ssize_t n = ::write(fd, rest.data(), rest.size());
    if (n < 0) {
      if (errno == EINTR) continue;
      const int err = errno;
      ::close(fd);
      checkpoint_io_fail(tmp, "write failure", err);
    }
    rest = rest.subspan(static_cast<std::size_t>(n));
  }
  if (::fsync(fd) != 0) {
    const int err = errno;
    ::close(fd);
    checkpoint_io_fail(tmp, "fsync failure", err);
  }
  if (::close(fd) != 0) checkpoint_io_fail(tmp, "close failure", errno);
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    checkpoint_io_fail(path, "cannot rename '" + tmp + "' into place", errno);
  }
  const int dir_fd =
      ::open(config_.checkpoint_dir.c_str(), O_RDONLY | O_DIRECTORY | O_CLOEXEC);
  if (dir_fd < 0) {
    checkpoint_io_fail(config_.checkpoint_dir,
                       "cannot open directory for fsync", errno);
  }
  if (::fsync(dir_fd) != 0) {
    const int err = errno;
    ::close(dir_fd);
    checkpoint_io_fail(config_.checkpoint_dir, "directory fsync failure", err);
  }
  ::close(dir_fd);
  OBS_COUNT("campaign.checkpoint.writes", 1);
  OBS_COUNT("campaign.checkpoint.bytes", file.size());
  OBS_GAUGE_SET("campaign.checkpoint.traces", state.t);
  OBS_LOG(obs::LogLevel::kDebug, "campaign", "checkpoint written",
          obs::f("path", path), obs::f("traces", state.t),
          obs::f("bytes", file.size()),
          obs::f("completed", state.completed));
}

TraceCampaign::RunState TraceCampaign::load_checkpoint() const {
  const std::string path =
      checkpoint_path(config_.checkpoint_dir, config_.campaign_id);
  errno = 0;
  std::ifstream is(path, std::ios::binary);
  if (!is.is_open()) {
    checkpoint_fail(path, "cannot open (errno " + std::to_string(errno) +
                              ": " +
                              std::error_code(errno, std::generic_category())
                                  .message() +
                              ")");
  }
  is.seekg(0, std::ios::end);
  const auto file_size = static_cast<std::uint64_t>(is.tellg());
  is.seekg(0);
  if (file_size < kCheckpointOverhead) {
    checkpoint_fail(path, "too small to hold a checkpoint");
  }
  std::vector<std::uint8_t> bytes(file_size);
  is.read(reinterpret_cast<char*>(bytes.data()),
          static_cast<std::streamsize>(bytes.size()));
  if (static_cast<std::uint64_t>(is.gcount()) != file_size || !is) {
    checkpoint_fail(path, "truncated while reading");
  }
  if (std::memcmp(bytes.data(), kCheckpointMagic, 4) != 0) {
    checkpoint_fail(path, "bad magic");
  }
  util::ByteReader head({bytes.data() + 4, 12});
  const std::uint32_t version = head.u32();
  if (version != kCheckpointVersion) {
    checkpoint_fail(path,
                    "unsupported version " + std::to_string(version));
  }
  const std::uint64_t payload_size = head.u64();
  if (payload_size != file_size - kCheckpointOverhead) {
    checkpoint_fail(path, "payload size field inconsistent with file size");
  }
  const std::span<const std::uint8_t> payload{bytes.data() + 16,
                                              payload_size};
  std::uint32_t stored_crc = 0;
  std::memcpy(&stored_crc, bytes.data() + 16 + payload_size, 4);
  if (util::crc32(payload) != stored_crc) {
    checkpoint_fail(path, "payload CRC mismatch");
  }

  try {
    util::ByteReader in(payload);
    const std::uint32_t poi = in.u32();
    const std::uint64_t block_traces = in.u64();
    const std::uint64_t break_stride = in.u64();
    const std::uint64_t rank_stride = in.u64();
    const std::uint64_t stable_breaks = in.u64();
    const std::uint64_t max_traces = in.u64();
    if (poi != poi_count_ || block_traces != config_.block_traces ||
        break_stride != config_.break_check_stride ||
        rank_stride != config_.rank_stride ||
        stable_breaks != config_.stable_breaks ||
        max_traces != config_.max_traces) {
      checkpoint_fail(path,
                      "was written by a differently configured campaign");
    }
    RunState state(poi_count_);
    state.completed = in.u8() != 0;
    state.t = static_cast<std::size_t>(in.u64());
    state.poi_sum = in.f64();
    state.consecutive_ok = static_cast<std::size_t>(in.u64());
    in.bytes(state.plaintext);
    std::array<std::uint64_t, 6> rng_words{};
    for (auto& w : rng_words) w = in.u64();
    state.trace_parent = util::Rng::deserialize(rng_words);
    state.result.broken = in.u8() != 0;
    state.result.traces_to_break = static_cast<std::size_t>(in.u64());
    state.result.traces_run = static_cast<std::size_t>(in.u64());
    state.result.mean_poi_readout = in.f64();
    const std::uint64_t n_checkpoints = in.u64();
    // Each serialized checkpoint occupies 29 bytes; bound the vector by
    // what the buffer can actually hold before reserving.
    if (n_checkpoints > in.remaining() / 29) {
      checkpoint_fail(path, "checkpoint list longer than the payload");
    }
    state.result.checkpoints.reserve(n_checkpoints);
    for (std::uint64_t i = 0; i < n_checkpoints; ++i) {
      Checkpoint cp;
      cp.traces = static_cast<std::size_t>(in.u64());
      cp.rank.log2_lower = in.f64();
      cp.rank.log2_upper = in.f64();
      cp.correct_bytes = static_cast<int>(in.u32());
      cp.full_key = in.u8() != 0;
      state.result.checkpoints.push_back(cp);
    }
    state.cpa = CpaAttack::deserialize(in);
    if (!in.exhausted()) {
      checkpoint_fail(path, "trailing bytes after the CPA state");
    }
    if (state.cpa.poi_count() != poi_count_ ||
        state.cpa.trace_count() != state.t ||
        state.result.traces_run != state.t) {
      checkpoint_fail(path, "internal state inconsistent");
    }
    return state;
  } catch (const CheckpointError&) {
    throw;
  } catch (const util::PreconditionError& e) {
    checkpoint_fail(path, e.what());
  }
}

// ---------------------------------------------------- resumable-task core

/// One planned step: the materialized plaintext slice plus one slot per
/// trace block — a CPA shard for an attack step, the full traces for a
/// record wave. run_block() fills slots independently; finish_step folds
/// them back in block order.
struct TraceCampaign::StepPlan::Impl {
  std::size_t base_t = 0;       ///< state.t when the step was planned
  std::size_t next = 0;         ///< state.t after the step completes
  std::size_t count = 0;        ///< traces in this step (next - base_t)
  std::size_t block = 0;        ///< config.block_traces at planning time
  bool stop_when_broken = true;
  bool record = false;          ///< a record wave: blocks keep full traces
  util::Rng trace_parent;       ///< per-trace fork parent (snapshot)
  std::vector<crypto::Block> plaintexts;
  std::vector<std::unique_ptr<BlockShard>> shards;   ///< attack steps
  std::vector<std::vector<sim::StoredTrace>> traces; ///< record waves
};

TraceCampaign::StepPlan::StepPlan() = default;
TraceCampaign::StepPlan::StepPlan(std::unique_ptr<Impl> impl)
    : impl_(std::move(impl)) {}
TraceCampaign::StepPlan::StepPlan(StepPlan&&) noexcept = default;
TraceCampaign::StepPlan& TraceCampaign::StepPlan::operator=(
    StepPlan&&) noexcept = default;
TraceCampaign::StepPlan::~StepPlan() = default;

std::size_t TraceCampaign::StepPlan::block_count() const {
  return impl_ ? (impl_->count + impl_->block - 1) / impl_->block : 0;
}

TraceCampaign::Task::Task(std::unique_ptr<RunState> state)
    : state_(std::move(state)) {}
TraceCampaign::Task::Task(Task&&) noexcept = default;
TraceCampaign::Task& TraceCampaign::Task::operator=(Task&&) noexcept = default;
TraceCampaign::Task::~Task() = default;

std::size_t TraceCampaign::Task::traces_done() const {
  return state_ ? state_->t : 0;
}

std::size_t TraceCampaign::Task::traces_total() const {
  return state_ ? state_->max_traces : 0;
}

bool TraceCampaign::Task::suspendable() const {
  return state_ != nullptr && state_->writer == nullptr;
}

TraceCampaign::Task TraceCampaign::start(util::Rng& rng) const {
  auto state = std::make_unique<RunState>(poi_count_);
  for (auto& b : state->plaintext) b = static_cast<std::uint8_t>(rng() & 0xff);
  // Every trace t forks its own noise stream from this snapshot, so the
  // readouts depend only on the seed and t — never on which worker ran it.
  state->trace_parent = rng;
  state->max_traces = config_.max_traces;
  return Task(std::move(state));
}

TraceCampaign::Task TraceCampaign::start_record(
    util::Rng& rng, std::size_t n, sim::TraceStoreWriter& writer) const {
  LD_REQUIRE(n >= 1, "need at least one trace");
  LD_REQUIRE(writer.samples_per_trace() == trace_samples_,
             "writer expects " << writer.samples_per_trace()
                               << " samples per trace, campaign produces "
                               << trace_samples_);
  Task task = start(rng);
  task.state_->max_traces = n;
  task.state_->writer = &writer;
  return task;
}

TraceCampaign::Task TraceCampaign::load_task() const {
  LD_REQUIRE(!config_.checkpoint_dir.empty(),
             "load_task() requires config.checkpoint_dir");
  auto state = std::make_unique<RunState>(load_checkpoint());
  state->max_traces = config_.max_traces;
  OBS_LOG(obs::LogLevel::kInfo, "campaign", "rehydrated task from checkpoint",
          obs::f("dir", config_.checkpoint_dir),
          obs::f("campaign", config_.campaign_id), obs::f("traces", state->t),
          obs::f("completed", state->completed));
  return Task(std::move(state));
}

TraceCampaign::StepPlan TraceCampaign::plan_step(Task& task,
                                                 bool stop_when_broken) const {
  LD_REQUIRE(task.state_ != nullptr, "plan_step on an empty task");
  RunState& state = *task.state_;
  if (state.completed || state.stopped || state.t >= state.max_traces) {
    return StepPlan();
  }
  std::size_t next = state.max_traces;
  if (state.writer != nullptr) {
    // A record wave: enough blocks to keep every hardware thread busy,
    // few enough that only one wave of traces is ever resident. Waves
    // hold whole blocks, so the file never depends on the wave size.
    next = std::min(next, state.t + 4 * util::ThreadPool::hardware_threads() *
                                        config_.block_traces);
  } else {
    // Advance to the next checkpoint boundary: break checks while the key
    // is still unbroken, rank checkpoints always.
    if (!state.result.broken) {
      next = std::min(next, next_multiple(state.t, config_.break_check_stride));
    }
    next = std::min(next, next_multiple(state.t, config_.rank_stride));
  }

  auto impl = std::make_unique<StepPlan::Impl>();
  impl->base_t = state.t;
  impl->next = next;
  impl->count = next - state.t;
  impl->block = config_.block_traces;
  impl->stop_when_broken = stop_when_broken;
  impl->record = state.writer != nullptr;
  impl->trace_parent = state.trace_parent;
  // The paper chains plaintexts (p[t+1] = ciphertext of trace t); the
  // chain is pure AES, so materialize it before any PDN work and hand
  // each worker block its slice. This advances the state's cursor — the
  // step is committed to run once planned.
  impl->plaintexts = plaintext_chain(state.plaintext, impl->count);
  const std::size_t blocks = (impl->count + impl->block - 1) / impl->block;
  if (impl->record) {
    impl->traces.resize(blocks);
  } else {
    impl->shards.resize(blocks);
  }
  return StepPlan(std::move(impl));
}

void TraceCampaign::run_block(StepPlan& plan, std::size_t block) const {
  LD_REQUIRE(plan.impl_ != nullptr, "run_block on an empty plan");
  StepPlan::Impl& impl = *plan.impl_;
  LD_REQUIRE(block < plan.block_count(),
             "block " << block << " out of range (" << plan.block_count()
                      << " blocks)");
  const std::size_t lo = block * impl.block;
  const std::size_t hi = std::min(lo + impl.block, impl.count);
  const std::span<const crypto::Block> slice{impl.plaintexts.data() + lo,
                                             hi - lo};
  if (impl.record) {
    process_block(impl.base_t + lo + 1, slice, impl.trace_parent, nullptr,
                  &impl.traces[block]);
    return;
  }
  auto shard = std::make_unique<BlockShard>(poi_count_);
  process_block(impl.base_t + lo + 1, slice, impl.trace_parent, shard.get(),
                nullptr);
  impl.shards[block] = std::move(shard);
}

bool TraceCampaign::finish_step(Task& task, StepPlan&& plan) const {
  LD_REQUIRE(task.state_ != nullptr, "finish_step on an empty task");
  LD_REQUIRE(plan.impl_ != nullptr, "finish_step on an empty plan");
  const StepPlan consumed = std::move(plan);
  const StepPlan::Impl& step = *consumed.impl_;
  RunState& state = *task.state_;
  LD_REQUIRE(step.base_t == state.t,
             "finish_step out of order: plan at trace "
                 << step.base_t << ", task at " << state.t);
  // Fold in block order: the reduction tree is fixed by the block size,
  // not by the schedule, so any thread count gives identical sums — and a
  // record wave reaches the writer in trace order.
  for (const auto& shard : step.shards) {
    LD_REQUIRE(shard != nullptr, "finish_step before every block ran");
    state.cpa.merge(shard->cpa);
    state.poi_sum += shard->poi_sum;
  }
  for (const auto& block : step.traces) {
    LD_REQUIRE(!block.empty(), "finish_step before every block ran");
    for (const sim::StoredTrace& rec : block) {
      state.writer->add(rec.ciphertext, rec.samples);
    }
  }
  state.t = step.next;
  state.result.traces_run = state.t;
  if (state.writer != nullptr) return state.t < state.max_traces;

  const crypto::Key true_key = aes_->cipher().round_keys()[0];
  const crypto::RoundKey true_rk10 = aes_->cipher().round_keys()[10];

  if (!state.result.broken && state.t % config_.break_check_stride == 0 &&
      state.t >= 2) {
    const bool ok = state.cpa.recovered_master_key() == true_key;
    if (ok) {
      if (state.consecutive_ok == 0) {
        state.result.traces_to_break = state.t;  // first stable stride
      }
      ++state.consecutive_ok;
    } else {
      state.consecutive_ok = 0;
      state.result.traces_to_break = 0;
    }
    if (state.consecutive_ok >= config_.stable_breaks) {
      state.result.broken = true;
    }
  }

  bool stop = false;
  if (state.t % config_.rank_stride == 0 && state.t >= 2) {
    const auto scores = state.cpa.snapshot();
    Checkpoint cp;
    cp.traces = state.t;
    cp.rank = estimate_key_rank(scores, true_rk10, config_.rank_params);
    const auto recovered = state.cpa.recovered_round_key();
    for (int b = 0; b < 16; ++b) {
      if (recovered[static_cast<std::size_t>(b)] ==
          true_rk10[static_cast<std::size_t>(b)]) {
        ++cp.correct_bytes;
      }
    }
    cp.full_key = state.cpa.recovered_master_key() == true_key;
    state.result.checkpoints.push_back(cp);
    stop = step.stop_when_broken && state.result.broken;
  }
  if (stop) state.stopped = true;
  return !stop && state.t < state.max_traces;
}

void TraceCampaign::suspend(const Task& task) const {
  LD_REQUIRE(task.state_ != nullptr, "suspend on an empty task");
  LD_REQUIRE(task.suspendable(),
             "record tasks cannot be suspended: a trace file only commits "
             "at its footer");
  LD_REQUIRE(!config_.checkpoint_dir.empty(),
             "suspend() requires config.checkpoint_dir");
  write_checkpoint(*task.state_);
}

CampaignResult TraceCampaign::take_result(Task&& task) const {
  LD_REQUIRE(task.state_ != nullptr, "take_result on an empty task");
  Task consumed = std::move(task);
  RunState& state = *consumed.state_;
  if (!state.completed) {
    state.result.mean_poi_readout =
        state.poi_sum / (static_cast<double>(state.result.traces_run) *
                         static_cast<double>(poi_count_));
    state.completed = true;
    if (!config_.checkpoint_dir.empty() && consumed.suspendable()) {
      write_checkpoint(state);
    }
  }
  // The serialized result never carries the final scores, so every path —
  // a state rehydrated from an already-completed checkpoint included —
  // recomputes them from the bit-identically restored accumulator, and
  // run, resume and service outcomes agree byte for byte.
  if (config_.keep_final_scores) {
    const auto scores = state.cpa.snapshot();
    state.result.final_scores.reserve(scores.size() * 256);
    for (const auto& byte_scores : scores) {
      state.result.final_scores.insert(state.result.final_scores.end(),
                                       byte_scores.score.begin(),
                                       byte_scores.score.end());
    }
  }
  return std::move(state.result);
}

std::size_t TraceCampaign::approx_task_bytes() const {
  // Durable part: the merged CPA accumulator inside the RunState.
  const std::size_t durable = CpaAttack::approx_accumulator_bytes(poi_count_);
  // Transient part while a step is in flight: the widest boundary step is
  // bounded by rank_stride (a rank boundary always terminates a step), and
  // every block of it may hold a shard (one CPA accumulator + its working
  // buffers: the POI panel, one trace, and the SoA scratch) concurrently.
  const std::size_t widest = std::min(config_.max_traces, config_.rank_stride);
  const std::size_t blocks =
      (widest + config_.block_traces - 1) / config_.block_traces;
  const std::size_t per_block =
      CpaAttack::approx_accumulator_bytes(poi_count_) +
      config_.block_traces *
          (sizeof(crypto::Block) + poi_count_ * sizeof(double)) +
      4 * trace_samples_ * sizeof(double);
  return durable + widest * sizeof(crypto::Block) + blocks * per_block;
}

// --------------------------------------------------------------- running

CampaignResult TraceCampaign::run(util::Rng& rng, bool stop_when_broken) {
  return drive(start(rng), stop_when_broken);
}

CampaignResult TraceCampaign::resume(bool stop_when_broken) {
  LD_REQUIRE(!config_.checkpoint_dir.empty(),
             "resume() requires config.checkpoint_dir");
  return drive(load_task(), stop_when_broken);
}

void TraceCampaign::record(util::Rng& rng, std::size_t n,
                           sim::TraceStoreWriter& writer) const {
  (void)drive(start_record(rng, n, writer), /*stop_when_broken=*/false);
}

CampaignResult TraceCampaign::drive(Task task, bool stop_when_broken) const {
  const bool checkpointing =
      !config_.checkpoint_dir.empty() && task.suspendable();
  util::ThreadPool pool(config_.threads);
  OBS_LOG(obs::LogLevel::kInfo, "campaign", "run loop started",
          obs::f("from_trace", task.traces_done()),
          obs::f("max_traces", task.traces_total()),
          obs::f("block_traces", config_.block_traces),
          obs::f("threads", pool.size()),
          obs::f("checkpointing", checkpointing));

  for (;;) {
    StepPlan plan = plan_step(task, stop_when_broken);
    if (plan.empty()) break;
    pool.parallel_for(plan.block_count(),
                      [&](std::size_t blk) { run_block(plan, blk); });
    const bool more = finish_step(task, std::move(plan));
    // Durable progress: everything needed to continue from this boundary,
    // replacing the previous checkpoint atomically. A kill at ANY moment
    // loses at most the traces since the last boundary, and the resumed
    // run re-derives them bit-identically from the forked RNG streams.
    if (checkpointing) suspend(task);
    OBS_PROGRESS_TICK();
    if (!more) break;
  }

  CampaignResult result = take_result(std::move(task));
  OBS_LOG(obs::LogLevel::kInfo, "campaign", "run loop finished",
          obs::f("traces_run", result.traces_run),
          obs::f("broken", result.broken),
          obs::f("traces_to_break", result.traces_to_break));
  return result;
}

}  // namespace leakydsp::attack
