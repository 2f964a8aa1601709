// Differential oracle for the campaign service: a generated batch of
// standard campaigns drained through the work-stealing scheduler — under a
// generated residency limit, quantum, and thread count, with evictions and
// rehydrations forced by contention — must produce, for every campaign, a
// CampaignResult bit-identical to a standalone TraceCampaign::run of the
// same spec. One record job rides in every batch; its trace file must be
// byte-identical to a standalone TraceCampaign::record.
#include <filesystem>
#include <fstream>
#include <iterator>
#include <sstream>
#include <string>
#include <vector>

#include "attack/campaign.h"
#include "serve/campaign_service.h"
#include "serve/standard_jobs.h"
#include "sim/trace_store.h"
#include "verify/oracle.h"

namespace leakydsp::verify {

namespace {

struct ServeCase {
  std::int64_t jobs = 3;
  std::int64_t max_traces = 96;
  std::int64_t block_traces = 32;
  std::int64_t break_stride = 48;
  std::int64_t rank_stride = 96;
  std::int64_t max_resident = 1;
  std::int64_t quantum_steps = 1;
  std::int64_t threads = 2;
  std::int64_t record_traces = 64;
  std::uint64_t seed = 0;
};

std::string describe_serve(const ServeCase& c) {
  std::ostringstream oss;
  oss << "{jobs=" << c.jobs << " max_traces=" << c.max_traces
      << " block=" << c.block_traces << " break_stride=" << c.break_stride
      << " rank_stride=" << c.rank_stride
      << " max_resident=" << c.max_resident << " quantum=" << c.quantum_steps
      << " threads=" << c.threads << " record_traces=" << c.record_traces
      << " seed=" << c.seed << "}";
  return oss.str();
}

class TempServeDir {
 public:
  explicit TempServeDir(std::uint64_t tag)
      : path_((std::filesystem::temp_directory_path() /
               ("leakydsp_verify_serve_" + std::to_string(tag)))
                  .string()) {
    std::filesystem::remove_all(path_);
    std::filesystem::create_directories(path_);
  }
  ~TempServeDir() {
    std::error_code ec;
    std::filesystem::remove_all(path_, ec);
  }
  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

serve::StandardCampaignSpec case_spec(const ServeCase& c, std::size_t job,
                                      const std::string& dir) {
  serve::StandardCampaignSpec spec;
  spec.id = "oracle-job" + std::to_string(job);
  // Job seeds derive from the case seed, so the whole batch replays from
  // the printed case alone.
  spec.seed = c.seed * 1315423911ULL + job * 2654435761ULL + 1;
  spec.max_traces = static_cast<std::size_t>(c.max_traces);
  spec.block_traces = static_cast<std::size_t>(c.block_traces);
  spec.break_check_stride = static_cast<std::size_t>(c.break_stride);
  spec.rank_stride = static_cast<std::size_t>(c.rank_stride);
  spec.checkpoint_dir = dir;
  return spec;
}

std::string file_bytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

Property<ServeCase> serve_vs_standalone_property() {
  Property<ServeCase> prop;
  prop.name = "serve.scheduled_vs_standalone";
  prop.generate = [](util::Rng& rng) {
    ServeCase c;
    c.jobs = gen_int(rng, 2, 4);
    c.max_traces = gen_int(rng, 64, 128);
    c.block_traces = gen_int(rng, 8, 48);
    c.break_stride = gen_int(rng, 16, 48);
    c.rank_stride = gen_int(rng, 32, 128);
    c.max_resident = gen_int(rng, 1, 2);
    c.quantum_steps = gen_int(rng, 1, 2);
    c.threads = gen_int(rng, 2, 4);
    c.seed = rng();
    c.record_traces = gen_int(rng, 1, 400);
    return c;
  };
  prop.shrink = [](const ServeCase& c) {
    std::vector<ServeCase> out;
    if (c.jobs > 2) {
      ServeCase s = c;
      s.jobs = c.jobs - 1;
      out.push_back(s);
    }
    for (const std::int64_t traces : shrink_int(c.max_traces, 64)) {
      ServeCase s = c;
      s.max_traces = traces;
      out.push_back(s);
    }
    for (const std::int64_t block : shrink_int(c.block_traces, 8)) {
      ServeCase s = c;
      s.block_traces = block;
      out.push_back(s);
    }
    if (c.threads > 2) {
      ServeCase s = c;
      s.threads = 2;
      out.push_back(s);
    }
    for (const std::int64_t traces : shrink_int(c.record_traces, 1)) {
      ServeCase s = c;
      s.record_traces = traces;
      out.push_back(s);
    }
    return out;
  };
  prop.describe = describe_serve;
  prop.check = [](const ServeCase& c) -> CheckOutcome {
    const TempServeDir dir(c.seed ^ 0x5E21ULL);
    serve::ServiceConfig config;
    config.threads = static_cast<std::size_t>(c.threads);
    config.max_resident = static_cast<std::size_t>(c.max_resident);
    config.quantum_steps = static_cast<std::size_t>(c.quantum_steps);
    config.checkpoint_dir = dir.path();
    serve::CampaignService service(config);
    std::vector<serve::StandardCampaignSpec> specs;
    for (std::int64_t j = 0; j < c.jobs; ++j) {
      specs.push_back(
          case_spec(c, static_cast<std::size_t>(j), dir.path()));
      service.enqueue(serve::make_standard_job(specs.back()));
    }
    // The record job queues last, so under contention it waits for the
    // attack jobs' evictions and its waves then share the pool with their
    // blocks.
    serve::StandardCampaignSpec record_spec =
        case_spec(c, specs.size(), dir.path());
    record_spec.id = "oracle-record";
    const auto record_traces = static_cast<std::size_t>(c.record_traces);
    const std::string record_path = dir.path() + "/scheduled.ldtr";
    serve::CampaignJob record_job = serve::make_standard_job(record_spec);
    record_job.record = serve::RecordJobSpec{record_traces, record_path};
    service.enqueue(std::move(record_job));

    const auto outcomes = service.drain();
    if (outcomes.size() != specs.size() + 1) {
      return fail("drain returned " + std::to_string(outcomes.size()) +
                  " outcomes for " + std::to_string(specs.size() + 1) +
                  " jobs");
    }
    if (outcomes.back().evictions != 0) return fail("record job evicted");
    {
      const std::string standalone_path = dir.path() + "/standalone.ldtr";
      auto world = serve::make_standard_world(record_spec);
      sim::TraceStoreWriter writer(standalone_path,
                                   world->campaign().trace_samples());
      world->campaign().record(world->rng(), record_traces, writer);
      writer.finish();
      if (file_bytes(record_path) != file_bytes(standalone_path)) {
        return fail("record job's trace file differs from standalone "
                    "TraceCampaign::record");
      }
    }
    for (std::size_t j = 0; j < specs.size(); ++j) {
      const auto standalone = serve::run_standard_campaign(specs[j], 1);
      const auto& scheduled = outcomes[j].result;
      const auto mismatch = [&](const char* field) {
        std::ostringstream oss;
        oss << "campaign " << specs[j].id << " (evictions="
            << outcomes[j].evictions
            << "): scheduled vs standalone differ in '" << field << "'";
        return fail(oss.str());
      };
      if (scheduled.traces_to_break != standalone.traces_to_break)
        return mismatch("traces_to_break");
      if (scheduled.broken != standalone.broken) return mismatch("broken");
      if (scheduled.traces_run != standalone.traces_run)
        return mismatch("traces_run");
      if (scheduled.mean_poi_readout != standalone.mean_poi_readout)
        return mismatch("mean_poi_readout");
      if (scheduled.checkpoints.size() != standalone.checkpoints.size())
        return mismatch("checkpoints.size");
      for (std::size_t i = 0; i < scheduled.checkpoints.size(); ++i) {
        const auto& a = scheduled.checkpoints[i];
        const auto& b = standalone.checkpoints[i];
        if (a.traces != b.traces || a.correct_bytes != b.correct_bytes ||
            a.full_key != b.full_key ||
            a.rank.log2_lower != b.rank.log2_lower ||
            a.rank.log2_upper != b.rank.log2_upper) {
          return mismatch("checkpoints[]");
        }
      }
    }
    return pass();
  };
  return prop;
}

}  // namespace

void register_serve_oracles(std::vector<Oracle>& out) {
  out.push_back(make_oracle(
      "CampaignService drain (work-stealing blocks, bounded residency, "
      "checkpoint eviction/rehydration) vs standalone TraceCampaign::run "
      "per campaign: bit-identical CampaignResult; a record job in the "
      "batch writes a file byte-identical to TraceCampaign::record",
      2, serve_vs_standalone_property()));
}

}  // namespace leakydsp::verify
