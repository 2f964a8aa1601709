// service_churn: seed-derived standard campaigns, each several boundary
// steps long, drained through serve::CampaignService with residency below
// the job count — so most steps end in eviction (a checkpoint write, then
// a world rebuild and load_task on rehydration). Streaming record jobs
// write v2 trace files beside them: the write-heavy use of the service.
// World builds, not the sample/CPA path, dominate this workload.
#include <optional>
#include <string>
#include <vector>

#include "bench.h"
#include "sim/trace_store.h"

namespace perfbench {

using namespace leakydsp;

namespace {

constexpr std::size_t kAttackJobs = 12;
constexpr std::size_t kRecordJobs = 2;
constexpr std::size_t kAttackTraces = 192;  // 4 boundary steps of 48
constexpr std::size_t kRecordTraces = 512;
constexpr std::size_t kVerifySample = 3;

serve::StandardCampaignSpec churn_spec(std::uint64_t seed, std::size_t i) {
  serve::StandardCampaignSpec spec;
  spec.id = "churn-" + std::to_string(i);
  spec.seed = mix(seed, 100 + i);
  spec.max_traces = kAttackTraces;
  spec.block_traces = 32;
  spec.break_check_stride = 48;
  spec.rank_stride = 96;
  return spec;
}

std::string record_path(const std::string& dir, std::size_t k) {
  return dir + "/record-" + std::to_string(k) + ".ldt";
}

}  // namespace

void service_churn(const Options& options, Report& report) {
  std::vector<serve::StandardCampaignSpec> specs;
  std::optional<Basys3Fabric> fabric;  // traced runs only
  ServiceWorkload w;
  w.jobs = kAttackJobs + kRecordJobs;
  w.traces = kAttackJobs * kAttackTraces + kRecordJobs * kRecordTraces;

  w.setup = [&] {
    for (std::size_t i = 0; i < w.jobs; ++i) {
      specs.push_back(churn_spec(options.seed, i));
    }
    const auto world = serve::make_standard_world(specs.front());
    warm_up(world->campaign(), world->rng());
  };

  w.enqueue = [&](serve::CampaignService& service, const std::string& dir,
                  BuildLog* log) {
    if (log != nullptr && !fabric) {
      fabric.emplace();
      BuildPieces shared;
      shared.device_ms = fabric->device_ms;
      shared.grid_ms = fabric->grid_ms;
      w.one_off_builds.push_back(shared);
    }
    for (std::size_t i = 0; i < specs.size(); ++i) {
      serve::StandardCampaignSpec spec = specs[i];
      spec.checkpoint_dir = dir;
      serve::CampaignJob job = serve::make_standard_job(spec);
      if (log != nullptr) {
        const Basys3Fabric* shared = &*fabric;
        job.make = [spec, shared, log] {
          return make_timed_standard_world(spec, *shared, *log);
        };
      }
      if (i >= kAttackJobs) {
        serve::RecordJobSpec record;
        record.traces = kRecordTraces;
        record.out_path = record_path(dir, i - kAttackJobs);
        job.record = record;
      }
      service.enqueue(std::move(job));
    }
  };

  w.summarize = [&](const std::vector<serve::CampaignOutcome>& outcomes,
                    const std::string& dir) {
    DrainSummary s;
    for (std::size_t i = 0; i < outcomes.size(); ++i) {
      if (i < kAttackJobs) {
        const auto& r = outcomes[i].result;
        s.digest += digest(r);
        s.traces_to_break += static_cast<double>(r.traces_to_break);
        s.jobs_broken += r.broken ? 1 : 0;
      } else {
        const std::string bytes = file_bytes(record_path(dir, i - kAttackJobs));
        s.digest += std::to_string(outcomes[i].traces_recorded) + bytes;
        s.trace_file_bytes += static_cast<double>(bytes.size());
      }
    }
    return s;
  };

  w.verify = [&](Report& r, const std::vector<serve::CampaignOutcome>& outcomes,
                 const std::string& dir) {
    // A seed-chosen sample of attack outcomes against standalone runs.
    for (std::size_t k = 0; k < kVerifySample; ++k) {
      const std::size_t i = mix(options.seed, 900 + k) % kAttackJobs;
      const auto standalone = serve::run_standard_campaign(specs[i], kWorkers);
      r.check(digest(outcomes[i].result) == digest(standalone),
              specs[i].id + " differs from run_standard_campaign");
    }
    // Every record job's file against a standalone TraceCampaign::record.
    for (std::size_t k = 0; k < kRecordJobs; ++k) {
      const auto& spec = specs[kAttackJobs + k];
      const std::string path = dir + "/standalone-" + std::to_string(k) + ".ldt";
      auto world = serve::make_standard_world(spec);
      sim::TraceStoreWriter writer(path, world->campaign().trace_samples());
      world->campaign().record(world->rng(), kRecordTraces, writer);
      writer.finish();
      const std::string service_bytes = file_bytes(record_path(dir, k));
      r.check(!service_bytes.empty() && service_bytes == file_bytes(path),
              spec.id + " trace file differs from TraceCampaign::record");
    }
  };

  run_service_workload(options, report, w);
}

}  // namespace perfbench
