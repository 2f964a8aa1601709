// Repository benchmark binary. perfbench/run.py builds and runs it;
// see perfbench/README.md for the workloads and metrics.
//
//   perfbench --workload campaign_long|service_churn|sweep_large_die
//             --seed N --seconds S --trace 0|1 [--setup-only]
//             [--scratch DIR]
//
// Prints a human-readable summary, then as its last stdout line one JSON
// object: {"correct", "attempted", "failed", "metrics"}. Exit 0 when the
// run completed (check "correct"/"failed" for output mismatches), 2 on a
// bad command line, 1 when the run itself could not proceed.
#include <cerrno>
#include <cstdlib>
#include <exception>
#include <iostream>
#include <string>

#include "bench.h"

namespace {

constexpr const char* kUsage =
    "usage: perfbench --workload campaign_long|service_churn|sweep_large_die\n"
    "                 [--seed N] [--seconds S] [--trace 0|1] [--setup-only]\n"
    "                 [--scratch DIR]\n"
    "  --seed N       input seed (unsigned 64-bit, default 1)\n"
    "  --seconds S    measured time per run, 1..120 (default 10)\n"
    "  --trace 0|1    1: per-layer metrics from a traced run\n"
    "  --setup-only   run only the set-up phase and report setup_s\n"
    "  --scratch DIR  parent of the run's temporary directory (default .)\n";

[[noreturn]] void usage_error(const std::string& message) {
  std::cerr << "perfbench: " << message << "\n" << kUsage;
  std::exit(2);
}

bool parse_u64(const std::string& text, std::uint64_t& out) {
  if (text.empty() || text[0] == '-' || text[0] == '+') return false;
  errno = 0;
  char* end = nullptr;
  const unsigned long long v = std::strtoull(text.c_str(), &end, 10);
  if (errno != 0 || end != text.c_str() + text.size()) return false;
  out = v;
  return true;
}

perfbench::Options parse(int argc, char** argv) {
  perfbench::Options options;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--help" || arg == "-h") {
      std::cout << kUsage;
      std::exit(0);
    }
    if (arg == "--setup-only") {
      options.setup_only = true;
      continue;
    }
    if (arg != "--workload" && arg != "--seed" && arg != "--seconds" &&
        arg != "--trace" && arg != "--scratch") {
      usage_error("unknown option '" + arg + "'");
    }
    if (i + 1 >= argc) usage_error(arg + " needs a value");
    const std::string value = argv[++i];
    std::uint64_t n = 0;
    if (arg == "--workload") {
      if (value != "campaign_long" && value != "service_churn" &&
          value != "sweep_large_die") {
        usage_error("unknown workload '" + value + "'");
      }
      options.workload = value;
    } else if (arg == "--seed") {
      if (!parse_u64(value, n)) usage_error("bad --seed '" + value + "'");
      options.seed = n;
    } else if (arg == "--seconds") {
      if (!parse_u64(value, n) || n < 1 || n > 120) {
        usage_error("bad --seconds '" + value + "' (want 1..120)");
      }
      options.seconds = static_cast<double>(n);
    } else if (arg == "--trace") {
      if (value != "0" && value != "1") {
        usage_error("bad --trace '" + value + "' (want 0 or 1)");
      }
      options.trace = value == "1";
    } else {
      if (value.empty()) usage_error("empty --scratch");
      options.scratch = value;
    }
  }
  if (options.workload.empty()) usage_error("--workload is required");
  return options;
}

}  // namespace

int main(int argc, char** argv) {
  const perfbench::Options options = parse(argc, argv);
  perfbench::Report report;
  try {
    if (options.workload == "campaign_long") {
      perfbench::campaign_long(options, report);
    } else if (options.workload == "service_churn") {
      perfbench::service_churn(options, report);
    } else {
      perfbench::sweep_large_die(options, report);
    }
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << options.workload << " aborted: " << e.what()
              << "\n";
    return 1;
  }
  report.print_table(std::cout);
  std::cout << report.json() << std::endl;
  return 0;
}
