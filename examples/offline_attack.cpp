// Analysis side of the split workflow: load a recorded trace file, run
// CPA over a points-of-interest window, estimate the key rank, and print
// the recovered master key — no simulator required, just the file.
//
//   $ ./example_offline_attack --in /tmp/leakydsp.ldtr
#include <iomanip>
#include <iostream>
#include <sstream>

#include "attack/cpa.h"
#include "attack/key_rank.h"
#include "crypto/aes128.h"
#include "sim/trace_store.h"
#include "util/cli.h"
#include "util/table.h"

using namespace leakydsp;

namespace {

int run(int argc, char** argv) {
  const util::Cli cli(argc, argv, {"in", "poi-begin", "poi-count"});
  const auto in = cli.get_string("in", "/tmp/leakydsp.ldtr");

  // Stream the file one chunk at a time: CPA only needs the POI window of
  // each trace, so even multi-gigabyte captures fit in bounded memory.
  sim::TraceStoreReader reader(in);
  if (reader.trace_count() < 100) {
    std::cerr << "too few traces in " << in << " (" << reader.trace_count()
              << ")\n";
    return 1;
  }
  // Default POI window: the last-round cycle of the 20 MHz victim at 15
  // samples/cycle (cycle 10 plus one cycle of ringing).
  const auto poi_begin =
      static_cast<std::size_t>(cli.get_int("poi-begin", 150));
  const auto poi_count =
      static_cast<std::size_t>(cli.get_int("poi-count", 30));
  if (poi_begin + poi_count > reader.samples_per_trace()) {
    std::cerr << "POI window outside the stored traces ("
              << reader.samples_per_trace() << " samples)\n";
    return 1;
  }

  std::cout << "loaded " << reader.trace_count() << " traces x "
            << reader.samples_per_trace() << " samples from " << in
            << " (format v" << reader.version() << "); CPA on samples ["
            << poi_begin << ", " << poi_begin + poi_count << ")\n\n";

  // Accumulate in 64-trace batches: add_traces amortizes the kernel setup
  // and streams each batch panel once across all 16 key bytes, instead of
  // paying the per-trace entry 60 k times.
  constexpr std::size_t kCpaBatch = 64;
  attack::CpaAttack cpa(poi_count);
  std::vector<crypto::Block> cts;
  std::vector<double> poi_rows;
  cts.reserve(kCpaBatch);
  poi_rows.reserve(kCpaBatch * poi_count);
  const auto flush = [&] {
    if (cts.empty()) return;
    cpa.add_traces(cts, poi_rows);
    cts.clear();
    poi_rows.clear();
  };
  sim::StoredTrace trace;
  while (reader.next(trace)) {
    cts.push_back(trace.ciphertext);
    for (std::size_t k = 0; k < poi_count; ++k) {
      poi_rows.push_back(trace.samples[poi_begin + k]);
    }
    if (cts.size() == kCpaBatch) flush();
  }
  flush();

  const auto scores = cpa.snapshot();
  util::Table table({"byte", "best guess", "|rho|", "runner-up |rho|"});
  for (int b = 0; b < 16; ++b) {
    const auto& s = scores[static_cast<std::size_t>(b)];
    std::ostringstream guess;
    guess << "0x" << std::hex << std::setw(2) << std::setfill('0')
          << static_cast<int>(s.best_guess);
    table.row()
        .add(b)
        .add(guess.str())
        .add(s.best_score, 4)
        .add(s.runner_up_score, 4);
  }
  table.print(std::cout);

  const auto master = cpa.recovered_master_key();
  std::ostringstream key_hex;
  key_hex << std::hex << std::setfill('0');
  for (const auto b : master) key_hex << std::setw(2) << static_cast<int>(b);
  std::cout << "\nrecovered master key: " << key_hex.str() << "\n"
            << "(compare with the key example_record_traces printed)\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return util::cli_main(argc, argv, run);
}
