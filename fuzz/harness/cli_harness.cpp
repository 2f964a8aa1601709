#include <string>
#include <vector>

#include "harness/harness.h"
#include "util/cli.h"

namespace leakydsp::fuzz {

int fuzz_cli(const std::uint8_t* data, std::size_t size) {
  // NUL-separated argv, mirroring how a shell hands arguments over. The
  // spec is representative of the real drivers: value options, flags, and
  // the shared option block shape.
  std::vector<std::string> args{"fuzz_cli"};
  std::string current;
  for (std::size_t i = 0; i < size; ++i) {
    if (data[i] == '\0') {
      args.push_back(current);
      current.clear();
    } else {
      current.push_back(static_cast<char>(data[i]));
    }
  }
  if (!current.empty()) args.push_back(current);

  std::vector<const char*> argv;
  argv.reserve(args.size());
  for (const auto& a : args) argv.push_back(a.c_str());

  try {
    const util::Cli cli(static_cast<int>(argv.size()), argv.data(),
                        {"seed", "iterations", "traces", "threads", "out",
                         "verbose!", "quiet!"});
    // Exercise every typed getter: numeric parsing is part of the
    // untrusted surface (throws on malformed numbers).
    (void)cli.get_string("out", "default");
    (void)cli.get_int("iterations", 1);
    (void)cli.get_int("traces", 0);
    (void)cli.get_double("seed", 0.0);
    (void)cli.get_seed("seed", 1);
    (void)cli.get_flag("verbose");
    (void)cli.get_flag("quiet");
    (void)cli.has("threads");
    if (cli.has("threads")) (void)cli.get_threads();
  } catch (const util::CliError&) {
    // Unknown options, duplicates, missing values, malformed numbers.
  }
  return 0;
}

}  // namespace leakydsp::fuzz
