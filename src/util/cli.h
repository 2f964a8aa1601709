// Minimal command-line parsing for benches and examples: `--key value`
// options, `--flag` booleans, with typed getters and defaults. Unknown
// options throw CliError, so typos in an experiment sweep fail loudly, and
// cli_main turns that into a usage message and exit status 2.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "util/contracts.h"

namespace leakydsp::util {

/// Thrown on a usage error: an unknown, repeated or malformed option, or a
/// value a typed getter cannot parse. The message names the option (and,
/// for an unknown one, lists the valid set). Derives from
/// util::PreconditionError so generic catch sites keep working while
/// entry points can tell usage errors from failures.
class CliError : public PreconditionError {
 public:
  using PreconditionError::PreconditionError;
};

/// Parsed command line. Construct once from argc/argv, then query.
class Cli {
 public:
  /// `spec` lists accepted option names (without the leading "--"); a name
  /// ending in '!' marks a boolean flag that takes no value. Throws
  /// CliError on any argument the spec does not accept (`--help` included:
  /// the message lists the valid options).
  Cli(int argc, const char* const* argv, const std::vector<std::string>& spec);

  /// As above, accepting `spec` plus an `extra` spec list — the way
  /// drivers append a shared option block (e.g. obs::cli_options()) to
  /// their own options without concatenating by hand.
  Cli(int argc, const char* const* argv, const std::vector<std::string>& spec,
      const std::vector<std::string>& extra);

  bool has(const std::string& name) const;

  std::string get_string(const std::string& name,
                         const std::string& fallback) const;
  std::int64_t get_int(const std::string& name, std::int64_t fallback) const;
  double get_double(const std::string& name, double fallback) const;
  std::uint64_t get_seed(const std::string& name,
                         std::uint64_t fallback) const;
  bool get_flag(const std::string& name) const;

  /// Worker-thread count for parallel stages: `--threads N`, defaulting to
  /// the hardware concurrency. N must be >= 1.
  std::size_t get_threads(const std::string& name = "threads") const;

  const std::string& program() const { return program_; }

 private:
  std::optional<std::string> raw(const std::string& name) const;

  std::string program_;
  std::map<std::string, std::string> values_;
  std::map<std::string, bool> flags_;
};

/// Shared entry point of the bench and example mains:
/// `int main(int argc, char** argv) { return cli_main(argc, argv, run); }`.
/// Returns `body`'s status; a CliError prints "<program>: <message>" to
/// stderr and returns 2, any other exception prints the same way and
/// returns 1 — never an abort.
int cli_main(int argc, char** argv, int (*body)(int argc, char** argv));

}  // namespace leakydsp::util
