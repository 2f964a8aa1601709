#include "util/cli.h"

#include <exception>
#include <iostream>
#include <set>
#include <sstream>

#include "util/thread_pool.h"

/// Usage-error check: throws CliError carrying just the message, which
/// names the offending option.
#define LD_CLI_REQUIRE(expr, msg)                           \
  do {                                                      \
    if (!(expr)) {                                          \
      std::ostringstream ld_cli_oss_;                       \
      ld_cli_oss_ << msg; /* NOLINT */                      \
      throw ::leakydsp::util::CliError(ld_cli_oss_.str());  \
    }                                                       \
  } while (false)

namespace leakydsp::util {

Cli::Cli(int argc, const char* const* argv,
         const std::vector<std::string>& spec) {
  LD_REQUIRE(argc >= 1, "argc must be >= 1");
  program_ = argv[0];

  std::set<std::string> value_opts;
  std::set<std::string> flag_opts;
  for (const auto& s : spec) {
    LD_REQUIRE(!s.empty(), "empty option name in spec");
    if (s.back() == '!') {
      flag_opts.insert(s.substr(0, s.size() - 1));
    } else {
      value_opts.insert(s);
    }
  }

  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    LD_CLI_REQUIRE(arg.rfind("--", 0) == 0,
                   "unexpected positional argument '" << arg << "'");
    std::string name = arg.substr(2);
    std::string inline_value;
    bool has_inline = false;
    if (const auto eq = name.find('='); eq != std::string::npos) {
      inline_value = name.substr(eq + 1);
      name = name.substr(0, eq);
      has_inline = true;
    }
    // Repeating an option is always a mistake (a sweep script overriding
    // itself); last-wins would hide it, so reject it outright.
    LD_CLI_REQUIRE(!values_.contains(name) && !flags_.contains(name),
                   "duplicate option --" << name);
    if (flag_opts.contains(name)) {
      LD_CLI_REQUIRE(!has_inline, "flag --" << name << " takes no value");
      flags_[name] = true;
    } else if (value_opts.contains(name)) {
      if (has_inline) {
        values_[name] = inline_value;
      } else {
        LD_CLI_REQUIRE(i + 1 < argc,
                       "option --" << name << " needs a value");
        values_[name] = argv[++i];
      }
    } else {
      std::string known;
      for (const auto& o : value_opts) known += " --" + o;
      for (const auto& o : flag_opts) known += " --" + o + "(flag)";
      LD_CLI_REQUIRE(false, "unknown option --" << name
                                                << "; valid options:" << known);
    }
  }
}

namespace {

std::vector<std::string> concat_specs(const std::vector<std::string>& spec,
                                      const std::vector<std::string>& extra) {
  std::vector<std::string> merged = spec;
  merged.insert(merged.end(), extra.begin(), extra.end());
  return merged;
}

}  // namespace

Cli::Cli(int argc, const char* const* argv,
         const std::vector<std::string>& spec,
         const std::vector<std::string>& extra)
    : Cli(argc, argv, concat_specs(spec, extra)) {}

bool Cli::has(const std::string& name) const {
  return values_.contains(name) || flags_.contains(name);
}

std::optional<std::string> Cli::raw(const std::string& name) const {
  if (const auto it = values_.find(name); it != values_.end()) {
    return it->second;
  }
  return std::nullopt;
}

std::string Cli::get_string(const std::string& name,
                            const std::string& fallback) const {
  return raw(name).value_or(fallback);
}

std::int64_t Cli::get_int(const std::string& name,
                          std::int64_t fallback) const {
  const auto v = raw(name);
  if (!v) return fallback;
  try {
    return std::stoll(*v);
  } catch (const std::exception&) {
    LD_CLI_REQUIRE(false, "option --" << name << " expects an integer, got '"
                                      << *v << "'");
  }
  return fallback;  // unreachable
}

double Cli::get_double(const std::string& name, double fallback) const {
  const auto v = raw(name);
  if (!v) return fallback;
  try {
    return std::stod(*v);
  } catch (const std::exception&) {
    LD_CLI_REQUIRE(false, "option --" << name << " expects a number, got '"
                                      << *v << "'");
  }
  return fallback;  // unreachable
}

std::uint64_t Cli::get_seed(const std::string& name,
                            std::uint64_t fallback) const {
  const auto v = raw(name);
  if (!v) return fallback;
  try {
    return std::stoull(*v, nullptr, 0);
  } catch (const std::exception&) {
    LD_CLI_REQUIRE(false, "option --" << name << " expects a seed, got '"
                                      << *v << "'");
  }
  return fallback;  // unreachable
}

std::size_t Cli::get_threads(const std::string& name) const {
  const auto n = get_int(
      name, static_cast<std::int64_t>(ThreadPool::hardware_threads()));
  LD_CLI_REQUIRE(n >= 1,
                 "option --" << name << " must be >= 1, got " << n);
  return static_cast<std::size_t>(n);
}

bool Cli::get_flag(const std::string& name) const {
  const auto it = flags_.find(name);
  return it != flags_.end() && it->second;
}

int cli_main(int argc, char** argv, int (*body)(int argc, char** argv)) {
  const std::string program = argc >= 1 ? argv[0] : "leakydsp";
  const std::string name = program.substr(program.find_last_of('/') + 1);
  try {
    return body(argc, argv);
  } catch (const CliError& e) {
    std::cerr << name << ": " << e.what() << "\n";
    return 2;
  } catch (const std::exception& e) {
    std::cerr << name << ": " << e.what() << "\n";
    return 1;
  }
}

}  // namespace leakydsp::util
