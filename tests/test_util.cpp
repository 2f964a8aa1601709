// Unit tests for the util substrate: RNG determinism and distribution
// moments, bit vectors, contracts, tables and CLI parsing.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <limits>
#include <sstream>
#include <stdexcept>

#include "util/bench_json.h"
#include "util/bitvec.h"
#include "util/cli.h"
#include "util/contracts.h"
#include "util/rng.h"
#include "util/table.h"
#include "util/thread_pool.h"
#include "util/units.h"

namespace lu = leakydsp::util;

TEST(Contracts, RequireThrowsWithMessage) {
  try {
    LD_REQUIRE(1 == 2, "custom detail " << 42);
    FAIL() << "expected throw";
  } catch (const lu::PreconditionError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("1 == 2"), std::string::npos);
    EXPECT_NE(what.find("custom detail 42"), std::string::npos);
  }
}

TEST(Contracts, EnsureThrowsInvariantError) {
  EXPECT_THROW(LD_ENSURE(false, "broken"), lu::InvariantError);
  EXPECT_NO_THROW(LD_ENSURE(true, "fine"));
}

TEST(Rng, DeterministicForSameSeed) {
  lu::Rng a(123);
  lu::Rng b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a(), b());
}

TEST(Rng, DifferentSeedsDiffer) {
  lu::Rng a(1);
  lu::Rng b(2);
  int equal = 0;
  for (int i = 0; i < 64; ++i) {
    if (a() == b()) ++equal;
  }
  EXPECT_LT(equal, 2);
}

TEST(Rng, UniformInUnitInterval) {
  lu::Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, UniformMeanApproachesHalf) {
  lu::Rng rng(11);
  double sum = 0.0;
  const int n = 200000;
  for (int i = 0; i < n; ++i) sum += rng.uniform();
  EXPECT_NEAR(sum / n, 0.5, 0.005);
}

TEST(Rng, GaussianMoments) {
  lu::Rng rng(13);
  double sum = 0.0;
  double sum_sq = 0.0;
  const int n = 200000;
  for (int i = 0; i < n; ++i) {
    const double g = rng.gaussian();
    sum += g;
    sum_sq += g * g;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.02);
  EXPECT_NEAR(sum_sq / n, 1.0, 0.03);
}

TEST(Rng, GaussianScaled) {
  lu::Rng rng(17);
  double sum = 0.0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) sum += rng.gaussian(3.0, 0.5);
  EXPECT_NEAR(sum / n, 3.0, 0.02);
}

TEST(Rng, UniformU64Bounded) {
  lu::Rng rng(19);
  for (int i = 0; i < 10000; ++i) {
    EXPECT_LT(rng.uniform_u64(17), 17u);
  }
  EXPECT_THROW(rng.uniform_u64(0), lu::PreconditionError);
}

TEST(Rng, BernoulliFrequency) {
  lu::Rng rng(23);
  int hits = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) {
    if (rng.bernoulli(0.3)) ++hits;
  }
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.01);
  EXPECT_THROW(rng.bernoulli(1.5), lu::PreconditionError);
}

TEST(Rng, PoissonMean) {
  lu::Rng rng(29);
  double sum = 0.0;
  const int n = 50000;
  for (int i = 0; i < n; ++i) sum += rng.poisson(4.5);
  EXPECT_NEAR(sum / n, 4.5, 0.1);
  EXPECT_EQ(rng.poisson(0.0), 0u);
}

TEST(Rng, PoissonLargeMeanUsesNormalApprox) {
  lu::Rng rng(31);
  double sum = 0.0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) sum += rng.poisson(100.0);
  EXPECT_NEAR(sum / n, 100.0, 1.0);
}

TEST(Rng, ExponentialMean) {
  lu::Rng rng(37);
  double sum = 0.0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) sum += rng.exponential(2.0);
  EXPECT_NEAR(sum / n, 0.5, 0.01);
}

TEST(Rng, StudentTHeavyTails) {
  lu::Rng rng(41);
  double sum = 0.0;
  int extreme = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) {
    const double t = rng.student_t(4.0);
    sum += t;
    if (std::abs(t) > 4.0) ++extreme;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.05);
  // t(4) has far more 4-sigma events than a Gaussian (~0.6% vs ~0.006%).
  EXPECT_GT(extreme, n / 1000);
}

TEST(Rng, ForkedStreamsAreIndependent) {
  lu::Rng parent(43);
  lu::Rng a = parent.fork(0);
  lu::Rng b = parent.fork(1);
  int equal = 0;
  for (int i = 0; i < 64; ++i) {
    if (a() == b()) ++equal;
  }
  EXPECT_LT(equal, 2);
}

TEST(Rng, SerializeRoundTripContinuesStreamExactly) {
  lu::Rng rng(77);
  // Warm up past a gaussian() so the cached Box-Muller draw is live —
  // the round trip must preserve it, not just the state words.
  for (int i = 0; i < 17; ++i) rng();
  (void)rng.gaussian();
  lu::Rng copy = lu::Rng::deserialize(rng.serialize());
  for (int i = 0; i < 100; ++i) {
    ASSERT_EQ(copy(), rng());
    ASSERT_EQ(copy.gaussian(), rng.gaussian());
  }
}

TEST(Rng, GaussianBoundCoversTheLargestBoxMullerRadius) {
  // uniform() > 0 is at least 2^-53, so the radius never exceeds this.
  EXPECT_LT(std::sqrt(-2.0 * std::log(0x1.0p-53)), lu::Rng::kGaussianBound);
  EXPECT_GT(std::sqrt(-2.0 * std::log(0x1.0p-53)), 8.57);
}

namespace {

/// `skipped` has skipped n gaussians where `called` called gaussian() n
/// times; both must be indistinguishable from now on.
void expect_same_generator(const lu::Rng& skipped, const lu::Rng& called) {
  EXPECT_EQ(skipped.serialize(), called.serialize());
  EXPECT_EQ(skipped.draws(), called.draws());
}

void expect_same_future(lu::Rng skipped, lu::Rng called) {
  for (int i = 0; i < 9; ++i) {
    ASSERT_EQ(skipped.gaussian(), called.gaussian());
    ASSERT_EQ(skipped(), called());
  }
  expect_same_generator(skipped, called);
}

}  // namespace

TEST(Rng, SkipGaussiansMatchesCallingGaussian) {
  lu::Rng script(2024);
  for (int start_live = 0; start_live < 2; ++start_live) {
    lu::Rng skipped(31 + static_cast<std::uint64_t>(start_live));
    if (start_live != 0) (void)skipped.gaussian();
    lu::Rng called = skipped;
    for (int op = 0; op < 400; ++op) {
      if (script.bernoulli(0.3)) {
        ASSERT_EQ(skipped.gaussian(), called.gaussian()) << "op " << op;
      } else {
        const std::size_t n = script.uniform_u64(8);
        skipped.skip_gaussians(n);
        for (std::size_t i = 0; i < n; ++i) (void)called.gaussian();
      }
      expect_same_generator(skipped, called);
    }
    expect_same_future(skipped, called);
  }
}

TEST(Rng, SkipGaussiansOddAndEvenFromEitherSpareParity) {
  for (const std::size_t n : {1u, 2u, 3u, 4u, 47u, 48u}) {
    for (int live = 0; live < 2; ++live) {
      lu::Rng skipped(5);
      if (live != 0) (void)skipped.gaussian();
      lu::Rng called = skipped;
      skipped.skip_gaussians(n);
      for (std::size_t i = 0; i < n; ++i) (void)called.gaussian();
      expect_same_generator(skipped, called);
      expect_same_future(skipped, called);
    }
  }
}

TEST(Rng, PendingSpareSurvivesCopyForkAndDeserialize) {
  lu::Rng skipped(88);
  lu::Rng called(88);
  skipped.skip_gaussians(5);  // three fresh pairs: the last spare is live
  for (int i = 0; i < 5; ++i) (void)called.gaussian();
  expect_same_future(lu::Rng(skipped), called);
  expect_same_future(skipped.fork(3), called.fork(3));
  expect_same_future(lu::Rng::deserialize(skipped.serialize()),
                     lu::Rng::deserialize(called.serialize()));
  // deserialize() restarts draws() at 0 on both sides alike.
  lu::Rng restored = lu::Rng::deserialize(skipped.serialize());
  lu::Rng restored_ref = lu::Rng::deserialize(called.serialize());
  restored.skip_gaussians(2);
  (void)restored_ref.gaussian();
  (void)restored_ref.gaussian();
  expect_same_future(restored, restored_ref);
}

TEST(BitVec, ConstructAndTest) {
  lu::BitVec v(100);
  EXPECT_EQ(v.size(), 100u);
  EXPECT_EQ(v.hamming_weight(), 0u);
  v.set(0, true);
  v.set(99, true);
  EXPECT_TRUE(v.test(0));
  EXPECT_TRUE(v.test(99));
  EXPECT_FALSE(v.test(50));
  EXPECT_EQ(v.hamming_weight(), 2u);
}

TEST(BitVec, FilledConstructionClearsPadding) {
  lu::BitVec v(70, true);
  EXPECT_EQ(v.hamming_weight(), 70u);
}

TEST(BitVec, OutOfRangeThrows) {
  lu::BitVec v(8);
  EXPECT_THROW(v.test(8), lu::PreconditionError);
  EXPECT_THROW(v.set(100, true), lu::PreconditionError);
}

TEST(BitVec, FromWordRoundTrip) {
  const auto v = lu::BitVec::from_word(0b1011, 4);
  EXPECT_TRUE(v.test(0));
  EXPECT_TRUE(v.test(1));
  EXPECT_FALSE(v.test(2));
  EXPECT_TRUE(v.test(3));
  EXPECT_EQ(v.to_word(4), 0b1011u);
}

TEST(BitVec, FromStringMsbFirst) {
  const auto v = lu::BitVec::from_string("1010");
  EXPECT_EQ(v.to_word(4), 0b1010u);
  EXPECT_EQ(v.to_string(), "1010");
  EXPECT_THROW(lu::BitVec::from_string("10x1"), lu::PreconditionError);
}

TEST(BitVec, HammingDistance) {
  const auto a = lu::BitVec::from_word(0b1100, 4);
  const auto b = lu::BitVec::from_word(0b1010, 4);
  EXPECT_EQ(a.hamming_distance(b), 2u);
  const lu::BitVec wrong_size(5);
  EXPECT_THROW(a.hamming_distance(wrong_size), lu::PreconditionError);
}

TEST(BitVec, BitwiseOps) {
  const auto a = lu::BitVec::from_word(0b1100, 4);
  const auto b = lu::BitVec::from_word(0b1010, 4);
  EXPECT_EQ((a ^ b).to_word(4), 0b0110u);
  EXPECT_EQ((a & b).to_word(4), 0b1000u);
  EXPECT_EQ((a | b).to_word(4), 0b1110u);
  EXPECT_EQ((~a).to_word(4), 0b0011u);
}

TEST(BitVec, ComplementKeepsSizeInvariant) {
  lu::BitVec v(130);
  const auto c = ~v;
  EXPECT_EQ(c.size(), 130u);
  EXPECT_EQ(c.hamming_weight(), 130u);
}

TEST(BitVec, FlipAndFill) {
  lu::BitVec v(16);
  v.flip(3);
  EXPECT_TRUE(v.test(3));
  v.flip(3);
  EXPECT_FALSE(v.test(3));
  v.fill(true);
  EXPECT_EQ(v.hamming_weight(), 16u);
}

TEST(Table, AlignedPrint) {
  lu::Table t({"name", "value"});
  t.row().add("alpha").add(1.5, 2);
  t.row().add("b").add(42);
  std::ostringstream oss;
  t.print(oss);
  const std::string out = oss.str();
  EXPECT_NE(out.find("alpha"), std::string::npos);
  EXPECT_NE(out.find("1.50"), std::string::npos);
  EXPECT_NE(out.find("42"), std::string::npos);
}

TEST(Table, CsvEscaping) {
  lu::Table t({"a", "b"});
  t.row().add("x,y").add("plain");
  std::ostringstream oss;
  t.print_csv(oss);
  EXPECT_NE(oss.str().find("\"x,y\""), std::string::npos);
}

TEST(Table, TooManyCellsThrows) {
  lu::Table t({"only"});
  t.row().add("one");
  EXPECT_THROW(t.add("two"), lu::PreconditionError);
}

TEST(Table, FormatHelpers) {
  EXPECT_EQ(lu::format_double(3.14159, 2), "3.14");
  EXPECT_EQ(lu::format_count(25000), "25,000");
  EXPECT_EQ(lu::format_count(999), "999");
  EXPECT_EQ(lu::format_count(1234567), "1,234,567");
}

TEST(Cli, ParsesValuesAndFlags) {
  const char* argv[] = {"prog", "--traces", "5000", "--quick", "--seed=42"};
  lu::Cli cli(5, argv, {"traces", "seed", "quick!"});
  EXPECT_EQ(cli.get_int("traces", 0), 5000);
  EXPECT_EQ(cli.get_seed("seed", 0), 42u);
  EXPECT_TRUE(cli.get_flag("quick"));
  EXPECT_FALSE(cli.get_flag("missing_flag"));
}

TEST(Cli, ThreadsDefaultsToHardwareAndRejectsZero) {
  const char* none[] = {"prog"};
  EXPECT_EQ(lu::Cli(1, none, {"threads"}).get_threads(),
            lu::ThreadPool::hardware_threads());
  const char* four[] = {"prog", "--threads", "4"};
  EXPECT_EQ(lu::Cli(3, four, {"threads"}).get_threads(), 4u);
  const char* zero[] = {"prog", "--threads", "0"};
  EXPECT_THROW(lu::Cli(3, zero, {"threads"}).get_threads(),
               lu::PreconditionError);
}

TEST(BenchJson, RendersRowsInOrder) {
  lu::BenchJson report("demo");
  report.row()
      .set("label", "run \"a\"")
      .set("threads", std::int64_t{8})
      .set("wall_seconds", 1.5)
      .set("identical", true);
  report.row().set("threads", std::int64_t{1});
  const std::string json = report.to_string();
  // Header plus the host provenance block (machine-dependent values, so
  // only the keys are pinned).
  EXPECT_EQ(json.rfind("{\n  \"bench\": \"demo\",\n  \"host\": {", 0), 0u);
  EXPECT_NE(json.find("\"hardware_threads\": "), std::string::npos);
  EXPECT_NE(json.find("\"compiler\": \""), std::string::npos);
  EXPECT_NE(json.find("\"cxx_flags\": \""), std::string::npos);
  EXPECT_NE(json.find("\"build_type\": \""), std::string::npos);
  // The results array renders rows and fields in insertion order, exactly.
  const std::size_t results = json.find("\"results\": [");
  ASSERT_NE(results, std::string::npos);
  EXPECT_EQ(json.substr(results),
            "\"results\": [\n"
            "    {\"label\": \"run \\\"a\\\"\", \"threads\": 8, "
            "\"wall_seconds\": 1.5, \"identical\": true},\n"
            "    {\"threads\": 1}\n  ]\n}\n");
}

TEST(BenchJson, NonFiniteDoublesSerializeAsNull) {
  // JSON has no NaN/Inf literal; a diverged bench must still produce a
  // parseable report instead of an invalid token (or, before the fix, an
  // exception that loses the whole report).
  lu::BenchJson report("demo");
  report.row()
      .set("speedup", std::numeric_limits<double>::infinity())
      .set("ratio", std::numeric_limits<double>::quiet_NaN())
      .set("ok", 2.0);
  const std::string json = report.to_string();
  EXPECT_NE(json.find("\"speedup\": null"), std::string::npos);
  EXPECT_NE(json.find("\"ratio\": null"), std::string::npos);
  EXPECT_NE(json.find("\"ok\": 2"), std::string::npos);
  EXPECT_EQ(json.find("inf"), std::string::npos);
  EXPECT_EQ(json.find("nan"), std::string::npos);
}

TEST(BenchJson, LargeUint64RendersUnsigned) {
  // Values above INT64_MAX used to be cast through int64 and render as
  // negative numbers.
  lu::BenchJson report("demo");
  report.row().set("big", std::uint64_t{18446744073709551615ull});
  const std::string json = report.to_string();
  // Restrict the minus-sign check to the results array: the host block's
  // compiler flags legitimately contain dashes.
  const std::size_t start = json.find("\"results\"");
  ASSERT_NE(start, std::string::npos);
  const std::string results = json.substr(start);
  EXPECT_NE(results.find("\"big\": 18446744073709551615"), std::string::npos);
  EXPECT_EQ(results.find('-'), std::string::npos);
}

TEST(Cli, DefaultsWhenAbsent) {
  const char* argv[] = {"prog"};
  lu::Cli cli(1, argv, {"traces", "rate", "quick!"});
  EXPECT_EQ(cli.get_int("traces", 60000), 60000);
  EXPECT_DOUBLE_EQ(cli.get_double("rate", 2.5), 2.5);
  EXPECT_FALSE(cli.get_flag("quick"));
}

TEST(Cli, UnknownOptionThrows) {
  const char* argv[] = {"prog", "--bogus", "1"};
  EXPECT_THROW(lu::Cli(3, argv, {"traces"}), lu::PreconditionError);
}

TEST(Cli, UnknownOptionMessageListsValidOptions) {
  const char* argv[] = {"prog", "--bogus", "1"};
  try {
    lu::Cli cli(3, argv, {"traces", "seed", "quick!"});
    FAIL() << "unknown option accepted";
  } catch (const lu::PreconditionError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("--bogus"), std::string::npos);
    EXPECT_NE(what.find("--traces"), std::string::npos);
    EXPECT_NE(what.find("--seed"), std::string::npos);
    EXPECT_NE(what.find("--quick"), std::string::npos);
  }
}

TEST(Cli, DuplicateOptionIsAHardError) {
  // Last-wins would silently drop half of a sweep command line.
  const char* twice[] = {"prog", "--traces", "10", "--traces", "20"};
  EXPECT_THROW(lu::Cli(5, twice, {"traces"}), lu::PreconditionError);
  const char* flag_twice[] = {"prog", "--quick", "--quick"};
  EXPECT_THROW(lu::Cli(3, flag_twice, {"quick!"}), lu::PreconditionError);
  const char* mixed[] = {"prog", "--traces=10", "--traces", "20"};
  EXPECT_THROW(lu::Cli(4, mixed, {"traces"}), lu::PreconditionError);
}

TEST(Cli, BadIntegerThrows) {
  const char* argv[] = {"prog", "--traces", "abc"};
  lu::Cli cli(3, argv, {"traces"});
  EXPECT_THROW(cli.get_int("traces", 0), lu::PreconditionError);
}

TEST(Cli, UsageErrorsAreTypedCliErrors) {
  const char* unknown[] = {"prog", "--help"};
  EXPECT_THROW(lu::Cli(2, unknown, {"traces"}), lu::CliError);
  const char* positional[] = {"prog", "stray"};
  EXPECT_THROW(lu::Cli(2, positional, {"traces"}), lu::CliError);
  const char* missing[] = {"prog", "--traces"};
  EXPECT_THROW(lu::Cli(2, missing, {"traces"}), lu::CliError);
  const char* bad[] = {"prog", "--traces", "x", "--rate", "y", "--seed", "z",
                       "--threads", "0"};
  const lu::Cli cli(9, bad, {"traces", "rate", "seed", "threads"});
  EXPECT_THROW(cli.get_int("traces", 0), lu::CliError);
  EXPECT_THROW(cli.get_double("rate", 0.0), lu::CliError);
  EXPECT_THROW(cli.get_seed("seed", 0), lu::CliError);
  EXPECT_THROW(cli.get_threads(), lu::CliError);
}

TEST(Cli, CliMainMapsUsageErrorsToExitTwo) {
  char prog[] = "prog";
  char bogus[] = "--bogus";
  char* argv[] = {prog, bogus};
  EXPECT_EQ(lu::cli_main(2, argv, [](int argc, char** args) {
              const lu::Cli cli(argc, args, {"quick!"});
              return 0;
            }),
            2);
  EXPECT_EQ(lu::cli_main(1, argv, [](int argc, char** args) {
              const lu::Cli cli(argc, args, {"quick!"});
              return 7;
            }),
            7);
  EXPECT_EQ(lu::cli_main(1, argv, [](int, char**) -> int {
              throw std::runtime_error("boom");
            }),
            1);
}

TEST(Units, Conversions) {
  EXPECT_DOUBLE_EQ(lu::ps(1000.0), 1.0);
  EXPECT_DOUBLE_EQ(lu::us(1.0), 1000.0);
  EXPECT_DOUBLE_EQ(lu::ms(1.0), 1e6);
  EXPECT_DOUBLE_EQ(lu::mv(250.0), 0.25);
  EXPECT_DOUBLE_EQ(lu::mhz_to_period_ns(300.0), 1e3 / 300.0);
  EXPECT_NEAR(lu::period_ns_to_mhz(lu::mhz_to_period_ns(20.0)), 20.0, 1e-12);
}
