#include "common/cli.hpp"

#include <gtest/gtest.h>

#include "common/error.hpp"

namespace rh::common {
namespace {

CliArgs make(std::initializer_list<const char*> argv_tail) {
  std::vector<const char*> argv{"prog"};
  argv.insert(argv.end(), argv_tail.begin(), argv_tail.end());
  return CliArgs(static_cast<int>(argv.size()), argv.data());
}

TEST(Cli, ParsesEqualsForm) {
  const auto args = make({"--stride=16"});
  EXPECT_EQ(args.get_int("stride", 0), 16);
}

TEST(Cli, ParsesSpaceForm) {
  const auto args = make({"--stride", "32"});
  EXPECT_EQ(args.get_int("stride", 0), 32);
}

TEST(Cli, ParsesBooleanFlag) {
  const auto args = make({"--full"});
  EXPECT_TRUE(args.has("full"));
  EXPECT_FALSE(args.has("other"));
}

TEST(Cli, KeepsPositionalArguments) {
  const auto args = make({"input.csv", "--k=v", "output.csv"});
  ASSERT_EQ(args.positional().size(), 2u);
  EXPECT_EQ(args.positional()[0], "input.csv");
  EXPECT_EQ(args.positional()[1], "output.csv");
}

TEST(Cli, DefaultsWhenAbsent) {
  const auto args = make({});
  EXPECT_EQ(args.get("name", "fallback"), "fallback");
  EXPECT_EQ(args.get_int("n", 7), 7);
  EXPECT_DOUBLE_EQ(args.get_double("x", 2.5), 2.5);
}

TEST(Cli, RejectsNonNumericValues) {
  const auto args = make({"--n=abc"});
  EXPECT_THROW((void)args.get_int("n", 0), ConfigError);
  const auto args2 = make({"--x=1.5zzz"});
  EXPECT_THROW((void)args2.get_double("x", 0.0), ConfigError);
}

TEST(Cli, RejectsBareDashes) { EXPECT_THROW(make({"--"}), ConfigError); }

TEST(Cli, ParsesDoubles) {
  const auto args = make({"--temp=85.5"});
  EXPECT_DOUBLE_EQ(args.get_double("temp", 0.0), 85.5);
}

TEST(Cli, TracksUnqueriedFlags) {
  const auto args = make({"--used=1", "--typo=2"});
  (void)args.get_int("used", 0);
  const auto unqueried = args.unqueried_flags();
  ASSERT_EQ(unqueried.size(), 1u);
  EXPECT_EQ(unqueried[0], "typo");
}

TEST(Cli, NegativeNumbersAsValues) {
  const auto args = make({"--offset=-12"});
  EXPECT_EQ(args.get_int("offset", 0), -12);
}

TEST(Cli, ParseFailuresAreCliErrors) {
  // CliError derives from ConfigError: old catch sites keep working, new
  // ones can distinguish flag errors from config errors.
  const auto args = make({"--n=abc"});
  EXPECT_THROW((void)args.get_int("n", 0), CliError);
  EXPECT_THROW(make({"--"}), CliError);
}

TEST(Cli, PositiveIntAcceptsValidAndDefaults) {
  const auto args = make({"--jobs=8"});
  EXPECT_EQ(args.get_positive_int("jobs", 1), 8);
  // Absent flag: the default passes through unchecked.
  EXPECT_EQ(args.get_positive_int("retries", 1), 1);
}

TEST(Cli, PositiveIntRejectsZeroAndNegative) {
  EXPECT_THROW((void)make({"--jobs=0"}).get_positive_int("jobs", 1), CliError);
  EXPECT_THROW((void)make({"--jobs=-4"}).get_positive_int("jobs", 1), CliError);
  EXPECT_THROW((void)make({"--retries=-1"}).get_positive_int("retries", 1), CliError);
}

TEST(Cli, PositiveDoubleRejectsZeroNegativeAndNonFinite) {
  EXPECT_DOUBLE_EQ(make({"--rate=1.5"}).get_positive_double("rate", 1.0), 1.5);
  EXPECT_THROW((void)make({"--rate=0"}).get_positive_double("rate", 1.0), CliError);
  EXPECT_THROW((void)make({"--rate=-0.1"}).get_positive_double("rate", 1.0), CliError);
  EXPECT_THROW((void)make({"--rate=nan"}).get_positive_double("rate", 1.0), CliError);
  EXPECT_THROW((void)make({"--rate=inf"}).get_positive_double("rate", 1.0), CliError);
}

TEST(Cli, FractionEnforcesUnitInterval) {
  EXPECT_DOUBLE_EQ(make({"--fault-rate=0.05"}).get_fraction("fault-rate", 0.0), 0.05);
  EXPECT_DOUBLE_EQ(make({"--fault-rate=0"}).get_fraction("fault-rate", 0.5), 0.0);
  EXPECT_DOUBLE_EQ(make({"--fault-rate=1"}).get_fraction("fault-rate", 0.5), 1.0);
  EXPECT_THROW((void)make({"--fault-rate=1.01"}).get_fraction("fault-rate", 0.0), CliError);
  EXPECT_THROW((void)make({"--fault-rate=-0.05"}).get_fraction("fault-rate", 0.0), CliError);
  EXPECT_THROW((void)make({"--fault-rate=nan"}).get_fraction("fault-rate", 0.0), CliError);
}

TEST(Cli, RejectUnqueriedNamesEveryUnreadFlag) {
  auto args = make({"--used=1", "--typo=2", "--other"});
  (void)args.get_int("used", 0);
  try {
    args.reject_unqueried();
    FAIL() << "unknown flags passed the check";
  } catch (const CliError& e) {
    EXPECT_STREQ(e.what(), "unknown flag --other, --typo");
  }
}

TEST(Cli, ReadingANewFlagAfterTheCheckFailsWhetherOrNotItWasGiven) {
  auto args = make({"--used=1", "--late=2"});
  (void)args.get_int("used", 0);
  (void)args.has("late");
  args.reject_unqueried();
  EXPECT_EQ(args.get_int("used", 0), 1);  // read before the check: still fine
  EXPECT_EQ(args.get("late", ""), "2");
  EXPECT_THROW((void)args.has("absent"), std::logic_error);
  EXPECT_THROW((void)args.get_int("never", 3), std::logic_error);
}

TEST(Cli, RunMainReturnsTheBodysStatusOrOneOnAnyError) {
  const auto read_n = [](CliArgs& args) { return static_cast<int>(args.get_int("n", 0)); };
  const char* good[] = {"prog", "--n=7"};
  EXPECT_EQ(run_main(2, good, read_n), 7);
  const char* bad[] = {"prog", "--n=abc"};
  EXPECT_EQ(run_main(2, bad, read_n), 1);
  const char* malformed[] = {"prog", "--=3"};
  EXPECT_EQ(run_main(2, malformed, read_n), 1);
}

}  // namespace
}  // namespace rh::common
