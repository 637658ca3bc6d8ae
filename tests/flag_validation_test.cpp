// Satellite: every cadence/count knob on the bench and tool command lines
// goes through a validated CliArgs getter, so nonsense values die at the
// flag with a message naming it — instead of hanging shard planning
// (--jobs=0), dividing by zero in a cadence, or silently disabling a
// sweep (--rows=0). Each test below calls the getter exactly the way the
// binary that owns the flag calls it.
#include "common/cli.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "common/error.hpp"

namespace rh::common {
namespace {

CliArgs make(std::initializer_list<const char*> argv_tail) {
  std::vector<const char*> argv{"prog"};
  argv.insert(argv.end(), argv_tail.begin(), argv_tail.end());
  return CliArgs(static_cast<int>(argv.size()), argv.data());
}

// --- campaign flags (bench_util.hpp campaign_config) -----------------

TEST(FlagValidation, JobsMustBePositive) {
  EXPECT_THROW((void)make({"--jobs=0"}).get_positive_int("jobs", 1), CliError);
  EXPECT_THROW((void)make({"--jobs=-2"}).get_positive_int("jobs", 1), CliError);
}

TEST(FlagValidation, StreamCycleCadenceMustBePositive) {
  EXPECT_THROW(
      (void)make({"--stream-cycle-cadence=0"}).get_positive_int("stream-cycle-cadence", 1 << 24),
      CliError);
}

TEST(FlagValidation, FaultRateIsAFraction) {
  EXPECT_THROW((void)make({"--fault-rate=1.5"}).get_fraction("fault-rate", 0.0), CliError);
  EXPECT_THROW((void)make({"--fault-rate=-0.1"}).get_fraction("fault-rate", 0.0), CliError);
  EXPECT_THROW((void)make({"--fault-rate=nan"}).get_fraction("fault-rate", 0.0), CliError);
}

// --- sweep-shape flags (bench/fig*, tools/rh_report, examples) --------

TEST(FlagValidation, StrideMustBePositive) {
  EXPECT_THROW((void)make({"--stride=0"}).get_positive_int("stride", 2048), CliError);
}

TEST(FlagValidation, HammersMustBePositive) {
  EXPECT_THROW((void)make({"--hammers=0"}).get_positive_int("hammers", 262144), CliError);
}

TEST(FlagValidation, ToleranceMustBePositive) {
  EXPECT_THROW((void)make({"--tolerance=0"}).get_positive_int("tolerance", 512), CliError);
}

TEST(FlagValidation, RowsMustBePositive) {
  EXPECT_THROW((void)make({"--rows=0"}).get_positive_int("rows", 64), CliError);
}

TEST(FlagValidation, IterationsMustBePositive) {
  EXPECT_THROW((void)make({"--iterations=0"}).get_positive_int("iterations", 4), CliError);
}

TEST(FlagValidation, RowsPerRegionMustBePositive) {
  EXPECT_THROW((void)make({"--rows-per-region=0"}).get_positive_int("rows-per-region", 32),
               CliError);
}

TEST(FlagValidation, ChipsMustBePositive) {
  EXPECT_THROW((void)make({"--chips=0"}).get_positive_int("chips", 6), CliError);
}

TEST(FlagValidation, RowStrideMustBePositive) {
  EXPECT_THROW((void)make({"--row-stride=0"}).get_positive_int("row-stride", 1024), CliError);
}

TEST(FlagValidation, TargetsMustBePositive) {
  EXPECT_THROW((void)make({"--targets=0"}).get_positive_int("targets", 4), CliError);
}

// --- rh_tail / rh_serve flags -----------------------------------------

TEST(FlagValidation, StallMsMustBePositive) {
  EXPECT_THROW((void)make({"--stall-ms=0"}).get_positive_double("stall-ms", 2000.0), CliError);
}

TEST(FlagValidation, RigsMustBePositive) {
  EXPECT_THROW((void)make({"--rigs=0"}).get_positive_int("rigs", 2), CliError);
}

TEST(FlagValidation, QueueLimitMustBePositive) {
  EXPECT_THROW((void)make({"--queue-limit=0"}).get_positive_int("queue-limit", 8), CliError);
}

TEST(FlagValidation, TenantQuotaMustBePositive) {
  EXPECT_THROW((void)make({"--tenant-quota=0"}).get_positive_int("tenant-quota", 4), CliError);
}

TEST(FlagValidation, FlightrecSizeMustBePositive) {
  EXPECT_THROW((void)make({"--flightrec-size=0"}).get_positive_int("flightrec-size", 256),
               CliError);
  EXPECT_THROW((void)make({"--flightrec-size=-1"}).get_positive_int("flightrec-size", 256),
               CliError);
}

// --- rh_top flags ------------------------------------------------------

TEST(FlagValidation, IntervalMsMustBePositive) {
  EXPECT_THROW((void)make({"--interval-ms=0"}).get_positive_int("interval-ms", 1000), CliError);
  EXPECT_THROW((void)make({"--interval-ms=-250"}).get_positive_int("interval-ms", 1000),
               CliError);
  EXPECT_THROW((void)make({"--interval-ms=fast"}).get_positive_int("interval-ms", 1000),
               CliError);
}

// --access-log is a path (any string goes through), but it must be
// *queried*: a typo'd flag name surfaces through unqueried_flags() exactly
// the way rh_serve warns about it.
TEST(FlagValidation, AccessLogRoutesThroughGetAndTyposAreVisible) {
  const auto args = make({"--access-log=/tmp/x.jsonl"});
  EXPECT_EQ(args.get("access-log", ""), "/tmp/x.jsonl");
  EXPECT_TRUE(args.unqueried_flags().empty());

  const auto typo = make({"--acess-log=/tmp/x.jsonl"});
  EXPECT_EQ(typo.get("access-log", ""), "");
  ASSERT_EQ(typo.unqueried_flags().size(), 1u);
  EXPECT_EQ(typo.unqueried_flags()[0], "acess-log");
}

TEST(FlagValidation, MaxSecondsMustBePositive) {
  EXPECT_THROW((void)make({"--max-seconds=0"}).get_positive_double("max-seconds", 0.0), CliError);
  EXPECT_THROW((void)make({"--max-seconds=inf"}).get_positive_double("max-seconds", 0.0),
               CliError);
}

// Defaults remain unchecked: an absent flag never throws, even when the
// binary's own default would fail the validator (rh_serve --max-seconds
// defaults to 0.0 meaning "no deadline").
TEST(FlagValidation, AbsentFlagsReturnTheDefaultUnchecked) {
  const auto args = make({});
  EXPECT_EQ(args.get_positive_int("jobs", 1), 1);
  EXPECT_DOUBLE_EQ(args.get_positive_double("max-seconds", 0.0), 0.0);
  EXPECT_DOUBLE_EQ(args.get_fraction("fault-rate", 0.0), 0.0);
}

// In-domain values pass through exactly.
TEST(FlagValidation, ValidValuesPass) {
  EXPECT_EQ(make({"--jobs=8"}).get_positive_int("jobs", 1), 8);
  EXPECT_EQ(make({"--stride=64"}).get_positive_int("stride", 2048), 64);
  EXPECT_DOUBLE_EQ(make({"--fault-rate=0.05"}).get_fraction("fault-rate", 0.0), 0.05);
  EXPECT_DOUBLE_EQ(make({"--stall-ms=1.5"}).get_positive_double("stall-ms", 2000.0), 1.5);
}

}  // namespace
}  // namespace rh::common
