// Tests for the CLI support surface: the Flags parser with its shared
// readers (corpus and harness flags) and the GeoLife export path the
// `generate` command uses.

#include <gtest/gtest.h>

#include <filesystem>

#include "common/flags.h"
#include "common/harness_options.h"
#include "common/strings.h"
#include "geolife/geolife_reader.h"
#include "synthgeo/generator.h"
#include "traj/types.h"

namespace trajkit {
namespace {

Flags MakeFlags(std::vector<std::string> args) {
  static std::vector<std::string> storage;  // Keeps c_str()s alive.
  storage = std::move(args);
  static std::vector<char*> argv;
  argv.clear();
  argv.push_back(const_cast<char*>("prog"));
  for (std::string& arg : storage) {
    argv.push_back(arg.data());
  }
  return Flags(static_cast<int>(argv.size()), argv.data());
}

TEST(FlagsTest, ParsesKeyValueAndBare) {
  const Flags flags =
      MakeFlags({"--users=12", "--verbose", "--rate=0.5", "--name=x y"});
  EXPECT_EQ(flags.GetInt("users", 0), 12);
  EXPECT_TRUE(flags.GetBool("verbose", false));
  EXPECT_DOUBLE_EQ(flags.GetDouble("rate", 0.0), 0.5);
  EXPECT_EQ(flags.GetString("name", ""), "x y");
  EXPECT_TRUE(flags.Has("users"));
  EXPECT_FALSE(flags.Has("missing"));
}

TEST(FlagsTest, AbsentFallsBackMalformedIsAnError) {
  const Flags flags = MakeFlags({"--n=notanumber"});
  EXPECT_EQ(flags.GetInt("absent", -1), -1);
  EXPECT_DOUBLE_EQ(flags.GetDouble("absent", 2.5), 2.5);
  EXPECT_EQ(flags.GetString("absent", "d"), "d");
  EXPECT_TRUE(flags.status().ok());
  // A malformed value still returns the fallback, but is now an error
  // naming the flag.
  EXPECT_EQ(flags.GetInt("n", 7), 7);
  EXPECT_EQ(flags.status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(flags.status().message(), "--n=notanumber is not an integer");
}

TEST(FlagsTest, GetUint64AcceptsFullWidthSeeds) {
  // 2^63 + 42: far beyond what GetInt's narrowing through int can carry.
  const Flags flags = MakeFlags({"--seed=9223372036854775850"});
  EXPECT_EQ(flags.GetUint64("seed", 0), 9223372036854775850ULL);
  EXPECT_EQ(flags.GetUint64("absent", 17), 17u);
  EXPECT_TRUE(flags.Check().ok());
}

TEST(FlagsTest, GetUint64RejectsMalformedOrNegative) {
  for (const char* arg : {"--a=notanumber", "--a=-5", "--a=",
                          "--a=18446744073709551616", "--a=1.5"}) {
    const Flags flags = MakeFlags({arg});
    EXPECT_EQ(flags.GetUint64("a", 3), 3u) << arg;
    EXPECT_NE(flags.status().message().find("--a="), std::string::npos)
        << arg << ": " << flags.status().message();
  }
}

TEST(FlagsTest, IntsMustParseInFullAndFitTheirRange) {
  for (const char* arg : {"--k=2x", "--k=1.5", "--k=", "--k=0",
                          "--k=2147483648", "--k=-1", "--k=11"}) {
    const Flags flags = MakeFlags({arg});
    EXPECT_EQ(flags.GetInt("k", 5, 1, 10), 5) << arg;
    EXPECT_FALSE(flags.status().ok()) << arg;
    EXPECT_NE(flags.status().message().find("--k"), std::string::npos);
  }
  const Flags flags = MakeFlags({"--k=10", "--j= 3"});
  EXPECT_EQ(flags.GetInt("k", 5, 1, 10), 10);
  EXPECT_EQ(flags.GetInt("j", 0), 3);
  EXPECT_TRUE(flags.Check().ok());
}

TEST(FlagsTest, DoublesMustBeFiniteAndInRange) {
  for (const char* arg : {"--x=nan", "--x=inf", "--x=-inf", "--x=1ms",
                          "--x=1e999", "--x=-0.5"}) {
    const Flags flags = MakeFlags({arg});
    EXPECT_DOUBLE_EQ(flags.GetDouble("x", 0.25, 0.0), 0.25) << arg;
    EXPECT_FALSE(flags.status().ok()) << arg;
  }
  const Flags flags = MakeFlags({"--x=1e-300"});
  EXPECT_DOUBLE_EQ(flags.GetDouble("x", 0.01, 1e-9, 360.0), 0.01);
  EXPECT_EQ(flags.status().message(),
            "--x must be in [1e-09, 360] (got 1e-300)");
}

// A range that depends on another flag applies to the fallback as well.
TEST(FlagsTest, RangeAppliesToTheFallback) {
  const Flags flags = MakeFlags({});
  EXPECT_EQ(flags.GetInt("refit", 48, 64), 48);
  EXPECT_EQ(flags.status().message(),
            "--refit must be in [64, 2147483647] (got 48)");
}

TEST(FlagsTest, FirstErrorIsKept) {
  const Flags flags = MakeFlags({"--a=x", "--b=y"});
  flags.GetInt("a", 0);
  flags.GetDouble("b", 0.0);
  EXPECT_EQ(flags.status().message(), "--a=x is not an integer");
  EXPECT_EQ(flags.Check().message(), "--a=x is not an integer");
}

TEST(FlagsTest, GivenButNeverReadIsAnError) {
  const Flags flags = MakeFlags({"--shards=2", "--shard=8"});
  EXPECT_EQ(flags.GetInt("shards", 1), 2);
  EXPECT_TRUE(flags.status().ok());
  // Has() alone does not count as reading.
  EXPECT_TRUE(flags.Has("shard"));
  EXPECT_EQ(flags.Check().message(), "unknown flag --shard");
  flags.GetInt("shard", 0);
  EXPECT_TRUE(flags.Check().ok());
}

TEST(StringsTest, ParseUint64RoundTrips) {
  EXPECT_EQ(ParseUint64("18446744073709551615").value(),
            18446744073709551615ULL);
  EXPECT_EQ(ParseUint64("0").value(), 0u);
  EXPECT_FALSE(ParseUint64("-1").ok());
  EXPECT_FALSE(ParseUint64("").ok());
  EXPECT_FALSE(ParseUint64("99999999999999999999999").ok());
}

TEST(FlagsTest, PositionalArgumentsCollected) {
  const Flags flags = MakeFlags({"generate", "--out=x", "extra"});
  ASSERT_EQ(flags.positional().size(), 2u);
  EXPECT_EQ(flags.positional()[0], "generate");
  EXPECT_EQ(flags.positional()[1], "extra");
}

TEST(FlagsTest, BoolFalseSpellings) {
  const Flags flags = MakeFlags({"--a=0", "--b=false", "--c=true", "--d"});
  EXPECT_FALSE(flags.GetBool("a", true));
  EXPECT_FALSE(flags.GetBool("b", true));
  EXPECT_TRUE(flags.GetBool("c", false));
  EXPECT_TRUE(flags.GetBool("d", false));
  EXPECT_TRUE(flags.Check().ok());
}

TEST(FlagsTest, BoolAcceptsOnlyBareOneZeroTrueFalse) {
  for (const char* arg : {"--denoise=no", "--denoise=yes", "--denoise=",
                          "--denoise=2", "--denoise=TRUE"}) {
    const Flags flags = MakeFlags({arg});
    EXPECT_FALSE(flags.GetBool("denoise", false)) << arg;
    EXPECT_NE(flags.status().message().find("is not a boolean"),
              std::string::npos)
        << arg;
  }
}

TEST(CorpusFlagsTest, UsersAndDaysAtLeastOneSeedFullWidth) {
  const synthgeo::GeneratorOptions defaults{.num_users = 20,
                                            .days_per_user = 4};
  {
    const Flags flags = MakeFlags({});
    const auto options = synthgeo::GeneratorOptionsFromFlags(flags, defaults);
    EXPECT_EQ(options.num_users, 20);
    EXPECT_EQ(options.days_per_user, 4);
    EXPECT_EQ(options.seed, 7u);
  }
  {
    const Flags flags =
        MakeFlags({"--users=3", "--days=1", "--seed=18446744073709551615"});
    const auto options = synthgeo::GeneratorOptionsFromFlags(flags, defaults);
    EXPECT_EQ(options.num_users, 3);
    EXPECT_EQ(options.days_per_user, 1);
    EXPECT_EQ(options.seed, 18446744073709551615ull);
    EXPECT_TRUE(flags.Check().ok());
  }
  for (const char* arg : {"--users=0", "--users=-2", "--users=abc",
                          "--days=0", "--seed=-1"}) {
    const Flags flags = MakeFlags({arg});
    synthgeo::GeneratorOptionsFromFlags(flags, defaults);
    EXPECT_FALSE(flags.status().ok()) << arg;
  }
  // A default of 0 users leaves --users unread.
  const Flags flags = MakeFlags({"--users=5"});
  synthgeo::GeneratorOptions sweep = defaults;
  sweep.num_users = 0;
  EXPECT_EQ(synthgeo::GeneratorOptionsFromFlags(flags, sweep).num_users, 0);
  EXPECT_EQ(flags.Check().message(), "unknown flag --users");
}

TEST(HarnessOptionsTest, ReadsTheSharedFlagsStrictly) {
  {
    const Flags flags = MakeFlags({"--threads=3", "--timing_json=t.json",
                                   "--trace_sample=4", "--trace_buffer=64"});
    const HarnessOptions options = HarnessOptions::FromFlags(flags);
    EXPECT_EQ(options.threads, 3);
    EXPECT_EQ(options.timing_json, "t.json");
    EXPECT_EQ(options.trace_sample, 4u);
    EXPECT_EQ(options.trace_buffer, 64u);
    EXPECT_TRUE(flags.Check().ok());
  }
  for (const char* arg : {"--threads=abc", "--threads=-1",
                          "--trace_sample=-1", "--trace_buffer=1k"}) {
    const Flags flags = MakeFlags({arg});
    HarnessOptions::FromFlags(flags);
    EXPECT_FALSE(flags.Check().ok()) << arg;
  }
}

// ------------------------------------------------------ GeoLife export --

TEST(GeoLifeExportTest, FormatDateTimeInvertsParse) {
  const double t = 1224730384.0;  // 2008-10-23 02:53:04 UTC.
  const std::string formatted = geolife::FormatGeoLifeDateTime(t);
  EXPECT_EQ(formatted, "2008/10/23 02:53:04");
  const auto parts = SplitString(formatted, ' ');
  const auto parsed = geolife::ParseGeoLifeDateTime(parts[0], parts[1]);
  ASSERT_TRUE(parsed.ok());
  EXPECT_DOUBLE_EQ(parsed.value(), t);
}

TEST(GeoLifeExportTest, ExportedCorpusReloadsWithLabels) {
  const std::string root =
      (std::filesystem::path(testing::TempDir()) / "trajkit_export_test")
          .string();
  std::filesystem::remove_all(root);

  synthgeo::GeneratorOptions options;
  options.num_users = 3;
  options.days_per_user = 2;
  options.seed = 41;
  synthgeo::GeoLifeLikeGenerator generator(options);
  const std::vector<traj::Trajectory> corpus = generator.Generate();
  ASSERT_TRUE(geolife::ExportGeoLifeCorpus(corpus, root).ok());

  const auto reloaded = geolife::LoadGeoLifeCorpus(root);
  ASSERT_TRUE(reloaded.ok());
  ASSERT_EQ(reloaded->size(), corpus.size());
  for (size_t u = 0; u < corpus.size(); ++u) {
    const auto& original = corpus[u];
    const auto& restored = (*reloaded)[u];
    EXPECT_EQ(restored.user_id, original.user_id);
    ASSERT_EQ(restored.points.size(), original.points.size());
    // Positions survive to PLT precision (1e-6 deg ≈ 0.1 m); timestamps to
    // the second; labels to the written intervals.
    size_t label_matches = 0;
    for (size_t i = 0; i < original.points.size(); ++i) {
      EXPECT_NEAR(restored.points[i].pos.lat_deg,
                  original.points[i].pos.lat_deg, 2e-6);
      EXPECT_NEAR(restored.points[i].timestamp,
                  original.points[i].timestamp, 1.0);
      if (restored.points[i].mode == original.points[i].mode) {
        ++label_matches;
      }
    }
    // Interval rounding can flip a few boundary points, nothing more.
    EXPECT_GT(static_cast<double>(label_matches) /
                  static_cast<double>(original.points.size()),
              0.99);
  }
  std::filesystem::remove_all(root);
}

TEST(GeoLifeExportTest, ExportCreatesExpectedLayout) {
  const std::string root =
      (std::filesystem::path(testing::TempDir()) / "trajkit_layout_test")
          .string();
  std::filesystem::remove_all(root);
  synthgeo::GeneratorOptions options;
  options.num_users = 1;
  options.days_per_user = 2;
  options.seed = 43;
  synthgeo::GeoLifeLikeGenerator generator(options);
  ASSERT_TRUE(
      geolife::ExportGeoLifeCorpus(generator.Generate(), root).ok());
  EXPECT_TRUE(std::filesystem::is_directory(
      std::filesystem::path(root) / "000" / "Trajectory"));
  EXPECT_TRUE(std::filesystem::is_regular_file(
      std::filesystem::path(root) / "000" / "labels.txt"));
  size_t plt_count = 0;
  for (const auto& entry : std::filesystem::directory_iterator(
           std::filesystem::path(root) / "000" / "Trajectory")) {
    if (entry.path().extension() == ".plt") ++plt_count;
  }
  EXPECT_EQ(plt_count, 2u);  // One per day.
  std::filesystem::remove_all(root);
}

}  // namespace
}  // namespace trajkit
