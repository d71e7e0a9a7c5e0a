// Seeded argv-mutation test of the flag surface: Flags, the shared
// HarnessOptions reader, ParseServeFlags and the two spec grammars it
// reaches (FaultSpec::Parse, ParseSloSpecs). Every mutant must either
// come back as a non-OK Status or parse to in-range values which, written
// back out as flags, parse to the same values again. A crash, a sanitizer
// report or a hang fails the test (ctest runs it under ASan too).

#include <gtest/gtest.h>

#include <climits>
#include <cmath>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "common/flags.h"
#include "common/harness_options.h"
#include "common/rng.h"
#include "common/strings.h"
#include "obs/slo.h"
#include "serve/fault_injector.h"
#include "serve/serve_config.h"

namespace trajkit {
namespace {

/// Owns the argv storage behind one Flags.
class Argv {
 public:
  explicit Argv(std::vector<std::string> tokens)
      : tokens_(std::move(tokens)) {
    pointers_.push_back(const_cast<char*>("fuzz"));
    for (std::string& token : tokens_) pointers_.push_back(token.data());
    flags_ = std::make_unique<Flags>(static_cast<int>(pointers_.size()),
                                     pointers_.data());
  }
  const Flags& flags() const { return *flags_; }

 private:
  std::vector<std::string> tokens_;
  std::vector<char*> pointers_;
  std::unique_ptr<Flags> flags_;
};

std::string Num(double v) { return StrPrintf("%.17g", v); }

// ----------------------------------------------------------- mutation --

const char* const kHostileValues[] = {
    "",     "-1",   "0",     "1",      "nan",  "inf",   "-inf",
    "1e30", "-1e30", "1e-300", "1e999", "2147483647", "2147483648",
    "-2147483649", "9223372036854775808", "18446744073709551615",
    "18446744073709551616", "abc", "1.5", "0x10", " 7", "+3", "true",
    "no",   "1e3",  "65536", "3x",   "--",  "=",     "\xff\xfe",
};

const char* const kSpecAlphabet = ";:,=+.-e0123456789naif_xyz ";

/// One random edit of `text`: a byte deleted, inserted, replaced or
/// flipped, a number swapped for a hostile value, or a truncation.
std::string MutateText(const std::string& text, Rng& rng) {
  std::string out = text;
  const size_t size = out.size();
  switch (rng.NextBounded(6)) {
    case 0:
      if (size > 0) out.erase(rng.NextBounded(size), 1);
      break;
    case 1:
      out.insert(out.begin() + static_cast<long>(rng.NextBounded(size + 1)),
                 kSpecAlphabet[rng.NextBounded(27)]);
      break;
    case 2:
      if (size > 0) {
        out[rng.NextBounded(size)] = kSpecAlphabet[rng.NextBounded(27)];
      }
      break;
    case 3:
      if (size > 0) {
        const size_t at = rng.NextBounded(size);
        out[at] = static_cast<char>(out[at] ^ (1 << rng.NextBounded(8)));
      }
      break;
    case 4: {
      // Replace the value after a random '=' up to the next separator.
      std::vector<size_t> eqs;
      for (size_t i = 0; i < size; ++i) {
        if (out[i] == '=') eqs.push_back(i);
      }
      if (eqs.empty()) break;
      const size_t eq = eqs[rng.NextBounded(eqs.size())];
      size_t end = out.find_first_of(",;", eq + 1);
      if (end == std::string::npos) end = size;
      out.replace(eq + 1, end - eq - 1,
                  kHostileValues[rng.NextBounded(std::size(kHostileValues))]);
      break;
    }
    default:
      out.resize(rng.NextBounded(size + 1));
      break;
  }
  return out;
}

/// 1-3 random edits of an argv: a value swapped for a hostile one, a token
/// mutated as text, dropped, duplicated, or a key renamed to a neighbour.
std::vector<std::string> MutateArgv(std::vector<std::string> argv, Rng& rng) {
  const int edits = 1 + static_cast<int>(rng.NextBounded(3));
  for (int e = 0; e < edits && !argv.empty(); ++e) {
    std::string& token = argv[rng.NextBounded(argv.size())];
    const size_t eq = token.find('=');
    switch (rng.NextBounded(6)) {
      case 0:
      case 1:
        token = (eq == std::string::npos ? token : token.substr(0, eq)) +
                "=" +
                kHostileValues[rng.NextBounded(std::size(kHostileValues))];
        break;
      case 2:
        token = MutateText(token, rng);
        break;
      case 3:
        argv.erase(argv.begin() +
                   static_cast<long>(rng.NextBounded(argv.size())));
        break;
      case 4:
        argv.push_back(argv[rng.NextBounded(argv.size())]);
        break;
      default:
        // A typo'd key: drop or double one key character.
        if (eq != std::string::npos && eq > 2) {
          const size_t at = 2 + rng.NextBounded(eq - 2);
          if (rng.NextBounded(2) == 0) {
            token.erase(at, 1);
          } else {
            token.insert(at, 1, token[at]);
          }
        }
        break;
    }
  }
  return argv;
}

// ------------------------------------------------- Flags on its own ----

// Random getters with random ranges over mutated argvs: a getter either
// records an error or returns a value inside its range that reads back
// the same from its own text.
TEST(FlagsFuzzTest, GettersRejectOrReturnInRangeRoundTrippingValues) {
  Rng rng(20261017);
  const std::vector<std::string> base = {"--a=5", "--b=0.25", "--c=7",
                                         "--d=true", "--e", "positional"};
  size_t rejected = 0;
  for (int m = 0; m < 4000; ++m) {
    const Argv argv(MutateArgv(base, rng));
    const Flags& flags = argv.flags();
    const int lo = static_cast<int>(rng.UniformInt(-5, 5));
    const int hi = lo + static_cast<int>(rng.NextBounded(20));
    const int i = flags.GetInt("a", lo, lo, hi);
    const double dlo = rng.Uniform(-1.0, 1.0);
    const double d = flags.GetDouble("b", dlo, dlo, dlo + 1.0);
    const uint64_t u = flags.GetUint64("c", 3, 0, 1000);
    const bool bit = flags.GetBool("d", false);
    const bool bare = flags.GetBool("e", false);
    const Status status = flags.Check();
    SCOPED_TRACE("mutant " + std::to_string(m));
    if (!status.ok()) {
      ++rejected;
      EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
      EXPECT_TRUE(status.message().rfind("--", 0) == 0 ||
                  status.message().rfind("unknown flag --", 0) == 0)
          << status.message();
      continue;
    }
    EXPECT_GE(i, lo);
    EXPECT_LE(i, hi);
    EXPECT_TRUE(std::isfinite(d));
    EXPECT_GE(d, dlo);
    EXPECT_LE(d, dlo + 1.0);
    EXPECT_LE(u, 1000u);
    const Argv again({"--a=" + std::to_string(i), "--b=" + Num(d),
                      "--c=" + std::to_string(u),
                      std::string("--d=") + (bit ? "true" : "false"),
                      std::string("--e=") + (bare ? "1" : "0")});
    EXPECT_EQ(again.flags().GetInt("a", lo, lo, hi), i);
    EXPECT_EQ(again.flags().GetDouble("b", dlo, dlo, dlo + 1.0), d);
    EXPECT_EQ(again.flags().GetUint64("c", 3, 0, 1000), u);
    EXPECT_EQ(again.flags().GetBool("d", !bit), bit);
    EXPECT_EQ(again.flags().GetBool("e", !bare), bare);
    EXPECT_TRUE(again.flags().Check().ok());
  }
  EXPECT_GT(rejected, 0u);
  EXPECT_LT(rejected, 4000u);
}

// ------------------------------------------------ the serving surface --

void ExpectFaultSpecInRange(const serve::FaultSpec& spec) {
  for (const double p :
       {spec.swap_stall_p, spec.predict_fail_p, spec.batch_delay_p}) {
    EXPECT_TRUE(p >= 0.0 && p <= 1.0) << p;
  }
  for (const double ms :
       {spec.swap_stall_latency_ms, spec.batch_delay_latency_ms}) {
    EXPECT_TRUE(std::isfinite(ms) && ms >= 0.0) << ms;
  }
}

void ExpectSloSpecsInRange(const std::vector<obs::SloSpec>& specs) {
  for (const obs::SloSpec& spec : specs) {
    EXPECT_FALSE(spec.name.empty());
    EXPECT_TRUE(spec.budget > 0.0 && spec.budget <= 1.0) << spec.budget;
    EXPECT_TRUE(std::isfinite(spec.burn_threshold) &&
                spec.burn_threshold > 0.0);
    EXPECT_GE(spec.fast_window, 1u);
    EXPECT_LE(spec.fast_window, spec.slow_window);
    EXPECT_LE(spec.slow_window, static_cast<size_t>(INT_MAX));
    if (spec.kind == obs::SloSpec::Kind::kLatency) {
      EXPECT_FALSE(spec.metric.empty());
      EXPECT_TRUE(std::isfinite(spec.ceiling_seconds) &&
                  spec.ceiling_seconds > 0.0);
    } else {
      EXPECT_FALSE(spec.bad.empty());
      EXPECT_FALSE(spec.total.empty());
    }
  }
}

void ExpectInRange(const serve::ServeConfig& c) {
  EXPECT_GE(c.users, 1);
  EXPECT_GE(c.days, 1);
  EXPECT_GE(c.trees, 1);
  for (const size_t count : {c.batch, c.shards, c.tick_every}) {
    EXPECT_GE(count, 1u);
    EXPECT_LE(count, static_cast<size_t>(INT_MAX));
  }
  EXPECT_LE(c.max_queue, static_cast<size_t>(INT_MAX));
  EXPECT_LE(c.max_window, static_cast<size_t>(INT_MAX));
  EXPECT_GE(c.timeseries_capacity, 2u);
  for (const double v : {c.max_delay_ms, c.gap_seconds, c.deadline_ms}) {
    EXPECT_TRUE(std::isfinite(v) && v >= 0.0) << v;
  }
  EXPECT_GE(c.retries, 0);
  EXPECT_GE(c.http_port, -1);
  EXPECT_LE(c.http_port, 65535);
  EXPECT_TRUE(!c.http_linger || c.http_port >= 0);
  EXPECT_EQ(c.fault_spec.has_value(), !c.fault_spec_text.empty());
  if (c.fault_spec.has_value()) ExpectFaultSpecInRange(*c.fault_spec);
  ExpectSloSpecsInRange(c.slo_specs);
  if (!c.ct.enabled) return;
  EXPECT_GE(c.ct.step_every, 1u);
  EXPECT_GE(c.ct.refit_every, c.ct.step_every);
  EXPECT_GE(c.ct.min_fit, 1u);
  EXPECT_GE(c.ct.min_shadow, 1u);
  EXPECT_GE(c.ct.buffer, c.ct.min_fit);
  EXPECT_GE(c.ct.drift_window, 1u);
  EXPECT_GE(c.ct.trees, 1);
  EXPECT_TRUE(std::isfinite(c.ct.promote_epsilon));
  EXPECT_TRUE(std::isfinite(c.ct.cost_budget) && c.ct.cost_budget > 0.0);
  EXPECT_TRUE(std::isfinite(c.ct.drift_threshold) &&
              c.ct.drift_threshold > 0.0);
  EXPECT_TRUE(c.ct.drift_degraded_rate >= 0.0 &&
              c.ct.drift_degraded_rate <= 1.0);
}

/// The config written back out as the flags that produce it.
std::vector<std::string> ToArgv(const serve::ServeConfig& c) {
  std::vector<std::string> argv = {
      "--users=" + std::to_string(c.users),
      "--days=" + std::to_string(c.days),
      "--seed=" + std::to_string(c.seed),
      "--trees=" + std::to_string(c.trees),
      "--batch=" + std::to_string(c.batch),
      "--max_delay_ms=" + Num(c.max_delay_ms),
      "--max_queue=" + std::to_string(c.max_queue),
      "--shards=" + std::to_string(c.shards),
      "--gap=" + Num(c.gap_seconds),
      "--max_window=" + std::to_string(c.max_window),
      "--deadline_ms=" + Num(c.deadline_ms),
      "--retries=" + std::to_string(c.retries),
      "--fault_spec=" + c.fault_spec_text,
      "--http_port=" + std::to_string(c.http_port),
      std::string("--http_linger=") + (c.http_linger ? "true" : "false"),
      "--slo_spec=" + c.slo_spec_text,
      "--timeseries_capacity=" + std::to_string(c.timeseries_capacity),
      "--tick_every=" + std::to_string(c.tick_every),
  };
  if (c.ct.enabled) {
    const serve::ContinuousTrainingConfig& ct = c.ct;
    for (std::string flag : {
             std::string("--continuous_training"),
             "--step_every=" + std::to_string(ct.step_every),
             "--refit_every=" + std::to_string(ct.refit_every),
             "--min_fit=" + std::to_string(ct.min_fit),
             "--min_shadow=" + std::to_string(ct.min_shadow),
             "--promote_epsilon=" + Num(ct.promote_epsilon),
             "--cost_budget=" + Num(ct.cost_budget),
             "--ct_trees=" + std::to_string(ct.trees),
             "--ct_seed=" + std::to_string(ct.seed),
             "--ct_buffer=" + std::to_string(ct.buffer),
             "--drift_window=" + std::to_string(ct.drift_window),
             "--drift_threshold=" + Num(ct.drift_threshold),
             "--drift_degraded_rate=" + Num(ct.drift_degraded_rate)}) {
      argv.push_back(std::move(flag));
    }
  }
  return argv;
}

void ExpectSameConfig(const serve::ServeConfig& a,
                      const serve::ServeConfig& b) {
  EXPECT_EQ(a.users, b.users);
  EXPECT_EQ(a.days, b.days);
  EXPECT_EQ(a.seed, b.seed);
  EXPECT_EQ(a.trees, b.trees);
  EXPECT_EQ(a.batch, b.batch);
  EXPECT_EQ(a.max_delay_ms, b.max_delay_ms);
  EXPECT_EQ(a.max_queue, b.max_queue);
  EXPECT_EQ(a.shards, b.shards);
  EXPECT_EQ(a.gap_seconds, b.gap_seconds);
  EXPECT_EQ(a.max_window, b.max_window);
  EXPECT_EQ(a.deadline_ms, b.deadline_ms);
  EXPECT_EQ(a.retries, b.retries);
  EXPECT_EQ(a.fault_spec_text, b.fault_spec_text);
  EXPECT_EQ(a.http_port, b.http_port);
  EXPECT_EQ(a.http_linger, b.http_linger);
  EXPECT_EQ(a.slo_spec_text, b.slo_spec_text);
  EXPECT_EQ(a.slo_specs.size(), b.slo_specs.size());
  EXPECT_EQ(a.timeseries_capacity, b.timeseries_capacity);
  EXPECT_EQ(a.tick_every, b.tick_every);
  EXPECT_EQ(a.ct.enabled, b.ct.enabled);
  EXPECT_EQ(a.ct.step_every, b.ct.step_every);
  EXPECT_EQ(a.ct.refit_every, b.ct.refit_every);
  EXPECT_EQ(a.ct.min_fit, b.ct.min_fit);
  EXPECT_EQ(a.ct.min_shadow, b.ct.min_shadow);
  EXPECT_EQ(a.ct.promote_epsilon, b.ct.promote_epsilon);
  EXPECT_EQ(a.ct.cost_budget, b.ct.cost_budget);
  EXPECT_EQ(a.ct.trees, b.ct.trees);
  EXPECT_EQ(a.ct.seed, b.ct.seed);
  EXPECT_EQ(a.ct.buffer, b.ct.buffer);
  EXPECT_EQ(a.ct.drift_window, b.ct.drift_window);
  EXPECT_EQ(a.ct.drift_threshold, b.ct.drift_threshold);
  EXPECT_EQ(a.ct.drift_degraded_rate, b.ct.drift_degraded_rate);
}

// The argvs CI and the README run, plus every CT knob: each mutant is a
// Status or a config inside every bound that re-reads to itself.
TEST(FlagsFuzzTest, ServeFlagsRejectOrRoundTrip) {
  const std::vector<std::vector<std::string>> seeds = {
      {"--users=6", "--days=2", "--seed=42", "--shards=8", "--threads=8",
       "--metrics_json=m.json", "--predictions_out=p.csv"},
      {"--continuous_training", "--step_every=8", "--refit_every=16",
       "--min_fit=16", "--min_shadow=8", "--promote_epsilon=-1",
       "--ct_trees=10", "--ct_buffer=256", "--cost_budget=4",
       "--ct_seed=9", "--drift_window=64", "--drift_threshold=8",
       "--drift_degraded_rate=0.5"},
      {"--deadline_ms=100", "--max_queue=16", "--retries=2",
       "--batch=16", "--max_delay_ms=1.5", "--gap=300", "--max_window=64",
       "--fault_spec=swap_stall:p=0.2,latency_ms=5;predict_fail:p=0.2;"
       "batch_delay:p=0.3,latency_ms=2;seed=3",
       "--trace_json=t.json", "--trace_sample=4", "--trace_buffer=64"},
      {"--tick_every=16", "--timeseries_capacity=512", "--http_port=0",
       "--http_linger",
       "--slo_spec=shed:type=ratio,bad=serve.shed_total.queue_full+"
       "serve.shed_total.preempted,total=serve.batch_predictor.requests,"
       "budget=0.02,fast=4,slow=16;p99:type=latency,metric=m,"
       "ceiling_ms=50,budget=0.05,burn=2"},
  };
  Rng rng(1017);
  size_t accepted = 0;
  size_t rejected = 0;
  for (int m = 0; m < 6000; ++m) {
    const std::vector<std::string> tokens =
        MutateArgv(seeds[rng.NextBounded(seeds.size())], rng);
    SCOPED_TRACE("mutant " + std::to_string(m) + ": " +
                 JoinStrings(tokens, " "));
    const Argv argv(tokens);
    const HarnessOptions harness = HarnessOptions::FromFlags(argv.flags());
    const auto config =
        serve::ParseServeFlags(argv.flags(), serve::ServeReplayDefaults());
    if (!config.ok() || !argv.flags().Check().ok()) {
      ++rejected;
      const Status status =
          config.ok() ? argv.flags().Check() : config.status();
      EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
      EXPECT_NE(status.message().find("--"), std::string::npos)
          << status.message();
      continue;
    }
    ++accepted;
    EXPECT_GE(harness.threads, 0);
    ExpectInRange(*config);
    const Argv again(ToArgv(*config));
    const auto reread =
        serve::ParseServeFlags(again.flags(), serve::ServeReplayDefaults());
    ASSERT_TRUE(reread.ok()) << reread.status().ToString();
    EXPECT_TRUE(again.flags().Check().ok());
    ExpectSameConfig(*config, *reread);
  }
  std::printf("serve flags: %zu mutants accepted, %zu rejected\n", accepted,
              rejected);
  EXPECT_GT(accepted, 500u);
  EXPECT_GT(rejected, 500u);
}

// ------------------------------------------------------ spec grammars --

std::string ToText(const serve::FaultSpec& spec) {
  return "swap_stall:p=" + Num(spec.swap_stall_p) +
         ",latency_ms=" + Num(spec.swap_stall_latency_ms) +
         ";predict_fail:p=" + Num(spec.predict_fail_p) +
         ";batch_delay:p=" + Num(spec.batch_delay_p) +
         ",latency_ms=" + Num(spec.batch_delay_latency_ms) +
         ";seed=" + std::to_string(spec.seed);
}

TEST(FlagsFuzzTest, FaultSpecsRejectOrRoundTrip) {
  const std::string base =
      "swap_stall:p=0.2,latency_ms=5;predict_fail:p=0.2;"
      "batch_delay:p=0.3,latency_ms=2;seed=3";
  Rng rng(77);
  size_t accepted = 0;
  for (int m = 0; m < 6000; ++m) {
    std::string text = base;
    for (int e = 1 + static_cast<int>(rng.NextBounded(3)); e > 0; --e) {
      text = MutateText(text, rng);
    }
    SCOPED_TRACE("mutant " + std::to_string(m) + ": " + text);
    const auto spec = serve::FaultSpec::Parse(text);
    if (!spec.ok()) {
      EXPECT_EQ(spec.status().code(), StatusCode::kInvalidArgument);
      continue;
    }
    ++accepted;
    ExpectFaultSpecInRange(*spec);
    const auto again = serve::FaultSpec::Parse(ToText(*spec));
    ASSERT_TRUE(again.ok()) << again.status().ToString();
    EXPECT_EQ(again->swap_stall_p, spec->swap_stall_p);
    EXPECT_EQ(again->swap_stall_latency_ms, spec->swap_stall_latency_ms);
    EXPECT_EQ(again->predict_fail_p, spec->predict_fail_p);
    EXPECT_EQ(again->batch_delay_p, spec->batch_delay_p);
    EXPECT_EQ(again->batch_delay_latency_ms, spec->batch_delay_latency_ms);
    EXPECT_EQ(again->seed, spec->seed);
  }
  std::printf("fault specs: %zu of 6000 mutants accepted\n", accepted);
  EXPECT_GT(accepted, 200u);
}

std::string ToText(const obs::SloSpec& spec) {
  std::string text = spec.name + ":type=" +
                     (spec.kind == obs::SloSpec::Kind::kLatency ? "latency"
                                                                : "ratio");
  // Keys the other kind ignores still parse, so they are written back too.
  if (!spec.metric.empty()) text += ",metric=" + spec.metric;
  if (spec.ceiling_seconds > 0.0) {
    text += ",ceiling_ms=" + Num(spec.ceiling_seconds * 1000.0);
  }
  if (!spec.bad.empty()) text += ",bad=" + JoinStrings(spec.bad, "+");
  if (!spec.total.empty()) text += ",total=" + JoinStrings(spec.total, "+");
  return text + ",budget=" + Num(spec.budget) +
         ",fast=" + std::to_string(spec.fast_window) +
         ",slow=" + std::to_string(spec.slow_window) +
         ",burn=" + Num(spec.burn_threshold);
}

TEST(FlagsFuzzTest, SloSpecsRejectOrRoundTrip) {
  const std::string base =
      "shed:type=ratio,bad=a+b,total=c,budget=0.02,fast=4,slow=16;"
      "p99:type=latency,metric=m,ceiling_ms=50,budget=0.05,burn=2";
  Rng rng(78);
  size_t accepted = 0;
  for (int m = 0; m < 6000; ++m) {
    std::string text = base;
    for (int e = 1 + static_cast<int>(rng.NextBounded(3)); e > 0; --e) {
      text = MutateText(text, rng);
    }
    SCOPED_TRACE("mutant " + std::to_string(m) + ": " + text);
    std::vector<obs::SloSpec> specs;
    std::string error;
    if (!obs::ParseSloSpecs(text, &specs, &error)) {
      EXPECT_FALSE(error.empty());
      continue;
    }
    ++accepted;
    ExpectSloSpecsInRange(specs);
    std::vector<std::string> parts;
    for (const obs::SloSpec& spec : specs) parts.push_back(ToText(spec));
    std::vector<obs::SloSpec> again;
    ASSERT_TRUE(obs::ParseSloSpecs(JoinStrings(parts, ";"), &again, &error))
        << error;
    ASSERT_EQ(again.size(), specs.size());
    for (size_t i = 0; i < specs.size(); ++i) {
      EXPECT_EQ(again[i].name, specs[i].name);
      EXPECT_EQ(again[i].kind, specs[i].kind);
      EXPECT_EQ(again[i].metric, specs[i].metric);
      // ms -> s -> ms may move the last bit; the ceiling snaps to a
      // histogram bucket bound anyway.
      EXPECT_NEAR(again[i].ceiling_seconds, specs[i].ceiling_seconds,
                  1e-15 * specs[i].ceiling_seconds);
      EXPECT_EQ(again[i].bad, specs[i].bad);
      EXPECT_EQ(again[i].total, specs[i].total);
      EXPECT_EQ(again[i].budget, specs[i].budget);
      EXPECT_EQ(again[i].fast_window, specs[i].fast_window);
      EXPECT_EQ(again[i].slow_window, specs[i].slow_window);
      EXPECT_EQ(again[i].burn_threshold, specs[i].burn_threshold);
    }
  }
  std::printf("slo specs: %zu of 6000 mutants accepted\n", accepted);
  EXPECT_GT(accepted, 200u);
}

}  // namespace
}  // namespace trajkit
