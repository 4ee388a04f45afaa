// Self-tests of the benchmark's own logic (perfbench/src/logic.h): the
// tail-percentile rule, the max-rate search, schedule determinism and the
// oracle comparison. perfbench/run.py runs them before every benchmark run.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <limits>

#include "logic.h"

namespace perfbench {
namespace {

std::vector<double> Ramp(int n) {
  std::vector<double> v;
  for (int i = 0; i < n; ++i) v.push_back(static_cast<double>(n - 1 - i));
  return v;
}

TEST(TailPercentile, NeedsTenSamplesBeyondIt) {
  const std::optional<double> p99 = TailPercentile(Ramp(1000), 0.99);
  ASSERT_TRUE(p99.has_value());
  EXPECT_EQ(*p99, 989.0);  // exactly 10 samples (990..999) lie beyond it
  EXPECT_FALSE(TailPercentile(Ramp(999), 0.99).has_value());
  EXPECT_FALSE(TailPercentile({}, 0.5).has_value());
  EXPECT_TRUE(TailPercentile(Ramp(20), 0.5).has_value());
  EXPECT_FALSE(TailPercentile(Ramp(19), 0.5).has_value());
}

TEST(Median, OddEvenEmpty) {
  EXPECT_EQ(Median({3, 1, 2}), 2.0);
  EXPECT_EQ(Median({4, 1, 2, 3}), 2.5);
  EXPECT_EQ(Median({}), 0.0);
}

/// A fake server with a hard capacity: a step passes below it.
StepResult FakeStep(double rate, double capacity) {
  StepResult r;
  r.sent = 2000;
  r.achieved_qps = std::min(rate, capacity) * 0.999;
  r.p99_ms = rate < capacity ? 5.0 : 80.0;
  return r;
}

TEST(SearchMaxRate, ConvergesBelowCapacityFromBelow) {
  const SearchCriteria crit{20.0, 0.001};
  int calls = 0;
  const SearchResult r = SearchMaxRate(300.0, 20, 1.25, 0.05, crit, [&](double q) {
    ++calls;
    return FakeStep(q, 1000.0);
  });
  EXPECT_LT(r.max_offered_qps, 1000.0);
  EXPECT_GT(r.max_offered_qps, 1000.0 / 1.05);
  EXPECT_DOUBLE_EQ(r.max_rate_qps, r.max_offered_qps * 0.999);
  EXPECT_EQ(static_cast<int>(r.steps.size()), calls);
  EXPECT_LT(calls, 20);  // stopped on tolerance, not on the step cap
}

TEST(SearchMaxRate, ShrinksWhenTheFirstStepFails) {
  const SearchCriteria crit{20.0, 0.001};
  const SearchResult r = SearchMaxRate(
      5000.0, 20, 1.25, 0.05, crit, [](double q) { return FakeStep(q, 1000.0); });
  EXPECT_LT(r.max_offered_qps, 1000.0);
  EXPECT_GT(r.max_offered_qps, 1000.0 / 1.05);
}

TEST(SearchMaxRate, StopsWhenTheBudgetIsSpent) {
  const SearchCriteria crit{20.0, 0.001};
  int calls = 0;
  const SearchResult r = SearchMaxRate(
      300.0, 20, 1.25, 0.05, crit, [&](double q) -> std::optional<StepResult> {
        if (++calls > 3) return std::nullopt;
        return FakeStep(q, 1000.0);
      });
  EXPECT_EQ(r.steps.size(), 3u);
  EXPECT_DOUBLE_EQ(r.max_offered_qps, 300.0 * 1.25 * 1.25);
}

TEST(SearchMaxRate, ReportsZeroWhenNothingPasses) {
  const SearchCriteria crit{20.0, 0.001};
  const SearchResult r = SearchMaxRate(
      100.0, 4, 1.25, 0.05, crit, [](double q) { return FakeStep(q, 1.0); });
  EXPECT_EQ(r.max_rate_qps, 0.0);
  EXPECT_EQ(r.steps.size(), 4u);
}

TEST(StepPasses, EachConditionFailsAStep) {
  const SearchCriteria crit{20.0, 0.001};
  StepResult ok;
  ok.sent = 2000;
  ok.p99_ms = 10.0;
  EXPECT_TRUE(StepPasses(ok, crit));
  StepResult slow = ok;
  slow.p99_ms = 20.0;  // the limit itself is a miss
  EXPECT_FALSE(StepPasses(slow, crit));
  StepResult unsupported = ok;
  unsupported.p99_ms.reset();  // too few samples for a p99
  EXPECT_FALSE(StepPasses(unsupported, crit));
  StepResult failing = ok;
  failing.failed = 3;  // 0.15% > 0.1%
  EXPECT_FALSE(StepPasses(failing, crit));
  failing.failed = 2;  // 0.1% is within the allowance
  EXPECT_TRUE(StepPasses(failing, crit));
  StepResult growing = ok;
  growing.backlog_growing = true;
  EXPECT_FALSE(StepPasses(growing, crit));
}

TEST(BacklogGrowing, RisingVersusFlat) {
  std::vector<double> flat(400, 3.0), rising;
  for (int i = 0; i < 400; ++i) rising.push_back(1.0 + 0.2 * i);
  EXPECT_FALSE(BacklogGrowing(flat, 20.0));
  EXPECT_TRUE(BacklogGrowing(rising, 20.0));
  // Rising but far below the limit: a warming cache, not a queue.
  std::vector<double> small;
  for (int i = 0; i < 400; ++i) small.push_back(1.0 + 0.005 * i);
  EXPECT_FALSE(BacklogGrowing(small, 20.0));
}

TEST(Schedule, SameSeedSameSchedule) {
  const KeySampler zipf = KeySampler::Zipf(1000, 0.99);
  const auto a = PoissonSchedule(7, 500.0, 1000, zipf);
  const auto b = PoissonSchedule(7, 500.0, 1000, zipf);
  const auto c = PoissonSchedule(8, 500.0, 1000, zipf);
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);
  ASSERT_EQ(a.size(), 1000u);
  for (size_t i = 1; i < a.size(); ++i) EXPECT_LE(a[i - 1].t_ns, a[i].t_ns);
  // 1000 gaps of mean 2 ms: 2 s, sd ~63 ms.
  EXPECT_NEAR(static_cast<double>(a.back().t_ns) / 1e9, 2.0, 0.35);
  EXPECT_NE(MixSeed(7, 1), MixSeed(7, 2));
  EXPECT_EQ(MixSeed(7, 1), MixSeed(7, 1));
}

TEST(Schedule, ZipfFavoursLowRanksUniformDoesNot) {
  SplitMix64 rng(3);
  const KeySampler zipf = KeySampler::Zipf(1000, 0.99);
  const KeySampler uni = KeySampler::Uniform(1000);
  int zipf_top = 0, uni_top = 0;
  for (int i = 0; i < 20000; ++i) {
    if (zipf.Sample(rng) < 10) ++zipf_top;
    if (uni.Sample(rng) < 10) ++uni_top;
  }
  EXPECT_GT(zipf_top, 20000 / 5);   // ~39% of draws hit the top 10 ranks
  EXPECT_LT(uni_top, 20000 / 50);   // ~1%
}

std::string Answer(const char* source, double value) {
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "{\"id\": 3, \"trace_id\": \"9\", \"value\": %.17g, "
                "\"degraded\": %s, \"source\": \"%s\", \"cache_hit\": true}",
                value, std::string(source) == "model" ? "false" : "true",
                source);
  return buf;
}

TEST(Oracle, BitwiseModelAnswers) {
  const double v = 1956.123456789012;
  const Expected e{false, v};
  EXPECT_EQ(CheckAnswer(Answer("model", v), e), Verdict::kOk);
  const double next = std::nextafter(v, 1e300);
  EXPECT_EQ(CheckAnswer(Answer("model", next), e), Verdict::kWrong);
  EXPECT_EQ(CheckAnswer(Answer("model", v), Expected{true, v}), Verdict::kWrong);
}

TEST(Oracle, EmptyTocOnlyWhenTheOracleAgrees) {
  EXPECT_EQ(CheckAnswer(Answer("empty_toc", 12.5), Expected{true, 0.0}),
            Verdict::kOk);
  EXPECT_EQ(CheckAnswer(Answer("empty_toc", 12.5), Expected{false, 12.5}),
            Verdict::kWrong);
}

TEST(Oracle, DegradedErrorsAndBadJsonFail) {
  const Expected e{false, 1.0};
  EXPECT_EQ(CheckAnswer(Answer("deadline", 1.0), e), Verdict::kDegraded);
  EXPECT_EQ(CheckAnswer(Answer("shard_down", 0.0), e), Verdict::kDegraded);
  EXPECT_EQ(CheckAnswer("{\"id\": 3, \"error\": \"unknown entity: x\"}", e),
            Verdict::kError);
  EXPECT_EQ(CheckAnswer("{\"value\": nan, \"source\": \"model\"}", e),
            Verdict::kBadJson);
  EXPECT_EQ(CheckAnswer("{\"value\": 1, \"source\": \"model\"", e),
            Verdict::kBadJson);
  EXPECT_EQ(CheckAnswer("{\"id\": x, \"value\": 1}", e), Verdict::kBadJson);
  EXPECT_EQ(CheckAnswer("{\"value\": 1} trailing", e), Verdict::kBadJson);
  EXPECT_EQ(CheckAnswer("{\"source\": \"model\"}", e), Verdict::kWrong);
}

TEST(FlatJson, StrictGrammar) {
  FlatJson j;
  ASSERT_TRUE(ParseFlatJson(
      " {\"a\": \"x\\\"y\\u0041\", \"b\": -1.5e3, \"c\": false, \"d\": null} ",
      &j));
  EXPECT_EQ(j.String("a"), "x\"yA");
  EXPECT_EQ(*j.Number("b"), -1500.0);
  EXPECT_FALSE(j.Bool("c"));
  EXPECT_TRUE(j.Has("d"));
  EXPECT_TRUE(ParseFlatJson("{}", &j));
  EXPECT_FALSE(ParseFlatJson("{\"a\": 1, \"a\": 2}", &j));   // duplicate
  EXPECT_FALSE(ParseFlatJson("{\"a\": 01}", &j));            // leading zero
  EXPECT_FALSE(ParseFlatJson("{\"a\": {\"b\": 1}}", &j));    // nested
  EXPECT_FALSE(ParseFlatJson("{\"a\": 1,}", &j));
  EXPECT_FALSE(ParseFlatJson("{\"a\": \"\x01\"}", &j));      // control char
  // %.17g round-trips: the parsed number is the printed double.
  char buf[64];
  const double x = 0.1 + 0.2;
  std::snprintf(buf, sizeof(buf), "{\"v\": %.17g}", x);
  ASSERT_TRUE(ParseFlatJson(buf, &j));
  EXPECT_EQ(*j.Number("v"), x);
}

}  // namespace
}  // namespace perfbench
