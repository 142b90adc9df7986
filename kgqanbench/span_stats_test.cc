// Tests of the benchmark's measurement rules: self time with overlapping
// children, the percentile rule, and the knee-ladder stopping rule.

#include "span_stats.h"

#include <gtest/gtest.h>

#include <numeric>
#include <string>
#include <vector>

namespace kgqanbench {
namespace {

using kgqan::obs::kNoSpan;
using kgqan::obs::SpanRecord;

SpanRecord Span(const std::string& name, int64_t start, int64_t end,
                size_t parent) {
  SpanRecord span;
  span.name = name;
  span.start_ns = start;
  span.duration_ns = end - start;
  span.parent = parent;
  return span;
}

double Sum(const std::vector<double>& values) {
  return std::accumulate(values.begin(), values.end(), 0.0);
}

TEST(SelfTimesTest, SubtractsUnionOfOverlappingChildren) {
  // Children [1,5) and [3,8) overlap on [3,5): the parent's self time is
  // 10 - |[1,8)| = 3, not 10 - (4 + 5) = 1.
  std::vector<SpanRecord> spans = {Span("question", 0, 10, kNoSpan),
                                   Span("linking.entity", 1, 5, 0),
                                   Span("linking.entity", 3, 8, 0)};
  std::vector<double> self = SelfTimesNs(spans);
  EXPECT_DOUBLE_EQ(self[0], 3.0);
  // The overlap is split evenly between the two siblings.
  EXPECT_DOUBLE_EQ(self[1], 2.0 + 1.0);
  EXPECT_DOUBLE_EQ(self[2], 1.0 + 3.0);
  EXPECT_DOUBLE_EQ(Sum(self), 10.0);
}

TEST(SelfTimesTest, NestedChainAndDisjointChildren) {
  std::vector<SpanRecord> spans = {
      Span("question", 0, 100, kNoSpan), Span("qu", 0, 10, 0),
      Span("linking", 10, 60, 0),        Span("linking.entity", 12, 50, 2),
      Span("sparql.query", 20, 30, 3),   Span("execution", 60, 95, 0)};
  std::vector<double> self = SelfTimesNs(spans);
  EXPECT_DOUBLE_EQ(self[0], 5.0);   // [95,100).
  EXPECT_DOUBLE_EQ(self[1], 10.0);
  EXPECT_DOUBLE_EQ(self[2], 12.0);  // 50 - 38.
  EXPECT_DOUBLE_EQ(self[3], 28.0);  // 38 - 10.
  EXPECT_DOUBLE_EQ(self[4], 10.0);
  EXPECT_DOUBLE_EQ(self[5], 35.0);
  EXPECT_DOUBLE_EQ(Sum(self), 100.0);
}

TEST(SelfTimesTest, ChildrenAreClampedAndOpenSpansAreEmpty) {
  std::vector<SpanRecord> spans = {Span("question", 10, 20, kNoSpan),
                                   Span("qu", 5, 25, 0),
                                   Span("linking", 12, 12, 0)};
  spans[2].duration_ns = -1;  // Still open.
  std::vector<double> self = SelfTimesNs(spans);
  EXPECT_DOUBLE_EQ(self[0], 0.0);
  EXPECT_DOUBLE_EQ(self[1], 10.0);
  EXPECT_DOUBLE_EQ(self[2], 0.0);
}

TEST(SelfTimesTest, ThreeWayOverlapUnderOneParent) {
  std::vector<SpanRecord> spans = {
      Span("execution", 0, 12, kNoSpan), Span("execution.candidate", 0, 6, 0),
      Span("execution.candidate", 0, 6, 0),
      Span("execution.candidate", 3, 9, 0)};
  std::vector<double> self = SelfTimesNs(spans);
  EXPECT_DOUBLE_EQ(self[0], 3.0);  // 12 - |[0,9)|.
  EXPECT_DOUBLE_EQ(self[1], 1.5 + 1.0);
  EXPECT_DOUBLE_EQ(self[3], 1.0 + 3.0);
  EXPECT_DOUBLE_EQ(Sum(self), 12.0);
}

TEST(PercentileTest, NearestRank) {
  std::vector<double> samples;
  for (int i = 1; i <= 1000; ++i) samples.push_back(i);
  EXPECT_DOUBLE_EQ(Percentile(samples, 50.0), 500.0);
  EXPECT_DOUBLE_EQ(Percentile(samples, 99.0), 990.0);
  EXPECT_DOUBLE_EQ(Percentile({7.0}, 99.0), 7.0);
  EXPECT_DOUBLE_EQ(Percentile({}, 50.0), 0.0);
}

TEST(PercentileTest, NeedsTenSamplesBeyond) {
  EXPECT_TRUE(PercentileSupported(1000, 99.0));
  EXPECT_FALSE(PercentileSupported(999, 99.0));
  EXPECT_TRUE(PercentileSupported(20, 50.0));
  EXPECT_FALSE(PercentileSupported(19, 50.0));
  EXPECT_FALSE(PercentileSupported(0, 50.0));
}

TEST(KneeLadderTest, StopsAtFirstFailingRung) {
  std::vector<double> rungs = {10, 20, 30, 40, 50};
  std::vector<double> tried;
  double knee = WalkLadder(rungs, 1, [&](double rate) {
    tried.push_back(rate);
    return rate != 30;  // 40 would pass again, but is never offered.
  });
  EXPECT_DOUBLE_EQ(knee, 20.0);
  EXPECT_EQ(tried, (std::vector<double>{10, 20, 30}));
}

TEST(KneeLadderTest, StridesThenFillsInBelowTheFailure) {
  std::vector<double> rungs;
  for (int i = 0; i < 12; ++i) rungs.push_back(10 * (i + 1));
  std::vector<double> tried;
  double knee = WalkLadder(rungs, 4, [&](double rate) {
    tried.push_back(rate);
    return rate <= 60;
  });
  EXPECT_DOUBLE_EQ(knee, 60.0);
  // Coarse 10, 50, 90 (fails); fine 60, 70 (fails) and stop.
  EXPECT_EQ(tried, (std::vector<double>{10, 50, 90, 60, 70}));
}

TEST(KneeLadderTest, EdgesOfTheLadder) {
  std::vector<double> rungs = {10, 20, 30, 40, 50, 60};
  EXPECT_DOUBLE_EQ(WalkLadder(rungs, 4, [](double) { return false; }), 0.0);
  // The stride overshoots the top; the rungs above the last coarse one
  // are still walked.
  EXPECT_DOUBLE_EQ(WalkLadder(rungs, 4, [](double) { return true; }), 60.0);
  EXPECT_DOUBLE_EQ(
      WalkLadder(rungs, 4, [](double rate) { return rate < 20; }), 10.0);
}

TEST(KneeLadderTest, StepRule) {
  StepOutcome ok;
  ok.p99_ms = 250.0;
  ok.max_backlog = 8;
  ok.backlog = 8;
  EXPECT_TRUE(StepPasses(ok, 250.0));
  StepOutcome slow = ok;
  slow.p99_ms = 250.1;
  EXPECT_FALSE(StepPasses(slow, 250.0));
  StepOutcome shed = ok;
  shed.shed = 1;
  EXPECT_FALSE(StepPasses(shed, 250.0));
  StepOutcome failed = ok;
  failed.failed = 1;
  EXPECT_FALSE(StepPasses(failed, 250.0));
  StepOutcome growing = ok;
  growing.backlog = 8.5;
  EXPECT_FALSE(StepPasses(growing, 250.0));
}

}  // namespace
}  // namespace kgqanbench
