// Unit tests of the benchmark's arithmetic: the tail rule, deadline and
// failure accounting, and solver-counter deltas.
#include "stats.hpp"

#include <gtest/gtest.h>

#include <numeric>
#include <vector>

namespace perfbench {
namespace {

std::vector<double> one_to(std::size_t n) {
  std::vector<double> v(n);
  std::iota(v.begin(), v.end(), 1.0);
  return v;
}

TEST(Percentile, NearestRank) {
  const std::vector<double> v = one_to(10);
  EXPECT_EQ(percentile_sorted(v, 50.0), 5.0);
  EXPECT_EQ(percentile_sorted(v, 51.0), 6.0);
  EXPECT_EQ(percentile_sorted(v, 90.0), 9.0);
  EXPECT_EQ(percentile_sorted(v, 100.0), 10.0);
  EXPECT_EQ(percentile_sorted(v, 0.0), 1.0);
}

TEST(Median, UnsortedInputAndEmpty) {
  EXPECT_EQ(median({5.0, 1.0, 3.0}), 3.0);
  EXPECT_EQ(median({}), 0.0);
}

TEST(Tail, LeavesTenSamplesBeyond) {
  // 50 samples: p80 is rank 40 with 10 above; p80.1 would leave 9.
  const Tail t50 = tail_of(one_to(50));
  EXPECT_DOUBLE_EQ(t50.percentile, 80.0);
  EXPECT_EQ(t50.value, 40.0);
  EXPECT_EQ(t50.beyond, 10u);
  EXPECT_EQ(t50.samples, 50u);

  // 1000 samples: p99 is rank 990 with exactly 10 above.
  const Tail t1000 = tail_of(one_to(1000));
  EXPECT_DOUBLE_EQ(t1000.percentile, 99.0);
  EXPECT_EQ(t1000.value, 990.0);
  EXPECT_EQ(t1000.beyond, 10u);

  // Many samples: capped at p99.9.
  const Tail big = tail_of(one_to(100000));
  EXPECT_DOUBLE_EQ(big.percentile, 99.9);
  EXPECT_EQ(big.beyond, 100u);
}

TEST(Tail, TooFewSamplesReportsTheMaximum) {
  const Tail t = tail_of(one_to(10));
  EXPECT_DOUBLE_EQ(t.percentile, 100.0);
  EXPECT_EQ(t.value, 10.0);
  EXPECT_EQ(t.beyond, 0u);
  EXPECT_EQ(tail_of({}).samples, 0u);
}

TEST(Tail, IndependentOfInputOrder) {
  std::vector<double> v = one_to(30);
  std::vector<double> reversed(v.rbegin(), v.rend());
  EXPECT_EQ(tail_of(v).value, tail_of(reversed).value);
  EXPECT_GE(tail_of(v).beyond, 10u);
}

TEST(Deadline, LateAndFailedDecisionsBothMiss) {
  DeadlineTally t;
  t.record(0.05, true, 0.1);   // on time
  t.record(0.15, true, 0.1);   // late
  t.record(0.01, false, 0.1);  // failed: counts as a miss too
  t.record(0.1, true, 0.1);    // exactly at the deadline is not late
  EXPECT_EQ(t.attempted, 4u);
  EXPECT_EQ(t.missed, 2u);
  EXPECT_DOUBLE_EQ(t.miss_frac(), 0.5);
  EXPECT_EQ(DeadlineTally{}.miss_frac(), 0.0);
}

TEST(SolverCounters, PerWindowDelta) {
  const SolverCounters before{3, 1, 1, 500, 0};
  const SolverCounters after{5, 2, 2, 1100, 1};
  const SolverCounters d = after.since(before);
  EXPECT_EQ(d.solves, 2u);
  EXPECT_EQ(d.warm_started, 1u);
  EXPECT_EQ(d.warm_rejected, 1u);
  EXPECT_EQ(d.newton_steps, 600u);
  EXPECT_EQ(d.budget_expired, 1u);
  EXPECT_DOUBLE_EQ(d.warm_hit_ratio(), 0.5);
}

TEST(SolverCounters, AccumulateAndRatio) {
  SolverCounters total;
  total += SolverCounters{1, 1, 0, 100, 0};
  total += SolverCounters{2, 0, 1, 300, 0};
  EXPECT_EQ(total.solves, 3u);
  EXPECT_EQ(total.newton_steps, 400u);
  EXPECT_DOUBLE_EQ(total.warm_hit_ratio(), 0.5);
  EXPECT_EQ(SolverCounters{}.warm_hit_ratio(), 0.0);
}

}  // namespace
}  // namespace perfbench
