// The benchmark's own arithmetic: percentiles and the tail rule, deadline
// and failure accounting, and per-window deltas of the solver counters.
// Kept free of the program's headers so the unit tests pin it in isolation.
#pragma once

#include <algorithm>
#include <cstddef>
#include <vector>

namespace perfbench {

/// Nearest-rank percentile of an ascending sample: the value at 1-based rank
/// ceil(p/100 * n), clamped to [1, n]. `p` is in [0, 100]; n must be > 0.
inline double percentile_sorted(const std::vector<double>& sorted, double p) {
  const std::size_t n = sorted.size();
  std::size_t rank = static_cast<std::size_t>(
      std::max(0.0, p) / 100.0 * static_cast<double>(n) + 1.0 - 1e-9);
  rank = std::clamp<std::size_t>(rank, 1, n);
  return sorted[rank - 1];
}

inline double median(std::vector<double> samples) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  return percentile_sorted(samples, 50.0);
}

/// The reported tail: the highest percentile, in steps of 0.1, whose
/// nearest rank leaves at least `min_beyond` samples strictly above it.
/// When no percentile qualifies (n <= min_beyond) it is the maximum, shown as
/// p100 with the true (too small) count beyond it.
struct Tail {
  double percentile = 100.0;
  double value = 0.0;
  std::size_t beyond = 0;   ///< samples ranked above the reported one
  std::size_t samples = 0;
};

inline Tail tail_of(std::vector<double> samples, std::size_t min_beyond = 10) {
  Tail tail;
  tail.samples = samples.size();
  if (samples.empty()) return tail;
  std::sort(samples.begin(), samples.end());
  const std::size_t n = samples.size();
  tail.value = samples.back();
  // Percentile k/10: rank = ceil(k * n / 1000), in exact integer arithmetic.
  for (std::size_t k = 999; k >= 1; --k) {
    const std::size_t rank = (k * n + 999) / 1000;
    if (rank >= 1 && n - rank >= min_beyond) {
      tail.percentile = static_cast<double>(k) / 10.0;
      tail.value = samples[rank - 1];
      tail.beyond = n - rank;
      return tail;
    }
  }
  return tail;
}

/// Real-time accounting of window decisions: a decision misses its deadline
/// when it took longer than the DFS period or failed outright.
struct DeadlineTally {
  std::size_t attempted = 0;
  std::size_t missed = 0;

  void record(double seconds, bool ok, double deadline_seconds) {
    ++attempted;
    if (!ok || seconds > deadline_seconds) ++missed;
  }
  double miss_frac() const {
    return attempted == 0 ? 0.0
                          : static_cast<double>(missed) /
                                static_cast<double>(attempted);
  }
};

/// The solver workspace's cumulative counters (convex::SolverWorkspace::Stats
/// field for field); the traced run takes one delta per window.
struct SolverCounters {
  std::size_t solves = 0;
  std::size_t warm_started = 0;
  std::size_t warm_rejected = 0;
  std::size_t newton_steps = 0;
  std::size_t budget_expired = 0;

  /// This minus an earlier reading of the same workspace.
  SolverCounters since(const SolverCounters& earlier) const {
    return {solves - earlier.solves, warm_started - earlier.warm_started,
            warm_rejected - earlier.warm_rejected,
            newton_steps - earlier.newton_steps,
            budget_expired - earlier.budget_expired};
  }
  SolverCounters& operator+=(const SolverCounters& other) {
    solves += other.solves;
    warm_started += other.warm_started;
    warm_rejected += other.warm_rejected;
    newton_steps += other.newton_steps;
    budget_expired += other.budget_expired;
    return *this;
  }
  /// warm_started / (warm_started + warm_rejected); 0 with no warm attempt.
  double warm_hit_ratio() const {
    const std::size_t tried = warm_started + warm_rejected;
    return tried == 0 ? 0.0
                      : static_cast<double>(warm_started) /
                            static_cast<double>(tried);
  }
};

}  // namespace perfbench
