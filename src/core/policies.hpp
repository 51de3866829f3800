// The paper's three DFS policies as simulator plug-ins.
//
//   * NoTcPolicy    — "No-TC": frequencies track application demand only;
//     no thermal control at all (Fig. 6 reference bars).
//   * BasicDfsPolicy — traditional reactive DFS (Sec. 1.1, 5.2):
//     performance-matched frequencies, but a core observed at or above the
//     trip threshold (90 degC) at a DFS boundary is shut down until the next
//     boundary. The optional continuous-trip mode checks at every sensor
//     sample instead (ablation: how much of the violation time is sampling
//     latency vs. reactiveness).
//   * ProTempPolicy — Phase 2 of the paper: table lookup keyed on the max
//     sensor temperature and the required average frequency.
#pragma once

#include <cstddef>
#include <memory>
#include <vector>

#include "core/frequency_table.hpp"
#include "sim/policies.hpp"

namespace protemp::core {

class NoTcPolicy final : public sim::DfsPolicy {
 public:
  std::string name() const override { return "no-tc"; }
  linalg::Vector on_window(const sim::ControllerView& view) override;
};

class BasicDfsPolicy final : public sim::DfsPolicy {
 public:
  struct Options {
    double trip_celsius = 90.0;
    bool continuous_trip = false;  ///< check every sample, not per window
  };
  BasicDfsPolicy() : BasicDfsPolicy(Options{}) {}
  explicit BasicDfsPolicy(Options options) : options_(options) {}

  std::string name() const override { return "basic-dfs"; }
  void reset() override { tripped_.clear(); }
  linalg::Vector on_window(const sim::ControllerView& view) override;
  bool on_sample(double time, const linalg::Vector& core_temps,
                 linalg::Vector& frequencies) override;
  std::any save_state() const override;
  void load_state(const std::any& state) override;

  const Options& options() const noexcept { return options_; }
  /// Number of core-shutdown decisions taken so far.
  std::size_t trips() const noexcept { return trips_; }

 private:
  struct Snapshot {
    std::vector<bool> tripped;
    std::size_t trips = 0;
  };

  Options options_;
  std::vector<bool> tripped_;  ///< latched shutdowns for the current window
  std::size_t trips_ = 0;
};

/// Online (MPC-style) Pro-Temp: instead of the Phase-1 table, solve the
/// convex program at every window from the *measured* sensor state. Less
/// conservative than the table (which assumes the worst-case uniform start
/// at the hottest sensor) at the cost of a per-window solve. Unmeasured
/// package nodes (spreader, sink) are filled with the hottest sensor
/// reading, which keeps the worst-case domination argument — and hence the
/// temperature guarantee — intact. Extension beyond the paper.
class OnlineProTempPolicy final : public sim::DfsPolicy {
 public:
  struct Stats {
    std::size_t windows = 0;
    /// Demand not met: served the throughput fallback (or all cores off).
    std::size_t infeasible = 0;
    std::size_t warm_started = 0;  ///< windows seeded from the previous one
    double solve_seconds = 0.0;    ///< cumulative optimizer time
  };

  /// The optimizer's platform must match the simulated platform.
  explicit OnlineProTempPolicy(std::shared_ptr<const ProTempOptimizer> opt);

  std::string name() const override { return "pro-temp-online"; }
  void reset() override;
  linalg::Vector on_window(const sim::ControllerView& view) override;
  /// The checkpoint covers the solver workspace (warm-start hints), so a
  /// restored session replays with identical warm-started solves.
  std::any save_state() const override;
  void load_state(const std::any& state) override;

  const Stats& stats() const noexcept { return stats_; }
  /// The per-instance solver workspace (successive windows warm-start each
  /// other). Policy instances are never shared across threads, so neither
  /// is this.
  const convex::SolverWorkspace& workspace() const noexcept {
    return workspace_;
  }
  const convex::SolverWorkspace* solver_workspace() const override {
    return &workspace_;
  }

 private:
  struct Snapshot {
    Stats stats;
    convex::SolverWorkspace workspace;
  };

  std::shared_ptr<const ProTempOptimizer> optimizer_;
  convex::SolverWorkspace workspace_;
  Stats stats_;
};

class ProTempPolicy final : public sim::DfsPolicy {
 public:
  struct Stats {
    std::size_t windows = 0;
    std::size_t emergencies = 0;  ///< sensor above the table's top row
    std::size_t downgrades = 0;   ///< served below the requested column
  };

  explicit ProTempPolicy(FrequencyTable table) : table_(std::move(table)) {}

  std::string name() const override { return "pro-temp"; }
  void reset() override { stats_ = {}; }
  linalg::Vector on_window(const sim::ControllerView& view) override;
  std::any save_state() const override;
  void load_state(const std::any& state) override;

  const Stats& stats() const noexcept { return stats_; }
  const FrequencyTable& table() const noexcept { return table_; }

 private:
  FrequencyTable table_;
  Stats stats_;
};

}  // namespace protemp::core
