// Reusable solver state threaded through successive solves.
//
// Every barrier solve of a given problem shape needs the same set of
// Hessian/Cholesky/iterate buffers; a SolverWorkspace owns them once so the
// hot loops allocate nothing in steady state. The workspace is also the
// warm-start memory: callers that solve a *sequence* of neighbouring
// problems (frequency-table sweep points, MPC simulation steps) record each
// optimum and seed the next solve from it instead of the analytic-center
// cold start — the key lever for making Phase-1 run at hardware speed (cf.
// the MPC-accelerator line of work on warm-started thermal solves).
//
// Ownership rule: a workspace is single-owner mutable state. It is never
// shared across threads — parallel callers keep one workspace per thread
// (FrequencyTable::build owns one per build call; OnlineProTempPolicy owns
// one per policy instance, and ScenarioRunner gives every scenario its own
// policy instances).
#pragma once

#include <array>
#include <cstddef>

#include "linalg/cholesky.hpp"
#include "linalg/matrix.hpp"
#include "linalg/vector.hpp"

namespace protemp::convex {

class SolverWorkspace {
 public:
  /// Warm-start slots: problem families whose optima must not seed each
  /// other (the power-minimization program and the max-throughput program
  /// share constraints but have different optima).
  enum Slot : std::size_t { kMain = 0, kThroughput = 1, kNumSlots = 2 };

  SolverWorkspace() = default;
  explicit SolverWorkspace(bool warm_start) : warm_start_(warm_start) {}

  bool warm_start_enabled() const noexcept { return warm_start_; }
  void set_warm_start(bool on) noexcept { warm_start_ = on; }

  /// Previous optimum recorded for `slot`, or nullptr if none (or warm
  /// starting is disabled).
  const linalg::Vector* hint(Slot slot) const noexcept;
  void remember(Slot slot, const linalg::Vector& x);
  /// Drops every recorded optimum (e.g. when the problem shape changes).
  void forget() noexcept;

  struct Stats {
    std::size_t solves = 0;         ///< barrier solves through this workspace
    std::size_t warm_started = 0;   ///< seeded from a recorded optimum
    std::size_t warm_rejected = 0;  ///< hint present but not strictly feasible
    std::size_t newton_steps = 0;   ///< cumulative Newton iterations
    /// Line-search candidates evaluated (each one barrier value pass).
    std::size_t line_search_trials = 0;
    std::size_t budget_expired = 0; ///< solves cut short by the fixed budget
    std::size_t stages = 0;         ///< centering stages run
    /// Stages that ran max_newton_per_stage steps without reaching
    /// newton_tolerance (served as centered; see DESIGN.md §5b).
    std::size_t stages_capped = 0;
    /// Stages ended because an accepted step left the iterate bitwise
    /// unchanged (the floating-point fixed point of the stage).
    std::size_t stages_fixed_point = 0;
  };
  Stats& stats() noexcept { return stats_; }
  const Stats& stats() const noexcept { return stats_; }

  /// Buffers of the log-barrier solver's centering loop. Sized on first use
  /// per problem shape; all writes happen inside barrier.cpp.
  struct BarrierBuffers {
    linalg::Vector gradient;    ///< n: barrier gradient at the iterate
    linalg::Matrix hessian;     ///< n x n: barrier Hessian
    linalg::Matrix gram;        ///< n x n: linear-block Gram contribution
    linalg::Vector direction;   ///< n: Newton direction
    linalg::Vector neg_grad;    ///< n: right-hand side -gradient
    linalg::Vector candidate;   ///< n: line-search trial point
    linalg::Vector residual;    ///< m: linear-block residuals G x - h
    linalg::Vector inv_slack;   ///< m: 1 / (h - G x)
    linalg::Vector inv_slack2;  ///< m: squared inverse slacks
    linalg::Cholesky factor;    ///< n x n Newton-system factor storage
  };
  BarrierBuffers& barrier() noexcept { return barrier_; }

 private:
  bool warm_start_ = true;
  std::array<linalg::Vector, kNumSlots> hints_;
  std::array<bool, kNumSlots> has_hint_ = {};
  Stats stats_;
  BarrierBuffers barrier_;
};

}  // namespace protemp::convex
