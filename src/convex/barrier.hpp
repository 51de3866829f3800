// Log-barrier interior-point solver for smooth convex programs
//
//   minimize    f0(x)
//   subject to  f_i(x) <= 0        (smooth convex, via ScalarFunction)
//               G x <= h           (vectorized linear block)
//
// following Boyd & Vandenberghe ch. 11 [25], which is the algorithmic core
// of the CVX solver the paper used. The outer loop sharpens the barrier
// parameter t by a factor mu; each centering step is damped Newton with
// backtracking that rejects any step leaving the strictly feasible region.
//
// Pro-Temp's per-point program (after the s = f^2 substitution) has a linear
// objective, one concave-to-convex workload constraint, and thousands of
// linear temperature rows — exactly the shape this solver is tuned for.
#pragma once

#include <memory>
#include <optional>
#include <vector>

#include "convex/functions.hpp"
#include "convex/problem.hpp"
#include "convex/workspace.hpp"

namespace protemp::convex {

struct BarrierProblem {
  std::shared_ptr<const ScalarFunction> objective;
  std::vector<std::shared_ptr<const ScalarFunction>> constraints;
  std::optional<LinearConstraints> linear;

  std::size_t num_variables() const;
  std::size_t num_constraints() const noexcept {
    return constraints.size() + (linear ? linear->count() : 0);
  }
  /// Throws std::invalid_argument on dimension mismatches.
  void validate() const;
  /// True if x satisfies every constraint with margin > `slack`.
  bool strictly_feasible(const linalg::Vector& x, double slack = 0.0) const;
  /// max_i f_i(x) over all (nonlinear + linear) constraints.
  double max_violation(const linalg::Vector& x) const;
};

struct BarrierOptions {
  double t_initial = 1.0;
  double mu = 20.0;                 ///< outer-loop barrier sharpening factor
  double tolerance = 1e-8;          ///< target duality-gap bound m/t
  double newton_tolerance = 1e-10;  ///< centering stop: lambda^2/2
  std::size_t max_newton_per_stage = 80;
  std::size_t max_stages = 64;
  /// Fixed-budget solve (real-time callers). When the *total* Newton-step
  /// budget or the wall-clock deadline expires mid-solve, the solver stops
  /// and returns the incumbent strictly feasible iterate with status
  /// kBudgetExpired and `gap` set to a finite suboptimality bound (the gap
  /// certified by the last completed centering stage, or the current
  /// stage's m/t target when none completed yet). 0 disables either limit;
  /// the clock is never read while solve_deadline_seconds == 0, so the
  /// default solve path is untouched.
  std::size_t max_newton_total = 0;
  double solve_deadline_seconds = 0.0;
  double line_search_alpha = 0.25;  ///< sufficient-decrease fraction
  double line_search_beta = 0.5;    ///< backtracking shrink factor
  double ridge = 1e-12;             ///< Hessian regularization floor
  bool verbose = false;
};

/// Solves the program from a strictly feasible start. Precondition:
/// problem.strictly_feasible(x0) — throws std::invalid_argument otherwise.
/// On success, Solution::duals holds the barrier estimates of the KKT
/// multipliers, ordered nonlinear constraints first, then linear rows.
///
/// `workspace` (optional) supplies the centering loop's buffers so repeated
/// solves allocate nothing; warm-start *seeding* stays with the caller — to
/// warm-start, pass the previous optimum (checked strictly feasible) as x0.
/// A null workspace uses a throwaway one (one allocation set per solve).
Solution solve_barrier(const BarrierProblem& problem, const linalg::Vector& x0,
                       const BarrierOptions& options = {},
                       SolverWorkspace* workspace = nullptr);

/// Phase-I: finds a strictly feasible point by minimizing the worst
/// violation. `x0` only needs to lie in the domain of every constraint
/// function (so that values/gradients are finite). Returns std::nullopt if
/// the infimum of the worst violation is >= -margin (problem deemed
/// infeasible to that margin).
std::optional<linalg::Vector> find_strictly_feasible(
    const BarrierProblem& problem, const linalg::Vector& x0,
    double margin = 1e-9, const BarrierOptions& options = {},
    SolverWorkspace* workspace = nullptr);

}  // namespace protemp::convex
