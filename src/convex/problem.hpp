// Result types of the convex solver.
#pragma once

#include <cstddef>
#include <string>

#include "linalg/vector.hpp"

namespace protemp::convex {

enum class SolveStatus {
  kOptimal,          ///< converged to tolerance
  kInfeasible,       ///< problem certified (or phase-I detected) infeasible
  kMaxIterations,    ///< iteration budget exhausted before convergence
  kBudgetExpired,    ///< explicit Newton/deadline budget hit: x is the
                     ///< strictly feasible incumbent, gap its bound
  kNumericalFailure  ///< factorization failed beyond recoverable ridge
};

const char* to_string(SolveStatus status) noexcept;

/// Outcome of a solve: the primal point, objective, duals where available,
/// and convergence diagnostics.
struct Solution {
  SolveStatus status = SolveStatus::kNumericalFailure;
  linalg::Vector x;              ///< primal solution
  double objective = 0.0;        ///< objective at x
  linalg::Vector duals;          ///< inequality multipliers (KKT estimates)
  std::size_t iterations = 0;    ///< Newton iterations performed
  double gap = 0.0;              ///< final duality gap estimate
  double primal_residual = 0.0;  ///< final max constraint violation

  bool ok() const noexcept { return status == SolveStatus::kOptimal; }
  std::string summary() const;
};

}  // namespace protemp::convex
