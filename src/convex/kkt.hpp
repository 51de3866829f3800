// KKT residual oracle for barrier-solved programs.
//
// Tests verify solver output by checking the Karush-Kuhn-Tucker conditions
// directly rather than trusting solver status codes:
//   stationarity:       || grad f0 + sum_i lambda_i grad f_i + G^T z ||_inf
//   primal feasibility: max_i f_i(x), max_j (Gx - h)_j  (<= tol)
//   dual feasibility:   min_i lambda_i                  (>= -tol)
//   complementarity:    max_i |lambda_i * f_i(x)|
#pragma once

#include "convex/barrier.hpp"

namespace protemp::convex {

struct KktResiduals {
  double stationarity = 0.0;
  double primal_infeasibility = 0.0;  ///< max(0, worst constraint violation)
  double dual_infeasibility = 0.0;    ///< max(0, -min multiplier)
  double complementarity = 0.0;

  double worst() const noexcept;
  bool within(double tol) const noexcept { return worst() <= tol; }
};

/// Residuals for a barrier-solved program. `duals` must be ordered nonlinear
/// constraints first, then linear rows (as Solution::duals is).
KktResiduals check_kkt(const BarrierProblem& problem, const linalg::Vector& x,
                       const linalg::Vector& duals);

}  // namespace protemp::convex
