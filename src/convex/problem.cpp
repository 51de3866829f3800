#include "convex/problem.hpp"

#include "util/strings.hpp"

namespace protemp::convex {

const char* to_string(SolveStatus status) noexcept {
  switch (status) {
    case SolveStatus::kOptimal: return "optimal";
    case SolveStatus::kInfeasible: return "infeasible";
    case SolveStatus::kMaxIterations: return "max_iterations";
    case SolveStatus::kBudgetExpired: return "budget_expired";
    case SolveStatus::kNumericalFailure: return "numerical_failure";
  }
  return "?";
}

std::string Solution::summary() const {
  return util::format(
      "status=%s obj=%.6g iters=%zu gap=%.2e res_p=%.2e", to_string(status),
      objective, iterations, gap, primal_residual);
}

}  // namespace protemp::convex
