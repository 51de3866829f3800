#include "convex/kkt.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace protemp::convex {

double KktResiduals::worst() const noexcept {
  return std::max({stationarity, primal_infeasibility, dual_infeasibility,
                   complementarity});
}

KktResiduals check_kkt(const BarrierProblem& problem, const linalg::Vector& x,
                       const linalg::Vector& duals) {
  problem.validate();
  if (duals.size() != problem.num_constraints()) {
    throw std::invalid_argument("check_kkt: dual vector size mismatch");
  }
  KktResiduals out;

  linalg::Vector stat = problem.objective->gradient(x);
  std::size_t idx = 0;
  for (const auto& f : problem.constraints) {
    const double fi = f->value(x);
    const double li = duals[idx++];
    out.primal_infeasibility = std::max(out.primal_infeasibility, fi);
    out.dual_infeasibility = std::max(out.dual_infeasibility, -li);
    out.complementarity = std::max(out.complementarity, std::abs(li * fi));
    stat.axpy(li, f->gradient(x));
  }
  if (problem.linear) {
    const linalg::Vector r = problem.linear->residuals(x);
    linalg::Vector z(r.size());
    for (std::size_t i = 0; i < r.size(); ++i) {
      z[i] = duals[idx++];
      out.primal_infeasibility = std::max(out.primal_infeasibility, r[i]);
      out.dual_infeasibility = std::max(out.dual_infeasibility, -z[i]);
      out.complementarity =
          std::max(out.complementarity, std::abs(z[i] * r[i]));
    }
    problem.linear->g.multiply_transposed_add_into(z, stat);
  }
  out.stationarity = stat.norm_inf();
  out.primal_infeasibility = std::max(0.0, out.primal_infeasibility);
  out.dual_infeasibility = std::max(0.0, out.dual_infeasibility);
  return out;
}

}  // namespace protemp::convex
