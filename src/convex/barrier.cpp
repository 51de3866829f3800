#include "convex/barrier.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstring>
#include <limits>
#include <stdexcept>

#include "linalg/cholesky.hpp"
#include "util/logging.hpp"

namespace protemp::convex {
namespace {

constexpr const char* kModule = "convex.barrier";
constexpr double kInfinity = std::numeric_limits<double>::infinity();

double monotonic_seconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Shared fixed-budget state threaded through the centering stages. The
/// clock is only read when a deadline is armed, so budget-free solves
/// (the defaults) perform exactly the historical instruction sequence.
struct BudgetState {
  std::size_t max_total = 0;  ///< total Newton steps; 0 = unlimited
  double deadline = 0.0;      ///< monotonic cutoff; 0 = no deadline
  std::size_t used = 0;

  /// True once another Newton step would overrun the budget.
  bool expired() const {
    if (max_total != 0 && used >= max_total) return true;
    return deadline != 0.0 && monotonic_seconds() >= deadline;
  }
};

/// Barrier value at x for parameter t. `feasible` is false (value +inf) if
/// x is not strictly feasible. A feasible evaluation leaves the linear
/// block's residuals r = G x - h and inverse slacks 1 / (h - G x) for x in
/// the workspace, which add_derivatives() consumes.
struct BarrierEval {
  double value = kInfinity;
  bool feasible = false;
};

BarrierEval evaluate(const BarrierProblem& prob, const linalg::Vector& x,
                     double t, SolverWorkspace::BarrierBuffers& buf) {
  BarrierEval out;
  double value = t * prob.objective->value(x);
  for (const auto& f : prob.constraints) {
    const double fi = f->value(x);
    if (!(fi < 0.0)) return out;  // infeasible (or NaN)
    value -= std::log(-fi);
  }

  if (prob.linear) {
    // r = G x - h, computed into the workspace (feasible iff r < 0).
    prob.linear->g.multiply_into(x, buf.residual);
    buf.residual -= prob.linear->h;
    const std::size_t m = buf.residual.size();
    buf.inv_slack.resize(m);
    for (std::size_t i = 0; i < m; ++i) {
      const double ri = buf.residual[i];
      if (!(ri < 0.0)) return out;
      value -= std::log(-ri);
      buf.inv_slack[i] = -1.0 / ri;
    }
  }

  out.value = value;
  out.feasible = true;
  return out;
}

/// Barrier gradient and Hessian at a strictly feasible x into the workspace.
/// Reads buf.inv_slack, so the last evaluate() must have been at this x.
void add_derivatives(const BarrierProblem& prob, const linalg::Vector& x,
                     double t, SolverWorkspace::BarrierBuffers& buf) {
  const std::size_t n = x.size();
  buf.gradient = prob.objective->gradient(x);
  buf.gradient *= t;
  buf.hessian = prob.objective->hessian(x);
  buf.hessian *= t;

  for (const auto& f : prob.constraints) {
    const double fi = f->value(x);
    const linalg::Vector gi = f->gradient(x);
    // -log(-f): grad = g / (-f), hess = H/(-f) + g g^T / f^2.
    const double inv = 1.0 / (-fi);
    buf.gradient.axpy(inv, gi);
    buf.hessian += f->hessian(x) * inv;
    const double inv2 = inv * inv;
    for (std::size_t i = 0; i < n; ++i) {
      for (std::size_t j = 0; j < n; ++j) {
        buf.hessian(i, j) += inv2 * gi[i] * gi[j];
      }
    }
  }

  if (prob.linear) {
    prob.linear->g.multiply_transposed_add_into(buf.inv_slack, buf.gradient);
    const std::size_t m = buf.inv_slack.size();
    buf.inv_slack2.resize(m);
    for (std::size_t i = 0; i < m; ++i) {
      buf.inv_slack2[i] = buf.inv_slack[i] * buf.inv_slack[i];
    }
    prob.linear->g.gram_weighted_into(buf.inv_slack2, buf.gram);
    buf.hessian += buf.gram;
  }
}

/// One centering stage (damped Newton at fixed t); updates x in place.
/// A stage that returns ok stopped for one of three reasons: the Newton
/// decrement reached newton_tolerance, the iterate reached its
/// floating-point fixed point, or the stage ran max_newton_per_stage steps.
struct CenterResult {
  bool ok = false;
  bool budget_expired = false;  ///< stopped by the fixed solve budget
  bool fixed_point = false;     ///< an accepted step left x bitwise unchanged
  bool capped = false;          ///< ran all max_newton_per_stage steps
  std::size_t newton_steps = 0;
  std::size_t line_search_trials = 0;  ///< candidate points evaluated
};

bool same_bits(const linalg::Vector& a, const linalg::Vector& b) {
  return std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

CenterResult center(const BarrierProblem& prob, linalg::Vector& x, double t,
                    const BarrierOptions& opt,
                    SolverWorkspace::BarrierBuffers& buf,
                    BudgetState& budget) {
  CenterResult result;
  // Barrier value at x. Only the first step evaluates it: every later step
  // starts at the candidate the line search just accepted, whose trial
  // evaluation computed the value, residuals and inverse slacks at the
  // same (x, t) in the same order of operations, so they are reused as is.
  BarrierEval eval;
  for (std::size_t step = 0; step < opt.max_newton_per_stage; ++step) {
    if (budget.expired()) {
      // x is the incumbent reached by the last full step — still strictly
      // feasible (line search never leaves the domain).
      result.budget_expired = true;
      return result;
    }
    if (step == 0) {
      eval = evaluate(prob, x, t, buf);
      if (!eval.feasible) return result;  // should not happen from feasible x
    }
    add_derivatives(prob, x, t, buf);

    // Newton direction with ridge escalation on factorization failure. The
    // ridge is scaled to the Hessian's diagonal so it stays meaningful when
    // barrier terms near the boundary inflate the conditioning.
    double diag_scale = 1.0;
    for (std::size_t i = 0; i < x.size(); ++i) {
      diag_scale = std::max(diag_scale, std::abs(buf.hessian(i, i)));
    }
    if (!std::isfinite(diag_scale)) return result;
    buf.neg_grad = buf.gradient;
    buf.neg_grad *= -1.0;
    double ridge = opt.ridge * diag_scale;
    bool factored = false;
    for (int attempt = 0; attempt < 9; ++attempt, ridge *= 100.0) {
      if (buf.factor.refactor(buf.hessian, ridge)) {
        buf.factor.solve_into(buf.neg_grad, buf.direction);
        factored = true;
        break;
      }
    }
    if (!factored) return result;

    const double decrement2 = -buf.gradient.dot(buf.direction);  // lambda^2
    result.newton_steps = step + 1;
    ++budget.used;
    if (!std::isfinite(decrement2)) return result;  // barrier overflow
    if (decrement2 / 2.0 <= opt.newton_tolerance) {
      result.ok = true;
      return result;
    }

    // Backtracking line search (rejects steps that leave the domain).
    double step_size = 1.0;
    const double slope = buf.gradient.dot(buf.direction);  // negative
    bool moved = false;
    for (int ls = 0; ls < 60; ++ls) {
      buf.candidate = x;
      buf.candidate.axpy(step_size, buf.direction);
      const BarrierEval trial = evaluate(prob, buf.candidate, t, buf);
      ++result.line_search_trials;
      if (trial.feasible &&
          trial.value <= eval.value + opt.line_search_alpha * step_size * slope) {
        if (same_bits(buf.candidate, x)) {
          // Floating-point fixed point. Evaluation, factorization and line
          // search are deterministic in (x, t), so every further step of
          // this stage would repeat this one bit for bit and end here
          // again: stopping now returns exactly the iterate the cap would.
          result.ok = true;
          result.fixed_point = true;
          return result;
        }
        x = buf.candidate;
        eval = trial;
        moved = true;
        break;
      }
      step_size *= opt.line_search_beta;
    }
    if (!moved) {
      // Line search stalled at numerical precision: accept current center.
      result.ok = true;
      return result;
    }
  }
  // Stage cap reached; treat as centered enough to continue outer loop.
  result.ok = true;
  result.capped = true;
  return result;
}

}  // namespace

std::size_t BarrierProblem::num_variables() const {
  if (objective) return objective->dimension();
  if (linear) return linear->g.cols();
  throw std::logic_error("BarrierProblem: no objective");
}

void BarrierProblem::validate() const {
  if (!objective) throw std::invalid_argument("BarrierProblem: no objective");
  const std::size_t n = objective->dimension();
  for (const auto& f : constraints) {
    if (!f) throw std::invalid_argument("BarrierProblem: null constraint");
    if (f->dimension() != n) {
      throw std::invalid_argument("BarrierProblem: constraint dimension mismatch");
    }
  }
  if (linear) {
    if (linear->g.cols() != n || linear->g.rows() != linear->h.size()) {
      throw std::invalid_argument("BarrierProblem: linear block shape mismatch");
    }
  }
}

bool BarrierProblem::strictly_feasible(const linalg::Vector& x,
                                       double slack) const {
  return max_violation(x) < -slack;
}

double BarrierProblem::max_violation(const linalg::Vector& x) const {
  double worst = -kInfinity;
  for (const auto& f : constraints) {
    worst = std::max(worst, f->value(x));
  }
  if (linear) {
    const linalg::Vector r = linear->residuals(x);
    if (r.size() > 0) worst = std::max(worst, r.max());
  }
  if (worst == -kInfinity) worst = -1.0;  // unconstrained: trivially feasible
  return worst;
}

Solution solve_barrier(const BarrierProblem& problem, const linalg::Vector& x0,
                       const BarrierOptions& options,
                       SolverWorkspace* workspace) {
  problem.validate();
  if (x0.size() != problem.num_variables()) {
    throw std::invalid_argument("solve_barrier: x0 dimension mismatch");
  }
  if (!problem.strictly_feasible(x0)) {
    throw std::invalid_argument(
        "solve_barrier: x0 must be strictly feasible (use "
        "find_strictly_feasible for phase-I)");
  }

  SolverWorkspace scratch_workspace;
  SolverWorkspace& ws = workspace ? *workspace : scratch_workspace;
  SolverWorkspace::BarrierBuffers& buf = ws.barrier();
  ++ws.stats().solves;

  Solution result;
  linalg::Vector x = x0;
  const double m = static_cast<double>(problem.num_constraints());

  // Unconstrained problems: a single Newton stage at t=1 is exact.
  double t = (m == 0.0) ? 1.0 : options.t_initial;
  std::size_t total_newton = 0;
  // Gap certified by the last *completed* centering stage; used to degrade
  // gracefully when a late stage hits floating-point limits.
  double certified_gap = kInfinity;

  BudgetState budget;
  budget.max_total = options.max_newton_total;
  if (options.solve_deadline_seconds > 0.0) {
    budget.deadline = monotonic_seconds() + options.solve_deadline_seconds;
  }

  for (std::size_t stage = 0; stage < options.max_stages; ++stage) {
    const CenterResult centered = center(problem, x, t, options, buf, budget);
    total_newton += centered.newton_steps;
    SolverWorkspace::Stats& stats = ws.stats();
    stats.newton_steps += centered.newton_steps;
    stats.line_search_trials += centered.line_search_trials;
    ++stats.stages;
    if (centered.capped) ++stats.stages_capped;
    if (centered.fixed_point) ++stats.stages_fixed_point;
    if (centered.budget_expired) {
      // Fixed budget ran out mid-solve: serve the incumbent. The reported
      // gap is the bound certified by the last completed stage; before any
      // stage completed it degrades to the current stage's m/t target,
      // which is what that stage was driving the gap down to.
      ++ws.stats().budget_expired;
      result.status = SolveStatus::kBudgetExpired;
      result.x = x;
      result.objective = problem.objective->value(x);
      result.iterations = total_newton;
      result.gap = std::isfinite(certified_gap) ? certified_gap : m / t;
      result.primal_residual = std::max(0.0, problem.max_violation(x));
      return result;
    }
    if (!centered.ok) {
      // Late-stage numerical trouble (barrier Hessian overflow near the
      // boundary). If an earlier stage already certified a decent gap, the
      // current strictly feasible iterate is an excellent solution; only
      // fail hard when nothing was certified.
      result.x = x;
      result.objective = problem.objective->value(x);
      result.iterations = total_newton;
      result.gap = certified_gap;
      if (certified_gap <= 1e-3) {
        PROTEMP_LOG_WARN(kModule,
                         "centering failed at t=%.3e; returning previous "
                         "stage's solution (gap=%.3e)", t, certified_gap);
        result.status = SolveStatus::kOptimal;
        result.primal_residual = std::max(0.0, problem.max_violation(x));
      } else {
        result.status = SolveStatus::kNumericalFailure;
      }
      return result;
    }
    certified_gap = m / t;
    const double gap = m / t;
    if (options.verbose) {
      PROTEMP_LOG_INFO(kModule, "stage=%zu t=%.3e gap=%.3e newton=%zu", stage,
                       t, gap, centered.newton_steps);
    }
    if (m == 0.0 || gap < options.tolerance) {
      result.status = SolveStatus::kOptimal;
      result.x = x;
      result.objective = problem.objective->value(x);
      result.iterations = total_newton;
      result.gap = gap;
      // Barrier dual estimates: lambda_i = 1 / (t * (-f_i(x))).
      linalg::Vector duals(problem.num_constraints());
      std::size_t idx = 0;
      for (const auto& f : problem.constraints) {
        duals[idx++] = 1.0 / (t * (-f->value(x)));
      }
      if (problem.linear) {
        const linalg::Vector r = problem.linear->residuals(x);
        for (std::size_t i = 0; i < r.size(); ++i) {
          duals[idx++] = 1.0 / (t * (-r[i]));
        }
      }
      result.duals = std::move(duals);
      result.primal_residual = std::max(0.0, problem.max_violation(x));
      return result;
    }
    t *= options.mu;
  }

  result.status = SolveStatus::kMaxIterations;
  result.x = x;
  result.objective = problem.objective->value(x);
  result.iterations = total_newton;
  result.gap = m / t;
  return result;
}

namespace {

/// Lifted constraint for phase-I: g(x, tau) = f(x) - tau <= 0.
class LiftedConstraint final : public ScalarFunction {
 public:
  explicit LiftedConstraint(std::shared_ptr<const ScalarFunction> inner)
      : inner_(std::move(inner)) {}

  std::size_t dimension() const noexcept override {
    return inner_->dimension() + 1;
  }
  double value(const linalg::Vector& xt) const override {
    return inner_->value(strip(xt)) - xt[xt.size() - 1];
  }
  linalg::Vector gradient(const linalg::Vector& xt) const override {
    const linalg::Vector gi = inner_->gradient(strip(xt));
    linalg::Vector g(xt.size());
    for (std::size_t i = 0; i < gi.size(); ++i) g[i] = gi[i];
    g[xt.size() - 1] = -1.0;
    return g;
  }
  linalg::Matrix hessian(const linalg::Vector& xt) const override {
    const linalg::Matrix hi = inner_->hessian(strip(xt));
    linalg::Matrix h(xt.size(), xt.size());
    for (std::size_t i = 0; i < hi.rows(); ++i) {
      for (std::size_t j = 0; j < hi.cols(); ++j) h(i, j) = hi(i, j);
    }
    return h;
  }

 private:
  static linalg::Vector strip(const linalg::Vector& xt) {
    linalg::Vector x(xt.size() - 1);
    for (std::size_t i = 0; i < x.size(); ++i) x[i] = xt[i];
    return x;
  }
  std::shared_ptr<const ScalarFunction> inner_;
};

}  // namespace

std::optional<linalg::Vector> find_strictly_feasible(
    const BarrierProblem& problem, const linalg::Vector& x0, double margin,
    const BarrierOptions& options, SolverWorkspace* workspace) {
  problem.validate();
  const std::size_t n = problem.num_variables();
  if (x0.size() != n) {
    throw std::invalid_argument("find_strictly_feasible: x0 dimension mismatch");
  }
  if (problem.strictly_feasible(x0, margin)) return x0;

  // Lifted problem over (x, tau): minimize tau s.t. f_i(x) <= tau.
  BarrierProblem lifted;
  {
    linalg::Vector c(n + 1);
    c[n] = 1.0;
    lifted.objective = std::make_shared<AffineFunction>(std::move(c), 0.0);
  }
  for (const auto& f : problem.constraints) {
    lifted.constraints.push_back(std::make_shared<LiftedConstraint>(f));
  }
  {
    // Lift the linear block (rows become g_i x - tau <= h_i) and append a
    // floor tau >= -1: we only need tau < -margin, and without the floor the
    // lifted problem can be unbounded below.
    const std::size_t rows = problem.linear ? problem.linear->count() : 0;
    linalg::Matrix g(rows + 1, n + 1);
    linalg::Vector h(rows + 1);
    for (std::size_t i = 0; i < rows; ++i) {
      for (std::size_t j = 0; j < n; ++j) g(i, j) = problem.linear->g(i, j);
      g(i, n) = -1.0;
      h[i] = problem.linear->h[i];
    }
    g(rows, n) = -1.0;
    h[rows] = 1.0;
    lifted.linear = LinearConstraints{std::move(g), std::move(h)};
  }

  linalg::Vector xt(n + 1);
  for (std::size_t i = 0; i < n; ++i) xt[i] = x0[i];
  const double v0 = problem.max_violation(x0);
  if (!std::isfinite(v0)) {
    throw std::invalid_argument(
        "find_strictly_feasible: x0 outside constraint domain");
  }
  xt[n] = v0 + std::max(1.0, std::abs(v0));

  // We only need tau < -margin, not an exact minimum; loosen the gap target.
  BarrierOptions phase1 = options;
  phase1.tolerance = std::max(options.tolerance, margin * 0.5);
  const Solution sol = solve_barrier(lifted, xt, phase1, workspace);

  linalg::Vector x(n);
  for (std::size_t i = 0; i < n; ++i) x[i] = sol.x[i];
  if (problem.strictly_feasible(x, margin)) return x;
  return std::nullopt;
}

}  // namespace protemp::convex
