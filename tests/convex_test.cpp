// Tests for the convex solver stack: log-barrier solver, phase-I
// feasibility, and KKT verification. Every optimum is checked against
// analytic solutions or KKT residuals, not solver status alone.
#include <cmath>
#include <memory>
#include <random>

#include <gtest/gtest.h>

#include "arch/niagara.hpp"
#include "convex/barrier.hpp"
#include "convex/functions.hpp"
#include "convex/kkt.hpp"
#include "convex/problem.hpp"
#include "core/optimizer.hpp"
#include "util/rng.hpp"

namespace protemp::convex {
namespace {

using linalg::Matrix;
using linalg::Vector;

// ------------------------------------------------------------------ barrier --

std::shared_ptr<AffineFunction> affine(Vector c, double d) {
  return std::make_shared<AffineFunction>(std::move(c), d);
}

TEST(Barrier, BoxConstrainedActiveBound) {
  // min (x-3)^2 s.t. x <= 1  ->  x = 1, dual = 4 (2(x-3) + z = 0).
  BarrierProblem problem;
  problem.objective = std::make_shared<QuadraticFunction>(
      Matrix{{2.0}}, Vector{-6.0}, 0.0);
  problem.linear = LinearConstraints{Matrix{{1.0}}, Vector{1.0}};
  const Solution sol = solve_barrier(problem, Vector{0.0});
  ASSERT_EQ(sol.status, SolveStatus::kOptimal);
  EXPECT_NEAR(sol.x[0], 1.0, 1e-5);
  EXPECT_NEAR(sol.duals[0], 4.0, 1e-6);
  const KktResiduals kkt = check_kkt(problem, sol.x, sol.duals);
  EXPECT_LT(kkt.worst(), 1e-4);
}

TEST(Barrier, LinearObjectiveOverPolytope) {
  // min -x1 - x2 over the unit box: optimum (1, 1).
  BarrierProblem problem;
  problem.objective = affine(Vector{-1.0, -1.0}, 0.0);
  problem.linear = LinearConstraints{
      Matrix{{1.0, 0.0}, {0.0, 1.0}, {-1.0, 0.0}, {0.0, -1.0}},
      Vector{1.0, 1.0, 0.0, 0.0}};
  const Solution sol =
      solve_barrier(problem, Vector{0.5, 0.5});
  ASSERT_EQ(sol.status, SolveStatus::kOptimal);
  EXPECT_NEAR(sol.x[0], 1.0, 1e-5);
  EXPECT_NEAR(sol.x[1], 1.0, 1e-5);
}

/// Nonlinear convex constraint: x1^2 + x2^2 - r^2 <= 0.
class DiskConstraint final : public ScalarFunction {
 public:
  explicit DiskConstraint(double radius) : r2_(radius * radius) {}
  std::size_t dimension() const noexcept override { return 2; }
  double value(const Vector& x) const override {
    return x[0] * x[0] + x[1] * x[1] - r2_;
  }
  Vector gradient(const Vector& x) const override {
    return Vector{2.0 * x[0], 2.0 * x[1]};
  }
  Matrix hessian(const Vector&) const override {
    return Matrix{{2.0, 0.0}, {0.0, 2.0}};
  }

 private:
  double r2_;
};

TEST(Barrier, NonlinearDiskConstraint) {
  // min -x1 - x2 s.t. x in disk of radius sqrt(2): optimum (1, 1).
  BarrierProblem problem;
  problem.objective = affine(Vector{-1.0, -1.0}, 0.0);
  problem.constraints.push_back(
      std::make_shared<DiskConstraint>(std::sqrt(2.0)));
  const Solution sol = solve_barrier(problem, Vector{0.0, 0.0});
  ASSERT_EQ(sol.status, SolveStatus::kOptimal);
  EXPECT_NEAR(sol.x[0], 1.0, 1e-4);
  EXPECT_NEAR(sol.x[1], 1.0, 1e-4);
  const KktResiduals kkt = check_kkt(problem, sol.x, sol.duals);
  EXPECT_LT(kkt.worst(), 1e-3);
}

TEST(Barrier, MixedLinearAndNonlinear) {
  // min -x2 s.t. disk radius 2 and x2 <= 1: optimum x2 = 1 (on the line).
  BarrierProblem problem;
  problem.objective = affine(Vector{0.0, -1.0}, 0.0);
  problem.constraints.push_back(std::make_shared<DiskConstraint>(2.0));
  problem.linear =
      LinearConstraints{Matrix{{0.0, 1.0}}, Vector{1.0}};
  const Solution sol = solve_barrier(problem, Vector{0.0, 0.0});
  ASSERT_EQ(sol.status, SolveStatus::kOptimal);
  EXPECT_NEAR(sol.x[1], 1.0, 1e-5);
}

// ------------------------------------------------- fixed-budget solves --

/// The polytope LP used by the budget tests: min -x1 - x2 over the unit
/// box from the interior point (0.5, 0.5); m = 4 constraint rows.
BarrierProblem budget_polytope() {
  BarrierProblem problem;
  problem.objective = affine(Vector{-1.0, -1.0}, 0.0);
  problem.linear = LinearConstraints{
      Matrix{{1.0, 0.0}, {0.0, 1.0}, {-1.0, 0.0}, {0.0, -1.0}},
      Vector{1.0, 1.0, 0.0, 0.0}};
  return problem;
}

TEST(Barrier, BudgetStarvationServesFeasibleIncumbent) {
  // One Newton step is nowhere near convergence: the solver must stop at
  // the budget, hand back a strictly feasible incumbent and report a
  // finite duality-gap bound instead of failing.
  const BarrierProblem problem = budget_polytope();
  BarrierOptions opt;
  opt.max_newton_total = 1;
  SolverWorkspace ws;
  const Solution sol = solve_barrier(problem, Vector{0.5, 0.5}, opt, &ws);
  EXPECT_EQ(sol.status, SolveStatus::kBudgetExpired);
  EXPECT_LE(sol.iterations, opt.max_newton_total);
  EXPECT_TRUE(problem.strictly_feasible(sol.x));
  EXPECT_TRUE(std::isfinite(sol.gap));
  EXPECT_GT(sol.gap, 0.0);
  EXPECT_EQ(ws.stats().budget_expired, 1u);
}

TEST(Barrier, NewtonBudgetNeverExceeded) {
  const BarrierProblem problem = budget_polytope();
  for (std::size_t budget = 1; budget <= 12; ++budget) {
    BarrierOptions opt;
    opt.max_newton_total = budget;
    const Solution sol = solve_barrier(problem, Vector{0.5, 0.5}, opt);
    EXPECT_LE(sol.iterations, budget) << "budget " << budget;
    EXPECT_TRUE(problem.strictly_feasible(sol.x)) << "budget " << budget;
    EXPECT_TRUE(sol.status == SolveStatus::kBudgetExpired ||
                sol.status == SolveStatus::kOptimal)
        << "budget " << budget;
    EXPECT_TRUE(std::isfinite(sol.gap)) << "budget " << budget;
  }
}

TEST(Barrier, DeadlineExpiryServesIncumbent) {
  // A deadline that has effectively already passed: the very first budget
  // check fires, so the incumbent is the (strictly feasible) start point.
  const BarrierProblem problem = budget_polytope();
  BarrierOptions opt;
  opt.solve_deadline_seconds = 1e-12;
  SolverWorkspace ws;
  const Solution sol = solve_barrier(problem, Vector{0.5, 0.5}, opt, &ws);
  EXPECT_EQ(sol.status, SolveStatus::kBudgetExpired);
  EXPECT_TRUE(problem.strictly_feasible(sol.x));
  EXPECT_TRUE(std::isfinite(sol.gap));
  EXPECT_EQ(ws.stats().budget_expired, 1u);
}

TEST(Barrier, UnlimitedBudgetMatchesDefaultBitwise) {
  // max_newton_total far above need and no deadline must leave the default
  // solve path untouched — same status, same iterate bits.
  const BarrierProblem problem = budget_polytope();
  const Solution base = solve_barrier(problem, Vector{0.5, 0.5});
  BarrierOptions opt;
  opt.max_newton_total = 1000000;
  const Solution budgeted = solve_barrier(problem, Vector{0.5, 0.5}, opt);
  ASSERT_EQ(base.status, SolveStatus::kOptimal);
  ASSERT_EQ(budgeted.status, SolveStatus::kOptimal);
  EXPECT_EQ(base.iterations, budgeted.iterations);
  ASSERT_EQ(base.x.size(), budgeted.x.size());
  for (std::size_t i = 0; i < base.x.size(); ++i) {
    EXPECT_EQ(base.x[i], budgeted.x[i]) << "component " << i;
  }
}

TEST(Barrier, BudgetExpiredToString) {
  EXPECT_STREQ(to_string(SolveStatus::kBudgetExpired), "budget_expired");
}

TEST(Barrier, RequiresStrictlyFeasibleStart) {
  BarrierProblem problem;
  problem.objective = affine(Vector{1.0}, 0.0);
  problem.linear = LinearConstraints{Matrix{{1.0}}, Vector{1.0}};
  EXPECT_THROW(solve_barrier(problem, Vector{2.0}), std::invalid_argument);
}

TEST(Barrier, UnconstrainedNewton) {
  BarrierProblem problem;
  problem.objective = std::make_shared<QuadraticFunction>(
      Matrix{{2.0, 0.0}, {0.0, 4.0}}, Vector{-2.0, -8.0}, 0.0);
  const Solution sol = solve_barrier(problem, Vector{0.0, 0.0});
  ASSERT_EQ(sol.status, SolveStatus::kOptimal);
  EXPECT_NEAR(sol.x[0], 1.0, 1e-8);
  EXPECT_NEAR(sol.x[1], 2.0, 1e-8);
}

TEST(Barrier, SeparableBoxProgramHitsFloor) {
  // minimize sum_i c_i x_i over -0.25 <= x_i <= 1 with every c_i > 0: a
  // 40-variable program whose barrier Hessian is diagonal. Every component
  // must land on the floor.
  const std::size_t n = 40;
  std::mt19937_64 rng(17);
  std::uniform_real_distribution<double> cost(0.5, 2.0);
  BarrierProblem problem;
  Vector c(n);
  for (std::size_t i = 0; i < n; ++i) c[i] = cost(rng);
  problem.objective = affine(std::move(c), 0.0);
  Matrix g(2 * n, n);
  Vector h(2 * n);
  for (std::size_t i = 0; i < n; ++i) {
    g(i, i) = 1.0;
    h[i] = 1.0;  // x <= 1
    g(n + i, i) = -1.0;
    h[n + i] = 0.25;  // x >= -0.25
  }
  problem.linear = LinearConstraints{std::move(g), std::move(h)};
  const Solution sol = solve_barrier(problem, Vector(n, 0.0));
  ASSERT_TRUE(sol.ok());
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_NEAR(sol.x[i], -0.25, 1e-6) << "component " << i;
  }
}

TEST(Barrier, ProblemValidation) {
  BarrierProblem problem;
  EXPECT_THROW(problem.validate(), std::invalid_argument);
  problem.objective = affine(Vector{1.0, 2.0}, 0.0);
  problem.constraints.push_back(std::make_shared<DiskConstraint>(1.0));
  EXPECT_NO_THROW(problem.validate());
  problem.linear = LinearConstraints{Matrix{{1.0}}, Vector{1.0}};
  EXPECT_THROW(problem.validate(), std::invalid_argument);
}

TEST(Barrier, PaperProgramWarmSolveEndsStagesAtFixedPoint) {
  // The niagara8 program at the paper's configuration (3417 rows x 9
  // variables), warm-started from its own optimum at a steady-state rhs —
  // the steady MPC window. Its last stage cannot reach newton_tolerance: it
  // stops at the iterate's floating-point fixed point, not at the cap.
  const arch::Platform platform = arch::make_niagara_platform();
  const core::ProTempOptimizer optimizer(platform, core::ProTempConfig{});
  Vector core_watts(platform.num_cores(), 0.4 * platform.core_pmax());
  const Vector state =
      platform.network().steady_state(platform.full_power(core_watts, 0.4));
  const double ftarget = 0.5 * platform.fmax();

  SolverWorkspace ws;
  const core::FrequencyAssignment cold =
      optimizer.solve_from_state(state, ftarget, &ws);
  ASSERT_TRUE(cold.feasible);
  const Vector* hint = ws.hint(SolverWorkspace::kMain);
  ASSERT_NE(hint, nullptr);

  const BarrierProblem problem = optimizer.program_from_state(state, ftarget);
  ASSERT_EQ(problem.linear->count(), 3417u);
  ws.stats() = {};
  const Solution sol =
      solve_barrier(problem, *hint, optimizer.warm_options(), &ws);
  ASSERT_EQ(sol.status, SolveStatus::kOptimal);
  const SolverWorkspace::Stats& stats = ws.stats();
  EXPECT_GT(stats.stages_fixed_point, 0u);
  EXPECT_LT(stats.stages_capped, stats.stages);
  // KKT at the BarrierProperty bar (1e-3), scaled to this program's units:
  // the objective gradient is pmax = 4 W per sigma, not O(1). The last
  // stage's stationarity residual is its fixed point's, the same iterate
  // the 80-step cap would return.
  const double scale = problem.objective->gradient(sol.x).norm_inf();
  ASSERT_GT(scale, 1.0);
  EXPECT_LT(check_kkt(problem, sol.x, sol.duals).worst(), 1e-3 * scale);
}

TEST(Barrier, StageCapHitsAreCounted) {
  // One Newton step per stage never reaches newton_tolerance on the
  // polytope LP, so every stage that runs ends at the cap.
  const BarrierProblem problem = budget_polytope();
  BarrierOptions opt;
  opt.max_newton_per_stage = 1;
  SolverWorkspace ws;
  solve_barrier(problem, Vector{0.5, 0.5}, opt, &ws);
  EXPECT_GT(ws.stats().stages, 0u);
  EXPECT_EQ(ws.stats().stages_capped, ws.stats().stages);
  EXPECT_EQ(ws.stats().stages_fixed_point, 0u);
}

/// Wraps a function and counts value() calls: the barrier evaluates the
/// objective once per barrier-value pass.
class CountingFunction final : public ScalarFunction {
 public:
  explicit CountingFunction(std::shared_ptr<const ScalarFunction> inner)
      : inner_(std::move(inner)) {}
  std::size_t dimension() const noexcept override {
    return inner_->dimension();
  }
  double value(const Vector& x) const override {
    ++calls_;
    return inner_->value(x);
  }
  Vector gradient(const Vector& x) const override {
    return inner_->gradient(x);
  }
  Matrix hessian(const Vector& x) const override {
    return inner_->hessian(x);
  }
  std::size_t calls() const noexcept { return calls_; }

 private:
  std::shared_ptr<const ScalarFunction> inner_;
  mutable std::size_t calls_ = 0;
};

/// Solves `problem` from x0 with a counting objective and checks that the
/// barrier value was computed once per stage and once per line-search
/// trial: every later Newton step reuses its accepted trial's evaluation.
void expect_trial_reuse(BarrierProblem problem, const Vector& x0,
                        const BarrierOptions& options) {
  auto counting = std::make_shared<CountingFunction>(problem.objective);
  problem.objective = counting;
  SolverWorkspace ws;
  const Solution sol = solve_barrier(problem, x0, options, &ws);
  ASSERT_EQ(sol.status, SolveStatus::kOptimal);
  const SolverWorkspace::Stats& stats = ws.stats();
  // +1: the final objective value of the solution.
  EXPECT_EQ(counting->calls(), stats.stages + stats.line_search_trials + 1);
  EXPECT_GT(stats.newton_steps, stats.stages);  // some steps reused a trial
}

TEST(Barrier, AcceptedTrialIsReusedOnThePaperProgram) {
  const arch::Platform platform = arch::make_niagara_platform();
  const core::ProTempOptimizer optimizer(platform, core::ProTempConfig{});
  Vector core_watts(platform.num_cores(), 0.4 * platform.core_pmax());
  const Vector state =
      platform.network().steady_state(platform.full_power(core_watts, 0.4));
  const double ftarget = 0.5 * platform.fmax();
  SolverWorkspace ws;
  ASSERT_TRUE(optimizer.solve_from_state(state, ftarget, &ws).feasible);
  const BarrierProblem problem = optimizer.program_from_state(state, ftarget);
  ASSERT_EQ(problem.constraints.size(), 1u);  // the workload constraint
  expect_trial_reuse(problem, *ws.hint(SolverWorkspace::kMain),
                     optimizer.warm_options());
}

TEST(Barrier, AcceptedTrialIsReusedWithANonlinearConstraint) {
  BarrierProblem problem;
  problem.objective = affine(Vector{-1.0, -2.0}, 0.0);
  problem.constraints.push_back(std::make_shared<DiskConstraint>(1.0));
  problem.linear = LinearConstraints{Matrix{{1.0, 1.0}}, Vector{1.2}};
  expect_trial_reuse(problem, Vector{0.0, 0.0}, BarrierOptions{});
}

// ------------------------------------------------------------------ phase I --

TEST(PhaseI, FindsInteriorPoint) {
  // Feasible region: 0.5 <= x <= 1. Start far outside.
  BarrierProblem problem;
  problem.objective = affine(Vector{0.0}, 0.0);
  problem.linear = LinearConstraints{Matrix{{1.0}, {-1.0}},
                                     Vector{1.0, -0.5}};
  const auto x = find_strictly_feasible(problem, Vector{100.0});
  ASSERT_TRUE(x.has_value());
  EXPECT_TRUE(problem.strictly_feasible(*x));
}

TEST(PhaseI, DetectsInfeasible) {
  // x <= 0 and x >= 1 simultaneously: empty.
  BarrierProblem problem;
  problem.objective = affine(Vector{0.0}, 0.0);
  problem.linear = LinearConstraints{Matrix{{1.0}, {-1.0}},
                                     Vector{0.0, -1.0}};
  EXPECT_FALSE(find_strictly_feasible(problem, Vector{0.5}).has_value());
}

TEST(PhaseI, AlreadyFeasiblePassesThrough) {
  BarrierProblem problem;
  problem.objective = affine(Vector{0.0}, 0.0);
  problem.linear = LinearConstraints{Matrix{{1.0}}, Vector{1.0}};
  const auto x = find_strictly_feasible(problem, Vector{0.0});
  ASSERT_TRUE(x.has_value());
  EXPECT_DOUBLE_EQ((*x)[0], 0.0);
}

TEST(PhaseI, NonlinearConstraints) {
  BarrierProblem problem;
  problem.objective = affine(Vector{0.0, 0.0}, 0.0);
  problem.constraints.push_back(std::make_shared<DiskConstraint>(1.0));
  const auto x = find_strictly_feasible(problem, Vector{5.0, 5.0});
  ASSERT_TRUE(x.has_value());
  EXPECT_LT((*x)[0] * (*x)[0] + (*x)[1] * (*x)[1], 1.0);
}

// -------------------------------------------------------------------- KKT --

TEST(Kkt, FlagsPrimalyInfeasiblePoint) {
  // min x^2 s.t. x <= 1, evaluated at x = 2 (outside the feasible set).
  BarrierProblem problem;
  problem.objective =
      std::make_shared<QuadraticFunction>(Matrix{{2.0}}, Vector{0.0}, 0.0);
  problem.linear = LinearConstraints{Matrix{{1.0}}, Vector{1.0}};
  const KktResiduals kkt = check_kkt(problem, Vector{2.0}, Vector{0.0});
  EXPECT_GT(kkt.primal_infeasibility, 0.9);
  EXPECT_FALSE(kkt.within(1e-6));
}

TEST(Kkt, FlagsNonStationaryPoint) {
  // Unconstrained min (x-3)^2 evaluated at x = 0: gradient -6.
  BarrierProblem problem;
  problem.objective =
      std::make_shared<QuadraticFunction>(Matrix{{2.0}}, Vector{-6.0}, 0.0);
  const KktResiduals kkt = check_kkt(problem, Vector{0.0}, Vector{});
  EXPECT_GT(kkt.stationarity, 5.0);
}

// ------------------------------------------------------ random QP sweep --

class RandomQpKkt : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RandomQpKkt, BarrierOptimumSatisfiesKkt) {
  util::Rng rng(GetParam());
  const std::size_t n = 2 + rng.uniform_index(4);
  const std::size_t m = n + 2;
  Matrix root(n, n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) root(i, j) = rng.normal();
  }
  Matrix p = root.transposed() * root;
  for (std::size_t i = 0; i < n; ++i) p(i, i) += 1.0;
  Vector q(n);
  for (auto& v : q) v = rng.normal();
  Matrix g(m, n);
  Vector h(m);
  for (std::size_t i = 0; i < m; ++i) {
    for (std::size_t j = 0; j < n; ++j) g(i, j) = rng.normal();
    h[i] = rng.uniform(0.5, 2.0);  // x = 0 strictly feasible
  }

  BarrierProblem barrier;
  barrier.objective = std::make_shared<QuadraticFunction>(p, q, 0.0);
  barrier.linear = LinearConstraints{g, h};
  const Solution sol = solve_barrier(barrier, Vector(n));
  ASSERT_EQ(sol.status, SolveStatus::kOptimal);
  EXPECT_LT(check_kkt(barrier, sol.x, sol.duals).worst(), 1e-6);
}

INSTANTIATE_TEST_SUITE_P(RandomSeeds, RandomQpKkt,
                         ::testing::Values(1u, 2u, 3u, 4u, 5u, 6u, 7u, 8u));

}  // namespace
}  // namespace protemp::convex
