// Property tests for the solver stack: randomized feasible programs must
// satisfy the KKT conditions at the reported optimum, stay primal feasible,
// and produce the same answer warm-started as cold-started. Also pins the
// allocation-free linalg variants (multiply/solve) against their
// allocating counterparts, since the barrier hot loop runs entirely on the
// in-place forms.
#include <cmath>
#include <memory>

#include <gtest/gtest.h>

#include "convex/barrier.hpp"
#include "convex/functions.hpp"
#include "convex/kkt.hpp"
#include "convex/workspace.hpp"
#include "linalg/cholesky.hpp"
#include "util/rng.hpp"

namespace protemp::convex {
namespace {

using linalg::Matrix;
using linalg::Vector;

// ------------------------------------------------------------- generators --

/// Random symmetric positive definite matrix A A^T / n + I.
Matrix random_spd(util::Rng& rng, std::size_t n) {
  Matrix a(n, n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) a(i, j) = rng.uniform(-1.0, 1.0);
  }
  Matrix spd = a.multiply(a.transposed());
  spd *= 1.0 / static_cast<double>(n);
  for (std::size_t i = 0; i < n; ++i) spd(i, i) += 1.0;
  return spd;
}

Vector random_vector(util::Rng& rng, std::size_t n, double lo, double hi) {
  Vector v(n);
  for (std::size_t i = 0; i < n; ++i) v[i] = rng.uniform(lo, hi);
  return v;
}

/// Random strictly convex QP, minimize 1/2 x^T P x + q^T x s.t. G x <= h,
/// as a barrier program. `h = G x_feas + slack`, so `interior = x_feas` is
/// strictly feasible.
struct BarrierCase {
  BarrierProblem problem;
  Vector interior;
};

BarrierCase random_feasible_qp(util::Rng& rng, std::size_t n, std::size_t m,
                               double interior_lo = -1.0,
                               double interior_hi = 1.0, double slack_lo = 0.1,
                               double slack_hi = 1.0) {
  const Matrix p = random_spd(rng, n);
  const Vector q = random_vector(rng, n, -2.0, 2.0);
  Matrix g(m, n);
  for (std::size_t i = 0; i < m; ++i) {
    for (std::size_t j = 0; j < n; ++j) g(i, j) = rng.uniform(-1.0, 1.0);
  }
  BarrierCase out;
  out.interior = random_vector(rng, n, interior_lo, interior_hi);
  Vector h = g * out.interior;
  for (std::size_t i = 0; i < m; ++i) h[i] += rng.uniform(slack_lo, slack_hi);
  out.problem.objective = std::make_shared<QuadraticFunction>(p, q, 0.0);
  out.problem.linear = LinearConstraints{std::move(g), std::move(h)};
  return out;
}

// ------------------------------------------------- barrier: KKT + primal --

TEST(BarrierProperty, RandomFeasibleQpsSatisfyKkt) {
  util::Rng rng(0xA11CE);
  for (int trial = 0; trial < 20; ++trial) {
    const std::size_t n = 2 + trial % 6;
    const std::size_t m = 4 + (trial * 7) % 20;
    const BarrierCase c = random_feasible_qp(rng, n, m);
    const Solution sol = solve_barrier(c.problem, c.interior);
    ASSERT_EQ(sol.status, SolveStatus::kOptimal) << "trial " << trial;
    // The barrier iterate is strictly interior and its dual estimates are
    // positive, so primal and dual feasibility hold exactly; each
    // complementarity product is bounded by the certified gap m/t.
    // Stationarity carries the final centering stage's stopping residual
    // (see WarmStartMatchesColdStart), hence the looser bar.
    EXPECT_TRUE(c.problem.strictly_feasible(sol.x)) << "trial " << trial;
    const KktResiduals kkt = check_kkt(c.problem, sol.x, sol.duals);
    EXPECT_EQ(kkt.dual_infeasibility, 0.0) << "trial " << trial;
    EXPECT_LE(kkt.complementarity, sol.gap) << "trial " << trial;
    EXPECT_LT(kkt.stationarity, 1e-3) << "trial " << trial;
  }
}

TEST(BarrierProperty, WorkspaceReuseMatchesFreshSolves) {
  util::Rng rng(0xBEEF);
  SolverWorkspace workspace;
  for (int trial = 0; trial < 10; ++trial) {
    const BarrierCase c = random_feasible_qp(rng, 4, 12);
    const Solution fresh = solve_barrier(c.problem, c.interior);
    const Solution reused =
        solve_barrier(c.problem, c.interior, {}, &workspace);
    ASSERT_EQ(fresh.status, SolveStatus::kOptimal);
    ASSERT_EQ(reused.status, SolveStatus::kOptimal);
    // Same deterministic iteration either way: bitwise-equal iterates.
    for (std::size_t i = 0; i < fresh.x.size(); ++i) {
      EXPECT_EQ(fresh.x[i], reused.x[i]) << "trial " << trial;
    }
  }
}

// -------------------------------------------------- barrier: warm == cold --

TEST(BarrierProperty, WarmStartMatchesColdStart) {
  util::Rng rng(0xC01D);
  for (int trial = 0; trial < 12; ++trial) {
    const std::size_t n = 2 + trial % 5;
    const std::size_t m = 6 + (trial * 5) % 18;
    const BarrierCase c = random_feasible_qp(rng, n, m, -0.2, 0.2, 0.2, 1.5);

    SolverWorkspace workspace(/*warm_start=*/true);
    const Solution cold = solve_barrier(c.problem, c.interior, {}, &workspace);
    ASSERT_EQ(cold.status, SolveStatus::kOptimal) << "trial " << trial;

    // Warm start: seed from the cold optimum pulled epsilon into the
    // interior (the strictly feasible warm point a sweep would supply).
    Vector seed = cold.x;
    seed *= 0.999;
    seed.axpy(0.001, c.interior);
    ASSERT_TRUE(c.problem.strictly_feasible(seed));
    const Solution warm = solve_barrier(c.problem, seed, {}, &workspace);
    ASSERT_EQ(warm.status, SolveStatus::kOptimal) << "trial " << trial;

    // Strictly convex objective: the optimum is unique, so the two paths
    // must agree to solver tolerance.
    for (std::size_t i = 0; i < cold.x.size(); ++i) {
      EXPECT_NEAR(cold.x[i], warm.x[i], 1e-8)
          << "trial " << trial << " component " << i;
    }
    EXPECT_NEAR(cold.objective, warm.objective, 1e-8);

    // And both must satisfy the KKT conditions. The barrier's dual
    // estimates are exact only in the t -> inf limit, so stationarity
    // carries an O(gap * constraint-scale) residual.
    const KktResiduals kkt = check_kkt(c.problem, warm.x, warm.duals);
    EXPECT_LT(kkt.stationarity, 1e-3) << "trial " << trial;
    EXPECT_LE(kkt.primal_infeasibility, 0.0) << "trial " << trial;
  }
}

TEST(BarrierProperty, WorkspaceStatsCountSolves) {
  util::Rng rng(0x57A7);
  const BarrierCase c = random_feasible_qp(rng, 3, 8);

  SolverWorkspace workspace;
  EXPECT_EQ(workspace.stats().solves, 0u);
  (void)solve_barrier(c.problem, c.interior, {}, &workspace);
  (void)solve_barrier(c.problem, c.interior, {}, &workspace);
  EXPECT_EQ(workspace.stats().solves, 2u);
  EXPECT_GT(workspace.stats().newton_steps, 0u);
}

TEST(BarrierProperty, HintSlotsAreIndependent) {
  SolverWorkspace workspace(/*warm_start=*/true);
  EXPECT_EQ(workspace.hint(SolverWorkspace::kMain), nullptr);
  workspace.remember(SolverWorkspace::kMain, Vector{1.0, 2.0});
  ASSERT_NE(workspace.hint(SolverWorkspace::kMain), nullptr);
  EXPECT_EQ(workspace.hint(SolverWorkspace::kThroughput), nullptr);
  workspace.forget();
  EXPECT_EQ(workspace.hint(SolverWorkspace::kMain), nullptr);

  // Disabled warm start never serves hints.
  SolverWorkspace off(/*warm_start=*/false);
  off.remember(SolverWorkspace::kMain, Vector{1.0});
  EXPECT_EQ(off.hint(SolverWorkspace::kMain), nullptr);
}

// ------------------------------------------------- in-place linalg parity --

TEST(InPlaceLinalg, MultiplyIntoMatchesMultiply) {
  util::Rng rng(0x11AC);
  for (int trial = 0; trial < 8; ++trial) {
    const std::size_t rows = 1 + trial, cols = 1 + (trial * 3) % 7;
    Matrix a(rows, cols);
    for (std::size_t i = 0; i < rows; ++i) {
      for (std::size_t j = 0; j < cols; ++j) a(i, j) = rng.uniform(-3.0, 3.0);
    }
    const Vector x = random_vector(rng, cols, -2.0, 2.0);
    const Vector y = random_vector(rng, rows, -2.0, 2.0);

    Vector out;  // deliberately wrong-sized: *_into must resize
    a.multiply_into(x, out);
    EXPECT_TRUE(out.approx_equal(a * x, 0.0));

    a.multiply_transposed_into(y, out);
    EXPECT_TRUE(out.approx_equal(a.multiply_transposed(y), 0.0));

    // Accumulating forms add exactly one product.
    Vector acc(rows, 1.0);
    a.multiply_add_into(x, acc);
    Vector expected = a * x;
    for (std::size_t i = 0; i < rows; ++i) expected[i] += 1.0;
    EXPECT_TRUE(acc.approx_equal(expected, 1e-15));

    const Vector d = random_vector(rng, rows, 0.1, 2.0);
    Matrix gram;
    a.gram_weighted_into(d, gram);
    EXPECT_TRUE(gram.approx_equal(a.gram_weighted(d), 0.0));
  }
}

TEST(InPlaceLinalg, CholeskyRefactorAndSolveInto) {
  util::Rng rng(0xFAC);
  linalg::Cholesky chol;
  for (int trial = 0; trial < 6; ++trial) {
    const std::size_t n = 2 + trial;
    const Matrix a = random_spd(rng, n);
    const Vector b = random_vector(rng, n, -1.0, 1.0);
    ASSERT_TRUE(chol.refactor(a));  // reused across trials, shapes change
    Vector x;
    chol.solve_into(b, x);
    const auto fresh = linalg::Cholesky::factor(a);
    ASSERT_TRUE(fresh.has_value());
    EXPECT_TRUE(x.approx_equal(fresh->solve(b), 1e-12));
    // Residual check: A x == b.
    EXPECT_TRUE((a * x).approx_equal(b, 1e-9));
  }
  // Refactor must report indefinite matrices without throwing.
  Matrix indef = Matrix::identity(3);
  indef(2, 2) = -1.0;
  EXPECT_FALSE(chol.refactor(indef));
}

}  // namespace
}  // namespace protemp::convex
