// Unit and property tests for the dense linear algebra substrate.
#include <cmath>

#include <gtest/gtest.h>

#include "linalg/cholesky.hpp"
#include "linalg/expm.hpp"
#include "linalg/lu.hpp"
#include "linalg/matrix.hpp"
#include "linalg/vector.hpp"
#include "util/rng.hpp"

namespace protemp::linalg {
namespace {

Matrix random_matrix(std::size_t rows, std::size_t cols, util::Rng& rng) {
  Matrix m(rows, cols);
  for (std::size_t i = 0; i < rows; ++i) {
    for (std::size_t j = 0; j < cols; ++j) m(i, j) = rng.normal();
  }
  return m;
}

Matrix random_spd(std::size_t n, util::Rng& rng) {
  const Matrix a = random_matrix(n, n, rng);
  Matrix spd = a.transposed() * a;
  for (std::size_t i = 0; i < n; ++i) spd(i, i) += 1.0;
  return spd;
}

Vector random_vector(std::size_t n, util::Rng& rng) {
  Vector v(n);
  for (std::size_t i = 0; i < n; ++i) v[i] = rng.normal();
  return v;
}

// ---------------------------------------------------------------- Vector --

TEST(Vector, ConstructionAndFill) {
  const Vector zero(4);
  EXPECT_EQ(zero.size(), 4u);
  EXPECT_EQ(zero[3], 0.0);
  const Vector filled(3, 2.5);
  EXPECT_EQ(filled[0], 2.5);
  const Vector init{1.0, 2.0, 3.0};
  EXPECT_EQ(init[1], 2.0);
}

TEST(Vector, BoundsChecked) {
  Vector v(3);
  EXPECT_THROW(v[3], std::out_of_range);
  const Vector& cv = v;
  EXPECT_THROW(cv[10], std::out_of_range);
}

TEST(Vector, Arithmetic) {
  const Vector a{1.0, 2.0, 3.0};
  const Vector b{4.0, 5.0, 6.0};
  const Vector sum = a + b;
  EXPECT_EQ(sum[0], 5.0);
  const Vector diff = b - a;
  EXPECT_EQ(diff[2], 3.0);
  const Vector scaled = a * 2.0;
  EXPECT_EQ(scaled[1], 4.0);
  const Vector negated = -a;
  EXPECT_EQ(negated[0], -1.0);
  EXPECT_THROW(a + Vector(2), std::invalid_argument);
}

TEST(Vector, DotAndNorms) {
  const Vector a{3.0, 4.0};
  EXPECT_DOUBLE_EQ(a.norm2(), 5.0);
  EXPECT_DOUBLE_EQ(a.norm_inf(), 4.0);
  EXPECT_DOUBLE_EQ(a.dot(a), 25.0);
  EXPECT_DOUBLE_EQ(a.sum(), 7.0);
  EXPECT_DOUBLE_EQ(a.min(), 3.0);
  EXPECT_DOUBLE_EQ(a.max(), 4.0);
  EXPECT_EQ(a.argmax(), 1u);
}

TEST(Vector, Axpy) {
  Vector y{1.0, 1.0};
  const Vector x{2.0, 3.0};
  y.axpy(0.5, x);
  EXPECT_DOUBLE_EQ(y[0], 2.0);
  EXPECT_DOUBLE_EQ(y[1], 2.5);
}

TEST(Vector, EmptyReductionsThrow) {
  const Vector v;
  EXPECT_THROW(v.min(), std::logic_error);
  EXPECT_THROW(v.max(), std::logic_error);
  EXPECT_THROW(v.argmax(), std::logic_error);
  EXPECT_EQ(v.norm_inf(), 0.0);
}

// ---------------------------------------------------------------- Matrix --

TEST(Matrix, InitializerListAndIdentity) {
  const Matrix m{{1.0, 2.0}, {3.0, 4.0}};
  EXPECT_EQ(m.rows(), 2u);
  EXPECT_EQ(m(1, 0), 3.0);
  const Matrix eye = Matrix::identity(3);
  EXPECT_EQ(eye(2, 2), 1.0);
  EXPECT_EQ(eye(0, 1), 0.0);
  EXPECT_THROW(Matrix({{1.0}, {1.0, 2.0}}), std::invalid_argument);
}

TEST(Matrix, MatVec) {
  const Matrix m{{1.0, 2.0}, {3.0, 4.0}};
  const Vector x{1.0, 1.0};
  const Vector y = m * x;
  EXPECT_DOUBLE_EQ(y[0], 3.0);
  EXPECT_DOUBLE_EQ(y[1], 7.0);
  const Vector yt = m.multiply_transposed(x);
  EXPECT_DOUBLE_EQ(yt[0], 4.0);
  EXPECT_DOUBLE_EQ(yt[1], 6.0);
}

TEST(Matrix, MatMulMatchesManual) {
  const Matrix a{{1.0, 2.0}, {3.0, 4.0}};
  const Matrix b{{5.0, 6.0}, {7.0, 8.0}};
  const Matrix c = a * b;
  EXPECT_DOUBLE_EQ(c(0, 0), 19.0);
  EXPECT_DOUBLE_EQ(c(0, 1), 22.0);
  EXPECT_DOUBLE_EQ(c(1, 0), 43.0);
  EXPECT_DOUBLE_EQ(c(1, 1), 50.0);
}

TEST(Matrix, TransposeRoundTrip) {
  util::Rng rng(7);
  const Matrix a = random_matrix(4, 6, rng);
  EXPECT_TRUE(a.transposed().transposed().approx_equal(a, 0.0));
}

TEST(Matrix, GramWeightedMatchesExplicit) {
  util::Rng rng(8);
  const Matrix g = random_matrix(20, 5, rng);
  Vector w(20);
  for (std::size_t i = 0; i < 20; ++i) w[i] = rng.uniform(0.1, 2.0);
  const Matrix fast = g.gram_weighted(w);
  const Matrix slow = g.transposed() * Matrix::diagonal(w) * g;
  EXPECT_TRUE(fast.approx_equal(slow, 1e-12));
  EXPECT_TRUE(fast.symmetric(1e-14));
}

TEST(Matrix, RowColAccessors) {
  const Matrix m{{1.0, 2.0, 3.0}, {4.0, 5.0, 6.0}};
  EXPECT_DOUBLE_EQ(m.row(1)[2], 6.0);
  EXPECT_DOUBLE_EQ(m.col(1)[0], 2.0);
  Matrix copy = m;
  copy.set_row(0, Vector{7.0, 8.0, 9.0});
  EXPECT_DOUBLE_EQ(copy(0, 2), 9.0);
  copy.set_col(0, Vector{0.0, 1.0});
  EXPECT_DOUBLE_EQ(copy(1, 0), 1.0);
}

TEST(Matrix, Norms) {
  const Matrix m{{3.0, -4.0}, {0.0, 0.0}};
  EXPECT_DOUBLE_EQ(m.norm_fro(), 5.0);
  EXPECT_DOUBLE_EQ(m.norm_inf(), 7.0);
  EXPECT_DOUBLE_EQ(m.max_abs(), 4.0);
}

// -------------------------------------------------------------- Cholesky --

TEST(Cholesky, FactorSolveResidual) {
  util::Rng rng(21);
  for (int trial = 0; trial < 10; ++trial) {
    const std::size_t n = 2 + rng.uniform_index(8);
    const Matrix a = random_spd(n, rng);
    const Vector b = random_vector(n, rng);
    const auto chol = Cholesky::factor(a);
    ASSERT_TRUE(chol.has_value());
    const Vector x = chol->solve(b);
    const Vector residual = a * x - b;
    EXPECT_LT(residual.norm_inf(), 1e-9) << "trial " << trial;
  }
}

TEST(Cholesky, RejectsIndefinite) {
  const Matrix indefinite{{1.0, 2.0}, {2.0, 1.0}};  // eigenvalues 3, -1
  EXPECT_FALSE(Cholesky::factor(indefinite).has_value());
}

TEST(Cholesky, RegularizedRescuesSemidefinite) {
  const Matrix semidefinite{{1.0, 1.0}, {1.0, 1.0}};
  EXPECT_FALSE(Cholesky::factor(semidefinite).has_value());
  EXPECT_TRUE(Cholesky::factor_regularized(semidefinite, 1e-8).has_value());
}

TEST(Cholesky, LogDet) {
  const Matrix a{{4.0, 0.0}, {0.0, 9.0}};
  const auto chol = Cholesky::factor(a);
  ASSERT_TRUE(chol.has_value());
  EXPECT_NEAR(chol->log_det(), std::log(36.0), 1e-12);
}

// -------------------------------------------------------------------- LU --

TEST(Lu, SolveAndDeterminant) {
  const Matrix a{{2.0, 1.0}, {1.0, 3.0}};
  const auto lu = Lu::factor(a);
  ASSERT_TRUE(lu.has_value());
  EXPECT_NEAR(lu->det(), 5.0, 1e-12);
  const Vector x = lu->solve(Vector{3.0, 5.0});
  EXPECT_NEAR(x[0], 0.8, 1e-12);
  EXPECT_NEAR(x[1], 1.4, 1e-12);
}

TEST(Lu, DetectsSingular) {
  const Matrix singular{{1.0, 2.0}, {2.0, 4.0}};
  EXPECT_FALSE(Lu::factor(singular).has_value());
  EXPECT_THROW(solve_linear(singular, Vector{1.0, 1.0}), std::runtime_error);
}

TEST(Lu, InverseTimesOriginalIsIdentity) {
  util::Rng rng(55);
  const Matrix a = random_spd(6, rng);  // well-conditioned
  const auto lu = Lu::factor(a);
  ASSERT_TRUE(lu.has_value());
  const Matrix prod = a * lu->inverse();
  EXPECT_TRUE(prod.approx_equal(Matrix::identity(6), 1e-9));
}

TEST(Lu, RandomSystemsResidual) {
  util::Rng rng(77);
  for (int trial = 0; trial < 12; ++trial) {
    const std::size_t n = 2 + rng.uniform_index(10);
    const Matrix a = random_matrix(n, n, rng);
    const auto lu = Lu::factor(a);
    if (!lu) continue;  // genuinely singular random draws are astronomically rare
    const Vector b = random_vector(n, rng);
    EXPECT_LT((a * lu->solve(b) - b).norm_inf(), 1e-8);
  }
}

// ------------------------------------------------------------------ expm --

TEST(Expm, IdentityAndZero) {
  const Matrix zero(3, 3);
  EXPECT_TRUE(expm(zero).approx_equal(Matrix::identity(3), 1e-14));
}

TEST(Expm, DiagonalMatchesScalarExp) {
  Matrix d(2, 2);
  d(0, 0) = 1.0;
  d(1, 1) = -2.0;
  const Matrix e = expm(d);
  EXPECT_NEAR(e(0, 0), std::exp(1.0), 1e-12);
  EXPECT_NEAR(e(1, 1), std::exp(-2.0), 1e-12);
  EXPECT_NEAR(e(0, 1), 0.0, 1e-14);
}

TEST(Expm, GroupProperty) {
  // e^{A} = e^{A/2} e^{A/2} for a random stable matrix.
  util::Rng rng(11);
  Matrix a = random_matrix(4, 4, rng);
  a *= 0.5;
  const Matrix whole = expm(a);
  const Matrix half = expm(a * 0.5);
  EXPECT_TRUE((half * half).approx_equal(whole, 1e-10));
}

TEST(Expm, NilpotentExact) {
  // For strictly upper triangular N (N^2 = 0): e^N = I + N.
  Matrix n(2, 2);
  n(0, 1) = 3.0;
  const Matrix e = expm(n);
  EXPECT_NEAR(e(0, 0), 1.0, 1e-14);
  EXPECT_NEAR(e(0, 1), 3.0, 1e-13);
  EXPECT_NEAR(e(1, 1), 1.0, 1e-14);
}

TEST(ExpmPhi, MatchesSeriesForSmallMatrix) {
  // phi(A) = I + A/2! + A^2/3! + ...
  util::Rng rng(13);
  Matrix a = random_matrix(3, 3, rng);
  a *= 0.3;
  Matrix series(3, 3);
  Matrix term = Matrix::identity(3);
  double factorial = 1.0;
  for (int k = 1; k <= 20; ++k) {
    factorial *= static_cast<double>(k);
    series += term * (1.0 / factorial);
    term = term * a;
  }
  EXPECT_TRUE(expm_phi(a).approx_equal(series, 1e-10));
}

TEST(ExpmPhi, SingularArgumentWellDefined) {
  // phi(0) = I even though A is singular.
  const Matrix zero(3, 3);
  EXPECT_TRUE(expm_phi(zero).approx_equal(Matrix::identity(3), 1e-13));
}

// ------------------------------------------------- parameterized sweeps --

class FactorizationSweep : public ::testing::TestWithParam<std::size_t> {};

TEST_P(FactorizationSweep, CholeskyResidualScalesWithSize) {
  util::Rng rng(1000 + GetParam());
  const std::size_t n = GetParam();
  const Matrix a = random_spd(n, rng);
  const Vector b = random_vector(n, rng);
  const auto chol = Cholesky::factor(a);
  ASSERT_TRUE(chol.has_value());
  EXPECT_LT((a * chol->solve(b) - b).norm_inf(),
            1e-10 * static_cast<double>(n) * a.max_abs());
}

TEST_P(FactorizationSweep, LuMatchesCholeskyOnSpd) {
  util::Rng rng(2000 + GetParam());
  const std::size_t n = GetParam();
  const Matrix a = random_spd(n, rng);
  const Vector b = random_vector(n, rng);
  const auto chol = Cholesky::factor(a);
  const auto lu = Lu::factor(a);
  ASSERT_TRUE(chol && lu);
  EXPECT_TRUE(chol->solve(b).approx_equal(lu->solve(b), 1e-8));
}

INSTANTIATE_TEST_SUITE_P(Sizes, FactorizationSweep,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 34));

}  // namespace
}  // namespace protemp::linalg
