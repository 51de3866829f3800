// Dense-vs-sparse backend parity: randomized property tests over the
// structure the sparse backend exists for — mesh RC networks — asserting
// factorization/solve/transient-step agreement within 1e-10 (steps and
// horizon coefficients agree *bitwise* by construction; only
// factorization-based solves differ at all), plus unit coverage of the CSR
// kernels and the RCM-banded Cholesky.
#include <cmath>
#include <random>

#include <gtest/gtest.h>

#include "arch/mesh.hpp"
#include "linalg/cholesky.hpp"
#include "linalg/sparse.hpp"
#include "thermal/model.hpp"
#include "thermal/transient.hpp"

namespace protemp {
namespace {

using linalg::Matrix;
using linalg::MatrixBackend;
using linalg::SparseBuilder;
using linalg::SparseCholesky;
using linalg::SparseMatrix;
using linalg::Vector;

// ------------------------------------------------------------ CSR basics --

TEST(SparseMatrix, BuilderAccumulatesAndRoundTripsDense) {
  SparseBuilder builder(3, 4);
  builder.add(0, 1, 2.0);
  builder.add(2, 3, -1.0);
  builder.add(0, 1, 0.5);  // duplicate accumulates
  builder.add(1, 0, 4.0);
  const SparseMatrix sparse = builder.build();
  EXPECT_EQ(sparse.rows(), 3u);
  EXPECT_EQ(sparse.cols(), 4u);
  EXPECT_EQ(sparse.nnz(), 3u);
  EXPECT_EQ(sparse.at(0, 1), 2.5);
  EXPECT_EQ(sparse.at(1, 0), 4.0);
  EXPECT_EQ(sparse.at(2, 3), -1.0);
  EXPECT_EQ(sparse.at(0, 0), 0.0);

  const Matrix dense = builder.build_dense();
  EXPECT_TRUE(sparse.to_dense().approx_equal(dense, 0.0));
  const SparseMatrix back = SparseMatrix::from_dense(dense);
  EXPECT_EQ(back.nnz(), 3u);
  EXPECT_TRUE(back.to_dense().approx_equal(dense, 0.0));
}

TEST(SparseMatrix, ProductsMatchDenseBitwise) {
  std::mt19937_64 rng(42);
  std::uniform_real_distribution<double> value(-2.0, 2.0);
  for (int trial = 0; trial < 20; ++trial) {
    const std::size_t n = 5 + static_cast<std::size_t>(rng() % 40);
    const std::size_t m = 3 + static_cast<std::size_t>(rng() % 20);
    Matrix dense(n, n);
    // ~20% fill.
    for (std::size_t i = 0; i < n; ++i) {
      for (std::size_t j = 0; j < n; ++j) {
        if (rng() % 5 == 0) dense(i, j) = value(rng);
      }
    }
    const SparseMatrix sparse = SparseMatrix::from_dense(dense);

    Vector x(n);
    for (std::size_t i = 0; i < n; ++i) x[i] = value(rng);
    const Vector y_dense = dense * x;
    const Vector y_sparse = sparse * x;
    for (std::size_t i = 0; i < n; ++i) {
      EXPECT_EQ(y_dense[i], y_sparse[i]) << "SpMV entry " << i;
    }

    Matrix b(n, m);
    for (std::size_t i = 0; i < n; ++i) {
      for (std::size_t j = 0; j < m; ++j) b(i, j) = value(rng);
    }
    const Matrix c_dense = dense * b;
    Matrix c_sparse;
    sparse.multiply_dense_into(b, c_sparse);
    for (std::size_t i = 0; i < n; ++i) {
      for (std::size_t j = 0; j < m; ++j) {
        EXPECT_EQ(c_dense(i, j), c_sparse(i, j)) << "SpMM " << i << "," << j;
      }
    }

    // Raw-block kernels match their Matrix counterparts bitwise too.
    Matrix c_raw(n, m);
    sparse.multiply_raw(b.row_data(0), m, c_raw.row_data(0));
    Matrix c_raw_dense(n, m);
    dense.multiply_raw(b.row_data(0), m, c_raw_dense.row_data(0));
    for (std::size_t i = 0; i < n; ++i) {
      for (std::size_t j = 0; j < m; ++j) {
        EXPECT_EQ(c_dense(i, j), c_raw(i, j));
        EXPECT_EQ(c_dense(i, j), c_raw_dense(i, j));
      }
    }
  }
}

TEST(SparseMatrix, ShapeMismatchesThrow) {
  SparseBuilder builder(2, 2);
  builder.add(0, 0, 1.0);
  const SparseMatrix a = builder.build();
  EXPECT_THROW(a.multiply(Vector(3)), std::invalid_argument);
  EXPECT_THROW(
      [&] {
        Matrix out;
        a.multiply_dense_into(Matrix(3, 2), out);
      }(),
      std::invalid_argument);
  EXPECT_THROW(builder.add(2, 0, 1.0), std::out_of_range);
  EXPECT_THROW(a.at(0, 5), std::out_of_range);
}

TEST(MatrixBackend, AutoResolution) {
  using linalg::resolve_backend;
  EXPECT_EQ(resolve_backend(MatrixBackend::kDense, 1000, 10),
            MatrixBackend::kDense);
  EXPECT_EQ(resolve_backend(MatrixBackend::kSparse, 2, 4),
            MatrixBackend::kSparse);
  // Small stays dense; large-and-empty goes sparse; large-and-full dense.
  EXPECT_EQ(resolve_backend(MatrixBackend::kAuto, 8, 20),
            MatrixBackend::kDense);
  EXPECT_EQ(resolve_backend(MatrixBackend::kAuto, 100, 500),
            MatrixBackend::kSparse);
  EXPECT_EQ(resolve_backend(MatrixBackend::kAuto, 100, 9000),
            MatrixBackend::kDense);
  EXPECT_EQ(linalg::parse_backend("sparse"), MatrixBackend::kSparse);
  EXPECT_EQ(linalg::parse_backend("bogus"), std::nullopt);
  EXPECT_STREQ(linalg::to_string(MatrixBackend::kAuto), "auto");
}

// ------------------------------------------------------- sparse Cholesky --

/// Random mesh RC conductance matrix: the structure the banded solver is
/// specialized to (grid Laplacian plus diagonal leaks).
SparseMatrix random_mesh_laplacian(std::mt19937_64& rng, std::size_t rows,
                                   std::size_t cols) {
  std::uniform_real_distribution<double> cond(0.1, 2.0);
  const std::size_t n = rows * cols;
  SparseBuilder builder(n, n);
  const auto at = [cols](std::size_t r, std::size_t c) {
    return r * cols + c;
  };
  for (std::size_t r = 0; r < rows; ++r) {
    for (std::size_t c = 0; c < cols; ++c) {
      if (c + 1 < cols) {
        const double g = cond(rng);
        builder.add(at(r, c), at(r, c), g);
        builder.add(at(r, c + 1), at(r, c + 1), g);
        builder.add(at(r, c), at(r, c + 1), -g);
        builder.add(at(r, c + 1), at(r, c), -g);
      }
      if (r + 1 < rows) {
        const double g = cond(rng);
        builder.add(at(r, c), at(r, c), g);
        builder.add(at(r + 1, c), at(r + 1, c), g);
        builder.add(at(r, c), at(r + 1, c), -g);
        builder.add(at(r + 1, c), at(r, c), -g);
      }
      // Diagonal leak makes it PD.
      builder.add(at(r, c), at(r, c), cond(rng));
    }
  }
  return builder.build();
}

TEST(SparseCholesky, MatchesDenseCholeskyOnRandomMeshLaplacians) {
  std::mt19937_64 rng(7);
  std::uniform_real_distribution<double> value(-1.0, 1.0);
  for (int trial = 0; trial < 15; ++trial) {
    const std::size_t rows = 2 + static_cast<std::size_t>(rng() % 7);
    const std::size_t cols = 2 + static_cast<std::size_t>(rng() % 7);
    const SparseMatrix a = random_mesh_laplacian(rng, rows, cols);
    ASSERT_TRUE(a.symmetric(1e-15));

    const auto sparse = SparseCholesky::factor(a);
    ASSERT_TRUE(sparse.has_value()) << rows << "x" << cols;
    const auto dense = linalg::Cholesky::factor(a.to_dense());
    ASSERT_TRUE(dense.has_value());

    // log det agrees (factorization identity)...
    EXPECT_NEAR(sparse->log_det(), dense->log_det(),
                1e-10 * std::max(1.0, std::abs(dense->log_det())));
    // ...and solves agree within 1e-10.
    Vector b(a.rows());
    for (std::size_t i = 0; i < b.size(); ++i) b[i] = value(rng);
    const Vector x_sparse = sparse->solve(b);
    const Vector x_dense = dense->solve(b);
    for (std::size_t i = 0; i < b.size(); ++i) {
      EXPECT_NEAR(x_sparse[i], x_dense[i],
                  1e-10 * std::max(1.0, std::abs(x_dense[i])));
    }
    // The solution actually solves the system.
    const Vector residual = a * x_sparse - b;
    EXPECT_LE(residual.norm_inf(), 1e-9);
  }
}

TEST(SparseCholesky, RcmCompressesMeshBandwidth) {
  std::mt19937_64 rng(11);
  // A 4 x 16 strip in natural order has bandwidth 16; RCM should bring the
  // banded factor down to ~the short dimension.
  const SparseMatrix a = random_mesh_laplacian(rng, 4, 16);
  const auto factor = SparseCholesky::factor(a);
  ASSERT_TRUE(factor.has_value());
  EXPECT_LE(factor->bandwidth(), 9u);
  const auto perm = linalg::reverse_cuthill_mckee(a);
  EXPECT_EQ(perm.size(), a.rows());
  std::vector<bool> seen(perm.size(), false);
  for (const std::size_t p : perm) {
    ASSERT_LT(p, seen.size());
    EXPECT_FALSE(seen[p]);
    seen[p] = true;
  }
}

TEST(SparseCholesky, RefactorReusesAndRejectsIndefinite) {
  std::mt19937_64 rng(3);
  const SparseMatrix a = random_mesh_laplacian(rng, 3, 3);
  SparseCholesky factor;
  ASSERT_TRUE(factor.refactor(a));
  const Vector b(a.rows(), 1.0);
  const Vector x1 = factor.solve(b);
  ASSERT_TRUE(factor.refactor(a, 0.0));  // same pattern, reused storage
  const Vector x2 = factor.solve(b);
  for (std::size_t i = 0; i < b.size(); ++i) EXPECT_EQ(x1[i], x2[i]);

  // -A is negative definite: must fail, not crash.
  SparseBuilder neg(2, 2);
  neg.add(0, 0, -1.0);
  neg.add(1, 1, -2.0);
  EXPECT_FALSE(SparseCholesky::factor(neg.build()).has_value());
  // A large enough ridge rescues it.
  EXPECT_TRUE(SparseCholesky::factor(neg.build(), 10.0).has_value());
}

// ------------------------------------------------- thermal backend parity --

arch::MeshConfig random_mesh_config(std::mt19937_64& rng) {
  std::uniform_real_distribution<double> unit(0.0, 1.0);
  arch::MeshConfig config;
  config.rows = 2 + static_cast<std::size_t>(rng() % 5);
  config.cols = 2 + static_cast<std::size_t>(rng() % 5);
  config.core_edge_mm = 1.0 + unit(rng);
  config.core_pmax_watts = 0.5 + unit(rng);
  config.ambient_celsius = 35.0 + 20.0 * unit(rng);
  return config;
}

TEST(ThermalBackendParity, StepsAndHorizonsAgreeOnRandomMeshes) {
  std::mt19937_64 rng(2008);
  std::uniform_real_distribution<double> unit(0.0, 1.0);
  for (int trial = 0; trial < 8; ++trial) {
    const arch::Platform platform =
        arch::make_mesh_platform(random_mesh_config(rng));
    const thermal::ThermalModel dense(platform.network(), 0.4e-3,
                                      MatrixBackend::kDense);
    const thermal::ThermalModel sparse(platform.network(), 0.4e-3,
                                       MatrixBackend::kSparse);
    ASSERT_EQ(dense.backend(), MatrixBackend::kDense);
    ASSERT_EQ(sparse.backend(), MatrixBackend::kSparse);

    // Transient step: bitwise agreement, propagated over many steps.
    Vector t_dense(platform.num_nodes(),
                   platform.network().ambient_celsius());
    Vector t_sparse = t_dense;
    Vector power(platform.num_nodes());
    for (const std::size_t node : platform.core_nodes()) {
      power[node] = platform.core_pmax() * unit(rng);
    }
    Vector next;
    for (int step = 0; step < 200; ++step) {
      dense.step_into(t_dense, power, next);
      std::swap(t_dense, next);
      sparse.step_into(t_sparse, power, next);
      std::swap(t_sparse, next);
    }
    for (std::size_t i = 0; i < t_dense.size(); ++i) {
      EXPECT_EQ(t_dense[i], t_sparse[i]) << "node " << i;
    }

    // Horizon coefficients: bitwise agreement.
    const auto map_dense = thermal::build_horizon_map(
        dense, 40, platform.core_nodes(), platform.core_nodes(),
        platform.background_power());
    const auto map_sparse = thermal::build_horizon_map(
        sparse, 40, platform.core_nodes(), platform.core_nodes(),
        platform.background_power());
    for (std::size_t k = 1; k <= 40; k += 13) {
      for (std::size_t r = 0; r < platform.num_cores(); ++r) {
        EXPECT_EQ(map_dense.u_at(k, r), map_sparse.u_at(k, r));
        EXPECT_EQ(map_dense.w_at(k, r), map_sparse.w_at(k, r));
        for (std::size_t v = 0; v < platform.num_cores(); ++v) {
          EXPECT_EQ(map_dense.m_row(k, r)[v], map_sparse.m_row(k, r)[v]);
        }
        for (std::size_t j = 0; j < platform.num_nodes(); ++j) {
          EXPECT_EQ(map_dense.s_row(k, r)[j], map_sparse.s_row(k, r)[j]);
        }
      }
    }

    // Steady state (the one factorization-based — genuinely different —
    // computation): within 1e-10.
    const Vector ss_dense = platform.network().steady_state(
        platform.background_power(), MatrixBackend::kDense);
    const Vector ss_sparse = platform.network().steady_state(
        platform.background_power(), MatrixBackend::kSparse);
    for (std::size_t i = 0; i < ss_dense.size(); ++i) {
      EXPECT_NEAR(ss_dense[i], ss_sparse[i],
                  1e-10 * std::max(1.0, std::abs(ss_dense[i])));
    }
  }
}

TEST(ThermalBackendParity, EulerSimulatorRunsAgreeBitwise) {
  std::mt19937_64 rng(5);
  const arch::Platform platform =
      arch::make_mesh_platform(random_mesh_config(rng));
  const thermal::EulerSimulator dense(platform.network(), 2e-3,
                                      MatrixBackend::kDense);
  const thermal::EulerSimulator sparse(platform.network(), 2e-3,
                                       MatrixBackend::kSparse);
  const Vector t0(platform.num_nodes(), 50.0);
  const Vector p = platform.background_power();
  const Vector end_dense = dense.run(t0, p, 500);
  const Vector end_sparse = sparse.run(t0, p, 500);
  for (std::size_t i = 0; i < t0.size(); ++i) {
    EXPECT_EQ(end_dense[i], end_sparse[i]);
  }
  // RK4 parity as well (different integrator, same SpMV contract).
  const thermal::Rk4Simulator rk_dense(platform.network(), 1e-3,
                                       MatrixBackend::kDense);
  const thermal::Rk4Simulator rk_sparse(platform.network(), 1e-3,
                                        MatrixBackend::kSparse);
  const Vector rk_d = rk_dense.run(t0, p, 50);
  const Vector rk_s = rk_sparse.run(t0, p, 50);
  for (std::size_t i = 0; i < t0.size(); ++i) {
    EXPECT_EQ(rk_d[i], rk_s[i]);
  }
}

TEST(ThermalBackendParity, AutoSelectsDenseForNiagaraSparseForBigMesh) {
  arch::MeshConfig big;
  big.rows = 8;
  big.cols = 8;
  const arch::Platform mesh = arch::make_mesh_platform(big);
  const thermal::ThermalModel mesh_model(mesh.network(), 0.4e-3);
  EXPECT_EQ(mesh_model.backend(), MatrixBackend::kSparse);

  arch::MeshConfig small;
  small.rows = 2;
  small.cols = 2;
  const arch::Platform tiny = arch::make_mesh_platform(small);
  const thermal::ThermalModel tiny_model(tiny.network(), 0.4e-3);
  EXPECT_EQ(tiny_model.backend(), MatrixBackend::kDense);
  EXPECT_THROW(tiny_model.a_sparse(), std::logic_error);
}

}  // namespace
}  // namespace protemp
