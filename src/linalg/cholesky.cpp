#include "linalg/cholesky.hpp"

#include <cmath>

#include "linalg/kernels/kernels.hpp"

namespace protemp::linalg {

std::optional<Cholesky> Cholesky::factor(const Matrix& a) {
  Cholesky out{Matrix{}};
  if (!out.refactor(a, 0.0)) return std::nullopt;
  return out;
}

std::optional<Cholesky> Cholesky::factor_regularized(const Matrix& a,
                                                     double ridge) {
  Cholesky out{Matrix{}};
  if (!out.refactor(a, ridge)) return std::nullopt;
  return out;
}

bool Cholesky::refactor(const Matrix& a, double ridge) {
  if (!a.square()) {
    throw std::invalid_argument("Cholesky: matrix must be square");
  }
  const std::size_t n = a.rows();
  l_.resize(n, n);
  // Both inner chains run over contiguous factor-row prefixes — the
  // neg_dot_from kernel.
  const auto& ops = kernels::active();
  for (std::size_t j = 0; j < n; ++j) {
    const double* lj = l_.row_data(j);
    const double diag = ops.neg_dot_from(a(j, j) + ridge, j, lj, lj);
    if (!(diag > 0.0) || !std::isfinite(diag)) return false;
    const double ljj = std::sqrt(diag);
    l_(j, j) = ljj;
    for (std::size_t i = j + 1; i < n; ++i) {
      const double acc = ops.neg_dot_from(a(i, j), j, l_.row_data(i), lj);
      l_(i, j) = acc / ljj;
    }
  }
  return true;
}

Vector Cholesky::solve(const Vector& b) const {
  Vector x;
  solve_into(b, x);
  return x;
}

void Cholesky::solve_into(const Vector& b, Vector& x) const {
  const std::size_t n = l_.rows();
  if (b.size() != n) {
    throw std::invalid_argument("Cholesky::solve: dimension mismatch");
  }
  // Forward substitution L y = b, with y living in x's storage; the inner
  // chain is contiguous (neg_dot_from kernel). Back substitution walks a
  // column and stays scalar.
  x.resize(n);
  const auto& ops = kernels::active();
  for (std::size_t i = 0; i < n; ++i) {
    const double* li = l_.row_data(i);
    const double acc = ops.neg_dot_from(b[i], i, li, x.data());
    x[i] = acc / li[i];
  }
  // Back substitution L^T x = y, overwriting top-down-safe entries.
  for (std::size_t ii = n; ii-- > 0;) {
    double acc = x[ii];
    for (std::size_t k = ii + 1; k < n; ++k) acc -= l_(k, ii) * x[k];
    x[ii] = acc / l_(ii, ii);
  }
}

Matrix Cholesky::solve(const Matrix& b) const {
  if (b.rows() != l_.rows()) {
    throw std::invalid_argument("Cholesky::solve: dimension mismatch");
  }
  Matrix x(b.rows(), b.cols());
  for (std::size_t j = 0; j < b.cols(); ++j) {
    x.set_col(j, solve(b.col(j)));
  }
  return x;
}

double Cholesky::log_det() const noexcept {
  double acc = 0.0;
  for (std::size_t i = 0; i < l_.rows(); ++i) acc += std::log(l_(i, i));
  return 2.0 * acc;
}

}  // namespace protemp::linalg
