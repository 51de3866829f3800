// Cholesky (LL^T) factorization for symmetric positive definite systems —
// the barrier solver's Newton systems, SPD by construction.
#pragma once

#include <optional>

#include "linalg/matrix.hpp"
#include "linalg/vector.hpp"

namespace protemp::linalg {

/// Lower-triangular Cholesky factor of a symmetric positive definite matrix.
class Cholesky {
 public:
  /// An empty factor, only useful as the target of refactor() — the
  /// allocation-reusing entry point of solver hot loops.
  Cholesky() = default;

  /// Factorizes A = L L^T. Returns std::nullopt if A is not (numerically)
  /// positive definite. Only the lower triangle of A is read.
  static std::optional<Cholesky> factor(const Matrix& a);

  /// Like factor(), but adds `ridge` to the diagonal before factorizing —
  /// the standard regularization fallback inside optimization loops.
  static std::optional<Cholesky> factor_regularized(const Matrix& a,
                                                    double ridge);

  /// Re-factorizes A + ridge*I in place, reusing this object's factor
  /// storage when the shape matches (no allocation in steady state). On
  /// failure returns false and the factor must not be used for solves.
  bool refactor(const Matrix& a, double ridge = 0.0);

  /// Solves A x = b via forward/back substitution.
  Vector solve(const Vector& b) const;

  /// Allocation-free solve: writes the solution into `x` (resized in place;
  /// must not alias `b`).
  void solve_into(const Vector& b, Vector& x) const;

  /// Solves A X = B column-by-column.
  Matrix solve(const Matrix& b) const;

  /// log(det A) = 2 * sum_i log L_ii (well defined: L_ii > 0).
  double log_det() const noexcept;

  const Matrix& factor_matrix() const noexcept { return l_; }

 private:
  explicit Cholesky(Matrix l) : l_(std::move(l)) {}
  Matrix l_;
};

}  // namespace protemp::linalg
