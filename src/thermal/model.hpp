// Discrete-time thermal model — the paper's Eq. (1).
//
// From the RC network's continuous dynamics  C dT/dt = -G T + g_amb T_amb + p
// the forward-Euler discretization with step dt gives
//
//   t_{k+1,i} = t_{k,i} + sum_{j in Adj_i} a_ij (t_{k,j} - t_{k,i})
//             + a_i,amb (T_amb - t_{k,i}) + b_i p_i                  (Eq. 1)
//
// with a_ij = dt g_ij / C_i and b_i = dt / C_i. The ambient term is the
// extra neighbour the paper leaves implicit (heat must leave the chip; see
// DESIGN.md). The model also provides the exact zero-order-hold
// discretization (via matrix exponential) used to validate Euler's accuracy,
// and the stacked affine horizon maps consumed by the Pro-Temp optimizer.
#pragma once

#include <cstddef>
#include <vector>

#include "linalg/matrix.hpp"
#include "linalg/vector.hpp"
#include "thermal/rc_network.hpp"

namespace protemp::thermal {

class ThermalModel {
 public:
  /// Builds the Euler discretization at step `dt` [s]. Throws
  /// std::invalid_argument if dt exceeds the forward-Euler stability limit
  /// (all diagonal entries of A_d must stay non-negative, which also makes
  /// the discrete system monotone/positive).
  ///
  /// `backend` selects the stepping/horizon kernels: kDense streams the
  /// full n x n state matrix, kSparse streams only its ~O(n) stored
  /// entries; kAuto (default) resolves by network size, keeping
  /// Niagara-class chips on the historical dense path. The two backends
  /// produce bitwise-identical steps (the sparse kernels visit exactly the
  /// nonzeros the dense ones do, in the same order); only the
  /// factorization-based steady_state differs, to ~1e-12 relative.
  ThermalModel(RcNetwork network, double dt,
               linalg::MatrixBackend backend = linalg::MatrixBackend::kAuto);

  std::size_t num_nodes() const noexcept { return network_.num_nodes(); }
  double dt() const noexcept { return dt_; }
  const RcNetwork& network() const noexcept { return network_; }
  /// The resolved backend (never kAuto).
  linalg::MatrixBackend backend() const noexcept { return backend_; }

  /// Largest dt keeping the Euler discretization positivity-preserving:
  /// min_i C_i / G_ii.
  double max_stable_dt() const noexcept { return max_stable_dt_; }

  /// Discrete state matrix A_d = I - dt C^{-1} G (row-substochastic).
  /// Built (and O(n^2) stored) only in dense mode; a sparse-mode model
  /// never materializes the dense mirror. Throws std::logic_error in
  /// sparse mode — dispatch on backend().
  const linalg::Matrix& a_discrete() const;
  /// CSR form of A_d, built only in sparse mode (same pattern as G plus
  /// the full diagonal). Throws std::logic_error in dense mode.
  const linalg::SparseMatrix& a_sparse() const;
  /// Discrete input gain b_i = dt / C_i (diagonal, returned as vector).
  const linalg::Vector& b_discrete() const noexcept { return b_; }
  /// Constant ambient injection c_i = dt g_amb,i T_amb / C_i.
  const linalg::Vector& c_ambient() const noexcept { return c_; }

  /// Paper notation: coupling coefficient a_ij (i != j) and input gain b_i.
  double coeff_a(std::size_t i, std::size_t j) const;
  double coeff_b(std::size_t i) const;

  /// One Euler step: t_{k+1} = A_d t_k + B_d p + c.
  linalg::Vector step(const linalg::Vector& t, const linalg::Vector& p) const;
  /// In-place form for step loops: writes t_{k+1} into `out` (resized;
  /// must not alias `t`).
  void step_into(const linalg::Vector& t, const linalg::Vector& p,
                 linalg::Vector& out) const;

  /// Steady-state temperatures for constant power (solved on this model's
  /// backend).
  linalg::Vector steady_state(const linalg::Vector& power) const {
    return network_.steady_state(power, backend_);
  }

  /// Exact zero-order-hold discretization over `step_dt`:
  ///   t' = a t + b p + c.
  struct Discretization {
    linalg::Matrix a;
    linalg::Matrix b;
    linalg::Vector c;
  };
  Discretization exact_discretization(double step_dt) const;

 private:
  RcNetwork network_;
  double dt_;
  linalg::MatrixBackend backend_;
  double max_stable_dt_;
  linalg::Matrix a_;
  linalg::SparseMatrix a_sparse_;  ///< populated only in sparse mode
  linalg::Vector b_;
  linalg::Vector c_;
};

/// Stacked affine horizon maps: with every node initialized at `tstart` and
/// the variable nodes driven by constant power p_var (all other nodes held
/// at their fixed background power), the temperature of monitored node r at
/// step k is
///
///   T_k[r] = m[k-1].row(r) . p_var + u[k-1][r] * tstart + w[k-1][r]
///
/// for k = 1..steps. This is the state-elimination that turns the paper's
/// optimization (3) into a small dense program over p (and then over
/// s = f^2); see DESIGN.md.
struct HorizonAffineMap {
  /// Flat row-major storage in *full-node* blocks: block k (k = 0 is the
  /// recursion's initial condition, k in 1..steps the horizon) occupies
  /// rows [k*num_nodes, (k+1)*num_nodes). The build recursion reads block
  /// k-1 and writes block k in place — no per-step temporaries, no
  /// extraction copies; at 250 steps x 256 cores those used to dominate
  /// the build once the products went sparse. Consumers index through the
  /// accessors below, which hide the block layout and select the
  /// monitored rows.
  linalg::Matrix m;  ///< ((steps+1) * num_nodes) x n_var; block 0 = 0
  /// Rows of A_d^k: the response to an arbitrary (non-uniform) initial
  /// state. u is the row sum of s, so the scalar-tstart form is the
  /// special case T_0 = tstart * 1. Used by the online (MPC-style)
  /// controller.
  linalg::Matrix s;  ///< ((steps+1) * num_nodes) x num_nodes; block 0 = I
  linalg::Vector u;  ///< (steps+1) * num_nodes
  linalg::Vector w;  ///< (steps+1) * num_nodes; block 0 = 0
  std::size_t num_nodes = 0;
  std::vector<std::size_t> monitored;  ///< node indices of the result rows
  std::vector<std::size_t> variables;  ///< node indices of the columns

  std::size_t steps() const noexcept {
    return num_nodes == 0 ? 0 : u.size() / num_nodes - 1;
  }

  /// Flat row of (k in 1..steps, monitored index r).
  std::size_t flat_row(std::size_t k, std::size_t r) const noexcept {
    return k * num_nodes + monitored[r];
  }
  const double* m_row(std::size_t k, std::size_t r) const {
    return m.row_data(flat_row(k, r));
  }
  const double* s_row(std::size_t k, std::size_t r) const {
    return s.row_data(flat_row(k, r));
  }
  double u_at(std::size_t k, std::size_t r) const {
    return u[flat_row(k, r)];
  }
  double w_at(std::size_t k, std::size_t r) const {
    return w[flat_row(k, r)];
  }

  /// Evaluates T_k (k in 1..steps) for the monitored nodes, worst-case
  /// uniform start T_0 = tstart * 1.
  linalg::Vector evaluate(std::size_t k, const linalg::Vector& p_var,
                          double tstart) const;

  /// Evaluates T_k for an arbitrary full initial state (size n_nodes).
  linalg::Vector evaluate_state(std::size_t k, const linalg::Vector& p_var,
                                const linalg::Vector& t0) const;
};

/// Builds the horizon map.
///  - `monitored`: node indices whose temperatures are constrained;
///  - `variables`: node indices whose power is the decision variable;
///  - `fixed_power`: full-length per-node background power (entries at
///    variable nodes are ignored).
HorizonAffineMap build_horizon_map(const ThermalModel& model,
                                   std::size_t steps,
                                   std::vector<std::size_t> monitored,
                                   std::vector<std::size_t> variables,
                                   const linalg::Vector& fixed_power);

/// The background term alone: exactly build_horizon_map(...).w (same
/// layout, same bits), without the m/s/u blocks, which do not depend on
/// `fixed_power`. For callers that need the map under a second background.
linalg::Vector build_horizon_background(
    const ThermalModel& model, std::size_t steps,
    const std::vector<std::size_t>& variables,
    const linalg::Vector& fixed_power);

}  // namespace protemp::thermal
