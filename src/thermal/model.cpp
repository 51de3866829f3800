#include "thermal/model.hpp"

#include <cmath>
#include <limits>
#include <stdexcept>
#include <utility>

#include "linalg/expm.hpp"

namespace protemp::thermal {

ThermalModel::ThermalModel(RcNetwork network, double dt,
                           linalg::MatrixBackend backend)
    : network_(std::move(network)), dt_(dt) {
  if (!(dt > 0.0) || !std::isfinite(dt)) {
    throw std::invalid_argument("ThermalModel: dt must be positive");
  }
  const std::size_t n = network_.num_nodes();
  const linalg::Matrix& g = network_.conductance();
  const linalg::SparseMatrix& g_sparse = network_.conductance_sparse();
  const linalg::Vector& c = network_.capacitance();
  backend_ = linalg::resolve_backend(backend, n, g_sparse.nnz());

  max_stable_dt_ = std::numeric_limits<double>::infinity();
  for (std::size_t i = 0; i < n; ++i) {
    if (g(i, i) > 0.0) {
      max_stable_dt_ = std::min(max_stable_dt_, c[i] / g(i, i));
    }
  }
  if (dt_ > max_stable_dt_) {
    throw std::invalid_argument(
        "ThermalModel: dt exceeds the positivity-preserving Euler limit (" +
        std::to_string(max_stable_dt_) + " s)");
  }

  b_ = linalg::Vector(n);
  c_ = linalg::Vector(n);
  for (std::size_t i = 0; i < n; ++i) {
    b_[i] = dt_ / c[i];
    c_[i] = dt_ * network_.ambient_conductance()[i] *
            network_.ambient_celsius() / c[i];
  }
  if (backend_ == linalg::MatrixBackend::kSparse) {
    // A_d = I - dt C^{-1} G shares G's pattern plus the full diagonal,
    // and only the ~O(n) stored entries are materialized — no O(n^2)
    // dense mirror in sparse mode (at thousands of nodes that mirror is
    // hundreds of megabytes of anti-scaling). Each entry evaluates the
    // same expression on the same values as the dense build, so the two
    // kernels stream bitwise-equal coefficients.
    linalg::SparseBuilder builder(n, n);
    for (std::size_t i = 0; i < n; ++i) {
      bool diag_seen = false;
      for (std::size_t k = g_sparse.row_ptr()[i];
           k < g_sparse.row_ptr()[i + 1]; ++k) {
        const std::size_t j = g_sparse.col_index()[k];
        const double gij = g_sparse.values()[k];
        builder.add(i, j, (i == j ? 1.0 : 0.0) - dt_ * gij / c[i]);
        diag_seen = diag_seen || j == i;
      }
      if (!diag_seen) builder.add(i, i, 1.0);  // isolated node: a_ii = 1
    }
    a_sparse_ = builder.build();
  } else {
    a_ = linalg::Matrix(n, n);
    for (std::size_t i = 0; i < n; ++i) {
      for (std::size_t j = 0; j < n; ++j) {
        a_(i, j) = (i == j ? 1.0 : 0.0) - dt_ * g(i, j) / c[i];
      }
    }
  }
}

const linalg::Matrix& ThermalModel::a_discrete() const {
  if (backend_ != linalg::MatrixBackend::kDense) {
    throw std::logic_error(
        "ThermalModel::a_discrete: model runs sparse (use a_sparse())");
  }
  return a_;
}

const linalg::SparseMatrix& ThermalModel::a_sparse() const {
  if (backend_ != linalg::MatrixBackend::kSparse) {
    throw std::logic_error("ThermalModel::a_sparse: model runs dense");
  }
  return a_sparse_;
}

double ThermalModel::coeff_a(std::size_t i, std::size_t j) const {
  if (i == j) {
    throw std::invalid_argument("ThermalModel::coeff_a: i == j");
  }
  return dt_ * (-network_.conductance()(i, j)) /
         network_.capacitance()[i];
}

double ThermalModel::coeff_b(std::size_t i) const {
  return dt_ / network_.capacitance()[i];
}

linalg::Vector ThermalModel::step(const linalg::Vector& t,
                                  const linalg::Vector& p) const {
  linalg::Vector next;
  step_into(t, p, next);
  return next;
}

void ThermalModel::step_into(const linalg::Vector& t, const linalg::Vector& p,
                             linalg::Vector& out) const {
  if (t.size() != num_nodes() || p.size() != num_nodes()) {
    throw std::invalid_argument("ThermalModel::step: dimension mismatch");
  }
  if (backend_ == linalg::MatrixBackend::kSparse) {
    a_sparse_.multiply_into(t, out);  // bitwise-equal to the dense product
  } else {
    a_.multiply_into(t, out);
  }
  for (std::size_t i = 0; i < out.size(); ++i) {
    out[i] += b_[i] * p[i] + c_[i];
  }
}

ThermalModel::Discretization ThermalModel::exact_discretization(
    double step_dt) const {
  if (!(step_dt > 0.0)) {
    throw std::invalid_argument("exact_discretization: dt must be positive");
  }
  const std::size_t n = num_nodes();
  const linalg::Matrix& g = network_.conductance();
  const linalg::Vector& cap = network_.capacitance();

  // Continuous A_c = -C^{-1} G.
  linalg::Matrix a_c(n, n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) a_c(i, j) = -g(i, j) / cap[i];
  }
  const linalg::Matrix a_scaled = a_c * step_dt;

  Discretization out;
  out.a = linalg::expm(a_scaled);
  // B = (int_0^dt e^{A_c s} ds) C^{-1} = dt * phi(A_c dt) * C^{-1}.
  const linalg::Matrix phi = linalg::expm_phi(a_scaled);
  out.b = linalg::Matrix(n, n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      out.b(i, j) = step_dt * phi(i, j) / cap[j];
    }
  }
  // c = B (g_amb .* T_amb).
  linalg::Vector amb(n);
  for (std::size_t i = 0; i < n; ++i) {
    amb[i] = network_.ambient_conductance()[i] * network_.ambient_celsius();
  }
  out.c = out.b * amb;
  return out;
}

linalg::Vector HorizonAffineMap::evaluate(std::size_t k,
                                          const linalg::Vector& p_var,
                                          double tstart) const {
  if (k == 0 || k > steps()) {
    throw std::out_of_range("HorizonAffineMap::evaluate: k out of range");
  }
  if (p_var.size() != variables.size()) {
    throw std::invalid_argument("HorizonAffineMap::evaluate: p_var size");
  }
  linalg::Vector t(monitored.size());
  for (std::size_t r = 0; r < monitored.size(); ++r) {
    const double* mr = m_row(k, r);
    double acc = 0.0;
    for (std::size_t v = 0; v < p_var.size(); ++v) acc += mr[v] * p_var[v];
    t[r] = acc + tstart * u_at(k, r) + w_at(k, r);
  }
  return t;
}

linalg::Vector HorizonAffineMap::evaluate_state(std::size_t k,
                                                const linalg::Vector& p_var,
                                                const linalg::Vector& t0) const {
  if (k == 0 || k > steps()) {
    throw std::out_of_range("HorizonAffineMap::evaluate_state: k out of range");
  }
  if (p_var.size() != variables.size() || t0.size() != s.cols()) {
    throw std::invalid_argument("HorizonAffineMap::evaluate_state: size");
  }
  linalg::Vector t(monitored.size());
  for (std::size_t r = 0; r < monitored.size(); ++r) {
    const double* mr = m_row(k, r);
    const double* sr = s_row(k, r);
    double acc = 0.0;
    for (std::size_t v = 0; v < p_var.size(); ++v) acc += mr[v] * p_var[v];
    double state = 0.0;
    for (std::size_t j = 0; j < t0.size(); ++j) state += sr[j] * t0[j];
    t[r] = acc + state + w_at(k, r);
  }
  return t;
}

HorizonAffineMap build_horizon_map(const ThermalModel& model,
                                   std::size_t steps,
                                   std::vector<std::size_t> monitored,
                                   std::vector<std::size_t> variables,
                                   const linalg::Vector& fixed_power) {
  const std::size_t n = model.num_nodes();
  if (steps == 0) {
    throw std::invalid_argument("build_horizon_map: steps must be >= 1");
  }
  for (const std::size_t i : monitored) {
    if (i >= n) throw std::out_of_range("build_horizon_map: monitored index");
  }

  HorizonAffineMap out;
  out.w = build_horizon_background(model, steps, variables, fixed_power);
  const linalg::Vector& b = model.b_discrete();
  const std::size_t nv = variables.size();
  out.monitored = std::move(monitored);
  out.variables = std::move(variables);
  out.num_nodes = n;
  const std::size_t blocks = steps + 1;
  out.m.resize(blocks * n, nv);
  out.s.resize(blocks * n, n);
  out.u.resize(blocks * n);

  // Full-state recursions, computed block-to-block in the flat storage:
  //   P_k = A P_{k-1} + B E,  Z_k = A Z_{k-1},
  // with P_0 = 0, Z_0 = I; u_k = Z_k 1 (w_k is build_horizon_background's).
  // Each step reads block k-1 and writes block k directly -- the products
  // ARE the stores, so the build streams exactly one pass over its output
  // (no per-step temporaries, no extraction copies; those used to dominate
  // the build once the products went sparse).
  //
  // The products are the build's entire cost: O(steps * n^2 * (n + nv))
  // dense. In sparse mode the same recursions run over A's ~O(n) stored
  // entries (O(steps * n * (n + nv))), and the sparse kernel visits
  // exactly the nonzeros the dense i-k-j kernel does, in the same order,
  // so both backends produce bitwise-identical coefficients.
  const bool sparse = model.backend() == linalg::MatrixBackend::kSparse;
  for (std::size_t i = 0; i < n; ++i) {
    out.s(i, i) = 1.0;  // Z_0 = I
    out.u[i] = 1.0;     // its row sums
  }

  for (std::size_t k = 1; k <= steps; ++k) {
    const double* s_prev = out.s.row_data((k - 1) * n);
    const double* m_prev = out.m.row_data((k - 1) * n);
    double* s_cur = out.s.row_data(k * n);
    double* m_cur = out.m.row_data(k * n);
    if (sparse) {
      const linalg::SparseMatrix& a_sp = model.a_sparse();
      a_sp.multiply_raw(s_prev, n, s_cur);
      a_sp.multiply_raw(m_prev, nv, m_cur);
    } else {
      const linalg::Matrix& a = model.a_discrete();
      a.multiply_raw(s_prev, n, s_cur);
      a.multiply_raw(m_prev, nv, m_cur);
    }
    for (std::size_t v = 0; v < nv; ++v) {
      m_cur[out.variables[v] * nv + v] += b[out.variables[v]];
    }
    double* u_cur = out.u.data() + k * n;
    for (std::size_t i = 0; i < n; ++i) {
      const double* s_row = s_cur + i * n;
      double row_sum = 0.0;
      for (std::size_t j = 0; j < n; ++j) row_sum += s_row[j];
      u_cur[i] = row_sum;
    }
  }
  return out;
}

linalg::Vector build_horizon_background(
    const ThermalModel& model, std::size_t steps,
    const std::vector<std::size_t>& variables,
    const linalg::Vector& fixed_power) {
  const std::size_t n = model.num_nodes();
  if (fixed_power.size() != n) {
    throw std::invalid_argument("build_horizon_map: fixed_power size mismatch");
  }
  for (const std::size_t i : variables) {
    if (i >= n) throw std::out_of_range("build_horizon_map: variable index");
  }

  // Fixed-power injection with variable nodes zeroed.
  const linalg::Vector& b = model.b_discrete();
  linalg::Vector inject = model.c_ambient();
  {
    linalg::Vector p_fix = fixed_power;
    for (const std::size_t i : variables) p_fix[i] = 0.0;
    for (std::size_t i = 0; i < n; ++i) inject[i] += b[i] * p_fix[i];
  }

  // w_k = A w_{k-1} + inject, w_0 = 0, in full-node blocks.
  linalg::Vector w((steps + 1) * n);
  const bool sparse = model.backend() == linalg::MatrixBackend::kSparse;
  for (std::size_t k = 1; k <= steps; ++k) {
    const double* w_prev = w.data() + (k - 1) * n;
    double* w_cur = w.data() + k * n;
    if (sparse) {
      model.a_sparse().multiply_raw(w_prev, 1, w_cur);
    } else {
      model.a_discrete().multiply_raw(w_prev, 1, w_cur);
    }
    for (std::size_t i = 0; i < n; ++i) w_cur[i] += inject[i];
  }
  return w;
}

}  // namespace protemp::thermal
