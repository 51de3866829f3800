#include "core/optimizer.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <memory>
#include <stdexcept>
#include <utility>
#include <vector>

#include "util/logging.hpp"

namespace protemp::core {
namespace {

constexpr const char* kModule = "core.optimizer";

/// f(x) = offset - scale * sum_{v < count} sqrt(x_v): the workload
/// constraint (offset = n * ftarget / fmax, scale = 1) and, negated via
/// offset = 0, the max-throughput objective. Convex on x_v > 0.
class NegSqrtSum final : public convex::ScalarFunction {
 public:
  NegSqrtSum(std::size_t dimension, std::size_t count, double offset,
             double scale)
      : dimension_(dimension), count_(count), offset_(offset), scale_(scale) {}

  std::size_t dimension() const noexcept override { return dimension_; }

  double value(const linalg::Vector& x) const override {
    double acc = offset_;
    for (std::size_t v = 0; v < count_; ++v) {
      acc -= scale_ * std::sqrt(x[v]);  // NaN for x_v < 0 -> caller rejects
    }
    return acc;
  }

  linalg::Vector gradient(const linalg::Vector& x) const override {
    linalg::Vector g(dimension_);
    for (std::size_t v = 0; v < count_; ++v) {
      g[v] = -scale_ * 0.5 / std::sqrt(x[v]);
    }
    return g;
  }

  linalg::Matrix hessian(const linalg::Vector& x) const override {
    linalg::Matrix h(dimension_, dimension_);
    for (std::size_t v = 0; v < count_; ++v) {
      h(v, v) = scale_ * 0.25 / (x[v] * std::sqrt(x[v]));
    }
    return h;
  }

 private:
  std::size_t dimension_;
  std::size_t count_;
  double offset_;
  double scale_;
};

/// Heterogeneous variant: f(x) = offset - sum_v w_v * sqrt(x_v) with
/// w_v = fmax_v / fmax_ref, so the sum is the average frequency in units of
/// the reference fmax. A separate class (not a weighted NegSqrtSum mode) so
/// the homogeneous expressions — and their rounding — stay untouched.
class WeightedNegSqrtSum final : public convex::ScalarFunction {
 public:
  WeightedNegSqrtSum(std::size_t dimension, std::vector<double> weights,
                     double offset)
      : dimension_(dimension),
        weights_(std::move(weights)),
        offset_(offset) {}

  std::size_t dimension() const noexcept override { return dimension_; }

  double value(const linalg::Vector& x) const override {
    double acc = offset_;
    for (std::size_t v = 0; v < weights_.size(); ++v) {
      acc -= weights_[v] * std::sqrt(x[v]);
    }
    return acc;
  }

  linalg::Vector gradient(const linalg::Vector& x) const override {
    linalg::Vector g(dimension_);
    for (std::size_t v = 0; v < weights_.size(); ++v) {
      g[v] = -weights_[v] * 0.5 / std::sqrt(x[v]);
    }
    return g;
  }

  linalg::Matrix hessian(const linalg::Vector& x) const override {
    linalg::Matrix h(dimension_, dimension_);
    for (std::size_t v = 0; v < weights_.size(); ++v) {
      h(v, v) = weights_[v] * 0.25 / (x[v] * std::sqrt(x[v]));
    }
    return h;
  }

 private:
  std::size_t dimension_;
  std::vector<double> weights_;
  double offset_;
};

}  // namespace

ProTempOptimizer::ProTempOptimizer(const arch::Platform& platform,
                                   ProTempConfig config)
    : platform_(platform), config_(std::move(config)) {
  if (!(config_.dfs_period > 0.0) || !(config_.dt > 0.0) ||
      config_.dfs_period < config_.dt) {
    throw std::invalid_argument("ProTempConfig: need dfs_period >= dt > 0");
  }
  // Mirrors ControlLoop: a fractional ratio would silently round the
  // horizon, making Phase 1 certify a different window than the control
  // loop actuates.
  const double ratio = config_.dfs_period / config_.dt;
  if (std::abs(ratio - std::llround(ratio)) > 1e-9) {
    throw std::invalid_argument(
        "ProTempConfig: dfs_period must be an integer multiple of dt "
        "(ratio " + std::to_string(ratio) + ")");
  }
  if (config_.gradient_step_stride == 0) {
    throw std::invalid_argument("ProTempConfig: gradient_step_stride >= 1");
  }
  if (!(config_.sigma_floor > 0.0)) {
    throw std::invalid_argument("ProTempConfig: sigma_floor must be > 0");
  }
  steps_ = static_cast<std::size_t>(
      std::llround(config_.dfs_period / config_.dt));
  num_cores_ = platform_.num_cores();
  num_sigma_ = config_.uniform_frequency ? 1 : num_cores_;
  // With a single shared frequency there is no degree of freedom to shape
  // the gradient, so tgrad is only meaningful in variable mode.
  has_tgrad_ = config_.minimize_gradient && !config_.uniform_frequency;
  num_vars_ = num_sigma_ + (has_tgrad_ ? 1 : 0);

  het_ = platform_.heterogeneous();
  if (het_ && config_.uniform_frequency) {
    // One shared sigma maps to a *different* frequency per class, so the
    // uniform-frequency contract of Sec. 5.3 has no het counterpart.
    throw std::invalid_argument(
        "ProTempConfig: uniform_frequency is undefined on heterogeneous "
        "platform '" + platform_.name() + "' (distinct per-class fmax)");
  }
  if (het_) {
    core_pmax_.resize(num_cores_);
    core_fmax_.resize(num_cores_);
    workload_weights_.resize(num_cores_);
    total_core_pmax_ = platform_.total_core_pmax();
    const double fref = platform_.fmax();
    for (std::size_t c = 0; c < num_cores_; ++c) {
      core_pmax_[c] = platform_.core_pmax_of(c);
      core_fmax_[c] = platform_.core_fmax(c);
      workload_weights_[c] = core_fmax_[c] / fref;
    }
  }

  // Per-node ceilings: the platform's own (stack DRAM strips) followed by
  // opt.node_tmax entries resolved against the floorplan. Empty on classic
  // builds, so the row layout below collapses to the historical one.
  ceilings_ = platform_.thermal_ceilings();
  for (const auto& [block_name, ceiling_tmax] : config_.node_ceilings) {
    const auto idx = platform_.floorplan().find(block_name);
    if (!idx) {
      throw std::invalid_argument(
          "ProTempConfig: node_tmax names no floorplan block '" +
          block_name + "' on platform '" + platform_.name() + "'");
    }
    if (platform_.floorplan().block(*idx).kind ==
        thermal::BlockKind::kCore) {
      throw std::invalid_argument(
          "ProTempConfig: node_tmax on core block '" + block_name +
          "' — core ceilings come from CoreClass tmax or opt.tmax");
    }
    if (!std::isfinite(ceiling_tmax)) {
      throw std::invalid_argument(
          "ProTempConfig: node_tmax for '" + block_name +
          "' must be finite");
    }
    ceilings_.push_back(
        arch::ThermalCeiling{*idx, ceiling_tmax, block_name});
  }
  num_monitored_ = num_cores_ + ceilings_.size();

  const thermal::ThermalModel model(platform_.network(), config_.dt,
                                    config_.backend);
  // Two horizon maps: one with the static background (cores idle), one with
  // the peak background. Their difference d_k is the thermal response to
  // the activity-coupled share of the background power, which scales with
  // mean(sigma) and therefore stays linear in the decision variables (the
  // worst-case activity estimate: every core fully busy at its frequency).
  std::vector<std::size_t> monitored = platform_.core_nodes();
  monitored.reserve(num_monitored_);
  for (const arch::ThermalCeiling& ceiling : ceilings_) {
    monitored.push_back(ceiling.node);
  }
  const thermal::HorizonAffineMap map = thermal::build_horizon_map(
      model, steps_, monitored, platform_.core_nodes(),
      platform_.background_power_at(0.0));
  // Only w differs between the two backgrounds (m, s and u do not depend
  // on the fixed power), so the peak one needs just its background term.
  const linalg::Vector w_peak = thermal::build_horizon_background(
      model, steps_, platform_.core_nodes(), platform_.background_power());

  const double pmax = platform_.core_pmax();
  const std::size_t nc = num_cores_;
  // d_k[r]: extra temperature at (k, r) per unit of mean core activity.
  const auto activity_coeff = [&](std::size_t k, std::size_t r) {
    return w_peak[map.flat_row(k, r)] - map.w_at(k, r);
  };

  // Row layout:
  //   [0, steps*num_monitored)            temperature rows, k-major
  //                                       (cores first, then ceilings)
  //   then nc (or 1) upper bounds sigma <= 1
  //   then nc (or 1) lower bounds -sigma <= -sigma_floor
  //   then 1 row -tgrad <= 0                        (if tgrad)
  //   then gradient rows for strided k, ordered core pairs (if tgrad)
  std::size_t gradient_rows = 0;
  if (has_tgrad_) {
    std::size_t strided_steps = 0;
    for (std::size_t k = 1; k <= steps_; k += config_.gradient_step_stride) {
      ++strided_steps;
    }
    gradient_rows = strided_steps * nc * (nc - 1);
  }
  const std::size_t budget_rows = config_.power_budget_watts ? 1 : 0;
  const std::size_t rows = steps_ * num_monitored_ + 2 * num_sigma_ +
                           budget_rows + (has_tgrad_ ? 1 + gradient_rows : 0);

  const std::size_t n_nodes = platform_.num_nodes();
  g_ = linalg::Matrix(rows, num_vars_);
  h0_ = linalg::Vector(rows);
  state_gain_ = linalg::Matrix(rows, n_nodes);

  std::size_t row = 0;
  // Temperature rows: for each step k and monitored core r,
  //   sum_v M_k(r, v) * pmax * sigma_v <= tmax + slack - u_k[r]*tstart - w_k[r].
  // (Raw row pointers throughout the assembly: at 250 steps x 256 cores
  // these loops stream tens of millions of entries, and per-element
  // bounds-checked access was the dominant build cost after the sparse
  // horizon recursions removed the matmul one.)
  for (std::size_t k = 1; k <= steps_; ++k) {
    for (std::size_t r = 0; r < num_monitored_; ++r) {
      const double d = activity_coeff(k, r);
      const double* mk_row = map.m_row(k, r);
      double* g_row = g_.row_data(row);
      if (config_.uniform_frequency) {
        double acc = 0.0;
        for (std::size_t v = 0; v < nc; ++v) acc += mk_row[v];
        g_row[0] = acc * pmax + d;  // mean(sigma) == sigma in uniform mode
      } else if (het_) {
        // Per-class power law p_v = pmax_v * sigma_v; the worst-case
        // activity of core v contributes its pmax share of the chip total.
        for (std::size_t v = 0; v < nc; ++v) {
          g_row[v] = mk_row[v] * core_pmax_[v] +
                     d * (core_pmax_[v] / total_core_pmax_);
        }
      } else {
        for (std::size_t v = 0; v < nc; ++v) {
          g_row[v] = mk_row[v] * pmax + d / static_cast<double>(nc);
        }
      }
      // Core rows bound at the class ceiling (or the global tmax); ceiling
      // rows (r >= nc) at their own per-node tmax.
      const double row_tmax =
          r < nc ? platform_.core_tmax(r).value_or(config_.tmax)
                 : ceilings_[r - nc].tmax_celsius;
      h0_[row] = row_tmax + config_.constraint_slack - map.w_at(k, r);
      const double* s_row = map.s_row(k, r);
      double* gain_row = state_gain_.row_data(row);
      for (std::size_t j = 0; j < n_nodes; ++j) {
        gain_row[j] = -s_row[j];
      }
      ++row;
    }
  }
  // Bounds.
  for (std::size_t v = 0; v < num_sigma_; ++v) {
    g_(row, v) = 1.0;
    h0_[row] = 1.0;
    ++row;
  }
  for (std::size_t v = 0; v < num_sigma_; ++v) {
    g_(row, v) = -1.0;
    h0_[row] = -config_.sigma_floor;
    ++row;
  }
  if (config_.power_budget_watts) {
    // sum_i p_i = pmax * (sum sigma, or n * sigma uniform) <= budget.
    const double per_sigma =
        config_.uniform_frequency ? pmax * static_cast<double>(nc) : pmax;
    for (std::size_t v = 0; v < num_sigma_; ++v) {
      g_(row, v) = het_ ? core_pmax_[v] : per_sigma;
    }
    h0_[row] = *config_.power_budget_watts;
    ++row;
  }
  if (has_tgrad_) {
    g_(row, num_sigma_) = -1.0;
    h0_[row] = 0.0;
    ++row;
    // Gradient rows: T_k[r] - T_k[q] <= tgrad for ordered pairs r != q.
    for (std::size_t k = 1; k <= steps_; k += config_.gradient_step_stride) {
      for (std::size_t r = 0; r < nc; ++r) {
        for (std::size_t q = 0; q < nc; ++q) {
          if (r == q) continue;
          const double* mk_r = map.m_row(k, r);
          const double* mk_q = map.m_row(k, q);
          double* g_row = g_.row_data(row);
          if (het_) {
            const double dd =
                activity_coeff(k, r) - activity_coeff(k, q);
            for (std::size_t v = 0; v < nc; ++v) {
              g_row[v] = (mk_r[v] - mk_q[v]) * core_pmax_[v] +
                         dd * (core_pmax_[v] / total_core_pmax_);
            }
          } else {
            const double dd =
                (activity_coeff(k, r) - activity_coeff(k, q)) /
                static_cast<double>(nc);
            for (std::size_t v = 0; v < nc; ++v) {
              g_row[v] = (mk_r[v] - mk_q[v]) * pmax + dd;
            }
          }
          g_row[num_sigma_] = -1.0;
          h0_[row] = map.w_at(k, q) - map.w_at(k, r);
          const double* s_r = map.s_row(k, r);
          const double* s_q = map.s_row(k, q);
          double* gain_row = state_gain_.row_data(row);
          for (std::size_t j = 0; j < n_nodes; ++j) {
            gain_row[j] = s_q[j] - s_r[j];
          }
          ++row;
        }
      }
    }
  }
  if (row != rows) {
    throw std::logic_error("ProTempOptimizer: row layout mismatch");
  }
  // Cache the uniform-start gain h1 = S * 1.
  h1_ = state_gain_ * linalg::Vector(n_nodes, 1.0);
}

linalg::Vector ProTempOptimizer::rhs_for(double tstart) const {
  linalg::Vector h = h0_;
  h.axpy(tstart, h1_);
  return h;
}

linalg::Vector ProTempOptimizer::rhs_for_state(
    const linalg::Vector& node_temps) const {
  if (node_temps.size() != platform_.num_nodes()) {
    throw std::invalid_argument(
        "ProTempOptimizer: node_temps must have one entry per thermal node");
  }
  linalg::Vector h = h0_;
  h += state_gain_ * node_temps;
  return h;
}

std::optional<linalg::Vector> ProTempOptimizer::feasible_start(
    const convex::LinearConstraints& lin, convex::SolverWorkspace* workspace,
    std::size_t& newton) const {
  // Near-zero sigma is strictly feasible for the thermal rows whenever the
  // point is feasible at all (temperatures are monotone in power); tgrad
  // starts above the largest zero-power pairwise gap.
  linalg::Vector x(num_vars_);
  for (std::size_t v = 0; v < num_sigma_; ++v) {
    x[v] = std::max(config_.sigma_floor * 4.0, 1e-8);
  }
  if (has_tgrad_) x[num_sigma_] = 1.0;

  for (int attempt = 0; attempt < 64; ++attempt) {
    const linalg::Vector r = lin.residuals(x);
    double worst = r.max();
    if (worst < 0.0) return x;
    if (!has_tgrad_) break;
    // Raise tgrad to clear gradient rows; thermal rows do not involve tgrad,
    // so if they are violated at near-zero power the point is infeasible.
    bool thermal_violated = false;
    for (std::size_t i = 0; i < r.size(); ++i) {
      if (r[i] >= 0.0 && g_(i, num_sigma_) == 0.0) {
        thermal_violated = true;
        break;
      }
    }
    if (thermal_violated) break;
    x[num_sigma_] = x[num_sigma_] * 2.0 + worst + 1.0;
  }
  if (floor_certifies_infeasible(lin)) return std::nullopt;
  // Fall back to generic phase-I: only the thin band between sigma_floor
  // and the probe point above gets here.
  convex::BarrierProblem probe;
  linalg::Vector c(num_vars_);
  probe.objective = std::make_shared<convex::AffineFunction>(c, 0.0);
  probe.linear = lin;
  convex::SolverWorkspace scratch;
  convex::SolverWorkspace& ws = workspace ? *workspace : scratch;
  const std::size_t before = ws.stats().newton_steps;
  std::optional<linalg::Vector> start =
      convex::find_strictly_feasible(probe, x, 1e-12, config_.solver, &ws);
  newton += ws.stats().newton_steps - before;
  return start;
}

bool ProTempOptimizer::floor_certifies_infeasible(
    const convex::LinearConstraints& lin) const {
  // A row with no tgrad term and no negative sigma coefficient is
  // nondecreasing in every sigma, and floating-point products and sums are
  // monotone too, so its computed residual anywhere in the box
  // sigma > sigma_floor is at least its residual at the floor. If that is
  // already >= 0, no point is strictly feasible, and phase-I (which only
  // returns a strictly feasible point) must fail.
  linalg::Vector floor(num_vars_);
  for (std::size_t v = 0; v < num_sigma_; ++v) floor[v] = config_.sigma_floor;
  const linalg::Vector r = lin.residuals(floor);
  for (std::size_t i = 0; i < r.size(); ++i) {
    if (!(r[i] >= 0.0)) continue;
    const double* row = lin.g.row_data(i);
    bool monotone = !has_tgrad_ || row[num_sigma_] == 0.0;
    for (std::size_t v = 0; monotone && v < num_sigma_; ++v) {
      monotone = row[v] >= 0.0;
    }
    if (monotone) return true;
  }
  return false;
}

bool ProTempOptimizer::thermal_rows_infeasible(
    const linalg::Vector& node_temps) const {
  return floor_certifies_infeasible(
      convex::LinearConstraints{g_, rhs_for_state(node_temps)});
}

bool ProTempOptimizer::try_warm_start(const convex::BarrierProblem& problem,
                                      convex::SolverWorkspace* workspace,
                                      convex::SolverWorkspace::Slot slot,
                                      linalg::Vector& x0) const {
  if (workspace == nullptr || !workspace->warm_start_enabled() ||
      !config_.warm_start) {
    return false;
  }
  const linalg::Vector* hint = workspace->hint(slot);
  if (hint == nullptr || hint->size() != num_vars_) return false;

  // The raw hint sits on the boundary of its own problem; a shifted rhs can
  // leave it slightly infeasible. Blending toward a deep-interior sigma
  // (with tgrad nudged *up*, which only relaxes the gradient rows) restores
  // a margin while staying near the old optimum.
  linalg::Vector interior(num_vars_);
  for (std::size_t v = 0; v < num_sigma_; ++v) {
    interior[v] = std::max(config_.sigma_floor * 4.0, 1e-8);
  }
  if (has_tgrad_) {
    interior[num_sigma_] = (*hint)[num_sigma_] * 1.05 + 0.1;
  }
  for (const double lambda : {0.0, 0.05, 0.25}) {
    linalg::Vector candidate = *hint;
    candidate *= 1.0 - lambda;
    candidate.axpy(lambda, interior);
    if (problem.strictly_feasible(candidate)) {
      x0 = std::move(candidate);
      ++workspace->stats().warm_started;
      return true;
    }
  }
  ++workspace->stats().warm_rejected;
  return false;
}

std::shared_ptr<convex::ScalarFunction> ProTempOptimizer::neg_freq_sum(
    double offset) const {
  if (het_) {
    return std::make_shared<WeightedNegSqrtSum>(num_vars_, workload_weights_,
                                                offset);
  }
  const double ws_scale =
      config_.uniform_frequency ? static_cast<double>(num_cores_) : 1.0;
  return std::make_shared<NegSqrtSum>(num_vars_, num_sigma_, offset,
                                      ws_scale);
}

convex::BarrierOptions ProTempOptimizer::warm_options() const {
  // The warm seed is near-optimal, so skip the early wide-gap stages: start
  // the outer loop where the certified gap is already ~1e-3 instead of ~m.
  convex::BarrierOptions options = config_.solver;
  const double m = static_cast<double>(g_.rows() + 1);
  options.t_initial = std::max(options.t_initial, m * 1e3);
  return options;
}

FrequencyAssignment ProTempOptimizer::solve(
    double tstart_celsius, double ftarget_hz,
    convex::SolverWorkspace* workspace) const {
  return solve_with_rhs(rhs_for(tstart_celsius), ftarget_hz, workspace,
                        /*with_fallback=*/false);
}

FrequencyAssignment ProTempOptimizer::solve_from_state(
    const linalg::Vector& node_temps, double ftarget_hz,
    convex::SolverWorkspace* workspace) const {
  return solve_with_rhs(rhs_for_state(node_temps), ftarget_hz, workspace,
                        /*with_fallback=*/true);
}

convex::BarrierProblem ProTempOptimizer::program_with(
    const convex::LinearConstraints& lin, double ftarget_hz) const {
  const double phi = std::clamp(ftarget_hz / platform_.fmax(), 0.0, 1.0);

  // Objective: total power + gradient weight (Eq. 5), all linear.
  linalg::Vector cost(num_vars_);
  const double per_sigma_power =
      config_.uniform_frequency
          ? platform_.core_pmax() * static_cast<double>(num_cores_)
          : platform_.core_pmax();
  for (std::size_t v = 0; v < num_sigma_; ++v) {
    cost[v] = het_ ? core_pmax_[v] : per_sigma_power;
  }
  if (has_tgrad_) cost[num_sigma_] = config_.gradient_weight;

  convex::BarrierProblem problem;
  problem.objective =
      std::make_shared<convex::AffineFunction>(std::move(cost), 0.0);
  problem.linear = lin;
  // Workload constraint: n*phi - sum sqrt(sigma) <= 0 (fmax-weighted per
  // class in het mode). In uniform mode the single sigma serves all n
  // cores: n*phi - n*sqrt(sigma) <= 0.
  if (phi > 0.0) {
    problem.constraints.push_back(
        neg_freq_sum(static_cast<double>(num_cores_) * phi));
  }
  return problem;
}

convex::BarrierProblem ProTempOptimizer::program_from_state(
    const linalg::Vector& node_temps, double ftarget_hz) const {
  return program_with(convex::LinearConstraints{g_, rhs_for_state(node_temps)},
                      ftarget_hz);
}

void ProTempOptimizer::serve(const linalg::Vector& x,
                             FrequencyAssignment& out) const {
  out.frequencies = linalg::Vector(num_cores_);
  double freq_sum = 0.0;
  double power_sum = 0.0;
  for (std::size_t c = 0; c < num_cores_; ++c) {
    const double sigma = config_.uniform_frequency ? x[0] : x[c];
    out.frequencies[c] = (het_ ? core_fmax_[c] : platform_.fmax()) *
                         std::sqrt(std::max(0.0, sigma));
    freq_sum += out.frequencies[c];
    power_sum += (het_ ? core_pmax_[c] : platform_.core_pmax()) * sigma;
  }
  out.average_frequency = freq_sum / static_cast<double>(num_cores_);
  out.total_power = power_sum;
}

FrequencyAssignment ProTempOptimizer::solve_with_rhs(
    linalg::Vector rhs, double ftarget_hz, convex::SolverWorkspace* workspace,
    bool with_fallback) const {
  const auto t0 = std::chrono::steady_clock::now();
  FrequencyAssignment out;

  const double phi = std::clamp(ftarget_hz / platform_.fmax(), 0.0, 1.0);

  convex::LinearConstraints lin{g_, std::move(rhs)};
  const convex::BarrierProblem problem = program_with(lin, ftarget_hz);

  const auto finish = [&](convex::SolveStatus status) {
    out.status = status;
    out.solve_seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
            .count();
    return out;
  };
  // A stale warm seed must never turn a solvable point into a failure: drop
  // the hints and retry once from the cold path (the recursion terminates —
  // no hints survive forget()).
  const auto retry_cold = [&] {
    workspace->forget();
    const double wasted =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
            .count();
    FrequencyAssignment retry =
        solve_with_rhs(std::move(lin.h), ftarget_hz, workspace, with_fallback);
    retry.newton_iterations += out.newton_iterations;
    retry.solve_seconds += wasted;
    return retry;
  };
  // The workload cannot be met. With a fallback, serve the highest safe
  // throughput: the max-throughput program solved from this workspace
  // exactly as max_supported_frequency_from_state would solve it now.
  const auto infeasible = [&](convex::SolveStatus status) {
    if (with_fallback) {
      if (const auto best = max_throughput(lin, workspace,
                                           out.newton_iterations)) {
        serve(*best, out);
        out.throughput_fallback = true;
      }
    }
    return finish(status);
  };

  // Warm path: seed from the previous optimum, skipping both the
  // feasible-start search and the throughput lift solve below.
  linalg::Vector x0;
  out.warm_started = try_warm_start(
      problem, workspace, convex::SolverWorkspace::kMain, x0);

  if (!out.warm_started) {
    // Strictly feasible start for the thermal rows...
    const auto start = feasible_start(lin, workspace, out.newton_iterations);
    if (!start) return infeasible(convex::SolveStatus::kInfeasible);

    x0 = *start;
    if (phi > 0.0 && !problem.strictly_feasible(x0)) {
      // ...then lift it over the workload constraint: push sigma up along
      // the max-throughput direction. Maximize sum sqrt(sigma) subject to
      // the thermal rows; its optimizer is strictly feasible for them, and
      // if even it cannot meet the workload the point is infeasible.
      convex::BarrierProblem throughput;
      throughput.objective = neg_freq_sum(0.0);
      throughput.linear = lin;
      linalg::Vector lift_x0;
      const bool lift_warm = try_warm_start(
          throughput, workspace, convex::SolverWorkspace::kThroughput,
          lift_x0);
      if (!lift_warm) lift_x0 = x0;
      const convex::Solution sol = convex::solve_barrier(
          throughput, lift_x0, lift_warm ? warm_options() : config_.solver,
          workspace);
      out.newton_iterations += sol.iterations;
      // A budget-expired lift still yields an incumbent worth trying; the
      // strictly_feasible check below decides whether it is usable.
      const bool budget_expired =
          sol.status == convex::SolveStatus::kBudgetExpired;
      if (sol.status != convex::SolveStatus::kOptimal && !budget_expired) {
        if (lift_warm) return retry_cold();
        // No fallback: max_supported_frequency_from_state would repeat
        // this very solve (same seed, same options) and fail the same way.
        return finish(sol.status);
      }
      // If the lift misses the workload, it is the fallback: the
      // max-throughput program solved from the seed
      // max_supported_frequency_from_state would use. A budget-expired
      // incumbent is served like the main solve's (strictly feasible for
      // the thermal rows).
      const bool lifted = problem.strictly_feasible(sol.x);
      if (workspace && (lifted || with_fallback)) {
        workspace->remember(convex::SolverWorkspace::kThroughput, sol.x);
      }
      if (!lifted) {
        if (with_fallback) {
          serve(sol.x, out);
          out.throughput_fallback = true;
        }
        return finish(budget_expired ? convex::SolveStatus::kBudgetExpired
                                     : convex::SolveStatus::kInfeasible);
      }
      x0 = sol.x;
    }
  }

  const convex::Solution sol = convex::solve_barrier(
      problem, x0, out.warm_started ? warm_options() : config_.solver,
      workspace);
  out.newton_iterations += sol.iterations;
  // A budget-expired solve is served, not retried: the incumbent is
  // strictly feasible with a finite gap bound, and a cold retry is exactly
  // the work the deadline exists to cut off.
  const bool budget_expired =
      sol.status == convex::SolveStatus::kBudgetExpired;
  if (sol.status != convex::SolveStatus::kOptimal && !budget_expired) {
    if (out.warm_started) return retry_cold();
    return infeasible(sol.status);
  }
  if (workspace) workspace->remember(convex::SolverWorkspace::kMain, sol.x);

  out.feasible = true;
  serve(sol.x, out);
  if (has_tgrad_) out.tgrad = sol.x[num_sigma_];
  PROTEMP_LOG_DEBUG(kModule,
                    "solve(ftarget=%.0fMHz): favg=%.0fMHz "
                    "P=%.2fW tgrad=%.2fK newton=%zu",
                    ftarget_hz / 1e6, out.average_frequency / 1e6,
                    out.total_power, out.tgrad, out.newton_iterations);
  return finish(sol.status);
}

std::optional<ProTempOptimizer::ThroughputResult>
ProTempOptimizer::max_supported_frequency(
    double tstart_celsius, convex::SolverWorkspace* workspace) const {
  return max_throughput_with_rhs(rhs_for(tstart_celsius), workspace);
}

std::optional<ProTempOptimizer::ThroughputResult>
ProTempOptimizer::max_supported_frequency_from_state(
    const linalg::Vector& node_temps,
    convex::SolverWorkspace* workspace) const {
  return max_throughput_with_rhs(rhs_for_state(node_temps), workspace);
}

std::optional<ProTempOptimizer::ThroughputResult>
ProTempOptimizer::max_throughput_with_rhs(
    linalg::Vector rhs, convex::SolverWorkspace* workspace) const {
  const convex::LinearConstraints lin{g_, std::move(rhs)};
  std::size_t newton = 0;
  const std::optional<linalg::Vector> x = max_throughput(lin, workspace, newton);
  if (!x) return std::nullopt;
  FrequencyAssignment served;
  serve(*x, served);
  return ThroughputResult{served.average_frequency,
                          std::move(served.frequencies)};
}

std::optional<linalg::Vector> ProTempOptimizer::max_throughput(
    const convex::LinearConstraints& lin, convex::SolverWorkspace* workspace,
    std::size_t& newton) const {
  convex::BarrierProblem throughput;
  throughput.objective = neg_freq_sum(0.0);
  throughput.linear = lin;

  linalg::Vector x0;
  const bool warm = try_warm_start(
      throughput, workspace, convex::SolverWorkspace::kThroughput, x0);
  if (!warm) {
    const auto start = feasible_start(lin, workspace, newton);
    if (!start) return std::nullopt;
    x0 = *start;
  }
  convex::Solution sol = convex::solve_barrier(
      throughput, x0, warm ? warm_options() : config_.solver, workspace);
  newton += sol.iterations;
  if (warm && sol.status != convex::SolveStatus::kOptimal) {
    // Stale warm seed: drop it and retry cold (see solve_with_rhs).
    workspace->forget();
    const auto start = feasible_start(lin, workspace, newton);
    if (!start) return std::nullopt;
    sol = convex::solve_barrier(throughput, *start, config_.solver,
                                workspace);
    newton += sol.iterations;
  }
  if (sol.status != convex::SolveStatus::kOptimal) return std::nullopt;
  if (workspace) {
    workspace->remember(convex::SolverWorkspace::kThroughput, sol.x);
  }
  return std::move(sol.x);
}

}  // namespace protemp::core
