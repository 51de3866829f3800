// Pro-Temp Phase-1 optimizer — the paper's convex program (3)-(5).
//
// For a starting temperature `tstart` (all nodes, worst case) and a required
// average frequency `ftarget`, find per-core frequencies f minimizing total
// power (plus, optionally, the spatial gradient bound tgrad of Eq. (4)-(5))
// such that every core stays at or below tmax at every discrete step of the
// DFS window.
//
// Reformulation actually solved (see DESIGN.md):
//   * state elimination: with constant within-window power, core
//     temperatures are affine in the power vector (HorizonAffineMap);
//   * change of variables sigma_i = (f_i / fmax)^2, so p_i = pmax * sigma_i
//     is linear in sigma (paper Eq. 2) and all temperature rows are linear;
//   * the workload constraint sum_i f_i >= n * ftarget becomes the convex
//     constraint n*phi - sum_i sqrt(sigma_i) <= 0 with phi = ftarget/fmax.
// The result is a smooth convex program solved by the log-barrier
// interior-point solver; at the optimum the power law holds with equality,
// recovering the paper's formulation exactly.
//
// The same machinery answers "what is the highest average frequency this
// starting temperature can support?" (Fig. 9) by maximizing sum_i
// sqrt(sigma_i) subject to the thermal rows only.
#pragma once

#include <cstddef>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "arch/platform.hpp"
#include "convex/barrier.hpp"
#include "convex/problem.hpp"
#include "linalg/vector.hpp"
#include "thermal/model.hpp"

namespace protemp::core {

struct ProTempConfig {
  double tmax = 100.0;        ///< max core temperature [degC]
  double dfs_period = 0.1;    ///< window the guarantee covers [s]
  double dt = 0.4e-3;         ///< discretization step (paper: 0.4 ms)

  bool uniform_frequency = false;  ///< Sec. 5.3: one frequency for all cores

  bool minimize_gradient = true;   ///< add Eq. (4)-(5) tgrad machinery
  double gradient_weight = 1.0;    ///< weight of tgrad in the objective
  /// Enforce the pairwise gradient rows every this many steps (1 = every
  /// step). The temperature trajectory is smooth at the 0.4 ms scale, so a
  /// stride > 1 trims constraint count at negligible fidelity cost.
  std::size_t gradient_step_stride = 10;

  /// Tiny slack on the temperature rows so the tstart == tmax boundary case
  /// retains a strict interior (see DESIGN.md).
  double constraint_slack = 1e-6;
  /// Lower bound on sigma, keeping sqrt() away from its singular point.
  double sigma_floor = 1e-9;

  /// Optional chip-wide core power budget [W] (extension): adds the linear
  /// row sum_i p_i <= budget to the program.
  std::optional<double> power_budget_watts;

  /// Extra per-node temperature ceilings [degC] keyed by floorplan block
  /// name (scenario key `opt.node_tmax`). Merged with the platform's own
  /// thermal ceilings (e.g. the stack: family's DRAM strips); a name that
  /// resolves to no block throws std::invalid_argument at construction.
  std::vector<std::pair<std::string, double>> node_ceilings;

  /// Serve the Phase-1 table through a bounded-error InterpolatedTable built
  /// by striding the fine grid this many points per axis (scenario key
  /// `opt.table_interp_stride`; 1 = serve the fine table directly). Consumed
  /// by the pro-temp policy factory, not the optimizer itself, and
  /// deliberately excluded from the fine-table identity key.
  std::size_t table_interp_stride = 1;

  /// Seed successive solves from the previous optimum when the caller
  /// supplies a SolverWorkspace (table sweep points, simulation steps).
  /// Warm and cold paths converge to the same optimum (within the solver
  /// tolerance); the golden-trace and property tests pin both.
  bool warm_start = true;

  /// Linalg backend for the horizon-map build (scenario key `opt.backend`).
  /// kAuto resolves by platform size: Niagara-class chips stay dense,
  /// many-core meshes go sparse. Either choice yields bitwise-identical
  /// horizon coefficients (see ThermalModel); only build time differs.
  linalg::MatrixBackend backend = linalg::MatrixBackend::kAuto;

  convex::BarrierOptions solver;
};

/// Result of one Phase-1 solve. Exactly one of three outcomes:
///   * `feasible`: `frequencies` is the power-minimizing assignment that
///     meets ftarget (status kOptimal, or kBudgetExpired for a budgeted
///     solve's strictly feasible incumbent);
///   * `throughput_fallback` (solve_from_state only): ftarget cannot be met
///     from this state, and `frequencies` is the highest safe throughput
///     instead — bit for bit what max_supported_frequency_from_state would
///     return from the same workspace at that point, so the caller needs no
///     second solve. When a Newton budget or deadline (BarrierOptions)
///     cuts that solve short, its incumbent is served instead (status
///     kBudgetExpired); it is strictly feasible for the thermal rows;
///   * neither: no frequency vector is safe, or the solve failed;
///     `frequencies` is empty.
struct FrequencyAssignment {
  bool feasible = false;
  bool throughput_fallback = false;
  convex::SolveStatus status = convex::SolveStatus::kInfeasible;
  linalg::Vector frequencies;      ///< per core [Hz] (empty if neither)
  double average_frequency = 0.0;  ///< mean of frequencies [Hz]
  double total_power = 0.0;        ///< sum of core powers [W]
  double tgrad = 0.0;              ///< achieved gradient bound [K] (if on)
  /// Every Newton step the call ran: phase-I, the throughput solve, the
  /// main solve and any cold retry.
  std::size_t newton_iterations = 0;
  double solve_seconds = 0.0;
  bool warm_started = false;       ///< seeded from a workspace hint
};

class ProTempOptimizer {
 public:
  /// Precomputes the horizon affine maps for `platform`; cheap to query
  /// afterwards. Throws std::invalid_argument on inconsistent config.
  ProTempOptimizer(const arch::Platform& platform, ProTempConfig config);

  /// Solves the program for one (tstart, ftarget) point — every thermal
  /// node assumed to start at `tstart` (worst case; Phase-1 table entries).
  ///
  /// `workspace` (optional, all solve entry points): reusable buffers plus
  /// warm-start memory for a *sequence* of related solves. The optimizer
  /// itself stays immutable and thread-safe; all mutable solve state lives
  /// in the caller-owned workspace, so concurrent callers simply keep one
  /// workspace each (never share one across threads).
  FrequencyAssignment solve(double tstart_celsius, double ftarget_hz,
                            convex::SolverWorkspace* workspace = nullptr)
      const;

  /// Online (MPC-style) variant: solves from an arbitrary measured initial
  /// state (one temperature per thermal node, spreader/sink included).
  /// Strictly less conservative than solve() keyed on max(t0): the affine
  /// horizon maps propagate the true non-uniform state. Extension beyond
  /// the paper's table-lookup Phase 2; see OnlineProTempPolicy. Unlike
  /// solve(), an infeasible state yields the throughput fallback (see
  /// FrequencyAssignment), which also updates the workspace's kThroughput
  /// hint.
  FrequencyAssignment solve_from_state(
      const linalg::Vector& node_temps, double ftarget_hz,
      convex::SolverWorkspace* workspace = nullptr) const;

  /// Highest supportable average frequency [Hz] from `tstart` (Fig. 9), or
  /// std::nullopt if even near-zero frequencies violate the constraints.
  /// Also reports the maximizing per-core frequencies (Fig. 10).
  struct ThroughputResult {
    double average_frequency = 0.0;
    linalg::Vector frequencies;
  };
  std::optional<ThroughputResult> max_supported_frequency(
      double tstart_celsius,
      convex::SolverWorkspace* workspace = nullptr) const;
  /// Same, from an arbitrary measured initial state.
  std::optional<ThroughputResult> max_supported_frequency_from_state(
      const linalg::Vector& node_temps,
      convex::SolverWorkspace* workspace = nullptr) const;

  /// True if some temperature (or budget) row is violated even with every
  /// core at sigma_floor; rows are monotone in sigma, so no frequency
  /// vector is then safe. This O(rows*n) certificate is what the solves
  /// check before running phase-I (diagnostics / tests).
  bool thermal_rows_infeasible(const linalg::Vector& node_temps) const;

  /// The program solve_from_state() hands the barrier solver for this state
  /// and target (diagnostics / tests: KKT checks of a solve's optimum).
  convex::BarrierProblem program_from_state(const linalg::Vector& node_temps,
                                            double ftarget_hz) const;
  /// Barrier options for a warm-started solve: the seed is near-optimal, so
  /// the outer loop starts at a sharper barrier parameter.
  convex::BarrierOptions warm_options() const;

  const ProTempConfig& config() const noexcept { return config_; }
  std::size_t horizon_steps() const noexcept { return steps_; }
  std::size_t num_cores() const noexcept { return num_cores_; }
  const arch::Platform& platform() const noexcept { return platform_; }

  /// Number of linear constraint rows in the variable-frequency program
  /// (diagnostics / tests).
  std::size_t num_linear_rows() const noexcept { return g_.rows(); }

 private:
  /// Right-hand side of the cached linear block for a uniform tstart.
  linalg::Vector rhs_for(double tstart) const;
  /// Right-hand side for an arbitrary initial node-temperature vector.
  linalg::Vector rhs_for_state(const linalg::Vector& node_temps) const;
  /// A strictly feasible starting sigma (+ tgrad) for the thermal rows, or
  /// nullopt if none exists. Adds phase-I's Newton steps to `newton`.
  std::optional<linalg::Vector> feasible_start(
      const convex::LinearConstraints& lin, convex::SolverWorkspace* workspace,
      std::size_t& newton) const;
  /// The sigma_floor certificate behind thermal_rows_infeasible().
  bool floor_certifies_infeasible(const convex::LinearConstraints& lin) const;
  /// Seeds `x0` from the workspace hint in `slot` if one exists and is
  /// strictly feasible for `problem` (blending slightly toward the interior
  /// when the raw hint has lost its margin to the rhs shift). Updates the
  /// workspace warm-start counters.
  bool try_warm_start(const convex::BarrierProblem& problem,
                      convex::SolverWorkspace* workspace,
                      convex::SolverWorkspace::Slot slot,
                      linalg::Vector& x0) const;
  /// The average-frequency expression offset - sum sqrt(sigma) (workload
  /// constraint / max-throughput objective): per-class fmax-weighted on a
  /// heterogeneous platform, the classic NegSqrtSum otherwise.
  std::shared_ptr<convex::ScalarFunction> neg_freq_sum(double offset) const;
  /// The power-minimization program over the linear block `lin`.
  convex::BarrierProblem program_with(const convex::LinearConstraints& lin,
                                      double ftarget_hz) const;
  /// Fills out.frequencies, average_frequency and total_power from x.
  void serve(const linalg::Vector& x, FrequencyAssignment& out) const;
  /// Shared solve paths once the rhs is fixed. `with_fallback` attaches the
  /// throughput fallback to infeasible outcomes (solve_from_state).
  FrequencyAssignment solve_with_rhs(linalg::Vector rhs, double ftarget_hz,
                                     convex::SolverWorkspace* workspace,
                                     bool with_fallback) const;
  std::optional<ThroughputResult> max_throughput_with_rhs(
      linalg::Vector rhs, convex::SolverWorkspace* workspace) const;
  /// The max-throughput optimum over `lin` (warm from the kThroughput hint
  /// when usable, else cold), remembered in that slot; nullopt if no safe
  /// point exists or the solve fails. Adds its Newton steps to `newton`.
  std::optional<linalg::Vector> max_throughput(
      const convex::LinearConstraints& lin, convex::SolverWorkspace* workspace,
      std::size_t& newton) const;

  const arch::Platform& platform_;
  ProTempConfig config_;
  std::size_t steps_ = 0;
  std::size_t num_cores_ = 0;
  std::size_t num_sigma_ = 0;   ///< n (variable) or 1 (uniform)
  bool has_tgrad_ = false;
  std::size_t num_vars_ = 0;    ///< num_sigma_ + (has_tgrad_ ? 1 : 0)
  /// Per-node ceilings beyond the core rows: platform ceilings (stack DRAM)
  /// followed by resolved config_.node_ceilings. Empty on classic builds,
  /// keeping the row layout (and every cached golden) bitwise-identical.
  std::vector<arch::ThermalCeiling> ceilings_;
  std::size_t num_monitored_ = 0;  ///< num_cores_ + ceilings_.size()
  /// Heterogeneous per-core laws (arch::Platform core classes). When false,
  /// every coefficient below is assembled with the exact legacy homogeneous
  /// expressions so existing artifacts stay bitwise-stable.
  bool het_ = false;
  std::vector<double> core_pmax_;   ///< per-core pmax [W] (het only)
  std::vector<double> core_fmax_;   ///< per-core fmax [Hz] (het only)
  double total_core_pmax_ = 0.0;
  std::vector<double> workload_weights_;  ///< fmax_c / fmax ref (het only)

  // Cached linear block: G x <= h0 + S t0 (uniform tstart: h0 + tstart*h1
  // with h1 = S 1).
  linalg::Matrix g_;
  linalg::Vector h0_;
  linalg::Vector h1_;
  linalg::Matrix state_gain_;  ///< rows x num_nodes
};

}  // namespace protemp::core
