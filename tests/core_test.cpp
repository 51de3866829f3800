// Tests for the Pro-Temp optimizer, the Phase-1 frequency table, and the
// three DFS policies. The central property — cores never exceed tmax —
// is verified by simulating the optimizer's own assignments against the
// discrete thermal model.
#include <cmath>
#include <cstring>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "api/registry.hpp"
#include "arch/niagara.hpp"
#include "convex/barrier.hpp"
#include "core/frequency_table.hpp"
#include "core/optimizer.hpp"
#include "core/policies.hpp"
#include "sim/policies.hpp"
#include "thermal/model.hpp"
#include "util/units.hpp"

namespace protemp::core {
namespace {

using linalg::Vector;
using util::mhz;

const arch::Platform& niagara() {
  static const arch::Platform platform = arch::make_niagara_platform();
  return platform;
}

/// Coarse-horizon config for fast tests (25 steps instead of 250).
ProTempConfig fast_config(bool gradient = false) {
  ProTempConfig config;
  config.dt = 4e-3;
  config.dfs_period = 0.1;
  config.minimize_gradient = gradient;
  config.gradient_step_stride = 5;
  return config;
}

/// Simulates one DFS window of the discrete model at the optimizer's dt and
/// returns the maximum core temperature reached.
double simulate_window_max_temp(const arch::Platform& platform,
                                const ProTempConfig& config, double tstart,
                                const Vector& frequencies) {
  const thermal::ThermalModel model(platform.network(), config.dt);
  Vector core_watts(platform.num_cores());
  double activity = 0.0;
  for (std::size_t c = 0; c < platform.num_cores(); ++c) {
    const double f = frequencies[c];
    core_watts[c] = platform.core_power().dynamic_power(f);
    activity += core_watts[c] / platform.core_pmax();
  }
  activity /= static_cast<double>(platform.num_cores());
  const Vector full = platform.full_power(core_watts, activity);
  Vector t(platform.num_nodes(), tstart);
  double hottest = -1e300;
  const auto steps =
      static_cast<std::size_t>(std::llround(config.dfs_period / config.dt));
  for (std::size_t k = 0; k < steps; ++k) {
    t = model.step(t, full);
    for (const std::size_t node : platform.core_nodes()) {
      hottest = std::max(hottest, t[node]);
    }
  }
  return hottest;
}

// ---------------------------------------------------------------- optimizer --

TEST(Optimizer, ColdStartSupportsHighFrequency) {
  const ProTempOptimizer opt(niagara(), fast_config());
  const FrequencyAssignment result = opt.solve(50.0, mhz(400.0));
  ASSERT_TRUE(result.feasible) << to_string(result.status);
  EXPECT_GE(result.average_frequency, mhz(400.0) * 0.999);
  EXPECT_GT(result.total_power, 0.0);
}

TEST(Optimizer, WorkloadConstraintIsTightAtOptimum) {
  // Minimizing power pushes the average frequency down onto the target.
  const ProTempOptimizer opt(niagara(), fast_config());
  const FrequencyAssignment result = opt.solve(50.0, mhz(500.0));
  ASSERT_TRUE(result.feasible);
  EXPECT_NEAR(result.average_frequency, mhz(500.0), mhz(5.0));
}

TEST(Optimizer, HotStartRefusesHighFrequency) {
  const ProTempOptimizer opt(niagara(), fast_config());
  const FrequencyAssignment hot = opt.solve(99.0, mhz(900.0));
  EXPECT_FALSE(hot.feasible);
}

TEST(Optimizer, GuaranteeHoldsOnSimulatedWindow) {
  // The paper's core claim: the assignment keeps every core at or below
  // tmax at every discrete step of the window.
  const ProTempConfig config = fast_config();
  const ProTempOptimizer opt(niagara(), config);
  for (const double tstart : {50.0, 70.0, 85.0, 95.0}) {
    for (const double target : {mhz(300.0), mhz(600.0), mhz(900.0)}) {
      const FrequencyAssignment result = opt.solve(tstart, target);
      if (!result.feasible) continue;
      const double hottest =
          simulate_window_max_temp(niagara(), config, tstart,
                                   result.frequencies);
      EXPECT_LE(hottest, config.tmax + 1e-4)
          << "tstart=" << tstart << " target=" << util::to_mhz(target);
    }
  }
}

TEST(Optimizer, MaxSupportedFrequencyDecreasesWithTemperature) {
  const ProTempOptimizer opt(niagara(), fast_config());
  double previous = 1e18;
  for (const double tstart : {40.0, 60.0, 80.0, 90.0, 97.0}) {
    const auto result = opt.max_supported_frequency(tstart);
    ASSERT_TRUE(result.has_value()) << "tstart=" << tstart;
    EXPECT_LE(result->average_frequency, previous + mhz(1.0));
    previous = result->average_frequency;
  }
  EXPECT_LT(previous, niagara().fmax());  // hot start cannot run at fmax
}

TEST(Optimizer, VariableBeatsUniform) {
  // Section 5.3: non-uniform assignment supports a higher average workload.
  ProTempConfig variable = fast_config();
  ProTempConfig uniform = fast_config();
  uniform.uniform_frequency = true;
  const ProTempOptimizer opt_var(niagara(), variable);
  const ProTempOptimizer opt_uni(niagara(), uniform);
  for (const double tstart : {60.0, 80.0, 92.0}) {
    const auto var = opt_var.max_supported_frequency(tstart);
    const auto uni = opt_uni.max_supported_frequency(tstart);
    ASSERT_TRUE(var && uni);
    EXPECT_GE(var->average_frequency, uni->average_frequency - mhz(1.0))
        << "tstart=" << tstart;
  }
}

TEST(Optimizer, PeripheryCoresRunFasterThanMiddle) {
  // Section 5.3 / Fig. 10: P1 (next to a cache) faster than P2 (sandwiched).
  const ProTempOptimizer opt(niagara(), fast_config());
  const auto result = opt.max_supported_frequency(85.0);
  ASSERT_TRUE(result.has_value());
  const Vector& f = result->frequencies;
  // Cores are ordered P1..P8.
  EXPECT_GT(f[0], f[1]);  // P1 > P2
  EXPECT_GT(f[3], f[2]);  // P4 > P3
  EXPECT_GT(f[4], f[5]);  // P5 > P6
  EXPECT_GT(f[7], f[6]);  // P8 > P7
}

TEST(Optimizer, UniformModeGivesEqualFrequencies) {
  ProTempConfig config = fast_config();
  config.uniform_frequency = true;
  const ProTempOptimizer opt(niagara(), config);
  const FrequencyAssignment result = opt.solve(60.0, mhz(500.0));
  ASSERT_TRUE(result.feasible);
  for (std::size_t c = 1; c < result.frequencies.size(); ++c) {
    EXPECT_NEAR(result.frequencies[c], result.frequencies[0], 1.0);
  }
}

TEST(Optimizer, GradientTermReducesSpread) {
  // With the Eq. (4)-(5) machinery the per-step spread across cores must
  // not exceed the reported tgrad (checked on the simulated window).
  ProTempConfig config = fast_config(/*gradient=*/true);
  const ProTempOptimizer opt(niagara(), config);
  const FrequencyAssignment result = opt.solve(60.0, mhz(500.0));
  ASSERT_TRUE(result.feasible);
  EXPECT_GT(result.tgrad, 0.0);

  const thermal::ThermalModel model(niagara().network(), config.dt);
  Vector watts(niagara().num_cores());
  for (std::size_t c = 0; c < watts.size(); ++c) {
    watts[c] = niagara().core_power().dynamic_power(result.frequencies[c]);
  }
  double activity = 0.0;
  for (std::size_t c = 0; c < watts.size(); ++c) {
    activity += watts[c] / niagara().core_pmax();
  }
  activity /= static_cast<double>(watts.size());
  Vector t(niagara().num_nodes(), 60.0);
  const Vector full = niagara().full_power(watts, activity);
  const auto steps =
      static_cast<std::size_t>(std::llround(config.dfs_period / config.dt));
  for (std::size_t k = 0; k < steps; ++k) {
    t = model.step(t, full);
    double lo = 1e300, hi = -1e300;
    for (const std::size_t node : niagara().core_nodes()) {
      lo = std::min(lo, t[node]);
      hi = std::max(hi, t[node]);
    }
    // The bound is enforced exactly at the strided constraint steps; in
    // between, the smooth trajectory may exceed it by a small margin.
    if (k % config.gradient_step_stride == 0) {
      EXPECT_LE(hi - lo, result.tgrad + 1e-5) << "constrained step " << k;
    }
    EXPECT_LE(hi - lo, result.tgrad + 0.1) << "step " << k;
  }
}

TEST(Optimizer, ZeroTargetIsFeasibleUpToNearTmax) {
  const ProTempOptimizer opt(niagara(), fast_config());
  for (const double tstart : {30.0, 60.0, 90.0, 99.0}) {
    const FrequencyAssignment result = opt.solve(tstart, 0.0);
    EXPECT_TRUE(result.feasible) << "tstart=" << tstart;
  }
}

TEST(Optimizer, PaperHorizonStepCount) {
  ProTempConfig config;
  config.dt = 0.4e-3;
  config.dfs_period = 0.1;
  config.minimize_gradient = false;
  const ProTempOptimizer opt(niagara(), config);
  EXPECT_EQ(opt.horizon_steps(), 250u);  // paper Sec. 4: 250 steps
  EXPECT_GE(opt.num_linear_rows(), 250u * 8u);
}

TEST(Optimizer, SolveFromUniformStateMatchesScalarSolve) {
  const ProTempOptimizer opt(niagara(), fast_config());
  const double tstart = 75.0;
  const FrequencyAssignment scalar = opt.solve(tstart, mhz(500.0));
  const FrequencyAssignment state = opt.solve_from_state(
      Vector(niagara().num_nodes(), tstart), mhz(500.0));
  ASSERT_TRUE(scalar.feasible);
  ASSERT_TRUE(state.feasible);
  EXPECT_TRUE(state.frequencies.approx_equal(scalar.frequencies, mhz(1.0)));
  EXPECT_NEAR(state.total_power, scalar.total_power, 0.05);
}

TEST(Optimizer, NonUniformStateIsLessConservative) {
  // True state: cores warm but the package cool. The worst-case scalar
  // solve must support no more than the exact-state solve.
  const ProTempOptimizer opt(niagara(), fast_config());
  Vector t0(niagara().num_nodes(), 55.0);  // cool package and caches
  for (const std::size_t node : niagara().core_nodes()) t0[node] = 85.0;

  const auto exact = opt.max_supported_frequency_from_state(t0);
  const auto worst = opt.max_supported_frequency(85.0);  // max over nodes
  ASSERT_TRUE(exact && worst);
  EXPECT_GE(exact->average_frequency,
            worst->average_frequency - mhz(1.0));
  // And strictly better here: the cool spreader absorbs core heat.
  EXPECT_GT(exact->average_frequency,
            worst->average_frequency + mhz(10.0));
}

TEST(Optimizer, SolveFromStateGuaranteeHolds) {
  // Simulate the window from the *actual* non-uniform state and verify the
  // bound, exercising the state-response rows end to end.
  const ProTempConfig config = fast_config();
  const ProTempOptimizer opt(niagara(), config);
  Vector t0(niagara().num_nodes(), 60.0);
  for (const std::size_t node : niagara().core_nodes()) t0[node] = 88.0;
  const FrequencyAssignment result = opt.solve_from_state(t0, mhz(700.0));
  ASSERT_TRUE(result.feasible);

  const thermal::ThermalModel model(niagara().network(), config.dt);
  Vector watts(niagara().num_cores());
  double activity = 0.0;
  for (std::size_t c = 0; c < watts.size(); ++c) {
    watts[c] = niagara().core_power().dynamic_power(result.frequencies[c]);
    activity += watts[c] / niagara().core_pmax();
  }
  activity /= static_cast<double>(watts.size());
  const Vector full = niagara().full_power(watts, activity);
  Vector t = t0;
  const auto steps =
      static_cast<std::size_t>(std::llround(config.dfs_period / config.dt));
  for (std::size_t k = 0; k < steps; ++k) {
    t = model.step(t, full);
    for (const std::size_t node : niagara().core_nodes()) {
      EXPECT_LE(t[node], config.tmax + 1e-4);
    }
  }
}

TEST(Optimizer, StateVectorSizeValidated) {
  const ProTempOptimizer opt(niagara(), fast_config());
  EXPECT_THROW(opt.solve_from_state(Vector(3), mhz(500.0)),
               std::invalid_argument);
}

TEST(Optimizer, PowerBudgetConstraintRespected) {
  // Quadratic power law: an average of 400 MHz costs 8 * 4 * 0.4^2 =
  // 5.12 W (inside a 6 W budget); 500 MHz costs 8 W (outside it).
  ProTempConfig config = fast_config();
  config.power_budget_watts = 6.0;
  const ProTempOptimizer opt(niagara(), config);
  const FrequencyAssignment result = opt.solve(50.0, mhz(400.0));
  ASSERT_TRUE(result.feasible);
  EXPECT_LE(result.total_power, 6.0 + 1e-6);
  const FrequencyAssignment too_much = opt.solve(50.0, mhz(500.0));
  EXPECT_FALSE(too_much.feasible);
  // Same target without the budget is comfortably feasible.
  const ProTempOptimizer unbudgeted(niagara(), fast_config());
  EXPECT_TRUE(unbudgeted.solve(50.0, mhz(500.0)).feasible);
}

TEST(Optimizer, ConfigValidation) {
  ProTempConfig bad = fast_config();
  bad.dt = 0.0;
  EXPECT_THROW(ProTempOptimizer(niagara(), bad), std::invalid_argument);
  ProTempConfig bad2 = fast_config();
  bad2.gradient_step_stride = 0;
  EXPECT_THROW(ProTempOptimizer(niagara(), bad2), std::invalid_argument);
  ProTempConfig bad3 = fast_config();
  bad3.sigma_floor = 0.0;
  EXPECT_THROW(ProTempOptimizer(niagara(), bad3), std::invalid_argument);
}

// -------------------------------------------------------- infeasible windows --

bool same_bits(const Vector& a, const Vector& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

/// A measured-like overload state: every sensor between `hottest - 6` and
/// `hottest` degC (cores hottest), package nodes at the hottest reading as
/// OnlineProTempPolicy fills them.
Vector measured_like_state(const arch::Platform& platform, double hottest) {
  Vector t0(platform.num_nodes(), hottest);
  const std::size_t blocks = platform.floorplan().size();
  for (std::size_t b = 0; b < blocks; ++b) {
    t0[b] = hottest - 6.0 + 6.0 * static_cast<double>((b * 5) % 7) / 6.0;
  }
  return t0;
}

TEST(InfeasibleWindow, FloorCertificateAgreesWithPhaseI) {
  // Every registered platform family, on uniform and per-node states from
  // comfortably feasible to far too hot: the sigma_floor certificate holds
  // exactly when phase-I finds no strictly feasible point.
  for (const std::string name :
       {"niagara8", "mesh:2x3", "het:niagara8@4xbig+4xlittle",
        "stack:2x2+2dram"}) {
    const api::StatusOr<arch::Platform> platform = api::make_platform(name);
    ASSERT_TRUE(platform.ok()) << platform.status().to_string();
    const ProTempOptimizer opt(*platform, fast_config(/*gradient=*/true));
    std::size_t certified = 0;
    std::size_t states = 0;
    for (double hottest = 60.0; hottest <= 150.0; hottest += 7.5) {
      for (const Vector& t0 :
           {Vector(platform->num_nodes(), hottest),
            measured_like_state(*platform, hottest)}) {
        const convex::BarrierProblem program = opt.program_from_state(t0, 0.0);
        convex::BarrierProblem probe;
        probe.objective = std::make_shared<convex::AffineFunction>(
            Vector(program.num_variables()), 0.0);
        probe.linear = program.linear;
        const Vector x0(program.num_variables(), 0.5);
        const bool phase1_found =
            convex::find_strictly_feasible(probe, x0, 1e-12).has_value();
        const bool certificate = opt.thermal_rows_infeasible(t0);
        EXPECT_EQ(certificate, !phase1_found)
            << name << " hottest=" << hottest;
        if (certificate) ++certified;
        ++states;
      }
    }
    // The grid spans both outcomes.
    EXPECT_GT(certified, 0u) << name;
    EXPECT_LT(certified, states) << name;
  }
}

TEST(InfeasibleWindow, CertifiedStateRunsNoNewtonStep) {
  const ProTempOptimizer opt(niagara(), fast_config(/*gradient=*/true));
  const Vector t0(niagara().num_nodes(), 130.0);
  ASSERT_TRUE(opt.thermal_rows_infeasible(t0));
  convex::SolverWorkspace ws;
  const FrequencyAssignment result = opt.solve_from_state(t0, mhz(500.0), &ws);
  EXPECT_FALSE(result.feasible);
  EXPECT_FALSE(result.throughput_fallback);
  EXPECT_TRUE(result.frequencies.empty());
  EXPECT_EQ(ws.stats().solves, 0u);
  EXPECT_EQ(result.newton_iterations, 0u);
}

TEST(InfeasibleWindow, PhaseIStepsAreCounted) {
  // A power budget between the sigma_floor point's power and the probe
  // point's (sigma = 1e-8) leaves only the thin band phase-I exists for.
  ProTempConfig config = fast_config();
  config.power_budget_watts =
      3e-9 * niagara().core_pmax() * static_cast<double>(niagara().num_cores());
  const ProTempOptimizer opt(niagara(), config);
  const Vector t0(niagara().num_nodes(), 60.0);
  ASSERT_FALSE(opt.thermal_rows_infeasible(t0));
  convex::SolverWorkspace ws;
  const FrequencyAssignment result = opt.solve_from_state(t0, 0.0, &ws);
  ASSERT_TRUE(result.feasible) << to_string(result.status);
  EXPECT_EQ(ws.stats().solves, 2u);  // phase-I, then the main solve
  EXPECT_EQ(result.newton_iterations, ws.stats().newton_steps);
}

TEST(InfeasibleWindow, FallbackIsBitwiseTheThroughputSolve) {
  // Overload states: the fallback solve_from_state carries must be exactly
  // what max_supported_frequency_from_state returns from the same
  // workspace, cold and warm, and leave the same kThroughput hint.
  for (const std::string name : {"niagara8", "het:niagara8@4xbig+4xlittle"}) {
    const api::StatusOr<arch::Platform> platform = api::make_platform(name);
    ASSERT_TRUE(platform.ok()) << platform.status().to_string();
    const ProTempOptimizer opt(*platform, fast_config(/*gradient=*/true));
    std::vector<Vector> states;
    for (const double hottest : {85.0, 90.0, 95.0, 99.0}) {
      states.push_back(Vector(platform->num_nodes(), hottest));
      states.push_back(measured_like_state(*platform, hottest));
    }
    // Carries hints from window to window, seeded by a feasible cool window
    // (which leaves both a kMain and a kThroughput hint).
    convex::SolverWorkspace warm;
    ASSERT_TRUE(opt.solve_from_state(Vector(platform->num_nodes(), 60.0),
                                     0.5 * platform->fmax(), &warm)
                    .feasible);
    for (const bool cold : {true, false}) {
      for (const Vector& t0 : states) {
        convex::SolverWorkspace base = cold ? convex::SolverWorkspace{} : warm;
        convex::SolverWorkspace a = base;
        convex::SolverWorkspace b = base;
        const FrequencyAssignment result =
            opt.solve_from_state(t0, 0.98 * platform->fmax(), &a);
        const auto reference = opt.max_supported_frequency_from_state(t0, &b);
        ASSERT_FALSE(result.feasible) << name;
        ASSERT_TRUE(reference.has_value()) << name;
        ASSERT_TRUE(result.throughput_fallback) << name;
        EXPECT_TRUE(same_bits(result.frequencies, reference->frequencies))
            << name << " t0[0]=" << t0[0] << " cold=" << cold;
        EXPECT_EQ(result.average_frequency, reference->average_frequency);
        const Vector* hint_a = a.hint(convex::SolverWorkspace::kThroughput);
        const Vector* hint_b = b.hint(convex::SolverWorkspace::kThroughput);
        ASSERT_TRUE(hint_a != nullptr && hint_b != nullptr);
        EXPECT_TRUE(same_bits(*hint_a, *hint_b));
        if (!cold) warm = a;
      }
    }
  }
}

// ----------------------------------------------- guarantee property sweep --

struct GuaranteeCase {
  double tstart;
  double ftarget_mhz;
  bool uniform;
};

class GuaranteeSweep : public ::testing::TestWithParam<GuaranteeCase> {};

TEST_P(GuaranteeSweep, NoFeasiblePointEverExceedsTmax) {
  // The paper's central claim, checked across the operating envelope and
  // both assignment modes: whenever Phase 1 declares a point feasible, the
  // simulated window never exceeds tmax.
  const GuaranteeCase param = GetParam();
  ProTempConfig config = fast_config();
  config.uniform_frequency = param.uniform;
  const ProTempOptimizer opt(niagara(), config);
  const FrequencyAssignment result =
      opt.solve(param.tstart, mhz(param.ftarget_mhz));
  if (!result.feasible) {
    GTEST_SKIP() << "point infeasible (allowed)";
  }
  const double hottest = simulate_window_max_temp(niagara(), config,
                                                  param.tstart,
                                                  result.frequencies);
  EXPECT_LE(hottest, config.tmax + 1e-4);
  // The workload constraint must also be met.
  EXPECT_GE(result.average_frequency, mhz(param.ftarget_mhz) * 0.999);
}

INSTANTIATE_TEST_SUITE_P(
    Envelope, GuaranteeSweep,
    ::testing::Values(
        // (exactly fmax has no strict interior — sigma = 1 on the bound —
        // so the hottest-demand case probes just below it)
        GuaranteeCase{40.0, 300.0, false}, GuaranteeCase{40.0, 990.0, false},
        GuaranteeCase{60.0, 500.0, false}, GuaranteeCase{60.0, 900.0, false},
        GuaranteeCase{75.0, 700.0, false}, GuaranteeCase{85.0, 400.0, false},
        GuaranteeCase{90.0, 300.0, false}, GuaranteeCase{95.0, 200.0, false},
        GuaranteeCase{98.0, 100.0, false}, GuaranteeCase{40.0, 800.0, true},
        GuaranteeCase{60.0, 600.0, true}, GuaranteeCase{75.0, 500.0, true},
        GuaranteeCase{85.0, 350.0, true}, GuaranteeCase{95.0, 150.0, true}));

// ------------------------------------------------------------------- table --

FrequencyTable small_table() {
  const ProTempOptimizer opt(niagara(), fast_config());
  return FrequencyTable::build(opt, {50.0, 70.0, 90.0, 100.0},
                               {mhz(200.0), mhz(500.0), mhz(800.0)});
}

TEST(Table, BuildPopulatesFeasibleCells) {
  const FrequencyTable table = small_table();
  EXPECT_EQ(table.rows(), 4u);
  EXPECT_EQ(table.cols(), 3u);
  EXPECT_GT(table.feasible_cells(), 0u);
  // Cold rows support at least as much as hot rows.
  EXPECT_GE(table.max_feasible_frequency(0),
            table.max_feasible_frequency(2));
}

TEST(Table, QueryRoundsTemperatureUp) {
  const FrequencyTable table = small_table();
  const auto q = table.query(55.0, mhz(500.0));
  ASSERT_NE(q.entry, nullptr);
  EXPECT_EQ(q.row, 1u);  // 55 rounds up to the 70-degree row
  EXPECT_FALSE(q.emergency);
}

TEST(Table, QueryFallsBackToLowerColumn) {
  const FrequencyTable table = small_table();
  // At 90 degC the 800 MHz column is likely infeasible; the query must
  // fall back to a feasible lower column rather than fail.
  const auto q = table.query(90.0, mhz(800.0));
  if (q.entry != nullptr) {
    EXPECT_LE(q.entry->average_frequency, mhz(800.0) + mhz(1.0));
  }
  const auto q_low = table.query(50.0, mhz(100.0));
  ASSERT_NE(q_low.entry, nullptr);
  EXPECT_EQ(q_low.col, 0u);  // smallest column serves tiny demand
}

TEST(Table, QueryBelowGridUsesFirstRow) {
  const FrequencyTable table = small_table();
  const auto q = table.query(20.0, mhz(500.0));  // colder than any row
  ASSERT_NE(q.entry, nullptr);
  EXPECT_EQ(q.row, 0u);  // first row still upper-bounds the true state
  EXPECT_FALSE(q.emergency);
}

TEST(Table, QueryExactGridPointsHitTheirCells) {
  const FrequencyTable table = small_table();
  const auto q = table.query(70.0, mhz(500.0));
  ASSERT_NE(q.entry, nullptr);
  EXPECT_EQ(q.row, 1u);
  EXPECT_EQ(q.col, 1u);
  EXPECT_FALSE(q.downgraded);
}

TEST(Table, QueryDemandAboveGridServesTopFeasibleColumn) {
  const FrequencyTable table = small_table();
  const auto q = table.query(50.0, mhz(5000.0));  // absurd demand
  ASSERT_NE(q.entry, nullptr);
  EXPECT_TRUE(q.downgraded);
  EXPECT_EQ(q.col, table.cols() - 1);
}

TEST(Table, QueryAboveGridIsEmergency) {
  const FrequencyTable table = small_table();
  const auto q = table.query(101.0, mhz(500.0));
  EXPECT_TRUE(q.emergency);
  EXPECT_EQ(q.entry, nullptr);
}

TEST(Table, SerializationRoundTrip) {
  const FrequencyTable table = small_table();
  std::stringstream buffer;
  table.save(buffer);
  const FrequencyTable loaded = FrequencyTable::load(buffer);
  ASSERT_EQ(loaded.rows(), table.rows());
  ASSERT_EQ(loaded.cols(), table.cols());
  ASSERT_EQ(loaded.feasible_cells(), table.feasible_cells());
  for (std::size_t r = 0; r < table.rows(); ++r) {
    for (std::size_t c = 0; c < table.cols(); ++c) {
      const auto& a = table.cell(r, c);
      const auto& b = loaded.cell(r, c);
      ASSERT_EQ(a.has_value(), b.has_value());
      if (a) {
        EXPECT_TRUE(a->frequencies.approx_equal(b->frequencies, 1e-9));
        EXPECT_NEAR(a->total_power, b->total_power, 1e-12);
      }
    }
  }
}

TEST(Table, GridValidation) {
  EXPECT_THROW(FrequencyTable({}, {1.0}, 8), std::invalid_argument);
  EXPECT_THROW(FrequencyTable({1.0, 1.0}, {1.0}, 8), std::invalid_argument);
  EXPECT_THROW(FrequencyTable({2.0, 1.0}, {1.0}, 8), std::invalid_argument);
  EXPECT_THROW(FrequencyTable({1.0}, {1.0}, 0), std::invalid_argument);
  FrequencyTable table({1.0}, {1.0}, 2);
  EXPECT_THROW(table.cell(5, 0), std::out_of_range);
  EXPECT_THROW(
      table.set_cell(0, 0, FrequencyTable::Entry{Vector(3), 0.0, 0.0}),
      std::invalid_argument);
}

// ----------------------------------------------------------------- policies --

sim::ControllerView make_view(double temp, double backlog) {
  sim::ControllerView view;
  view.num_cores = 8;
  view.dfs_period = 0.1;
  view.fmax = 1e9;
  view.core_temps = Vector(8, temp);
  view.sensor_temps = Vector(13, temp);
  view.backlog_work = backlog;
  return view;
}

TEST(Policies, NoTcTracksDemandOnly) {
  NoTcPolicy policy;
  const Vector f = policy.on_window(make_view(150.0, 0.4));
  for (std::size_t c = 0; c < 8; ++c) {
    EXPECT_DOUBLE_EQ(f[c], 0.5e9);  // ignores the absurd temperature
  }
}

TEST(Policies, BasicDfsShutsDownHotCores) {
  BasicDfsPolicy policy({90.0, false});
  sim::ControllerView view = make_view(50.0, 10.0);
  view.core_temps[2] = 95.0;
  view.core_temps[5] = 90.0;  // boundary: >= trips
  const Vector f = policy.on_window(view);
  EXPECT_DOUBLE_EQ(f[2], 0.0);
  EXPECT_DOUBLE_EQ(f[5], 0.0);
  EXPECT_GT(f[0], 0.0);
  EXPECT_EQ(policy.trips(), 2u);
}

TEST(Policies, BasicDfsContinuousTripLatches) {
  BasicDfsPolicy policy({90.0, true});
  policy.reset();
  sim::ControllerView view = make_view(50.0, 10.0);
  Vector f = policy.on_window(view);
  Vector temps(8, 50.0);
  temps[3] = 91.0;
  EXPECT_TRUE(policy.on_sample(0.01, temps, f));
  EXPECT_DOUBLE_EQ(f[3], 0.0);
  // Already latched: no further change reported for the same core.
  EXPECT_FALSE(policy.on_sample(0.02, temps, f));
}

TEST(Policies, ProTempUsesTableAndTracksStats) {
  ProTempPolicy policy(small_table());
  policy.reset();
  const Vector f = policy.on_window(make_view(55.0, 0.4));
  ASSERT_EQ(f.size(), 8u);
  EXPECT_GT(f.sum(), 0.0);
  EXPECT_EQ(policy.stats().windows, 1u);

  // Over-hot sensor: emergency shutdown.
  const Vector f_hot = policy.on_window(make_view(130.0, 0.4));
  for (std::size_t c = 0; c < 8; ++c) EXPECT_DOUBLE_EQ(f_hot[c], 0.0);
  EXPECT_EQ(policy.stats().emergencies, 1u);
}

TEST(Policies, ProTempNamesAndReset) {
  ProTempPolicy policy(small_table());
  EXPECT_EQ(policy.name(), "pro-temp");
  (void)policy.on_window(make_view(55.0, 0.4));
  policy.reset();
  EXPECT_EQ(policy.stats().windows, 0u);
  NoTcPolicy no_tc;
  EXPECT_EQ(no_tc.name(), "no-tc");
  BasicDfsPolicy basic;
  EXPECT_EQ(basic.name(), "basic-dfs");
}

TEST(Policies, OnlineInfeasibleWindowRunsOneSolve) {
  // Overload: full demand from 95 degC cannot be met. Each window decides
  // with one barrier solve (the throughput lift, whose optimum is served)
  // and serves a nonzero command.
  auto opt = std::make_shared<const ProTempOptimizer>(
      niagara(), fast_config(/*gradient=*/true));
  OnlineProTempPolicy policy(opt);
  policy.reset();
  for (int window = 0; window < 4; ++window) {
    const std::size_t solves = policy.workspace().stats().solves;
    const std::size_t infeasible = policy.stats().infeasible;
    const Vector f = policy.on_window(make_view(95.0, 10.0));
    EXPECT_EQ(policy.stats().infeasible, infeasible + 1);
    EXPECT_EQ(policy.workspace().stats().solves, solves + 1)
        << "window " << window;
    EXPECT_GT(f.sum(), 0.0);
  }
}

TEST(Policies, BudgetedInfeasibleWindowServesTheLiftIncumbent) {
  // With a Newton budget, the throughput lift expires; its incumbent is
  // served at once (no warm fallback, no cold retry) and is thermally safe.
  ProTempConfig config = fast_config(/*gradient=*/true);
  config.solver.max_newton_total = 4;
  auto opt = std::make_shared<const ProTempOptimizer>(niagara(), config);
  const FrequencyAssignment direct = opt->solve_from_state(
      Vector(niagara().num_nodes(), 95.0), niagara().fmax());
  EXPECT_FALSE(direct.feasible);
  EXPECT_TRUE(direct.throughput_fallback);
  EXPECT_EQ(direct.status, convex::SolveStatus::kBudgetExpired);

  OnlineProTempPolicy policy(opt);
  policy.reset();
  for (int window = 0; window < 3; ++window) {
    const std::size_t solves = policy.workspace().stats().solves;
    const Vector f = policy.on_window(make_view(95.0, 10.0));
    EXPECT_EQ(policy.workspace().stats().solves, solves + 1);
    EXPECT_GT(f.sum(), 0.0);
    EXPECT_LE(simulate_window_max_temp(niagara(), config, 95.0, f),
              config.tmax + 1e-4);
  }
  EXPECT_EQ(policy.workspace().stats().budget_expired, 3u);
}

}  // namespace
}  // namespace protemp::core
