// Closed-loop DFS-window benchmark of the Pro-Temp controller.
//
//   perfbench --workload <name|all> --seed <n> --seconds <s> --trace <0|1>
//             [--spans <dir>]
//
// Each workload generates its task trace from --seed (untimed input
// creation), then drives sim::MulticoreSimulator::run in closed loop over an
// api::ControlSession: every plant step hands one telemetry frame to
// ControlSession::step and applies the command that comes back. One episode
// is a fixed number of DFS windows; episodes repeat on the same trace for
// --seconds of closed-loop time (at least two, so the quality metrics are
// checked to reproduce exactly). Every episode replays the same
// windows, so each window's latency is its fastest over the episodes (the
// least disturbed by other load on the host), then summarised over windows;
// realtime_factor likewise sums each window's fastest closed-loop time.
//
// --trace 0 prints the end-to-end metrics. --trace 1 runs one untraced
// and one traced episode and prints the per-layer metrics: spans
// are taken here, around the calls into each layer (api step, core
// on_window through a DfsPolicy decorator, convex through the solver
// workspace counters), never inside the program. With --spans, the traced
// episode's per-window spans are written to <dir>/spans-<workload>-seed<n>.csv.
//
// Output checks fail the run (exit 1, "correct": false): every step and
// assignment returns OK; every commanded frequency lies in [0, core fmax]
// and is a multiple of the frequency quantum; no core exceeds tmax; the
// quality metrics repeat bitwise across episodes; and, traced on
// paper-mpc, a cold-started twin replaying the same telemetry commands the
// same frequencies (relative checksum drift < 1e-6).
//
// The last line of stdout is one JSON object: correct, attempted (api steps),
// failed (failed steps and assignments, rejected commands) and metrics.
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "api/protemp.hpp"
#include "core/frequency_table.hpp"
#include "core/optimizer.hpp"
#include "core/policies.hpp"
#include "convex/workspace.hpp"
#include "linalg/cholesky.hpp"
#include "linalg/kernels/kernels.hpp"
#include "linalg/matrix.hpp"
#include "stats.hpp"
#include "workload/generator.hpp"
#include "workload/profiles.hpp"

namespace {

using namespace protemp;
using perfbench::SolverCounters;
using Clock = std::chrono::steady_clock;

double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// DVFS step of the served commands. Flooring to it only lowers power, so
/// it cannot break the Pro-Temp guarantee; it gives the quantization check
/// something to check.
constexpr double kQuantumHz = 10e6;
/// Relative command-checksum agreement of the cold twin (as in
/// bench_session_step).
constexpr double kTwinDriftLimit = 1e-6;
/// Windows of the paper-mpc cold twin replay (cold solves cost ~2x warm).
constexpr std::size_t kTwinWindows = 12;

enum class Load {
  kMixedMean,     ///< the mixed profiles, each at its long-run mean load
  kComputeBurst,  ///< the compute-intensive profile at its burst load
};

struct Workload {
  std::string name;
  std::string platform;
  std::string policy;
  Load load = Load::kMixedMean;
  std::optional<double> initial_temperature;
  std::size_t windows = 0;  ///< DFS windows per episode
  /// ControlSession::create calls behind setup_s: `setups` before the first
  /// episode and `setups_between` after every episode, so that the samples
  /// span the run rather than one moment of the host's load.
  std::size_t setups = 0;
  std::size_t setups_between = 0;
  api::Options dfs_options;
};

const std::vector<Workload>& workloads() {
  static const std::vector<Workload> all = {
      {"paper-mpc", "niagara8", "pro-temp-online", Load::kMixedMean,
       std::nullopt, 30, 7, 7, {}},
      {"overload-mpc", "niagara8", "pro-temp-online", Load::kComputeBurst,
       90.0, 24, 7, 7, {}},
      // Its create builds the Phase-1 table. On the paper's 11x10 grid that
      // is ~20 s per build here, too long to sample setup_s three times in
      // a run; this 6x5 grid (tstart 50..100 step 10, ftarget 200..1000 MHz
      // step 200) runs the same per-cell solves, 30 of them.
      {"table-sim", "niagara8", "pro-temp", Load::kMixedMean, std::nullopt,
       3000, 3, 0,
       api::Options()
           .set("tstart-step", 10.0)
           .set("ftarget-min-mhz", 200.0)
           .set("ftarget-step-mhz", 200.0)},
  };
  return all;
}

/// The paper's configuration: tmax 100 degC, 100 ms window, 0.4 ms step,
/// 250-step horizon, gradient term on with stride 10.
api::ScenarioSpec scenario_of(const Workload& w) {
  api::ScenarioSpec spec;
  spec.name = "perfbench-" + w.name;
  spec.platform = w.platform;
  spec.dfs_policy = w.policy;
  spec.dfs_options = w.dfs_options;
  spec.optimizer.tmax = 100.0;
  spec.optimizer.dfs_period = 0.1;
  spec.optimizer.dt = 0.4e-3;
  spec.optimizer.minimize_gradient = true;
  spec.optimizer.gradient_step_stride = 10;
  spec.sim.tmax = 100.0;
  spec.sim.dfs_period = 0.1;
  spec.sim.dt = 0.4e-3;
  spec.sim.frequency_quantum = kQuantumHz;
  spec.sim.initial_temperature = w.initial_temperature;
  return spec;
}

std::size_t steps_per_window(const api::ScenarioSpec& spec) {
  return static_cast<std::size_t>(
      std::llround(spec.sim.dfs_period / spec.sim.dt));
}

/// Simulated duration of one episode: `windows` full windows plus the frame
/// of the next boundary, so the run ends on a decision whose telemetry
/// carries the backlog that delivered work is computed from.
double episode_duration(const api::ScenarioSpec& spec, std::size_t windows) {
  const double steps =
      static_cast<double>(windows * steps_per_window(spec) + 1);
  return (steps - 0.5) * spec.sim.dt;
}

/// The seed's task trace. The profiles' on/off phases last seconds, as long
/// as a whole MPC episode, so a phase-modulated trace would make one seed
/// idle and the next saturated. Each profile instead offers a constant load
/// (its long-run mean, or its burst level for overload); seeds differ only in
/// Poisson arrival times and task sizes.
workload::TaskTrace make_trace(const Workload& w, double duration,
                               std::uint64_t seed, std::size_t cores) {
  std::vector<workload::BenchmarkProfile> profiles =
      w.load == Load::kComputeBurst ? workload::compute_intensive_profiles()
                                    : workload::mixed_benchmark_profiles();
  for (workload::BenchmarkProfile& p : profiles) {
    const double load = w.load == Load::kComputeBurst
                            ? p.burst_utilization
                            : p.average_utilization();
    p.burst_utilization = load;
    p.idle_utilization = load;
  }
  workload::GeneratorConfig config;
  config.cores = cores;
  config.duration = duration;
  config.seed = seed;
  return workload::generate_trace(profiles, config);
}

[[noreturn]] void die(const std::string& what) {
  std::fprintf(stderr, "perfbench: %s\n", what.c_str());
  std::exit(2);
}

template <typename T>
T unwrap(api::StatusOr<T> value, const char* what) {
  if (!value.ok()) die(std::string(what) + ": " + value.status().to_string());
  return std::move(value).value();
}

// ------------------------------------------------------------ the loop --

/// One DFS window as the api layer saw it.
struct WindowSample {
  double decide_s = 0.0;  ///< boundary ControlSession::step, frame to command
  double steady_s = 0.0;  ///< sum over the window's non-boundary steps
  std::size_t steady_steps = 0;
  double steady_fast_s = 0.0;  ///< mean of the fastest tenth of them
  double wall_s = 0.0;    ///< closed-loop time from this boundary to the next
  bool ok = true;
};

/// The closed-loop controller handed to MulticoreSimulator::run: forwards
/// every frame to ControlSession::step and every placement to assign(),
/// times the step, and checks each new command.
class LoopDriver final : public sim::Controller {
 public:
  LoopDriver(api::ControlSession& session, double quantum)
      : session_(session), quantum_(quantum) {
    const arch::Platform& platform = session.platform();
    for (std::size_t c = 0; c < platform.num_cores(); ++c) {
      core_fmax_.push_back(platform.core_fmax(c));
    }
  }

  /// Keeps every frame of the first `windows` windows (cold-twin replay).
  void capture_frames(std::size_t windows) { capture_windows_ = windows; }

  void reset() override {
    session_.reset();
    windows_.clear();
    frames_.clear();
    frequencies_ = linalg::Vector(session_.num_cores());
  }

  const linalg::Vector& on_telemetry(const sim::TelemetryFrame& frame) override {
    const bool boundary = session_.next_step_is_window_boundary();
    const Clock::time_point start = Clock::now();
    api::StatusOr<api::ActuationCommand> command = session_.step(frame);
    const double elapsed = seconds_between(start, Clock::now());
    ++steps_;
    if (boundary) {
      close_window(start);
      window_start_ = start;
      WindowSample sample;
      sample.decide_s = elapsed;
      sample.ok = command.ok();
      windows_.push_back(sample);
      last_boundary_time_ = frame.time;
      last_backlog_ = frame.backlog_work;
    } else if (!windows_.empty()) {
      windows_.back().steady_s += elapsed;
      ++windows_.back().steady_steps;
      steady_times_.push_back(elapsed);
    }
    if (windows_.size() <= capture_windows_) frames_.push_back(frame);
    if (!command.ok()) {
      note_failure("step", command.status().to_string());
      return frequencies_;  // the previous command stays in force
    }
    if (command->window_boundary || command->intervened) {
      check_command(command->frequencies);
    }
    frequencies_ = command->frequencies;
    return frequencies_;
  }

  std::size_t pick_core(const sim::AssignmentContext& ctx) override {
    api::StatusOr<std::size_t> core = session_.assign(ctx);
    if (core.ok()) return *core;
    note_failure("assign", core.status().to_string());
    return ctx.idle_cores.front();
  }

  /// Closes the last window at the end of the run.
  std::vector<WindowSample> finish(Clock::time_point end) {
    close_window(end);
    return windows_;
  }
  const std::vector<sim::TelemetryFrame>& frames() const { return frames_; }
  std::size_t steps() const { return steps_; }
  std::size_t failures() const { return failures_; }
  std::size_t bad_commands() const { return bad_commands_; }
  const std::string& first_error() const { return first_error_; }
  double last_boundary_time() const { return last_boundary_time_; }
  double last_backlog() const { return last_backlog_; }

 private:
  void close_window(Clock::time_point end) {
    if (windows_.empty()) return;
    WindowSample& w = windows_.back();
    w.wall_s = seconds_between(window_start_, end);
    if (!steady_times_.empty()) {
      const std::size_t k = std::max<std::size_t>(1, steady_times_.size() / 10);
      std::nth_element(steady_times_.begin(), steady_times_.begin() + (k - 1),
                       steady_times_.end());
      double sum = 0.0;
      for (std::size_t i = 0; i < k; ++i) sum += steady_times_[i];
      w.steady_fast_s = sum / static_cast<double>(k);
      steady_times_.clear();
    }
  }

  void note_failure(const char* where, const std::string& what) {
    ++failures_;
    if (first_error_.empty()) first_error_ = std::string(where) + ": " + what;
  }

  void check_command(const linalg::Vector& f) {
    for (std::size_t c = 0; c < f.size(); ++c) {
      const double units = f[c] / quantum_;
      const bool in_range = f[c] >= 0.0 && f[c] <= core_fmax_[c];
      const bool on_grid =
          std::abs(units - std::round(units)) <= 1e-9 * std::max(1.0, units);
      if (!in_range || !on_grid) {
        ++bad_commands_;
        if (first_error_.empty()) {
          char buf[128];
          std::snprintf(buf, sizeof buf, "command: core %zu at %.6f MHz", c,
                        f[c] / 1e6);
          first_error_ = buf;
        }
        return;
      }
    }
  }

  api::ControlSession& session_;
  double quantum_;
  std::vector<double> core_fmax_;
  std::vector<WindowSample> windows_;
  Clock::time_point window_start_;
  std::vector<double> steady_times_;  ///< the open window's steady steps
  std::vector<sim::TelemetryFrame> frames_;
  std::size_t capture_windows_ = 0;
  linalg::Vector frequencies_;
  std::size_t steps_ = 0;
  std::size_t failures_ = 0;
  std::size_t bad_commands_ = 0;
  std::string first_error_;
  double last_boundary_time_ = 0.0;
  double last_backlog_ = 0.0;
};

/// Seeded, deterministic outcome of one episode.
struct Quality {
  double energy_nj_per_cycle = 0.0;
  double mean_freq_mhz = 0.0;
  double tasks_completed = 0.0;
  double violation_frac = 0.0;
  double peak_temp_c = 0.0;

  bool operator==(const Quality&) const = default;
};

struct Episode {
  double wall_s = 0.0;  ///< MulticoreSimulator::run
  double sim_s = 0.0;
  std::vector<WindowSample> windows;
  std::vector<sim::TelemetryFrame> frames;  ///< when capture was asked for
  Quality quality;
  std::size_t steps = 0;
  std::size_t failures = 0;
  std::size_t bad_commands = 0;
  std::string first_error;
};

Episode run_episode(api::ControlSession& session,
                    const workload::TaskTrace& trace, double duration,
                    std::size_t capture_windows = 0) {
  LoopDriver driver(session, session.sim_config().frequency_quantum);
  driver.capture_frames(capture_windows);
  sim::MulticoreSimulator simulator(session.platform(), session.sim_config());
  const Clock::time_point start = Clock::now();
  const sim::SimResult result = simulator.run(trace, driver, duration);
  const Clock::time_point end = Clock::now();
  Episode out;
  out.wall_s = seconds_between(start, end);
  out.sim_s = result.sim_time;
  out.windows = driver.finish(end);
  out.frames = driver.frames();
  out.steps = driver.steps();
  out.failures = driver.failures();
  out.bad_commands = driver.bad_commands();
  out.first_error = driver.first_error();

  // Delivered work up to the final boundary: arrivals admitted by then
  // (the simulator admits arrival_time <= now) minus the backlog it reported.
  double arrived = 0.0;
  for (std::size_t i = 0; i < trace.size(); ++i) {
    if (trace[i].arrival_time <= driver.last_boundary_time()) {
      arrived += trace[i].work;
    }
  }
  const double cycles =
      (arrived - driver.last_backlog()) * session.platform().fmax();
  out.quality.energy_nj_per_cycle =
      cycles > 0.0 ? 1e9 * result.metrics.total_energy_joules() / cycles : 0.0;
  out.quality.mean_freq_mhz = result.mean_frequency / 1e6;
  out.quality.tasks_completed = static_cast<double>(result.tasks_completed);
  out.quality.violation_frac = result.metrics.violation_fraction();
  out.quality.peak_temp_c = result.metrics.max_temp_seen();
  return out;
}

// ------------------------------------------------------------- output --

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

class Report {
 public:
  void add(const std::string& name, double value, const std::string& unit) {
    metrics_.push_back({name, value, unit});
  }
  void print_lines(const std::string& workload) const {
    for (const Metric& m : metrics_) {
      std::printf("%-14s %-36s %16.6f %s\n", workload.c_str(), m.name.c_str(),
                  m.value, m.unit.c_str());
    }
  }
  const std::vector<Metric>& metrics() const { return metrics_; }

 private:
  std::vector<Metric> metrics_;
};

struct Outcome {
  Report report;  ///< the metrics of the JSON result
  Report notes;   ///< printed only
  std::size_t attempted = 0;
  std::size_t failed = 0;
  bool correct = true;
  std::vector<std::string> problems;

  void fail(const std::string& what) {
    correct = false;
    problems.push_back(what);
  }
};

/// Restarts the kernel's peak-RSS count at the current RSS, so that
/// peak_rss_mb excludes the transient of input creation (the trace
/// generator's vector growth makes that peak jump with the task count).
void reset_peak_rss() {
  if (std::FILE* f = std::fopen("/proc/self/clear_refs", "w")) {
    std::fputs("5", f);
    std::fclose(f);
  }
}

/// Peak resident memory [MiB]: VmHWM (since reset_peak_rss), else the
/// process lifetime's ru_maxrss.
double peak_rss_mb() {
  if (std::FILE* f = std::fopen("/proc/self/status", "r")) {
    char line[256];
    double kib = -1.0;
    while (std::fgets(line, sizeof line, f) != nullptr) {
      if (std::sscanf(line, "VmHWM: %lf kB", &kib) == 1) break;
    }
    std::fclose(f);
    if (kib >= 0.0) return kib / 1024.0;
  }
  struct rusage usage;
  std::memset(&usage, 0, sizeof usage);
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB -> MiB
}

/// Folds one episode into the run's step counts and correctness verdict.
void check_episode(const Episode& e, const Quality& first, Outcome& outcome) {
  outcome.attempted += e.steps;
  outcome.failed += e.failures + e.bad_commands;
  if (e.failures + e.bad_commands > 0) {
    outcome.fail(e.first_error.empty() ? "failed steps" : e.first_error);
  }
  if (e.quality.violation_frac != 0.0) {
    outcome.fail("thermal violation: core time above tmax");
  }
  if (!(e.quality == first)) {
    outcome.fail("quality metrics differ between episodes of one seed");
  }
}

// ----------------------------------------------------- untraced (timed) --

Outcome run_timed(const Workload& w, std::uint64_t seed, double seconds) {
  const api::ScenarioSpec spec = scenario_of(w);
  const double duration = episode_duration(spec, w.windows);
  const arch::Platform platform =
      unwrap(api::make_platform(spec.platform), "platform");
  const workload::TaskTrace trace =
      make_trace(w, duration, seed, platform.num_cores());
  reset_peak_rss();

  // The first session created serves every episode (each starts with
  // reset()); later ones are timed and dropped.
  std::vector<double> setup_s;
  std::unique_ptr<api::ControlSession> session;
  const auto time_setups = [&](std::size_t count) {
    for (std::size_t i = 0; i < count; ++i) {
      const Clock::time_point start = Clock::now();
      std::unique_ptr<api::ControlSession> created =
          unwrap(api::ControlSession::create(spec), "session");
      setup_s.push_back(seconds_between(start, Clock::now()));
      if (session == nullptr) session = std::move(created);
    }
  };
  time_setups(std::max<std::size_t>(1, w.setups));

  std::vector<Episode> episodes;
  double wall = 0.0;
  // Another episode only if, at the mean episode time so far, it ends
  // within --seconds.
  while (episodes.size() < 2 ||
         wall + wall / static_cast<double>(episodes.size()) <= seconds) {
    episodes.push_back(run_episode(*session, trace, duration));
    wall += episodes.back().wall_s;
    time_setups(w.setups_between);
  }

  Outcome outcome;
  const Quality& quality = episodes.front().quality;
  for (const Episode& e : episodes) check_episode(e, quality, outcome);

  // Per window: fastest over episodes; then p50/tail over windows.
  const std::size_t n_windows = episodes.front().windows.size();
  std::vector<double> decide_ms;
  std::vector<double> steady_ns;       // per-window fastest-tenth mean
  std::vector<double> steady_mean_ns;  // per-window mean
  double loop_s = 0.0;  // sum over windows of the fastest window wall time
  perfbench::DeadlineTally deadline;
  for (std::size_t i = 0; i < n_windows; ++i) {
    std::vector<double> decide;
    std::vector<double> steady;
    std::vector<double> steady_mean;
    std::vector<double> window_wall;
    for (const Episode& e : episodes) {
      if (e.windows.size() != n_windows) die("episode window counts differ");
      const WindowSample& s = e.windows[i];
      deadline.record(s.decide_s, s.ok, spec.sim.dfs_period);
      decide.push_back(1e3 * s.decide_s);
      window_wall.push_back(s.wall_s);
      if (s.steady_steps > 0) {
        steady.push_back(1e9 * s.steady_fast_s);
        steady_mean.push_back(1e9 * s.steady_s /
                              static_cast<double>(s.steady_steps));
      }
    }
    decide_ms.push_back(*std::min_element(decide.begin(), decide.end()));
    loop_s += *std::min_element(window_wall.begin(), window_wall.end());
    if (!steady.empty()) {
      steady_ns.push_back(*std::min_element(steady.begin(), steady.end()));
      steady_mean_ns.push_back(
          *std::min_element(steady_mean.begin(), steady_mean.end()));
    }
  }
  const perfbench::Tail tail = perfbench::tail_of(decide_ms);

  std::size_t step_failures = 0;
  for (const Episode& e : episodes) step_failures += e.failures;

  std::printf("# %s: seed %llu, %zu episodes x %zu windows (%.1f s "
              "simulated each), %zu setups, kernel backend %s\n",
              w.name.c_str(), static_cast<unsigned long long>(seed),
              episodes.size(), n_windows, duration, setup_s.size(),
              linalg::kernels::to_string(linalg::kernels::active_backend()));
  std::printf("# %s: window_decide_ms.tail is p%.1f over %zu windows "
              "(%zu beyond it)\n",
              w.name.c_str(), tail.percentile, tail.samples, tail.beyond);

  Report& r = outcome.report;
  r.add("setup_s", perfbench::median(setup_s), "s");
  r.add("window_decide_ms.p50", perfbench::median(decide_ms), "ms");
  r.add("window_decide_ms.tail", tail.value, "ms");
  r.add("realtime_factor", episodes.front().sim_s / loop_s, "x");
  r.add("steady_step_ns", perfbench::median(steady_ns), "ns");
  r.add("energy_nj_per_cycle", quality.energy_nj_per_cycle, "nJ/cycle");
  r.add("mean_freq_mhz", quality.mean_freq_mhz, "MHz");
  r.add("tasks_completed", quality.tasks_completed, "count");
  r.add("peak_temp_c", quality.peak_temp_c, "degC");
  r.add("peak_rss_mb", peak_rss_mb(), "MB");
  // Printed, not in the JSON result. The mean steady step swings with the
  // host's load far more than its fastest tenth; the rest are 0 on a
  // healthy run (the deadline one on table-sim too), and a bound relative
  // to a median of 0 bounds nothing.
  Report& notes = outcome.notes;
  notes.add("steady_step_mean_ns", perfbench::median(steady_mean_ns), "ns");
  notes.add("deadline_miss_frac", deadline.miss_frac(), "ratio");
  notes.add("violation_frac", quality.violation_frac, "ratio");
  notes.add("step_fail_frac",
            static_cast<double>(step_failures) /
                static_cast<double>(outcome.attempted),
            "ratio");
  return outcome;
}

// ------------------------------------------------------------- traced --

/// One window as the core and convex layers saw it.
struct CoreSpan {
  double on_window_s = 0.0;
  SolverCounters solver;   ///< workspace counter delta over the window
  bool infeasible = false;  ///< served by the throughput fallback
  double mean_output_hz = 0.0;  ///< raw policy output, pre-quantization
};

SolverCounters counters_of(const sim::DfsPolicy& policy) {
  const convex::SolverWorkspace* ws = policy.solver_workspace();
  if (ws == nullptr) return {};
  const convex::SolverWorkspace::Stats& s = ws->stats();
  return {s.solves, s.warm_started, s.warm_rejected, s.newton_steps,
          s.budget_expired};
}

/// Decorates the registry-built policy: times on_window and takes the
/// per-window deltas of the policy's and its workspace's counters.
class TracedPolicy final : public sim::DfsPolicy {
 public:
  TracedPolicy(std::unique_ptr<sim::DfsPolicy> inner,
               std::vector<CoreSpan>& spans)
      : inner_(std::move(inner)),
        online_(dynamic_cast<const core::OnlineProTempPolicy*>(inner_.get())),
        spans_(spans) {}

  std::string name() const override { return inner_->name(); }
  void reset() override {
    inner_->reset();
    spans_.clear();
  }
  linalg::Vector on_window(const sim::ControllerView& view) override {
    const SolverCounters before = counters_of(*inner_);
    const std::size_t infeasible_before = infeasible();
    const Clock::time_point start = Clock::now();
    linalg::Vector out = inner_->on_window(view);
    CoreSpan span;
    span.on_window_s = seconds_between(start, Clock::now());
    span.solver = counters_of(*inner_).since(before);
    span.infeasible = infeasible() != infeasible_before;
    double sum = 0.0;
    for (std::size_t c = 0; c < out.size(); ++c) sum += out[c];
    span.mean_output_hz = out.empty() ? 0.0 : sum / out.size();
    spans_.push_back(span);
    return out;
  }
  bool on_sample(double time, const linalg::Vector& core_temps,
                 linalg::Vector& frequencies) override {
    return inner_->on_sample(time, core_temps, frequencies);
  }
  std::any save_state() const override { return inner_->save_state(); }
  void load_state(const std::any& state) override { inner_->load_state(state); }
  const convex::SolverWorkspace* solver_workspace() const override {
    return inner_->solver_workspace();
  }

 private:
  std::size_t infeasible() const {
    return online_ == nullptr ? 0 : online_->stats().infeasible;
  }

  std::unique_ptr<sim::DfsPolicy> inner_;
  const core::OnlineProTempPolicy* online_;
  std::vector<CoreSpan>& spans_;
};

/// What the traced Phase-1 build observed (table-sim only).
struct TableTrace {
  double build_s = 0.0;
  std::size_t cells = 0;
  std::size_t feasible = 0;
  std::size_t newton = 0;
};

/// A session like ControlSession::create(spec) builds, with the dfs policy
/// wrapped in TracedPolicy. The registry-built policy keeps a reference to
/// the platform it was built for (ProTempOptimizer holds one), so that
/// platform lives here, declared before the session that owns its own copy.
struct TracedSession {
  TracedSession() = default;
  TracedSession(const TracedSession&) = delete;  // the policy holds &spans
  TracedSession& operator=(const TracedSession&) = delete;

  std::unique_ptr<arch::Platform> platform;
  std::vector<CoreSpan> spans;
  std::unique_ptr<api::ControlSession> session;
};

/// Fills `out`. A "pro-temp" Phase-1 table is first built into `cache` with
/// the FrequencyTable::build observer attached (into `table`), so the
/// registry factory then finds it there instead of building it again.
void make_traced_session(const api::ScenarioSpec& spec, api::TableCache& cache,
                         TableTrace* table, TracedSession& out) {
  out.platform = std::make_unique<arch::Platform>(unwrap(
      api::make_platform(spec.platform, spec.platform_options), "platform"));
  const arch::Platform& platform = *out.platform;
  api::PolicyContext context;
  context.platform = &platform;
  context.optimizer = spec.optimizer;
  context.table_cache = &cache;
  context.frequency_quantum = spec.sim.frequency_quantum;
  context.platform_key = spec.platform;
  for (const auto& [key, value] : spec.platform_options.entries()) {
    context.platform_key += "|" + key + "=" + value;
  }
  if (table != nullptr) {
    const api::TableGridSpec grid = unwrap(
        api::table_grid_from_options(spec.dfs_options, context), "grid");
    cache.get_or_build(api::table_identity_key(context, grid), [&] {
      const Clock::time_point start = Clock::now();
      const core::ProTempOptimizer optimizer(platform, spec.optimizer);
      core::FrequencyTable built = core::FrequencyTable::build(
          optimizer, grid.tstart, grid.ftarget,
          [table](std::size_t, std::size_t,
                  const core::FrequencyAssignment& a) {
            ++table->cells;
            if (a.feasible) ++table->feasible;
            table->newton += a.newton_iterations;
          });
      table->build_s = seconds_between(start, Clock::now());
      return built;
    });
  }
  std::unique_ptr<sim::DfsPolicy> dfs = unwrap(
      api::make_dfs_policy(spec.dfs_policy, context, spec.dfs_options), "dfs");
  std::unique_ptr<sim::AssignmentPolicy> assignment =
      unwrap(api::make_assignment_policy(spec.assignment_policy,
                                         spec.assignment_options),
             "assignment");
  out.session = unwrap(
      api::ControlSession::create(
          platform, std::make_unique<TracedPolicy>(std::move(dfs), out.spans),
          std::move(assignment), spec.sim),
      "traced session");
}

/// Time of one dispatched kernel call: median over batches of the mean
/// call time, each batch at least ~1 ms.
double time_kernel_us(const std::function<void()>& call) {
  std::size_t reps = 1;
  for (;;) {
    const Clock::time_point start = Clock::now();
    for (std::size_t i = 0; i < reps; ++i) call();
    if (seconds_between(start, Clock::now()) >= 1e-3 || reps >= (1u << 20)) {
      break;
    }
    reps *= 2;
  }
  std::vector<double> batches;
  for (int b = 0; b < 15; ++b) {
    const Clock::time_point start = Clock::now();
    for (std::size_t i = 0; i < reps; ++i) call();
    batches.push_back(1e6 * seconds_between(start, Clock::now()) /
                      static_cast<double>(reps));
  }
  return perfbench::median(batches);
}

/// The Newton step's dense kernels at the program's shape: a rows x cols
/// weighted Gram, a rows x cols matvec and a cols x cols Cholesky.
void probe_kernels(std::size_t rows, std::size_t cols, Report& r) {
  linalg::Matrix a(rows, cols);
  linalg::Vector w(rows);
  linalg::Vector x(cols);
  linalg::Vector y(rows);
  std::uint64_t state = 0x9e3779b97f4a7c15ull;
  const auto next = [&state] {
    state = state * 6364136223846793005ull + 1442695040888963407ull;
    return static_cast<double>(state >> 11) / 9007199254740992.0;
  };
  for (std::size_t i = 0; i < rows; ++i) {
    for (std::size_t j = 0; j < cols; ++j) a(i, j) = next() - 0.5;
    w[i] = 0.5 + next();
  }
  for (std::size_t j = 0; j < cols; ++j) x[j] = next() - 0.5;
  linalg::Matrix gram;
  a.gram_weighted_into(w, gram);
  for (std::size_t j = 0; j < cols; ++j) gram(j, j) += 1.0;
  linalg::Cholesky factor;

  const double gram_us = time_kernel_us([&] { a.gram_weighted_into(w, gram); });
  a.gram_weighted_into(w, gram);
  for (std::size_t j = 0; j < cols; ++j) gram(j, j) += 1.0;
  const double matvec_us = time_kernel_us([&] { a.multiply_add_into(x, y); });
  const double chol_us = time_kernel_us([&] {
    if (!factor.refactor(gram)) die("probe: Gram matrix not positive definite");
  });

  const double m = static_cast<double>(rows);
  const double n = static_cast<double>(cols);
  r.add("linalg.gram_us", gram_us, "us");
  r.add("linalg.gram_flops", m * (n * (n + 1.0) + n), "flop");
  r.add("linalg.gram_bytes", 8.0 * (m * n + m + n * n), "B");
  r.add("linalg.matvec_us", matvec_us, "us");
  r.add("linalg.matvec_flops", 2.0 * m * n, "flop");
  r.add("linalg.matvec_bytes", 8.0 * (m * n + n + 2.0 * m), "B");
  r.add("linalg.cholesky_us", chol_us, "us");
  r.add("linalg.cholesky_flops", n * n * n / 3.0, "flop");
  r.add("linalg.cholesky_bytes", 8.0 * 2.0 * n * n, "B");
}

double median_of(const std::vector<CoreSpan>& spans,
                 const std::function<bool(const CoreSpan&)>& keep,
                 const std::function<double(const CoreSpan&)>& value,
                 perfbench::Tail* tail = nullptr) {
  std::vector<double> v;
  for (const CoreSpan& s : spans) {
    if (keep(s)) v.push_back(value(s));
  }
  if (tail != nullptr) *tail = perfbench::tail_of(v);
  return perfbench::median(v);
}

/// Writes the traced episode's spans, one row per window (the window index
/// is the span id): the api boundary step, the core on_window inside it, the
/// window's steady api steps, and the convex counter deltas.
void write_spans(const std::string& path, const Episode& traced,
                 const std::vector<CoreSpan>& spans) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) die("cannot write " + path);
  std::fprintf(f, "window,api_step_us,core_on_window_us,steady_steps,"
                  "steady_step_ns,infeasible,solves,newton_steps,"
                  "warm_started,warm_rejected,budget_expired\n");
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const WindowSample& w = traced.windows[i];
    const CoreSpan& c = spans[i];
    std::fprintf(f, "%zu,%.3f,%.3f,%zu,%.1f,%d,%zu,%zu,%zu,%zu,%zu\n", i,
                 1e6 * w.decide_s, 1e6 * c.on_window_s, w.steady_steps,
                 w.steady_steps == 0 ? 0.0 : 1e9 * w.steady_s / w.steady_steps,
                 c.infeasible ? 1 : 0, c.solver.solves, c.solver.newton_steps,
                 c.solver.warm_started, c.solver.warm_rejected,
                 c.solver.budget_expired);
  }
  if (std::fclose(f) != 0) die("cannot write " + path);
}

Outcome run_traced(const Workload& w, std::uint64_t seed,
                   const std::string& spans_dir) {
  const api::ScenarioSpec spec = scenario_of(w);
  const double duration = episode_duration(spec, w.windows);
  Outcome outcome;
  Report& r = outcome.report;

  const arch::Platform platform =
      unwrap(api::make_platform(spec.platform), "platform");
  const workload::TaskTrace trace =
      make_trace(w, duration, seed, platform.num_cores());

  // The traced session comes first so that a Phase-1 table is built once,
  // observed, and shared through `cache` with the untraced reference.
  const bool twin = w.name == "paper-mpc";
  api::TableCache cache;
  TableTrace table;
  TracedSession traced_session;
  make_traced_session(spec, cache, spec.dfs_policy == "pro-temp" ? &table
                                                                  : nullptr,
                      traced_session);
  const std::vector<CoreSpan>& spans = traced_session.spans;

  // Untraced reference episode, for the tracing overhead.
  api::SessionConfig shared;
  shared.table_cache = &cache;
  std::unique_ptr<api::ControlSession> plain =
      unwrap(api::ControlSession::create(spec, shared), "session");
  const Episode reference = run_episode(*plain, trace, duration);
  plain.reset();

  api::ControlSession& session = *traced_session.session;
  const Episode traced =
      run_episode(session, trace, duration, twin ? kTwinWindows : 0);
  check_episode(reference, reference.quality, outcome);
  check_episode(traced, reference.quality, outcome);
  if (spans.size() != traced.windows.size()) {
    die("span/window count mismatch: " + std::to_string(spans.size()) +
        " spans, " + std::to_string(traced.windows.size()) + " windows");
  }

  // api: boundary step minus the on_window inside it; steady steps.
  std::vector<double> api_self_us;
  double steady_s = 0.0;
  std::size_t steady_steps = 0;
  double api_s = 0.0;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const WindowSample& s = traced.windows[i];
    api_self_us.push_back(1e6 * (s.decide_s - spans[i].on_window_s));
    steady_s += s.steady_s;
    steady_steps += s.steady_steps;
    api_s += s.decide_s + s.steady_s;
  }
  r.add("api.self_us_per_window", perfbench::median(api_self_us), "us");
  r.add("api.steady_ns_per_step",
        steady_steps == 0 ? 0.0 : 1e9 * steady_s / steady_steps, "ns");

  // core: feasible solves vs throughput fallbacks.
  const auto feasible = [](const CoreSpan& s) { return !s.infeasible; };
  const auto fallback = [](const CoreSpan& s) { return s.infeasible; };
  const auto ms = [](const CoreSpan& s) { return 1e3 * s.on_window_s; };
  perfbench::Tail solve_tail;
  r.add("core.solve_ms_per_window.p50",
        median_of(spans, feasible, ms, &solve_tail), "ms");
  r.add("core.solve_ms_per_window.tail", solve_tail.value, "ms");
  r.add("core.fallback_ms_per_window", median_of(spans, fallback, ms), "ms");
  std::size_t infeasible = 0;
  SolverCounters solver;
  double solver_window_s = 0.0;
  for (const CoreSpan& s : spans) {
    if (s.infeasible) ++infeasible;
    solver += s.solver;
    if (s.solver.solves > 0) solver_window_s += s.on_window_s;
  }
  r.add("core.infeasible_frac",
        static_cast<double>(infeasible) / static_cast<double>(spans.size()),
        "ratio");
  const core::ProTempOptimizer optimizer(session.platform(), spec.optimizer);
  const std::size_t rows = optimizer.num_linear_rows();
  r.add("core.linear_rows", static_cast<double>(rows), "count");
  r.add("core.table_build_s", table.build_s, "s");
  r.add("core.table_cells_feasible",
        table.cells == 0 ? 0.0
                         : static_cast<double>(table.feasible) /
                               static_cast<double>(table.cells),
        "ratio");
  r.add("core.table_newton_per_cell",
        table.cells == 0 ? 0.0
                         : static_cast<double>(table.newton) /
                               static_cast<double>(table.cells),
        "count");

  // convex: Newton work per window (online solves; the table build on
  // table-sim, where no online solve runs).
  const auto has_solves = [](const CoreSpan& s) { return s.solver.solves > 0; };
  perfbench::Tail newton_tail;
  r.add("convex.newton_per_window.p50",
        median_of(spans, has_solves,
                  [](const CoreSpan& s) {
                    return static_cast<double>(s.solver.newton_steps);
                  },
                  &newton_tail),
        "count");
  r.add("convex.newton_per_window.tail", newton_tail.value, "count");
  r.add("convex.solves_per_window",
        static_cast<double>(solver.solves) / static_cast<double>(spans.size()),
        "count");
  double us_per_newton = 0.0;
  if (solver.newton_steps > 0) {
    us_per_newton = 1e6 * solver_window_s / solver.newton_steps;
  } else if (table.newton > 0) {
    us_per_newton = 1e6 * table.build_s / table.newton;
  }
  r.add("convex.us_per_newton", us_per_newton, "us");
  r.add("convex.warm_hit_ratio", solver.warm_hit_ratio(), "ratio");
  r.add("convex.budget_expired", static_cast<double>(solver.budget_expired),
        "count");

  // sim: the closed-loop run minus every api step span (which contain the
  // core spans).
  r.add("sim.plant_ns_per_step",
        1e9 * (traced.wall_s - api_s) / static_cast<double>(traced.steps),
        "ns");

  // linalg: the Newton step's kernels at this program's shape (rows x n+1).
  probe_kernels(rows, session.num_cores() + 1, r);
  double kernel_us = 0.0;
  for (const Metric& m : r.metrics()) {
    if (m.name == "linalg.gram_us" || m.name == "linalg.matvec_us" ||
        m.name == "linalg.cholesky_us") {
      kernel_us += m.value;
    }
  }
  r.add("linalg.kernel_share",
        us_per_newton > 0.0 ? kernel_us / us_per_newton : 0.0, "ratio");

  // Tracing overhead: traced against untraced closed-loop speed.
  const double rtf_plain = reference.sim_s / reference.wall_s;
  const double rtf_traced = traced.sim_s / traced.wall_s;
  r.add("trace.realtime_factor", rtf_traced, "x");
  r.add("trace.overhead_frac", rtf_plain / rtf_traced - 1.0, "ratio");

  // Cold-started twin: replay the warm run's telemetry open loop through a
  // session whose solver never warm-starts; the raw window outputs must
  // agree to solver tolerance.
  double drift = 0.0;
  if (twin) {
    api::ScenarioSpec cold_spec = spec;
    cold_spec.optimizer.warm_start = false;
    api::TableCache cold_cache;
    TracedSession cold;
    make_traced_session(cold_spec, cold_cache, nullptr, cold);
    for (const sim::TelemetryFrame& frame : traced.frames) {
      if (!cold.session->step(frame).ok()) outcome.fail("cold twin: step failed");
    }
    const std::vector<CoreSpan>& cold_spans = cold.spans;
    const std::size_t n = std::min(cold_spans.size(), spans.size());
    double warm_sum = 0.0;
    double cold_sum = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      warm_sum += spans[i].mean_output_hz / 1e6;
      cold_sum += cold_spans[i].mean_output_hz / 1e6;
    }
    drift = std::abs(cold_sum - warm_sum) / std::max(1.0, std::abs(warm_sum));
    std::printf("# %s: cold twin over %zu windows, checksum drift %.3e "
                "(limit %.0e)\n",
                w.name.c_str(), n, drift, kTwinDriftLimit);
    if (n != kTwinWindows || !(drift < kTwinDriftLimit)) {
      outcome.fail("cold twin disagrees with the warm-started run");
    }
  }
  r.add("twin.checksum_drift", drift, "ratio");

  if (!spans_dir.empty()) {
    write_spans(spans_dir + "/spans-" + w.name + "-seed" +
                    std::to_string(seed) + ".csv",
                traced, spans);
  }
  std::printf("# %s: traced seed %llu, %zu windows; solve tail p%.1f over "
              "%zu, Newton tail p%.1f over %zu\n",
              w.name.c_str(), static_cast<unsigned long long>(seed),
              spans.size(), solve_tail.percentile, solve_tail.samples,
              newton_tail.percentile, newton_tail.samples);
  return outcome;
}

// ---------------------------------------------------------------- main --

struct Args {
  std::string workload = "all";
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string spans_dir;  ///< where --trace 1 writes its spans (optional)
};

Args parse_args(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; i += 2) {
    const std::string key = argv[i];
    if (i + 1 >= argc) die("missing value for " + key);
    const std::string value = argv[i + 1];
    char* end = nullptr;
    if (key == "--workload") {
      args.workload = value;
    } else if (key == "--seed") {
      args.seed = std::strtoull(value.c_str(), &end, 10);
    } else if (key == "--seconds") {
      args.seconds = std::strtod(value.c_str(), &end);
    } else if (key == "--trace") {
      args.trace = std::strtol(value.c_str(), &end, 10) != 0;
    } else if (key == "--spans") {
      args.spans_dir = value;
    } else {
      die("unknown flag " + key);
    }
    if (end != nullptr && *end != '\0') die("bad value for " + key);
  }
  return args;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const Args args = parse_args(argc, argv);
    std::vector<const Workload*> chosen;
    for (const Workload& w : workloads()) {
      if (args.workload == "all" || args.workload == w.name) {
        chosen.push_back(&w);
      }
    }
    if (chosen.empty()) die("unknown workload " + args.workload);

    // With one workload the metric names are bare; with "all" they are
    // prefixed by the workload.
    bool correct = true;
    std::size_t attempted = 0;
    std::size_t failed = 0;
    std::string json;
    for (const Workload* w : chosen) {
      Outcome outcome = args.trace
                            ? run_traced(*w, args.seed, args.spans_dir)
                            : run_timed(*w, args.seed, args.seconds);
      outcome.report.print_lines(w->name);
      outcome.notes.print_lines(w->name);
      for (const std::string& p : outcome.problems) {
        std::printf("# %s: CHECK FAILED: %s\n", w->name.c_str(), p.c_str());
      }
      correct = correct && outcome.correct;
      attempted += outcome.attempted;
      failed += outcome.failed;
      for (const Metric& m : outcome.report.metrics()) {
        const std::string name =
            chosen.size() == 1 ? m.name : w->name + "." + m.name;
        char buf[256];
        std::snprintf(buf, sizeof buf,
                      "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                      json.empty() ? "" : ", ", name.c_str(), m.value,
                      m.unit.c_str());
        json += buf;
      }
    }
    std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, "
                "\"metrics\": {%s}}\n",
                correct ? "true" : "false", attempted, failed, json.c_str());
    return correct ? 0 : 1;
  } catch (const std::exception& e) {
    die(e.what());
  }
}
