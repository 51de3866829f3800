#include "core/policies.hpp"

#include <stdexcept>

namespace protemp::core {

OnlineProTempPolicy::OnlineProTempPolicy(
    std::shared_ptr<const ProTempOptimizer> opt)
    : optimizer_(std::move(opt)) {
  if (!optimizer_) {
    throw std::invalid_argument("OnlineProTempPolicy: null optimizer");
  }
  workspace_.set_warm_start(optimizer_->config().warm_start);
}

void OnlineProTempPolicy::reset() {
  stats_ = {};
  // A new run is a new trajectory: stale seeds from the previous run must
  // not leak into its first window.
  workspace_.forget();
  workspace_.stats() = {};
}

linalg::Vector OnlineProTempPolicy::on_window(
    const sim::ControllerView& view) {
  ++stats_.windows;
  const std::size_t n_nodes = optimizer_->platform().num_nodes();
  const std::size_t n_blocks = view.sensor_temps.size();
  if (n_blocks == 0 || n_blocks > n_nodes) {
    throw std::invalid_argument(
        "OnlineProTempPolicy: sensor count inconsistent with the platform");
  }
  // Measured blocks verbatim; unmeasured package nodes (spreader/sink) at
  // the hottest sensor reading — an elementwise upper bound on the truth.
  const double hottest = view.sensor_temps.max();
  linalg::Vector t0(n_nodes, hottest);
  for (std::size_t b = 0; b < n_blocks; ++b) t0[b] = view.sensor_temps[b];

  const double required = sim::required_average_frequency(view);
  const FrequencyAssignment result =
      optimizer_->solve_from_state(t0, required, &workspace_);
  stats_.solve_seconds += result.solve_seconds;
  if (result.warm_started) ++stats_.warm_started;
  if (result.feasible) return result.frequencies;

  // Demand exceeds what this state can safely serve: the solve already
  // carries the highest safe throughput (the online analog of the table's
  // column fallback), or nothing when no frequency is safe.
  ++stats_.infeasible;
  if (result.throughput_fallback) return result.frequencies;
  return linalg::Vector(view.num_cores, 0.0);
}

std::any OnlineProTempPolicy::save_state() const {
  return Snapshot{stats_, workspace_};
}

void OnlineProTempPolicy::load_state(const std::any& state) {
  const Snapshot& snapshot =
      sim::policy_state_as<Snapshot>(state, "OnlineProTempPolicy");
  stats_ = snapshot.stats;
  workspace_ = snapshot.workspace;
}

linalg::Vector NoTcPolicy::on_window(const sim::ControllerView& view) {
  const double f = sim::required_average_frequency(view);
  return linalg::Vector(view.num_cores, f);
}

linalg::Vector BasicDfsPolicy::on_window(const sim::ControllerView& view) {
  const double f = sim::required_average_frequency(view);
  linalg::Vector out(view.num_cores, f);
  tripped_.assign(view.num_cores, false);
  for (std::size_t c = 0; c < view.num_cores; ++c) {
    if (view.core_temps[c] >= options_.trip_celsius) {
      out[c] = 0.0;
      tripped_[c] = true;
      ++trips_;
    }
  }
  return out;
}

bool BasicDfsPolicy::on_sample(double time, const linalg::Vector& core_temps,
                               linalg::Vector& frequencies) {
  (void)time;
  if (!options_.continuous_trip) return false;
  if (tripped_.size() != core_temps.size()) {
    tripped_.assign(core_temps.size(), false);
  }
  bool changed = false;
  for (std::size_t c = 0; c < core_temps.size(); ++c) {
    if (!tripped_[c] && core_temps[c] >= options_.trip_celsius) {
      tripped_[c] = true;  // latched until the next window boundary
      frequencies[c] = 0.0;
      ++trips_;
      changed = true;
    }
  }
  return changed;
}

std::any BasicDfsPolicy::save_state() const {
  return Snapshot{tripped_, trips_};
}

void BasicDfsPolicy::load_state(const std::any& state) {
  const Snapshot& snapshot =
      sim::policy_state_as<Snapshot>(state, "BasicDfsPolicy");
  tripped_ = snapshot.tripped;
  trips_ = snapshot.trips;
}

std::any ProTempPolicy::save_state() const { return stats_; }

void ProTempPolicy::load_state(const std::any& state) {
  stats_ = sim::policy_state_as<Stats>(state, "ProTempPolicy");
}

linalg::Vector ProTempPolicy::on_window(const sim::ControllerView& view) {
  ++stats_.windows;
  const double temperature = view.max_sensor_temp();
  const double required = sim::required_average_frequency(view);
  const FrequencyTable::QueryResult result =
      table_.query(temperature, required);
  if (result.emergency) ++stats_.emergencies;
  if (result.downgraded) ++stats_.downgrades;
  if (result.entry == nullptr) {
    // No feasible assignment for this temperature: shut the cores down for
    // one window (the guaranteed-safe action).
    return linalg::Vector(view.num_cores, 0.0);
  }
  return result.entry->frequencies;
}

}  // namespace protemp::core
