#include "cluster/fleet_backend.hpp"

#include "cluster/cluster_journal.hpp"
#include "cluster/cluster_metrics.hpp"
#include "cluster/rental.hpp"

namespace sjs::cluster {

FleetBackend::FleetBackend(const ClusterServerConfig& config)
    : fleet_(config.fleet),
      dispatcher_(fleet_,
                  DispatcherConfig{config.key, config.budget,
                                   config.min_rented},
                  make_rental_controller(config.rental)),
      engine_(jobs_, fleet_.constant_paths(), dispatcher_) {}

serve::JobState FleetBackend::state(JobId id, double& remaining) const {
  using serve::JobState;
  const sim::JobOutcome outcome = engine_.outcome(id);
  if (outcome == sim::JobOutcome::kCompleted) return JobState::kCompleted;
  if (outcome == sim::JobOutcome::kExpired) return JobState::kExpired;
  if (engine_.server_of(id) != cloud::kNoServer) {
    remaining = engine_.remaining(id);
    return JobState::kRunning;
  }
  remaining = engine_.is_released(id) ? engine_.remaining(id)
                                      : engine_.job(id).workload;
  return JobState::kQueued;
}

void FleetBackend::reserve(std::size_t in_flight, std::size_t jobs) {
  jobs_.reserve(jobs);
  engine_.reserve_live(in_flight, jobs);
}

void FleetBackend::finish(obs::MetricsRegistry::Shard* metrics) {
  result_ = engine_.finish_live();
  dispatcher_.settle(engine_.now());
  dispatcher_.apply_accounting(&result_);
  if (metrics) publish_cluster_metrics(result_, engine_.now(), *metrics);
}

void FleetBackend::save_outcomes(const std::string& path) const {
  sim::save_outcomes_csv(result_.outcomes, result_.completion_times, jobs_,
                         path);
}

std::unique_ptr<serve::JournalWriter> FleetBackend::open_journal(
    const std::string& dir, const ClusterServerConfig& config) const {
  ClusterJournal::Meta meta;
  meta.scheduler = dispatcher_.name();
  meta.key = config.key == cloud::GlobalKey::kDeadline ? "deadline" : "density";
  meta.rental = config.rental.empty() ? "static" : config.rental;
  meta.budget = config.budget;
  meta.min_rented = config.min_rented;
  meta.accel = config.accel;
  meta.admission_check = config.admission_check;
  return std::make_unique<ClusterJournal>(dir, fleet_, fleet_.constant_paths(),
                                          meta);
}

}  // namespace sjs::cluster
