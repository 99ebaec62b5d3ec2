#include "serve/sim_backend.hpp"

#include <stdexcept>
#include <vector>

#include "sched/factory.hpp"

namespace sjs::serve {

namespace {

std::unique_ptr<sim::Scheduler> make_scheduler(const std::string& name,
                                               const Instance& instance) {
  const auto lineup = sched::full_lineup(instance.c_lo(), instance.c_hi());
  const auto* factory = sched::find_factory(lineup, name);
  if (factory == nullptr) {
    throw std::invalid_argument("unknown scheduler \"" + name +
                                "\" — see sjs_sim --list-schedulers");
  }
  return factory->make();
}

}  // namespace

SimBackend::SimBackend(const ServerConfig& config)
    : scheduler_name_(config.scheduler_name),
      instance_(std::vector<Job>{}, config.capacity,
                config.c_lo > 0.0 ? config.c_lo : config.capacity.min_rate(),
                config.c_hi > 0.0 ? config.c_hi : config.capacity.max_rate()),
      scheduler_(make_scheduler(scheduler_name_, instance_)),
      engine_(instance_, *scheduler_) {}

JobState SimBackend::state(JobId id, double& remaining) const {
  if (engine_.is_completed(id)) return JobState::kCompleted;
  if (engine_.is_expired(id)) return JobState::kExpired;
  if (engine_.running() == id) {
    remaining = engine_.remaining(id);
    return JobState::kRunning;
  }
  remaining = engine_.is_released(id) ? engine_.remaining(id)
                                      : engine_.job(id).workload;
  return JobState::kQueued;
}

void SimBackend::reserve(std::size_t in_flight, std::size_t jobs) {
  instance_.reserve_jobs(jobs);
  engine_.reserve_live(in_flight, jobs);
}

void SimBackend::finish(obs::MetricsRegistry::Shard* /*metrics*/) {
  result_ = engine_.finish_live();
  result_.scheduler_name = scheduler_name_;
}

void SimBackend::save_outcomes(const std::string& path) const {
  sim::save_outcomes_csv(result_.outcomes, result_.completion_times,
                         instance_.jobs(), path);
}

std::unique_ptr<JournalWriter> SimBackend::open_journal(
    const std::string& dir, const ServerConfig& config) const {
  Journal::Meta meta;
  meta.scheduler = scheduler_name_;
  meta.accel = config.accel;
  meta.admission_check = config.admission_check;
  return std::make_unique<Journal>(dir, instance_.capacity(), instance_.c_lo(),
                                   instance_.c_hi(), meta);
}

}  // namespace sjs::serve
