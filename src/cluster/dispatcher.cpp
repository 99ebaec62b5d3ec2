#include "cluster/dispatcher.hpp"

#include <algorithm>

#include "util/logging.hpp"

namespace sjs::cluster {

Dispatcher::Dispatcher(const Fleet& fleet, const DispatcherConfig& config,
                       std::unique_ptr<RentalController> rental)
    : fleet_(&fleet), config_(config), rental_(std::move(rental)) {
  SJS_CHECK_MSG(fleet.size() > 0, "dispatcher needs a non-empty fleet");
  SJS_CHECK_MSG(config_.min_rented >= 1, "min_rented must be at least 1");
  SJS_CHECK_MSG(config_.min_rented <= fleet.size(),
                "min_rented exceeds the fleet");
  rented_.assign(fleet.size(), 0);
  placement_.resize(fleet.size());
}

std::string Dispatcher::name() const {
  std::string out = config_.key == cloud::GlobalKey::kDeadline
                        ? "Cluster-EDF"
                        : "Cluster-HVDF";
  out += '/';
  out += rental_ ? rental_->name() : "static";
  return out;
}

void Dispatcher::accrue(double t) {
  const double dt = t - last_accrual_;
  if (dt > 0.0) {
    cost_ += rented_cost_rate_ * dt;
    rented_time_ += static_cast<double>(rented_count_) * dt;
    last_accrual_ = t;
  }
}

void Dispatcher::settle(double t) { accrue(t); }

void Dispatcher::apply_accounting(cloud::MultiSimResult* result) const {
  result->rental_cost = cost_;
  result->rented_machine_time = rented_time_;
  result->rent_events = rent_events_;
  result->release_events = release_events_;
  result->rented_peak = rented_peak_;
}

void Dispatcher::apply_rental(cloud::MultiEngine& engine) {
  const std::size_t fleet_size = fleet_->size();
  std::size_t target = rented_count_;
  if (rental_) {
    target = rental_->target_machines(
        FleetLoad{engine.now(), live_.size(), rented_count_, fleet_size});
  } else {
    target = fleet_size;
  }
  target = std::clamp(target, config_.min_rented, fleet_size);
  // Budget exhausted: pin the fleet to its floor. Enforcement is at
  // interrupt granularity (cost is accrued before this check), so the final
  // interval may overshoot by one accrual.
  if (config_.budget > 0.0 && cost_ >= config_.budget) {
    target = config_.min_rented;
  }

  while (rented_count_ < target) {
    std::size_t s = 0;
    while (rented_[s]) ++s;
    rented_[s] = 1;
    ++rented_count_;
    rented_cost_rate_ += fleet_->spec(s).cost_rate;
    ++rent_events_;
  }
  while (rented_count_ > target) {
    std::size_t s = fleet_size;
    while (s > 0 && !rented_[s - 1]) --s;
    --s;
    // Evict whatever runs there; the job stays live and is re-placed below.
    if (engine.running_on(s) != kNoJob) engine.idle(s);
    rented_[s] = 0;
    --rented_count_;
    rented_cost_rate_ -= fleet_->spec(s).cost_rate;
    ++release_events_;
  }
  rented_peak_ = std::max(rented_peak_,
                          static_cast<std::uint64_t>(rented_count_));
}

void Dispatcher::handle_interrupt(cloud::MultiEngine& engine) {
  accrue(engine.now());
  apply_rental(engine);
  // Top-R live jobs by priority, R = rented machines, on rented machines.
  placement_.place(engine, live_, rented_count_, &rented_);
}

void Dispatcher::on_start(cloud::MultiEngine& engine) {
  SJS_CHECK_MSG(engine.server_count() == fleet_->size(),
                "engine has " << engine.server_count() << " servers, fleet "
                              << fleet_->size());
  live_.reserve(engine.job_capacity_hint());
  handle_interrupt(engine);
}

void Dispatcher::on_release(cloud::MultiEngine& engine, JobId job) {
  live_.push(cloud::global_priority(config_.key, engine.job(job)), job);
  handle_interrupt(engine);
}

void Dispatcher::on_complete(cloud::MultiEngine& engine, JobId job,
                             std::size_t /*server*/) {
  live_.erase(job);
  handle_interrupt(engine);
}

void Dispatcher::on_expire(cloud::MultiEngine& engine, JobId job,
                           std::size_t /*server*/) {
  live_.erase(job);
  handle_interrupt(engine);
}

cloud::MultiSimResult run_cluster(const std::vector<Job>& jobs,
                                  std::vector<cap::CapacityProfile> paths,
                                  Dispatcher& dispatcher,
                                  obs::TraceSink* sink) {
  cloud::MultiEngine engine(jobs, std::move(paths), dispatcher);
  if (sink) engine.attach_trace(sink);
  cloud::MultiSimResult result = engine.run_to_completion();
  dispatcher.settle(engine.now());
  dispatcher.apply_accounting(&result);
  return result;
}

}  // namespace sjs::cluster
