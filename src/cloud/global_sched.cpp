#include "cloud/global_sched.hpp"

#include <algorithm>

#include "util/vec.hpp"

namespace sjs::cloud {

double global_priority(GlobalKey key, const Job& job) {
  return key == GlobalKey::kDeadline ? job.deadline : -job.value_density();
}

void TopKPlacement::resize(std::size_t servers) {
  util::grow(chosen_, servers);
  util::grow(available_, servers);
}

void TopKPlacement::place(MultiEngine& engine, sched::ReadyQueue& live,
                          std::size_t slots,
                          const std::vector<char>* eligible) {
  const std::size_t k = engine.server_count();
  const std::size_t n = std::min({slots, live.size(), chosen_.size()});
  for (std::size_t i = 0; i < n; ++i) chosen_[i] = live.pop();
  for (std::size_t i = 0; i < n; ++i) live.push(chosen_[i].key, chosen_[i].id);

  for (std::size_t s = 0; s < k; ++s) {
    available_[s] = eligible == nullptr ? 1 : (*eligible)[s];
  }
  for (std::size_t i = 0; i < n; ++i) {
    const JobId job = chosen_[i].id;
    std::size_t best = kNoServer;
    for (std::size_t s = 0; s < k; ++s) {
      if (!available_[s]) continue;
      if (best == kNoServer ||
          engine.server_rate(s) > engine.server_rate(best)) {
        best = s;
      }
    }
    const std::size_t current = engine.server_of(job);
    std::size_t target = best;
    if (current != kNoServer && available_[current] &&
        engine.server_rate(current) >= engine.server_rate(best)) {
      target = current;
    }
    available_[target] = 0;
    if (current != target) engine.run_on(target, job);
  }
  for (std::size_t s = 0; s < k; ++s) {
    if (available_[s] && engine.running_on(s) != kNoJob) engine.idle(s);
  }
}

void GlobalKeyScheduler::on_start(MultiEngine& engine) {
  live_.reserve(engine.job_capacity_hint());
  placement_.resize(engine.server_count());
}

void GlobalKeyScheduler::on_release(MultiEngine& engine, JobId job) {
  live_.push(global_priority(key_, engine.job(job)), job);
  placement_.place(engine, live_, engine.server_count(), nullptr);
}

void GlobalKeyScheduler::on_complete(MultiEngine& engine, JobId job,
                                     std::size_t /*server*/) {
  live_.erase(job);
  placement_.place(engine, live_, engine.server_count(), nullptr);
}

void GlobalKeyScheduler::on_expire(MultiEngine& engine, JobId job,
                                   std::size_t /*server*/) {
  live_.erase(job);
  placement_.place(engine, live_, engine.server_count(), nullptr);
}

}  // namespace sjs::cloud
