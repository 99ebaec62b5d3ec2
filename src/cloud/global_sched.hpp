// Global (migrating) schedulers for the multi-server engine: at every
// interrupt, the K highest-priority live jobs run, one per server — the
// multiprocessor analogues of EDF ("global EDF") and highest-value-density.
//
// Placement policy: a chosen job already executing stays put (no gratuitous
// migration); newly chosen jobs are matched to freed servers in priority
// order, fastest-current-rate server first — with heterogeneous capacity the
// most urgent job gets the fastest machine.
#pragma once

#include <cstddef>
#include <vector>

#include "cloud/multi_engine.hpp"
#include "sched/ready_queue.hpp"

namespace sjs::cloud {

enum class GlobalKey {
  kDeadline,      ///< global EDF
  kValueDensity,  ///< global HVDF (highest v/p first)
};

/// Lower is better: the deadline, or the negated value density.
double global_priority(GlobalKey key, const Job& job);

/// The top-K placement both global schedulers run at every interrupt
/// (GlobalKeyScheduler over every server, cluster::Dispatcher over the
/// rented machines). Holds the scratch, sized once, so an interrupt never
/// allocates.
class TopKPlacement {
 public:
  /// Sizes the scratch for `servers` machines (setup time).
  void resize(std::size_t servers);

  /// Runs the `slots` best live jobs — `live` in (priority, id) order — on
  /// the servers `eligible` marks (every server when null). Each winner, in
  /// priority order, takes the fastest still-available eligible server,
  /// staying put when its current server ties the maximum (no gratuitous
  /// migration among equal machines); run_on handles placing a queued job,
  /// preempting a lower-priority incumbent, and migrating a running winner
  /// onto a faster machine. Eligible servers left over go idle. The winners
  /// are found by popping them off `live` and pushing them back.
  void place(MultiEngine& engine, sched::ReadyQueue& live, std::size_t slots,
             const std::vector<char>* eligible);

 private:
  std::vector<sched::ReadyQueue::Entry> chosen_;
  std::vector<char> available_;
};

class GlobalKeyScheduler : public GlobalScheduler {
 public:
  explicit GlobalKeyScheduler(GlobalKey key) : key_(key) {}

  void on_start(MultiEngine& engine) override;
  void on_release(MultiEngine& engine, JobId job) override;
  void on_complete(MultiEngine& engine, JobId job,
                   std::size_t server) override;
  void on_expire(MultiEngine& engine, JobId job, std::size_t server) override;
  std::string name() const override {
    return key_ == GlobalKey::kDeadline ? "Global-EDF" : "Global-HVDF";
  }

 private:
  GlobalKey key_;
  /// Live jobs; pops the lowest (priority, id) first.
  sched::ReadyQueue live_{sched::QueueOrder::kMinFirst};
  TopKPlacement placement_;
};

}  // namespace sjs::cloud
