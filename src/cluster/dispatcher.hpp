// cluster::Dispatcher — the fleet's global scheduler: elastic rental plus
// top-R placement over the rented machines.
//
// At every engine interrupt (release / completion / expiry) the dispatcher
//   1. accrues rental cost for the interval since the last interrupt
//      (sum of rented cost rates × dt — exact, the fleet only changes at
//      interrupts),
//   2. asks its RentalController for a target machine count, clamps it to
//      [min_rented, fleet_size], enforces the cost budget (once accrued cost
//      reaches the budget the fleet pins to min_rented — enforcement is at
//      interrupt granularity, so the final interval may overshoot by one
//      accrual), and rents lowest-index-first / releases highest-index-first,
//   3. places the top-R live jobs (R = rented machines) by the global key
//      (deadline → Cluster-EDF, value density → Cluster-HVDF) onto rented
//      machines, fastest-current-rate first, winners staying put on ties —
//      the same no-gratuitous-migration rule as cloud::GlobalKeyScheduler.
//
// Decisions depend only on the interrupt sequence, so a replayed journal
// reproduces every rent, placement, and cost cent bit-exactly. The scheduler
// callbacks are hot paths (sjs_lint alloc roots): the placement scratch is
// sized at construction and the live-job queue in on_start, never inside a
// release/completion/expiry hook.
#pragma once

#include <memory>

#include "cloud/global_sched.hpp"
#include "cloud/multi_engine.hpp"
#include "cluster/fleet.hpp"
#include "cluster/rental.hpp"
#include "sched/ready_queue.hpp"

namespace sjs::cluster {

struct DispatcherConfig {
  cloud::GlobalKey key = cloud::GlobalKey::kDeadline;
  double budget = 0.0;          ///< total rental budget; <= 0 means unlimited
  std::size_t min_rented = 1;   ///< never release below this many machines
};

class Dispatcher final : public cloud::GlobalScheduler {
 public:
  /// `rental` may be null: the whole fleet stays rented ("static"). The
  /// fleet must outlive the dispatcher and match the engine's server count.
  Dispatcher(const Fleet& fleet, const DispatcherConfig& config,
             std::unique_ptr<RentalController> rental);

  void on_start(cloud::MultiEngine& engine) override;
  void on_release(cloud::MultiEngine& engine, JobId job) override;
  void on_complete(cloud::MultiEngine& engine, JobId job,
                   std::size_t server) override;
  void on_expire(cloud::MultiEngine& engine, JobId job,
                 std::size_t server) override;
  /// "Cluster-EDF/threshold", "Cluster-HVDF/static", ...
  std::string name() const override;

  // --- rental accounting (read after the run; settle() first) ---
  /// Accrues cost up to `t` — call once with the final session time before
  /// reading the totals or calling apply_accounting().
  void settle(double t);
  double cost_accrued() const { return cost_; }
  double rented_machine_time() const { return rented_time_; }
  std::uint64_t rent_events() const { return rent_events_; }
  std::uint64_t release_events() const { return release_events_; }
  std::uint64_t rented_peak() const { return rented_peak_; }
  std::size_t rented_count() const { return rented_count_; }

  /// Copies the rental totals into a run result.
  void apply_accounting(cloud::MultiSimResult* result) const;

 private:
  /// Shared interrupt body: accrue, re-rent, re-place.
  void handle_interrupt(cloud::MultiEngine& engine);
  void accrue(double t);
  void apply_rental(cloud::MultiEngine& engine);

  const Fleet* fleet_;
  DispatcherConfig config_;
  std::unique_ptr<RentalController> rental_;

  /// Live jobs; pops the lowest (priority, id) first.
  sched::ReadyQueue live_{sched::QueueOrder::kMinFirst};

  std::vector<char> rented_;          // per server
  std::size_t rented_count_ = 0;
  double rented_cost_rate_ = 0.0;     // sum of rented machines' cost rates
  double last_accrual_ = 0.0;
  double cost_ = 0.0;
  double rented_time_ = 0.0;
  std::uint64_t rent_events_ = 0;
  std::uint64_t release_events_ = 0;
  std::uint64_t rented_peak_ = 0;

  /// Top-R placement and its scratch, pre-sized to the fleet.
  cloud::TopKPlacement placement_;
};

/// Convenience replay driver: runs `jobs` over `paths` under a fresh
/// MultiEngine with `dispatcher`, settles the rental account at the last
/// event, and returns the result with the rental fields filled in.
cloud::MultiSimResult run_cluster(const std::vector<Job>& jobs,
                                  std::vector<cap::CapacityProfile> paths,
                                  Dispatcher& dispatcher,
                                  obs::TraceSink* sink = nullptr);

}  // namespace sjs::cluster
