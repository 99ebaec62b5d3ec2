// FleetBackend — the fleet-backed session backend (docs/cluster.md): a
// live cloud::MultiEngine over the fleet's constant serving paths, scheduled
// by a cluster::Dispatcher (elastic rental + top-R placement). The admission
// floor is the fleet's admission_c_lo(): a job needs only one machine, so it
// is rejected at the door only if even the strongest guaranteed floor
// cannot fit it (Thm. 3(3) applied per machine).
//
// The journal is a cluster bundle that replays bit-exactly through
// `sjs_sim --cluster-bundle=<dir>`: admission stamps are strictly
// increasing, MultiEngine::advance_to subdivides execution only at event
// times, and the Dispatcher's decisions are a pure function of the
// interrupt sequence. At drain the backend also settles the rental account
// at the final instant and publishes the cluster.* metrics.
#pragma once

#include <cstddef>
#include <memory>
#include <string>
#include <vector>

#include "cloud/multi_engine.hpp"
#include "cluster/dispatcher.hpp"
#include "cluster/fleet.hpp"
#include "obs/metrics.hpp"
#include "serve/journal.hpp"
#include "serve/protocol.hpp"
#include "serve/server.hpp"
#include "serve/session.hpp"
#include "util/vec.hpp"

namespace sjs::cluster {

/// serve::ServerConfig plus the fleet settings. The single-engine fields
/// (scheduler_name, capacity, c_lo, c_hi) are unused: the fleet supplies the
/// band and the dispatcher names itself.
struct ClusterServerConfig : serve::ServerConfig {
  Fleet fleet = Fleet::heterogeneous(4);
  cloud::GlobalKey key = cloud::GlobalKey::kDeadline;
  std::string rental = "threshold";  ///< "static" | "threshold" | "load"
  double budget = 0.0;               ///< total rental budget; <= 0 unlimited
  std::size_t min_rented = 1;
};

class FleetBackend {
 public:
  using Config = ClusterServerConfig;
  using Result = cloud::MultiSimResult;

  explicit FleetBackend(const ClusterServerConfig& config);
  // The engine keeps references into this object.
  FleetBackend(const FleetBackend&) = delete;
  FleetBackend& operator=(const FleetBackend&) = delete;

  JobId admit(const Job& job) {
    Job j = job;
    j.id = static_cast<JobId>(jobs_.size());
    util::append(jobs_, j);
    engine_.admit_live(j.id);
    return j.id;
  }
  const Job& job(JobId id) const { return jobs_[static_cast<std::size_t>(id)]; }
  bool cancel(JobId id) { return engine_.cancel_live(id); }
  void advance_to(double t) { engine_.advance_to(t); }
  double next_event_time() const { return engine_.next_event_time(); }
  double now() const { return engine_.now(); }
  serve::JobState state(JobId id, double& remaining) const;

  void reserve(std::size_t in_flight, std::size_t jobs);
  void attach_trace(obs::TraceSink* sink) { engine_.attach_trace(sink); }
  void begin_live() { engine_.begin_live(); }
  /// finish_live, then settles the rental account at the final instant (so
  /// the cost integral covers the tail after the last interrupt) and
  /// publishes cluster.* to `metrics` when set.
  void finish(obs::MetricsRegistry::Shard* metrics);
  const Result& result() const { return result_; }
  void save_outcomes(const std::string& path) const;
  std::unique_ptr<serve::JournalWriter> open_journal(
      const std::string& dir, const ClusterServerConfig& config) const;
  double c_lo() const { return fleet_.admission_c_lo(); }

  const Fleet& fleet() const { return fleet_; }
  const std::vector<Job>& jobs() const { return jobs_; }

 private:
  Fleet fleet_;            ///< the dispatcher keeps a pointer to it
  std::vector<Job> jobs_;  ///< the admitted stream (dense ids)
  Dispatcher dispatcher_;
  cloud::MultiEngine engine_;
  Result result_;
};

/// The fleet plane.
using FleetServer = serve::Server<FleetBackend>;

}  // namespace sjs::cluster
