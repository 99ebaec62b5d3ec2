// The fleet plane's journal header: serve::JournalWriter plus the files a
// cluster bundle needs to replay.
//
// Directory layout (all %.17g doubles, so every stamp round-trips exactly):
//   fleet.csv      server,c_lo,c_hi,speed,cost_rate — the machine set
//   server<k>.csv  time,rate — server k's capacity path (written once)
//   band.csv       c_lo,c_hi — the fleet admission band (info)
//   meta.csv       key,value — scheduler key, rental policy, budget, accel...
//   jobs.csv       appended+flushed per admitted job (the Instance layout)
//   cancels.csv    time,ticket (a session with cancels is not replayable)
//   outcomes.csv   written at drain (sim::save_outcomes_csv)
//
// Replay:  sjs_sim --cluster-bundle=<dir>  rebuilds the fleet, dispatcher,
// and job stream and must reproduce outcomes.csv byte-for-byte
// (tests/cluster_serve_test.cpp; gated in CI by scripts/serve_smoke.sh).
#pragma once

#include <map>
#include <string>
#include <utility>
#include <vector>

#include "capacity/capacity_profile.hpp"
#include "cluster/dispatcher.hpp"
#include "cluster/fleet.hpp"
#include "jobs/job.hpp"
#include "serve/journal.hpp"

namespace sjs::cluster {

class ClusterJournal : public serve::JournalWriter {
 public:
  struct Meta {
    std::string scheduler;       ///< dispatcher name ("Cluster-EDF/threshold")
    std::string key = "deadline";///< "deadline" | "density"
    std::string rental = "static";
    double budget = 0.0;
    std::size_t min_rented = 1;
    double accel = 1.0;
    bool admission_check = true;
  };

  /// Writes the fleet/server<k>/band headers beside the journal writer's
  /// meta.csv, jobs.csv and cancels.csv. Throws on I/O failure.
  ClusterJournal(const std::string& dir, const Fleet& fleet,
                 const std::vector<cap::CapacityProfile>& paths,
                 const Meta& meta);
};

/// Everything needed to replay a cluster session.
struct ClusterBundle {
  std::vector<Job> jobs;
  Fleet fleet;
  std::vector<cap::CapacityProfile> paths;  ///< one per fleet machine
  std::map<std::string, std::string> meta;
  std::vector<std::pair<double, JobId>> cancels;
};

/// Loads a cluster journal directory. Throws on missing/malformed files.
ClusterBundle load_cluster_bundle(const std::string& dir);

/// The dispatcher settings a bundle's meta.csv records, as a replay needs
/// them: sched_key, rental, budget and min_rented (absent keys keep their
/// defaults).
struct ReplaySettings {
  DispatcherConfig dispatcher;
  std::string rental = "static";
};

/// Reads ReplaySettings from meta.csv's key/value pairs. Throws
/// std::invalid_argument naming the key unless the whole `budget` field is
/// one number and the whole `min_rented` field one integer >= 1 ("1.5abc"
/// is an error, not 1.5).
ReplaySettings replay_settings(const std::map<std::string, std::string>& meta);

}  // namespace sjs::cluster
