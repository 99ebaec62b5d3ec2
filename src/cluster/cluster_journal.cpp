#include "cluster/cluster_journal.hpp"

#include <filesystem>
#include <stdexcept>

#include "capacity/trace_io.hpp"
#include "jobs/bundle.hpp"
#include "jobs/instance.hpp"
#include "util/cli.hpp"
#include "util/logging.hpp"

namespace sjs::cluster {

namespace fs = std::filesystem;

namespace {

std::string server_trace_name(std::size_t k) {
  return "server" + std::to_string(k) + ".csv";
}

}  // namespace

ClusterJournal::ClusterJournal(const std::string& dir, const Fleet& fleet,
                               const std::vector<cap::CapacityProfile>& paths,
                               const Meta& meta)
    : JournalWriter(dir, {{"scheduler", meta.scheduler},
                          {"cluster", std::to_string(fleet.size())},
                          {"sched_key", meta.key},
                          {"rental", meta.rental},
                          {"budget", format_double(meta.budget)},
                          {"min_rented", std::to_string(meta.min_rented)},
                          {"accel", format_double(meta.accel)},
                          {"admission_check",
                           meta.admission_check ? "1" : "0"}}) {
  SJS_CHECK(fleet.size() > 0);
  SJS_CHECK(paths.size() == fleet.size());
  save_fleet_csv(fleet, path("fleet.csv"));
  for (std::size_t k = 0; k < paths.size(); ++k) {
    cap::save_trace(paths[k], path(server_trace_name(k)));
  }
  save_band_csv(dir, fleet.admission_c_lo(), fleet.max_hi());
}

ClusterBundle load_cluster_bundle(const std::string& dir) {
  ClusterBundle bundle;
  bundle.fleet = load_fleet_csv((fs::path(dir) / "fleet.csv").string());
  if (bundle.fleet.size() == 0) {
    throw std::runtime_error("cluster bundle has an empty fleet: " + dir);
  }
  bundle.paths.reserve(bundle.fleet.size());
  for (std::size_t k = 0; k < bundle.fleet.size(); ++k) {
    bundle.paths.push_back(
        cap::load_trace((fs::path(dir) / server_trace_name(k)).string()));
  }
  bundle.meta = serve::read_journal_meta(dir);
  bundle.jobs = Instance::load_jobs((fs::path(dir) / "jobs.csv").string());
  for (std::size_t i = 0; i < bundle.jobs.size(); ++i) {
    if (bundle.jobs[i].id != static_cast<JobId>(i)) {
      throw std::runtime_error("non-dense job ids in cluster bundle " + dir);
    }
  }
  bundle.cancels = serve::read_journal_cancels(dir);
  return bundle;
}

ReplaySettings replay_settings(
    const std::map<std::string, std::string>& meta) {
  ReplaySettings out;
  // The whole field must parse ("1.5abc" is an error, not 1.5).
  const auto field = [&](const char* key, const char* kind, auto parse) {
    const std::string& text = meta.at(key);
    try {
      return parse(text);
    } catch (const std::exception&) {
      throw std::invalid_argument(std::string("meta.csv ") + key + " '" +
                                  text + "' is not " + kind);
    }
  };
  if (meta.count("sched_key")) {
    out.dispatcher.key = meta.at("sched_key") == "density"
                             ? cloud::GlobalKey::kValueDensity
                             : cloud::GlobalKey::kDeadline;
  }
  if (meta.count("rental")) out.rental = meta.at("rental");
  if (meta.count("budget")) {
    out.dispatcher.budget =
        field("budget", "a number",
              [](const std::string& t) { return parse_double(t); });
  }
  if (meta.count("min_rented")) {
    const std::int64_t n =
        field("min_rented", "an integer",
              [](const std::string& t) { return parse_int(t); });
    if (n < 1) {
      throw std::invalid_argument("meta.csv min_rented '" +
                                  meta.at("min_rented") +
                                  "' must be at least 1");
    }
    out.dispatcher.min_rented = static_cast<std::size_t>(n);
  }
  return out;
}

}  // namespace sjs::cluster
