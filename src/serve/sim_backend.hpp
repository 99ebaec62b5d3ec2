// SimBackend — the single-engine session backend: a growing Instance, a
// live-mode sim::Engine, and the scheduler named by
// ServerConfig::scheduler_name (built from sched::full_lineup over the
// declared band). The journal is an instance bundle, replayable through
// `sjs_sim --bundle=<journal>`.
#pragma once

#include <memory>
#include <string>

#include "jobs/instance.hpp"
#include "obs/metrics.hpp"
#include "serve/journal.hpp"
#include "serve/protocol.hpp"
#include "serve/session.hpp"
#include "sim/engine.hpp"
#include "sim/result.hpp"
#include "sim/scheduler.hpp"

namespace sjs::serve {

class SimBackend {
 public:
  using Config = ServerConfig;
  using Result = sim::SimResult;

  /// Throws std::invalid_argument for an unknown scheduler name.
  explicit SimBackend(const ServerConfig& config);
  // The engine keeps references into this object.
  SimBackend(const SimBackend&) = delete;
  SimBackend& operator=(const SimBackend&) = delete;

  JobId admit(const Job& job) {
    const JobId id = instance_.append_job(job);
    engine_.admit_live(id);
    return id;
  }
  const Job& job(JobId id) const { return instance_.job(id); }
  bool cancel(JobId id) { return engine_.cancel_live(id); }
  void advance_to(double t) { engine_.advance_to(t); }
  double next_event_time() const { return engine_.next_event_time(); }
  double now() const { return engine_.now(); }
  JobState state(JobId id, double& remaining) const;

  void reserve(std::size_t in_flight, std::size_t jobs);
  void attach_trace(obs::TraceSink* sink) { engine_.attach_trace(sink); }
  void begin_live() { engine_.begin_live(); }
  void finish(obs::MetricsRegistry::Shard* metrics);
  const Result& result() const { return result_; }
  void save_outcomes(const std::string& path) const;
  std::unique_ptr<JournalWriter> open_journal(const std::string& dir,
                                              const ServerConfig& config) const;
  double c_lo() const { return instance_.c_lo(); }

  const Instance& instance() const { return instance_; }

 private:
  std::string scheduler_name_;
  Instance instance_;
  std::unique_ptr<sim::Scheduler> scheduler_;
  sim::Engine engine_;
  Result result_;
};

}  // namespace sjs::serve
