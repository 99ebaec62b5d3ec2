// Coupled multi-server engine with migration — the full "cloud-wise"
// extension (paper Sec. I), beyond the dispatch-only model in dispatch.hpp.
//
// K servers, each with its own piecewise-constant capacity path, execute one
// shared secondary-job stream under a *global* scheduler that may place,
// preempt, and migrate any live job onto any server at any interrupt. A
// migrated job resumes from its point of preemption (preemption and
// migration are free, consistent with the single-server model's free
// preemption; real VM-migration costs can be modelled by the workload).
// A job occupies at most one server at a time (no intra-job parallelism —
// these are VMs).
//
// The execution model — per-server running job, dispatch epoch and capacity
// cursor, per-job remaining/outcome/released, the (time, type, seq) event
// queue with its sealed static side, exact completion instants by
// cumulative-work inversion clamped onto deadlines, and the live-mode shell
// — is sim::ExecCore (sim/exec_core.hpp), the same core sim::Engine holds
// with one server. This class adds the GlobalScheduler hooks, job placement
// and migration, and its own compaction trigger: completions invalidated by
// a preemption or migration are purged once they outnumber the live ones
// among the queued completions — a trigger that depends only on the
// dispatch history, so a live session (whose heap also holds every admitted
// job's release and expiry) and its replay compact at the same instants.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "capacity/capacity_profile.hpp"
#include "jobs/job.hpp"
#include "obs/trace_sink.hpp"
#include "sim/exec_core.hpp"
#include "sim/result.hpp"

namespace sjs::cloud {

inline constexpr std::size_t kNoServer = static_cast<std::size_t>(-1);

class MultiEngine;

/// Global scheduler interface: sees every server, may run any live job on
/// any server inside a callback.
class GlobalScheduler {
 public:
  virtual ~GlobalScheduler() = default;
  virtual void on_start(MultiEngine& /*engine*/) {}
  virtual void on_release(MultiEngine& engine, JobId job) = 0;
  virtual void on_complete(MultiEngine& engine, JobId job,
                           std::size_t server) = 0;
  /// `server` is kNoServer when the job expired while not running.
  virtual void on_expire(MultiEngine& engine, JobId job,
                         std::size_t server) = 0;
  virtual std::string name() const = 0;
};

struct MultiSimResult {
  std::string scheduler_name;
  double completed_value = 0.0;
  double generated_value = 0.0;
  std::uint64_t completed_count = 0;
  std::uint64_t expired_count = 0;
  std::uint64_t dispatches = 0;
  std::uint64_t preemptions = 0;
  std::uint64_t migrations = 0;  ///< dispatches onto a different server
  std::uint64_t heap_compactions = 0;  ///< purges of stale completions
  std::vector<sim::JobOutcome> outcomes;
  std::vector<double> executed_work;
  std::vector<double> completion_times;  ///< NaN while pending/expired
  std::vector<double> busy_time_per_server;

  // Fleet-rental accounting (filled by cluster::Dispatcher-driven runs;
  // zero for plain MultiEngine runs).
  double rental_cost = 0.0;          ///< integral of cost_rate over rented time
  double rented_machine_time = 0.0;  ///< integral of rented-machine count
  std::uint64_t rent_events = 0;
  std::uint64_t release_events = 0;
  std::uint64_t rented_peak = 0;  ///< max machines rented at once

  double value_fraction() const {
    return generated_value > 0.0 ? completed_value / generated_value : 0.0;
  }
};

class MultiEngine final : private sim::ExecCore::Host {
 public:
  /// Jobs must be release-sorted with ids equal to their positions (the
  /// Instance canonical form); servers must be non-empty. Neither the jobs
  /// nor the scheduler are owned.
  MultiEngine(const std::vector<Job>& jobs,
              std::vector<cap::CapacityProfile> servers,
              GlobalScheduler& scheduler);
  // The capacity cursors point into servers_.
  MultiEngine(const MultiEngine&) = delete;
  MultiEngine& operator=(const MultiEngine&) = delete;

  MultiSimResult run_to_completion();

  // --- live mode (real-time admission serving; ExecCore's shell) ---
  /// Enters live mode: no pre-loaded events beyond jobs already present in
  /// the backing vector (a warm-started fleet behaves like its replay).
  void begin_live();
  /// Pre-sizes a live session: the volatile event heap for `max_in_flight`
  /// simultaneous jobs (their releases and expiries, one completion per
  /// server, and the dead completions compaction tolerates), and the dense
  /// per-job tables for max(jobs, max_in_flight) admitted jobs — also the
  /// job_capacity_hint() a scheduler sizes its queues from in on_start.
  void reserve_live(std::size_t max_in_flight, std::size_t jobs = 0);
  /// What a scheduler should size its per-job structures for in on_start():
  /// the job count on batch runs, the reserve_live() pre-size when live.
  std::size_t job_capacity_hint() const { return core_.job_capacity_hint(); }
  /// Registers the job at `id` (must already be appended to the backing jobs
  /// vector, dense id == position, release >= now). Pushes its release and
  /// expiry events exactly as replay does, so relative event order — and
  /// therefore every outcome byte — matches the replayed session.
  void admit_live(JobId id);
  /// Force-expires an admitted pending job at the current instant (same
  /// contract as sim::Engine::cancel_live, including a job withdrawn before
  /// its release, which never reaches the scheduler).
  bool cancel_live(JobId id) { return core_.cancel_live(id); }
  /// Processes every event strictly before t, then moves the clock to t.
  /// Execution integrals are subdivided at event times only, exactly as
  /// replay subdivides them, or remaining workloads drift by ulps.
  void advance_to(double t) { core_.advance_to(t); }
  /// Time of the earliest pending event, or +inf when idle.
  double next_event_time() const override {
    return core_.queue().front_time();
  }
  /// Drains all pending events and harvests the result.
  const MultiSimResult& finish_live();
  bool live_mode() const { return core_.live(); }
  /// Outcome of an admitted job (pending/completed/expired).
  sim::JobOutcome outcome(JobId id) const;

  /// Attaches a trace sink (src/obs/); events carry the server index in
  /// TraceEvent::server and migrations are recorded as kMigrate. Same
  /// contract as sim::Engine::attach_trace.
  void attach_trace(obs::TraceSink* sink) { sink_ = sink; }
  bool trace_enabled() const { return sink_ != nullptr; }

  // --- query surface (online-observable) ---
  double now() const { return core_.now(); }
  std::size_t server_count() const { return core_.server_count(); }
  double server_rate(std::size_t server) const;
  const Job& job(JobId id) const { return core_.job(id); }
  std::size_t job_count() const { return core_.job_count(); }
  double remaining(JobId id) const { return core_.released_remaining(id); }
  bool is_live(JobId id) const { return core_.is_live(id); }
  bool is_released(JobId id) const { return core_.is_released(id); }
  /// Server currently executing `id`, or kNoServer.
  std::size_t server_of(JobId id) const;
  /// Job running on `server`, or kNoJob.
  JobId running_on(std::size_t server) const;

  // --- commands (valid inside callbacks only) ---
  /// Places `id` on `server`, preempting whatever runs there. If `id` is
  /// running elsewhere it is migrated (stopped there first). No-op if it
  /// already runs on `server`.
  void run_on(std::size_t server, JobId id);
  /// Idles `server`.
  void idle(std::size_t server);
  /// Stops `id` wherever it runs (no-op if queued).
  void stop(JobId id);

 private:
  using Event = sim::ExecCore::Event;
  using EventType = sim::ExecCore::EventType;

  /// Records one trace event at now() (null check only when disabled).
  void trace(obs::TraceKind kind, JobId job, std::size_t server,
             double a = 0.0, double b = 0.0) {
    if (sink_) {
      sink_->record(obs::TraceEvent{
          now(), kind, job,
          server == kNoServer ? -1 : static_cast<std::int32_t>(server), a, b});
    }
  }

  /// Resets the result for a run (batch or live).
  void start_run();
  /// Raises kRunStart and the scheduler's on_start.
  void announce_start();
  /// Pops and processes one event (the body of every run loop).
  bool step_event() override;
  /// Dispatches one event to its handler (shared by replay and live mode).
  void process_event(const Event& event) override;
  /// Idles `server` (no callback); a completion it kills is counted dead,
  /// and purged once dead ones dominate the queued completions.
  void halt_server(std::size_t server);
  /// Preemption accounting for the job about to leave `server`.
  void note_preempt(std::size_t server);
  /// Copies outcome tables into result_ and closes the trace stream.
  void harvest();

  std::vector<cap::CapacityProfile> servers_;
  GlobalScheduler* scheduler_;
  sim::ExecCore core_;
  /// Per job, dense by id: the server running it, or kNoServer.
  std::vector<std::size_t> placement_;
  /// Completion events in the heap, live and dead: the compaction trigger's
  /// population (releases/expiries excluded, so live and batch runs agree).
  std::size_t queued_completions_ = 0;
  obs::TraceSink* sink_ = nullptr;
  MultiSimResult result_;
};

}  // namespace sjs::cloud
