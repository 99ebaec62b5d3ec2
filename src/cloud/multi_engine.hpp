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
// The engine mirrors sim::Engine's guarantees: exact completion instants per
// server via cumulative-work inversion, deterministic event ordering
// (Completion < Expiry < Release, FIFO within class), lazy invalidation via
// per-server dispatch epochs, and online information hiding.
//
// Events run through the same queue core as sim::Engine
// (sim/event_queue.hpp). A batch run seals the n releases and n expiries
// once, by merge (releases already ascend; only the expiries are sorted),
// with the seqs a push-everything queue would assign (release 2i, expiry
// 2i+1), and consumes them with a cursor. The volatile heap holds only the
// completions — plus, in live mode, the releases and expiries of admitted
// jobs. The pop merges the two fronts under the (time, type, seq) order, so
// the event sequence, and every outcome byte, equals a single queue's.
// Completions invalidated by a preemption or migration are counted dead and
// purged once they outnumber the live ones among the queued completions —
// a trigger that depends only on the dispatch history, so a live session
// and its replay compact at the same instants. Per-server rate/work/invert
// go through one monotone cap::CapacityProfile::Cursor per server.
#pragma once

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "capacity/capacity_profile.hpp"
#include "jobs/job.hpp"
#include "obs/trace_sink.hpp"
#include "sim/event_queue.hpp"
#include "sim/result.hpp"
#include "util/fp.hpp"

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

class MultiEngine {
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

  // --- live mode (real-time admission serving; mirrors sim::Engine) ---
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
  std::size_t job_capacity_hint() const {
    return std::max(job_count(), live_reserve_);
  }
  /// Registers the job at `id` (must already be appended to the backing jobs
  /// vector, dense id == position, release >= now). Pushes its release and
  /// expiry events exactly as replay does, so relative event order — and
  /// therefore every outcome byte — matches the replayed session.
  void admit_live(JobId id);
  /// Force-expires a live job at the current instant. Subdivides the running
  /// job's execution integral at now(), so cancel-bearing sessions are
  /// excluded from the bit-exact replay guarantee (same caveat as
  /// sim::Engine::cancel_live).
  bool cancel_live(JobId id);
  /// Processes every event strictly before t, then moves the clock to t.
  /// Execution integrals are subdivided at event times only, exactly as
  /// replay subdivides them, or remaining workloads drift by ulps.
  void advance_to(double t);
  /// Time of the earliest pending event, or +inf when idle.
  double next_event_time() const;
  /// Drains all pending events and harvests the result.
  const MultiSimResult& finish_live();
  bool live_mode() const { return live_; }
  /// Outcome of an admitted job (pending/completed/expired).
  sim::JobOutcome outcome(JobId id) const;

  /// Attaches a trace sink (src/obs/); events carry the server index in
  /// TraceEvent::server and migrations are recorded as kMigrate. Same
  /// contract as sim::Engine::attach_trace.
  void attach_trace(obs::TraceSink* sink) { sink_ = sink; }
  bool trace_enabled() const { return sink_ != nullptr; }

  // --- query surface (online-observable) ---
  double now() const { return now_; }
  std::size_t server_count() const { return servers_.size(); }
  double server_rate(std::size_t server) const;
  const Job& job(JobId id) const { return (*jobs_)[static_cast<std::size_t>(id)]; }
  std::size_t job_count() const { return jobs_->size(); }
  double remaining(JobId id) const;
  bool is_live(JobId id) const;
  bool is_released(JobId id) const;
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
  enum class EventType : std::uint8_t {
    kCompletion = 0,
    kExpiry = 1,
    kRelease = 2,
  };

  struct Event {
    double time;
    std::uint64_t seq;
    JobId job;
    std::uint64_t epoch;   ///< dispatch epoch of `server` (completions)
    std::uint32_t server;  ///< kNoEventServer unless a completion
    EventType type;

    bool operator>(const Event& other) const {
      if (fp::exact_ne(time, other.time)) return time > other.time;
      if (type != other.type) return type > other.type;
      return seq > other.seq;
    }
  };
  static constexpr std::uint32_t kNoEventServer = 0xffffffffu;

  /// Records one trace event at `now_` (null check only when disabled).
  void trace(obs::TraceKind kind, JobId job, std::size_t server,
             double a = 0.0, double b = 0.0) {
    if (sink_) {
      sink_->record(obs::TraceEvent{
          now_, kind, job,
          server == kNoServer ? -1 : static_cast<std::int32_t>(server), a, b});
    }
  }

  /// Pushes a live-admitted release or expiry onto the volatile heap.
  void push_job_event(double time, EventType type, JobId job);
  /// Seals the static side with every job's release and expiry (batch).
  void seal();
  /// Pops and processes one event (the body of every run loop).
  void step_event();
  /// Accounts execution on every busy server up to time t.
  void advance_all(double t);
  /// Bumps the server's dispatch epoch; a completion queued under the old
  /// epoch is now dead (counted, and compacted once dead ones dominate).
  void invalidate_completion(std::size_t server);
  /// Bookkeeping stop of the job on `server` (no callback).
  void halt_server(std::size_t server);
  void schedule_completion(std::size_t server);
  /// Dispatches one event to its handler (shared by replay and live mode).
  void process_event(const Event& event);
  /// Copies outcome tables into result_ and closes the trace stream.
  void harvest();

  const std::vector<Job>* jobs_;
  std::vector<cap::CapacityProfile> servers_;
  GlobalScheduler* scheduler_;

  double now_ = 0.0;
  double last_advance_ = 0.0;
  // Per server.
  std::vector<JobId> running_;
  std::vector<std::uint64_t> epochs_;
  /// 1 while a completion for the current epoch is queued.
  std::vector<std::uint8_t> completion_queued_;
  /// Monotone capacity cursors (mutable: amortized-O(1) const queries).
  mutable std::vector<cap::CapacityProfile::Cursor> cursors_;
  // Per job, dense by id.
  std::vector<std::size_t> placement_;  // server or kNoServer
  std::vector<double> remaining_;
  std::vector<sim::JobOutcome> outcomes_;
  std::vector<std::uint8_t> released_;

  sim::EventQueue<Event> events_;
  /// Completion events in the heap, live and dead: the compaction trigger's
  /// population (releases/expiries excluded, so live and batch runs agree).
  std::size_t queued_completions_ = 0;
  std::uint64_t next_seq_ = 0;
  bool in_callback_ = false;
  bool live_ = false;
  std::size_t live_reserve_ = 0;  // reserve_live() dense pre-size (hint)
  obs::TraceSink* sink_ = nullptr;
  MultiSimResult result_;
};

}  // namespace sjs::cloud
