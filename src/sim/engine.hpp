// Discrete-event engine for preemptive deadline scheduling on a processor
// with time-varying capacity.
//
// The engine owns ground truth (the full capacity sample path, remaining
// workloads, job outcomes) and drives a Scheduler through interrupts. Because
// the capacity path is piecewise constant, the completion instant of the
// running job is computed *exactly* by inverting the cumulative-work function
// — there is no time-stepping and no accumulation of integration error.
//
// Event ordering at equal timestamps (see DESIGN.md §5):
//   Completion < Expiry < CapacityChange < Release < Timer
// so a job finishing exactly at its deadline succeeds, and a timer armed
// "now" during a release handler fires immediately after it.
//
// The execution model — ground truth per server and per job, the event queue,
// the execution-integral advance, completion scheduling and the live-mode
// shell — is sim::ExecCore (sim/exec_core.hpp), held here with one server;
// cloud::MultiEngine holds the same core with a fleet. This class adds what
// only the single-server engine has: the Scheduler hooks, timers in
// sim::TimerWheel (a hierarchical wheel whose generation-stamped slab slots
// make a cancelled or fired timer's id stale in O(1)), capacity-change
// interrupts, the batch-seal cache, the schedulers' JobTable lanes and the
// recorded schedule. Dead events — completions killed by a preemption and
// cancelled-timer tombstones — are purged once they outnumber the live ones
// on the volatile side, so both structures stay bounded by the number of
// *simultaneously pending* timers/dispatches, not by the totals over the run.
#pragma once

#include <cstdint>
#include <vector>

#include "jobs/instance.hpp"
#include "obs/trace_sink.hpp"
#include "sim/exec_core.hpp"
#include "sim/job_table.hpp"
#include "sim/result.hpp"
#include "sim/scheduler.hpp"
#include "sim/timer_wheel.hpp"

namespace sjs::sim {

class Engine final : private ExecCore::Host {
 public:
  /// Binds the engine to an instance and a scheduler. Neither is owned; both
  /// must outlive the engine. A Scheduler instance must not be reused across
  /// runs (its internal queues would leak state); construct one per run and
  /// rebind with reset(scheduler) — the engine itself is reusable.
  Engine(const Instance& instance, Scheduler& scheduler);

  /// Runs the simulation to completion (all jobs completed or expired) and
  /// returns the result. The reference stays valid until the next
  /// run/reset; copy it (`SimResult r = engine.run_to_completion()`) to keep
  /// it longer. Returning a reference — not a value — is what lets a warmed
  /// engine replay with zero heap allocations (tests/hotpath_test.cpp).
  const SimResult& run_to_completion();

  /// Rewinds the engine for another run over the same instance with a fresh
  /// scheduler, keeping every allocation (remaining/outcome/release tables,
  /// event heap, timer slab) — the Monte-Carlo driver reuses one engine per
  /// run across all scheduler cells instead of reallocating each cell. The
  /// sealed release/expiry queue is kept too: the next run_to_completion
  /// replays it without rebuilding when the job count and the scheduler's
  /// wants_capacity_events() match the last batch run. The replayed event
  /// stream is bit-identical to a freshly constructed engine's (asserted in
  /// tests/engine_test.cpp). The trace sink and record_schedule flag persist
  /// across resets; pass attach_trace(nullptr) to detach.
  void reset(Scheduler& scheduler);

  // --- Live mode (real-time admission serving, src/serve/) -----------------
  //
  // The serving daemon drives the engine against wall-clock time instead of
  // running a sealed instance to completion: jobs are appended to the bound
  // Instance as they arrive over the wire (Instance::append_job) and admitted
  // with admit_live(); the event loop advances virtual time with
  // advance_to(t) between socket polls. The shell is ExecCore's (see its
  // live-mode notes): a live session whose admitted arrival stream is
  // journalled and replayed through run_to_completion reproduces the
  // identical schedule. See docs/serving.md for the full argument.

  /// Enters live mode over the (possibly empty) bound instance: initialises
  /// the run, seals the capacity-change interrupts if the scheduler wants
  /// them, and raises on_start. Pair with finish_live().
  void begin_live();

  /// Admits job `id` — already appended to the bound Instance, release
  /// >= now() — into the live run: schedules its release and expiry.
  void admit_live(JobId id);

  /// Force-expires an admitted pending job at now() (client cancellation,
  /// or an admission withdrawn by a failed journal commit). A released job
  /// raises an ordinary on_expire interrupt; one not yet released expires
  /// without reaching the scheduler. Returns false when the job is not
  /// admitted or no longer pending. Sessions containing cancellations are
  /// not journal-replayable through run_to_completion (the replay input has
  /// no cancel channel).
  bool cancel_live(JobId id) { return core_.cancel_live(id); }

  /// Processes every pending event with time *strictly* before t, then
  /// advances the virtual clock to t (>= now()). Strictness is what keeps
  /// live pop order identical to replay order: events at exactly t wait
  /// until every same-timestamp admission has been queued.
  void advance_to(double t) { core_.advance_to(t); }

  /// Timestamp of the next pending event, or +infinity when idle — the event
  /// loop's poll-timeout bound.
  double next_event_time() const override;

  /// Fast-forwards through every remaining event (drain: the simulated
  /// backlog is resolved immediately in virtual time), harvests and returns
  /// the result, and leaves live mode. Same reference lifetime as
  /// run_to_completion().
  const SimResult& finish_live();

  bool live_mode() const { return core_.live(); }

  /// Pre-sizes a live session: the structures that grow with the in-flight
  /// population (both event-queue sides, the timer wheel's node slab) for
  /// `max_in_flight` simultaneous jobs, and the dense per-admitted-job
  /// tables (the job slab's lanes, the result's per-job vectors, and —
  /// through job_capacity_hint() — the scheduler's id-indexed queues) for
  /// max(jobs, max_in_flight) admitted jobs. A warmed live session then
  /// performs zero heap allocations in steady state (the serve plane calls
  /// this at boot with --max-in-flight and serve::kSessionJobReserve).
  /// Sessions admitting more jobs *in total* still grow the dense tables
  /// past the pre-size (amortized, documented in docs/performance.md).
  void reserve_live(std::size_t max_in_flight, std::size_t jobs = 0);

  /// Bound schedulers should size their per-job structures for in
  /// on_start(): the static job count on replay runs, or the reserve_live()
  /// dense pre-size in a live session (where job_count() is still 0 at
  /// start).
  std::size_t job_capacity_hint() const { return core_.job_capacity_hint(); }

  // -------------------------------------------------------------------------

  /// Enables recording of the full execution timeline into
  /// SimResult::schedule (off by default; costs one slice append per
  /// dispatch change). Call before run_to_completion().
  void record_schedule(bool enabled) {
    core_.record_schedule(enabled ? &result_.schedule : nullptr);
  }

  /// Attaches a trace sink (src/obs/) receiving every engine event as a
  /// typed record; nullptr detaches. The sink is not owned and must outlive
  /// the run. With no sink attached the recording path is a single null
  /// check per event. Call before run_to_completion().
  void attach_trace(obs::TraceSink* sink) { sink_ = sink; }
  bool trace_enabled() const { return sink_ != nullptr; }

  // --- Query surface available to schedulers (online-observable only) ---

  double now() const { return core_.now(); }
  /// Current instantaneous capacity (observable: c(τ) is known for τ <= now).
  /// Served from the monotone capacity cursor: amortized O(1).
  double current_rate() const { return core_.rate(0); }
  /// The declared capacity band (known a priori to the algorithms).
  double c_lo() const { return instance_->c_lo(); }
  double c_hi() const { return instance_->c_hi(); }

  const Job& job(JobId id) const { return instance_->job(id); }
  std::size_t job_count() const { return instance_->size(); }
  /// Remaining workload of a released job (exact as of `now`).
  double remaining(JobId id) const { return core_.released_remaining(id); }
  bool is_released(JobId id) const { return core_.is_released(id); }
  bool is_completed(JobId id) const {
    return core_.outcome(id) == JobOutcome::kCompleted;
  }
  bool is_expired(JobId id) const {
    return core_.outcome(id) == JobOutcome::kExpired;
  }
  /// A job is live if released, not completed, and not expired.
  bool is_live(JobId id) const { return core_.is_live(id); }
  /// The job currently occupying the processor, or kNoJob.
  JobId running() const { return core_.running(0); }

  /// Conservative laxity (Definition 5) of a live job at `now`, computed with
  /// the capacity estimate `c_est` (V-Dover passes c_lo; Dover passes ĉ).
  double claxity(JobId id, double c_est) const {
    return job(id).deadline - now() - remaining(id) / c_est;
  }

  /// The structure-of-arrays job slab backing every per-job lane. Schedulers
  /// own their lanes (V-Dover's Qedf metadata / 0cl timers / flags, EDF-AC's
  /// admission scratch) and read/write them through this reference; the
  /// ground truth (remaining, outcome, released) is ExecCore's — schedulers
  /// read it through the query surface above.
  JobTable& job_state() { return jobs_; }
  const JobTable& job_state() const { return jobs_; }

  // --- Commands available to schedulers (only valid inside callbacks) ---

  /// Dispatches `id` (preempting whatever is running) or idles the processor
  /// when id == kNoJob. Dispatching the already-running job is a no-op.
  /// The job must be live. Preemption is free and resumable (paper Sec. II-A).
  void run(JobId id);

  /// Arms a timer that raises Scheduler::on_timer(job, tag) at time `t`
  /// (>= now; t == now fires after the current handler returns). The
  /// returned id encodes (slab slot, generation); it is invalidated — and
  /// its slot reclaimed — the moment the timer fires, is cancelled, or is
  /// swallowed because `job` died first.
  TimerId set_timer(double t, JobId job, int tag);

  /// Cancels a pending timer and frees its slab slot. Cancelling an
  /// already-fired or already-cancelled id is a harmless no-op (schedulers
  /// cancel lazily on preemption paths): the generation check rejects stale
  /// ids even after the slot was reused. A *corrupted* id — one whose slot
  /// index was never allocated — fails an SJS_CHECK loudly.
  void cancel_timer(TimerId id);

  // --- Hot-path occupancy introspection (tests, benches, gauges) ---

  /// Timers currently armed (wheel slab slots in use).
  std::size_t live_timer_count() const { return wheel_.live_count(); }
  /// Distinct slab slots ever allocated this run (bounded by the peak of
  /// live_timer_count, NOT by the total number of set_timer calls).
  std::size_t timer_slab_size() const { return wheel_.slab_size(); }
  /// Events currently pending (static queue + volatile heap + timer wheel),
  /// dead ones included.
  std::size_t queued_event_count() const { return pending_events(); }
  /// Dead events currently queued on the volatile side (stale completions in
  /// the heap + cancelled-timer tombstones in the wheel); lazy compaction
  /// keeps this at most max(kCompactionMinEvents, half the volatile side).
  std::size_t dead_event_count() const { return core_.queue().dead(); }

  /// Compaction is skipped below this volatile-side size (EventQueue).
  static constexpr std::size_t kCompactionMinEvents = sim::kCompactionMinEvents;

  /// Scheduler annotation channel: records an obs::TraceKind::kNote event
  /// (code from obs::NoteCode, plus a free payload) so algorithm-internal
  /// decisions are auditable from the trace. No-op without a sink.
  void note(JobId job, int code, double payload = 0.0) {
    trace(obs::TraceKind::kNote, job, static_cast<double>(code), payload);
  }

 private:
  using Event = ExecCore::Event;
  using EventType = ExecCore::EventType;

  /// Records one trace event at now(); compiles to a null check when no
  /// sink is attached (the zero-cost disabled path).
  void trace(obs::TraceKind kind, JobId job, double a = 0.0, double b = 0.0) {
    if (sink_) sink_->record(obs::TraceEvent{now(), kind, job, -1, a, b});
  }

  /// Seals the static side at run start. A batch run (run_to_completion)
  /// seals every job's release and expiry plus the capacity breakpoints in
  /// (0, max_deadline]; a live run (begin_live) seals only the breakpoints,
  /// all of them. A batch seal is cached and replayed by the next batch run
  /// with the same job count and capacity subscription; a live seal drops
  /// the cache.
  void seal();
  Event pop_event();
  /// Timestamp of the event pop_event would return (+inf when none). Dead
  /// events count — popping them is a cheap no-op, never wrong.
  double peek_event_time() const;
  /// Pops and handles exactly one event (the body of the run loops); false
  /// when none is pending.
  bool step_event() override;
  /// Dispatches one event to its handler (the switch shared by all modes).
  void process_event(const Event& event) override;
  /// Fills the end-of-run SimResult fields (outcome/work tables, occupancy
  /// stats, kRunEnd trace) shared by run_to_completion and finish_live.
  void harvest_result();
  /// Rewinds all per-run state (capacities of every container are kept).
  void rewind();
  /// Resets the result for a run and raises kRunStart and on_start once the
  /// static side is sealed.
  void start_run();
  /// Purges dead events once they outnumber the live ones (amortized O(1)
  /// per event; total order on events makes the rebuild order-neutral).
  void maybe_compact_heap();
  /// Stops the running job (bookkeeping only; no scheduler callback).
  void halt_running();
  /// Samples the pending-event and dead-event peaks into the result.
  void note_queue_peak();
  void note_dead_peak();
  void handle_completion(const Event& event);
  void handle_expiry(const Event& event);
  void handle_release(const Event& event);
  void handle_timer(const Event& event);

  std::size_t pending_events() const {
    return core_.queue().pending() + wheel_.pending_count();
  }

  const Instance* instance_;
  Scheduler* scheduler_;

  /// The execution model with one server: clock, ground truth, the
  /// static/volatile event queue (static: sealed releases, expiries and
  /// capacity changes; volatile: completions and live releases/expiries).
  /// Its dead count covers the whole volatile side, wheel tombstones
  /// included.
  ExecCore core_;
  /// The schedulers' per-job lanes (sim/job_table.hpp).
  JobTable jobs_;

  bool static_sealed_ = false;
  /// Cache key of the batch seal held in the core's static side (seal()).
  bool batch_seal_cached_ = false;
  std::size_t batch_seal_jobs_ = 0;
  bool batch_seal_capacity_ = false;

  /// Volatile side, timers: the hierarchical wheel — amortized O(1)
  /// arm/cancel, pops in exact (time, seq) order (sim/timer_wheel.hpp).
  /// pop_event merges its front with the core queue's under the total order
  /// on Event.
  TimerWheel wheel_;

  obs::TraceSink* sink_ = nullptr;
  SimResult result_;
};

}  // namespace sjs::sim
