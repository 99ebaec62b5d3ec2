// ExecCore — the execution model both event engines run on: K servers, each
// with its own piecewise-constant capacity path, executing one job stream.
// sim::Engine holds it with K = 1, cloud::MultiEngine with a fleet of K.
//
// The core owns the ground truth the engines used to keep twice:
//
//  * per server: the running job, the dispatch epoch, whether a completion
//    for that epoch is queued, a monotone capacity cursor, and busy time;
//  * per job (dense, id == slot): remaining workload, outcome, released;
//  * one Event layout and its EventQueue (sim/event_queue.hpp), ordered
//    Completion < Expiry < CapacityChange < Release < Timer at equal times,
//    so a job finishing exactly at its deadline succeeds;
//  * the execution-integral advance, completion scheduling (exact inversion
//    of the cumulative-work function, clamped onto the deadline within
//    deadline_eps), the stale-epoch and residue checks, and the expiry and
//    release bookkeeping;
//  * the live-mode shell (begin/admit/cancel/advance_to/finish).
//
// Each engine keeps what only it needs: its scheduler interface, results,
// tracing, and its own compaction trigger. The triggers stay separate on
// purpose: a purge drops the execution-integral subdivisions its dead events
// would have made, so the instants at which compaction fires are part of
// each engine's digest. sim::Engine further keeps the timer wheel (a third
// queue front), capacity-change events and its batch-seal cache;
// cloud::MultiEngine keeps job placement and migration.
//
// Lazy invalidation: halting a server bumps its epoch, and a completion
// queued under an older epoch is dead. The core counts it dead on the queue
// at once and drops the count when it pops (complete() returns false).
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <vector>

#include "capacity/capacity_profile.hpp"
#include "jobs/job.hpp"
#include "sim/event_queue.hpp"
#include "sim/result.hpp"
#include "util/fp.hpp"
#include "util/logging.hpp"

namespace sjs::sim {

/// Relative tolerance for "completed by deadline" decisions. Completion
/// instants are exact inversions of the cumulative-work function, but
/// deadlines are computed independently (r + p/c_lo in the generators), so
/// the two can disagree by a few ulps. A job whose exact completion lands
/// within this tolerance of its deadline is treated as completing *at* the
/// deadline: its completion event is clamped onto the deadline.
inline double deadline_eps(double deadline) {
  return 1e-9 * std::max(1.0, std::abs(deadline));
}

/// Largest workload a completion event may leave behind: floating-point
/// dust, plus what the fastest rate executes within deadline_eps — the work
/// a completion clamped onto its deadline did not get to run.
inline double completion_residue_bound(const Job& job, double max_rate) {
  return 1e-6 * std::max(1.0, job.workload) +
         max_rate * deadline_eps(job.deadline);
}

class ExecCore {
 public:
  enum class EventType : std::uint8_t {
    // Declaration order IS the tie-break priority at equal timestamps.
    kCompletion = 0,
    kExpiry = 1,
    kCapacityChange = 2,
    kRelease = 3,
    kTimer = 4,
  };

  struct Event {
    double time;
    std::uint64_t seq;     // FIFO tie-break within the same (time, type)
    JobId job;
    std::uint64_t id;      // dispatch epoch (completion) or timer tag
    std::uint32_t server;  // the completing job's server (completions)
    EventType type;

    bool operator>(const Event& other) const {
      if (fp::exact_ne(time, other.time)) return time > other.time;
      if (type != other.type) return type > other.type;
      return seq > other.seq;
    }
  };

  /// The engine side of the live-mode loops: its merged pop (sim::Engine
  /// adds the timer wheel) and its event handlers.
  class Host {
   public:
    /// Timestamp of the next pending event, or +inf when none is pending.
    virtual double next_event_time() const = 0;
    /// Pops and handles one event; false when none is pending.
    virtual bool step_event() = 0;
    /// Handles one event inside a callback scope, with the clock already at
    /// the event's time.
    virtual void process_event(const Event& event) = 0;

   protected:
    ~Host() = default;
  };

  /// Binds `count` servers with the capacity paths at `paths` (not owned,
  /// must outlive the core) to `jobs`, which must be in Instance canonical
  /// form (release-sorted, id == position) and may grow in live mode.
  ExecCore(Host& host, const std::vector<Job>& jobs,
           const cap::CapacityProfile* paths, std::size_t count);

  /// Rewinds to t = 0 with every job pending and every server idle,
  /// keeping the capacity of every container.
  void rewind();

  // --- clock and execution ---------------------------------------------------

  double now() const { return now_; }
  /// Moves the clock forward to `time` and accounts execution up to it —
  /// the first half of every popped event.
  void reach(double time) {
    now_ = std::max(now_, time);
    advance(now_);
  }
  /// Accounts execution on every busy server up to time t.
  void advance(double t) {
    SJS_CHECK_MSG(t >= last_advance_ - 1e-12,
                  "time moved backwards: " << t << " < " << last_advance_);
    t = std::max(t, last_advance_);
    if (t > last_advance_) {
      for (Server& s : servers_) {
        if (s.running == kNoJob) continue;
        const double executed = s.cursor.work(last_advance_, t);
        double& rem = remaining_[job_slot(s.running)];
        rem = std::max(0.0, rem - executed);
        s.busy += t - last_advance_;
        executed_total_ += executed;
        if (schedule_ != nullptr) record_slice(s.running, t);
      }
    }
    last_advance_ = t;
  }
  /// Records every execution slice into `schedule` (nullptr: off).
  void record_schedule(std::vector<ExecutionSlice>* schedule) {
    schedule_ = schedule;
  }
  double executed_total() const { return executed_total_; }

  // --- servers ---------------------------------------------------------------

  std::size_t server_count() const { return servers_.size(); }
  JobId running(std::size_t s) const { return servers_[s].running; }
  /// Server s's capacity at now(): amortized O(1) through its cursor.
  double rate(std::size_t s) const { return servers_[s].cursor.rate(now_); }
  double busy_time(std::size_t s) const { return servers_[s].busy; }

  /// Puts live job `id` on idle server s and queues its completion if the
  /// true capacity path lets it finish by its deadline (otherwise its expiry
  /// raises the failure interrupt). True when a completion was queued.
  bool dispatch(std::size_t s, JobId id) {
    Server& server = servers_[s];
    server.running = id;
    const Job& j = job(id);
    const double completion = server.cursor.invert(now_, remaining(id));
    if (completion > j.deadline + deadline_eps(j.deadline)) return false;
    // Clamped so a completion "at" the deadline sorts before the expiry.
    events_.push(Event{std::min(completion, j.deadline), next_seq_++, id,
                       server.epoch, static_cast<std::uint32_t>(s),
                       EventType::kCompletion});
    server.completion_queued = true;
    return true;
  }
  /// Idles server s (bookkeeping only) and bumps its epoch. True when that
  /// killed a queued completion, which is now counted dead on the queue.
  bool halt(std::size_t s) {
    Server& server = servers_[s];
    server.running = kNoJob;
    ++server.epoch;
    if (!server.completion_queued) return false;
    server.completion_queued = false;
    events_.mark_dead();
    return true;
  }

  // --- events ----------------------------------------------------------------

  EventQueue<Event>& queue() { return events_; }
  const EventQueue<Event>& queue() const { return events_; }
  /// Takes the next global sequence number (timers share the seq space).
  std::uint64_t take_seq() { return next_seq_++; }
  /// Lays out (or, with rebuild false, replays the cached layout of) the
  /// static side: the first `n` jobs' releases and expiries plus
  /// `extra_count` ascending capacity-change instants, with the seqs a
  /// push-everything queue would assign (release 2i, expiry 2i+1, extras
  /// after), continuing from the current seq.
  void seal(std::size_t n, const double* extras, std::size_t extra_count,
            bool rebuild = true);
  /// Erases every queued completion whose server's epoch has moved on.
  void purge_stale_completions();

  /// Settles a popped completion. False for a dead one (its server's epoch
  /// moved since it was queued); otherwise the job completes — within the
  /// residue bound — and its server idles.
  bool complete(const Event& event) {
    Server& server = servers_[event.server];
    if (event.id != server.epoch || event.job != server.running) {
      events_.drop_dead();  // counted when its epoch was bumped
      return false;
    }
    server.completion_queued = false;
    double& rem = remaining_[job_slot(event.job)];
    // The inversion is exact; any residue is floating-point dust or the
    // sliver a deadline clamp cut off.
    SJS_CHECK_MSG(rem < completion_residue_bound(job(event.job),
                                                 server.path->max_rate()),
                  "completion event with " << rem << " work left");
    rem = 0.0;
    outcome_[job_slot(event.job)] = JobOutcome::kCompleted;
    halt(event.server);
    return true;
  }
  /// Marks a pending job expired; false when it already completed/expired.
  bool expire(JobId id) {
    JobOutcome& outcome = outcome_[job_slot(id)];
    if (outcome != JobOutcome::kPending) return false;
    outcome = JobOutcome::kExpired;
    return true;
  }
  /// Marks a job released; false for one withdrawn before its release.
  bool release(JobId id) {
    if (outcome_[job_slot(id)] != JobOutcome::kPending) return false;
    released_[job_slot(id)] = 1;
    return true;
  }

  // --- jobs ------------------------------------------------------------------

  const Job& job(JobId id) const {
    return (*jobs_)[static_cast<std::size_t>(id)];
  }
  std::size_t job_count() const { return jobs_->size(); }
  const std::vector<Job>& jobs() const { return *jobs_; }
  /// Remaining workload, unchecked (hot path; the job must be admitted).
  double remaining(JobId id) const { return remaining_[job_slot(id)]; }
  /// Remaining workload of a released job (the schedulers' query).
  double released_remaining(JobId id) const {
    SJS_CHECK_MSG(is_released(id), "remaining() on unreleased job " << id);
    return remaining(id);
  }
  JobOutcome outcome(JobId id) const { return outcome_[job_slot(id)]; }
  /// Bounds-checked: a live ticket can name a job not admitted yet.
  bool is_released(JobId id) const {
    return id >= 0 && job_slot(id) < released_.size() &&
           released_[job_slot(id)] != 0;
  }
  bool is_live(JobId id) const {
    return is_released(id) && outcome(id) == JobOutcome::kPending;
  }
  /// Jobs the per-job lanes hold (admitted so far in live mode).
  std::size_t admitted() const { return outcome_.size(); }
  /// Copies the outcome lane and each job's executed work (its workload
  /// minus what remains) out, keeping the targets' capacity.
  void harvest(std::vector<JobOutcome>& outcomes,
               std::vector<double>& executed_work) const;

  // --- callbacks -------------------------------------------------------------

  bool in_callback() const { return in_callback_; }
  /// Runs `f` (a scheduler hook) inside a callback scope, where the
  /// engines accept scheduler commands.
  template <class F>
  void callback(F&& f) {
    in_callback_ = true;
    f();
    in_callback_ = false;
  }

  // --- live mode -------------------------------------------------------------
  //
  // A live session reuses the replay machinery exactly: admitted jobs'
  // releases and expiries go to the volatile heap (side placement never
  // changes the merged pop order), admissions are stamped in strictly
  // increasing order, and advance_to's bound is strict, so every event at
  // one timestamp is queued before any of them pops. See docs/serving.md.

  bool live() const { return live_; }
  /// Enters live mode, queueing the release and expiry of any job already
  /// in the backing vector (a warm start behaves like its replay).
  void begin_live();
  /// Pre-sizes a live session for `max_in_flight` simultaneous jobs (their
  /// releases and expiries, a completion per server, and the dead
  /// completions compaction tolerates) and max(jobs, max_in_flight)
  /// admitted jobs in the per-job lanes.
  void reserve_live(std::size_t max_in_flight, std::size_t jobs);
  /// What a scheduler should size its per-job structures for in on_start():
  /// the job count on batch runs, the reserve_live() pre-size when live.
  std::size_t job_capacity_hint() const {
    return std::max(job_count(), live_reserve_);
  }
  /// Admits job `id` — already appended to the backing vector, dense id ==
  /// position, release >= now() — and queues its release and expiry in the
  /// order the batch seal numbers them (2i, 2i+1). Returns the job.
  const Job& admit_live(JobId id);
  /// Force-expires an admitted pending job at now(): a released one through
  /// an ordinary expiry interrupt (which subdivides the running jobs'
  /// execution integrals at now(), so cancel-bearing sessions fall outside
  /// the bit-exact replay guarantee); one withdrawn before its release
  /// expires unseen by the scheduler, and its queued release and expiry
  /// later pop as no-ops. False when the job is not admitted or not pending.
  bool cancel_live(JobId id);
  /// Processes every event strictly before t, then moves the clock to t.
  void advance_to(double t);
  /// Drains every pending event and leaves live mode.
  void finish_live();

 private:
  struct Server {
    const cap::CapacityProfile* path;
    /// Monotone capacity cursor (mutable: amortized-O(1) const queries).
    mutable cap::CapacityProfile::Cursor cursor;
    JobId running = kNoJob;
    std::uint64_t epoch = 0;
    /// A completion for the current epoch is queued.
    bool completion_queued = false;
    double busy = 0.0;
  };

  /// Extends the current schedule slice if it continues `job`, else appends.
  void record_slice(JobId job, double t);
  void push_job_events(const Job& job);

  Host* host_;
  const std::vector<Job>* jobs_;
  std::vector<Server> servers_;
  std::vector<double> remaining_;
  std::vector<JobOutcome> outcome_;
  std::vector<std::uint8_t> released_;
  EventQueue<Event> events_;
  std::uint64_t next_seq_ = 0;
  double now_ = 0.0;
  double last_advance_ = 0.0;  // execution accounted up to this time
  double executed_total_ = 0.0;
  std::vector<ExecutionSlice>* schedule_ = nullptr;
  std::size_t live_reserve_ = 0;
  bool in_callback_ = false;
  bool live_ = false;
};

}  // namespace sjs::sim
