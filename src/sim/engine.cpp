#include "sim/engine.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "sim/deadline_tolerance.hpp"
#include "util/logging.hpp"
#include "util/fp.hpp"
#include "util/vec.hpp"

namespace sjs::sim {

Engine::Engine(const Instance& instance, Scheduler& scheduler)
    : instance_(&instance),
      scheduler_(&scheduler),
      cursor_(instance.capacity()) {
  rewind();
}

void Engine::reset(Scheduler& scheduler) {
  scheduler_ = &scheduler;
  rewind();
}

void Engine::rewind() {
  now_ = 0.0;
  last_advance_ = 0.0;
  running_ = kNoJob;
  dispatch_epoch_ = 0;
  completion_pending_ = false;

  jobs_.bind_dense(instance_->jobs());

  // The sealed static queue survives the rewind, for seal() to replay;
  // parking the cursor at its end keeps it out of pending_events() until
  // then.
  events_.park_static();
  static_sealed_ = false;
  events_.clear_volatile();
  next_seq_ = 0;
  wheel_.clear();
  cursor_.reset();
  in_callback_ = false;
  live_ = false;
}

void Engine::push_event(double time, EventType type, JobId jid,
                        std::uint64_t id) {
  // Live-admitted releases/expiries arrive after the static side was sealed,
  // so they use the heap; side placement never changes the merged pop order
  // (pop_event compares fronts under the total order on Event).
  SJS_CHECK_MSG(type == EventType::kCompletion ||
                    (live_ && (type == EventType::kRelease ||
                               type == EventType::kExpiry)),
                "static-side events are laid out by seal(), not pushed");
  // Growth to the episode high-water only; reserve_live pre-sizes this for
  // the serve plane, so a warmed steady state never grows it.
  events_.push(Event{time, type, next_seq_++, jid, id});
  result_.event_heap_peak = std::max<std::uint64_t>(
      result_.event_heap_peak, pending_events());
}

void Engine::seal() {
  SJS_CHECK_MSG(!static_sealed_,
                "static event queue sealed twice without a reset");
  const bool capacity = scheduler_->wants_capacity_events();
  const std::size_t n = live_ ? 0 : instance_->size();
  // The instance is append-only and its capacity path fixed, so a batch
  // seal is determined by the job count and the capacity subscription. A
  // batch seal starts at seq 0, so a cached one replays with its own seqs.
  const bool cached = !live_ && batch_seal_cached_ && batch_seal_jobs_ == n &&
                      batch_seal_capacity_ == capacity;
  if (!cached) {
    // Breakpoints ascend strictly. A live run takes all of them, as its
    // final deadline is unknown up front; the extras beyond the last
    // admitted deadline fire with no live jobs and change nothing, so
    // outcome equality with replay is unaffected.
    const std::vector<double>& bps = instance_->capacity().breakpoints();
    const auto bp = std::upper_bound(bps.begin(), bps.end(), 0.0);
    const auto bp_end =
        !capacity ? bp
        : live_   ? bps.end()
                  : std::upper_bound(bp, bps.end(), instance_->max_deadline());
    // Releases, expiries and breakpoints merged into one layout; positions
    // are job ids (jobs/instance.hpp canonical form).
    events_.seal(instance_->jobs(), n, next_seq_,
                 bps.data() + (bp - bps.begin()),
                 static_cast<std::size_t>(bp_end - bp),
                 [](SealKind kind, double time, std::uint64_t seq,
                    std::size_t index) {
                   switch (kind) {
                     case SealKind::kExpiry:
                       return Event{time, EventType::kExpiry, seq,
                                    static_cast<JobId>(index), 0};
                     case SealKind::kExtra:
                       return Event{time, EventType::kCapacityChange, seq,
                                    kNoJob, 0};
                     case SealKind::kRelease:
                       break;
                   }
                   return Event{time, EventType::kRelease, seq,
                                static_cast<JobId>(index), 0};
                 });
    batch_seal_cached_ = !live_;
    batch_seal_jobs_ = n;
    batch_seal_capacity_ = capacity;
  }
  events_.rewind_static();
  static_sealed_ = true;
  next_seq_ += events_.static_size();
  result_.event_heap_peak = std::max<std::uint64_t>(
      result_.event_heap_peak, pending_events());
}

Engine::Event Engine::pop_event() {
  // Three-way merge-pop: the queue's static/heap front against the timer
  // wheel's — whichever is smallest under Event's total order. The sides
  // never tie: seq numbers are globally unique.
  const Event* best = events_.front();
  double wheel_time = 0.0;
  std::uint64_t wheel_seq = 0;
  if (wheel_.peek(wheel_time, wheel_seq)) {
    const Event wheel_front{wheel_time, EventType::kTimer, wheel_seq, kNoJob,
                            0};
    if (best == nullptr || *best > wheel_front) {
      const TimerWheel::Fired fired = wheel_.pop();
      // Event::id carries the tag in the low 32 bits and a tombstone flag in
      // bit 32 (a cancelled timer still pops as a dead event — see the
      // subdivision argument in sim/timer_wheel.hpp). The slot is freed.
      const std::uint64_t id =
          static_cast<std::uint32_t>(fired.tag) |
          (fired.live ? 0ull : (1ull << 32));
      return Event{fired.time, EventType::kTimer, fired.seq, fired.job, id};
    }
  }
  return events_.take(best);
}

double Engine::peek_event_time() const {
  // Only the minimum timestamp is needed here, and the fronts carry exact
  // (same-path) doubles, so a plain min over times matches the full
  // Event-order merge in pop_event.
  double t = events_.front_time();
  double wheel_time = 0.0;
  std::uint64_t wheel_seq = 0;
  if (wheel_.peek(wheel_time, wheel_seq)) t = std::min(t, wheel_time);
  return t;
}

void Engine::maybe_compact_heap() {
  // The volatile side is the completion heap plus the wheel's queued nodes —
  // the same population the single pre-wheel heap held, so the trigger fires
  // at the same instants as before the split (digest-neutral by replication).
  if (!events_.compaction_due(events_.volatile_size() +
                              wheel_.pending_count())) {
    return;
  }
  events_.compact([&](const Event& e) {
    return e.type == EventType::kCompletion && e.id != dispatch_epoch_;
  });
  wheel_.purge_dead();
  ++result_.heap_compactions;
}

double Engine::remaining(JobId id) const {
  SJS_CHECK_MSG(is_released(id), "remaining() on unreleased job " << id);
  return jobs_.remaining(id);
}

bool Engine::is_released(JobId id) const {
  return jobs_.released_checked(id);
}

bool Engine::is_completed(JobId id) const {
  return jobs_.outcome(id) == JobOutcome::kCompleted;
}

bool Engine::is_expired(JobId id) const {
  return jobs_.outcome(id) == JobOutcome::kExpired;
}

bool Engine::is_live(JobId id) const {
  return is_released(id) && jobs_.outcome(id) == JobOutcome::kPending;
}

void Engine::advance_execution(double t) {
  SJS_CHECK_MSG(t >= last_advance_ - 1e-12,
                "time moved backwards: " << t << " < " << last_advance_);
  t = std::max(t, last_advance_);
  if (running_ != kNoJob && t > last_advance_) {
    const double executed = cursor_.work(last_advance_, t);
    double& rem = jobs_.remaining(running_);
    rem = std::max(0.0, rem - executed);
    result_.busy_time += t - last_advance_;
    result_.executed_total += executed;
    if (record_schedule_) {
      // Extend the current slice if it continues the same job, else append.
      auto& schedule = result_.schedule;
      if (!schedule.empty() && schedule.back().job == running_ &&
          fp::exact_eq(schedule.back().end, last_advance_)) {
        schedule.back().end = t;
      } else {
        util::append(schedule, ExecutionSlice{last_advance_, t, running_});
      }
    }
  }
  last_advance_ = t;
}

void Engine::halt_running() {
  running_ = kNoJob;
  ++dispatch_epoch_;  // invalidates any in-flight completion event
  if (completion_pending_) {
    completion_pending_ = false;
    events_.mark_dead();
    result_.event_heap_dead_peak =
        std::max<std::uint64_t>(result_.event_heap_dead_peak, events_.dead());
  }
}

void Engine::run(JobId id) {
  SJS_CHECK_MSG(in_callback_, "Engine::run() outside a scheduler callback");
  advance_execution(now_);
  if (id == running_) return;

  if (running_ != kNoJob && jobs_.remaining(running_) > 0.0) {
    ++result_.preemptions;
    trace(obs::TraceKind::kPreempt, running_, jobs_.remaining(running_));
  }
  halt_running();
  if (id == kNoJob) {
    trace(obs::TraceKind::kIdle, kNoJob);
    return;
  }

  SJS_CHECK_MSG(is_live(id), "run() on non-live job " << id);
  running_ = id;
  ++result_.dispatches;
  trace(obs::TraceKind::kDispatch, id, jobs_.remaining(id));

  const Job& j = instance_->job(id);
  const double completion = cursor_.invert(now_, jobs_.remaining(id));
  if (completion <= j.deadline + deadline_eps(j.deadline)) {
    // Clamp to the deadline so a completion that lands "at" the deadline
    // sorts before the expiry event at the same timestamp.
    push_event(std::min(completion, j.deadline), EventType::kCompletion, id,
               dispatch_epoch_);
    completion_pending_ = true;
  }
  // Otherwise the job cannot finish under the true capacity path from here;
  // the expiry event at its deadline will raise the failure interrupt (the
  // scheduler is free to preempt it earlier).
}

TimerId Engine::set_timer(double t, JobId jid, int tag) {
  SJS_CHECK_MSG(in_callback_, "set_timer() outside a scheduler callback");
  SJS_CHECK_MSG(t >= now_ - 1e-12, "timer in the past: " << t << " < " << now_);
  // The global seq keeps wheel entries totally ordered against the other two
  // event sides exactly as when timers shared the heap.
  const TimerId id = wheel_.arm(std::max(t, now_), jid, tag, next_seq_++);
  ++result_.timers_armed;
  result_.timer_slab_peak =
      std::max<std::uint64_t>(result_.timer_slab_peak, wheel_.live_count());
  result_.event_heap_peak = std::max<std::uint64_t>(
      result_.event_heap_peak, pending_events());
  return id;
}

void Engine::cancel_timer(TimerId id) {
  if (id == kNoTimer) return;
  // O(1): frees the slab slot; the queued node stays as a tombstone (stale
  // ids are a tolerated no-op; corrupted ids fail a check inside the wheel).
  if (!wheel_.cancel(id)) return;
  events_.mark_dead();  // its queued node is now dead weight
  result_.event_heap_dead_peak =
      std::max<std::uint64_t>(result_.event_heap_dead_peak, events_.dead());
  maybe_compact_heap();
}

void Engine::handle_completion(const Event& event) {
  if (event.id != dispatch_epoch_ || event.job != running_) {  // stale
    events_.drop_dead();  // counted when the preemption invalidated it
    return;
  }
  completion_pending_ = false;
  // The inversion is exact; any residue is floating-point dust or the sliver
  // a deadline clamp cut off.
  SJS_CHECK_MSG(jobs_.remaining(event.job) <
                    completion_residue_bound(instance_->job(event.job),
                                             instance_->capacity().max_rate()),
                "completion event with " << jobs_.remaining(event.job)
                                         << " work left");
  jobs_.remaining(event.job) = 0.0;
  jobs_.set_outcome(event.job, JobOutcome::kCompleted);
  halt_running();

  const Job& j = instance_->job(event.job);
  result_.completed_value += j.value;
  ++result_.completed_count;
  result_.completion_times[job_slot(event.job)] = now_;
  result_.value_trace.append(now_, result_.completed_value);
  trace(obs::TraceKind::kComplete, event.job, j.value);

  scheduler_->on_complete(*this, event.job);
}

void Engine::handle_expiry(const Event& event) {
  if (jobs_.outcome(event.job) != JobOutcome::kPending) return;  // completed
  jobs_.set_outcome(event.job, JobOutcome::kExpired);
  ++result_.expired_count;
  const bool was_running = (running_ == event.job);
  if (was_running) halt_running();
  trace(obs::TraceKind::kExpire, event.job, jobs_.remaining(event.job),
        was_running ? 1.0 : 0.0);
  scheduler_->on_expire(*this, event.job, was_running);
}

void Engine::handle_release(const Event& event) {
  jobs_.set_released(event.job);
  const Job& j = instance_->job(event.job);
  trace(obs::TraceKind::kRelease, event.job, j.workload, j.deadline);
  scheduler_->on_release(*this, event.job);
}

void Engine::handle_timer(const Event& event) {
  if ((event.id >> 32) != 0) {
    // Cancelled before firing (a wheel tombstone): dead event, counted when
    // the cancel happened. Popping it still advanced the clock — the
    // digest-relevant side effect the tombstone exists to preserve.
    events_.drop_dead();
    return;
  }
  // The slot was freed in pop_event; the id is already stale and the timer
  // fires exactly once.
  const JobId jid = event.job;
  const int tag = static_cast<int>(static_cast<std::uint32_t>(event.id));
  // Guard: timers reference queue membership that only matters for live jobs;
  // a timer outliving its job (completed early, or expired at the same
  // instant) must not resurrect it.
  if (jid != kNoJob && !is_live(jid)) return;
  trace(obs::TraceKind::kTimer, jid, static_cast<double>(tag));
  scheduler_->on_timer(*this, jid, tag);
}

const SimResult& Engine::run_to_completion() {
  // clear() (not `result_ = SimResult{}`) keeps every per-job vector's
  // capacity, so a warmed engine's replay performs no result allocations.
  result_.clear();
  result_.scheduler_name = scheduler_->name();
  result_.generated_value = instance_->total_value();
  result_.completion_times.assign(instance_->size(),
                                  std::numeric_limits<double>::quiet_NaN());
  result_.release_times.reserve(instance_->size());
  result_.value_trace.reserve(instance_->size());
  for (const Job& j : instance_->jobs()) {
    util::append(result_.release_times, j.release);
  }
  seal();

  trace(obs::TraceKind::kRunStart, kNoJob,
        static_cast<double>(instance_->size()));

  in_callback_ = true;
  scheduler_->on_start(*this);
  in_callback_ = false;

  while (pending_events() > 0) {
    step_event();
  }

  harvest_result();
  return result_;
}

void Engine::process_event(const Event& event) {
  switch (event.type) {
    case EventType::kCompletion:
      handle_completion(event);
      break;
    case EventType::kExpiry:
      handle_expiry(event);
      break;
    case EventType::kCapacityChange:
      trace(obs::TraceKind::kCapacityChange, kNoJob, cursor_.rate(now_));
      scheduler_->on_capacity_change(*this);
      break;
    case EventType::kRelease:
      handle_release(event);
      break;
    case EventType::kTimer:
      handle_timer(event);
      break;
  }
}

// sjs-hot-path-root
void Engine::step_event() {
  const Event event = pop_event();
  now_ = std::max(now_, event.time);
  // Safe exactly here: the pop removed the global minimum, so no pending
  // wheel entry is earlier than now_ — the precondition for cascading.
  wheel_.advance_clock(now_);
  advance_execution(now_);
  ++result_.events_processed;

  in_callback_ = true;
  process_event(event);
  in_callback_ = false;
}

void Engine::harvest_result() {
  result_.outcomes = jobs_.outcome_lane();
  util::grow(result_.executed_work, instance_->size());
  const std::vector<double>& remaining = jobs_.remaining_lane();
  for (std::size_t i = 0; i < instance_->size(); ++i) {
    result_.executed_work[i] = instance_->jobs()[i].workload - remaining[i];
  }
  result_.job_slab_peak = jobs_.peak();
  result_.job_slab_slots = jobs_.slots();
  result_.timer_slab_slots = wheel_.slab_size();
  result_.timer_cascades = wheel_.cascades();
  result_.timer_cascade_entries = wheel_.cascaded_entries();
  result_.timer_bucket_peak = wheel_.bucket_peak();
  const Scheduler::QueueStats queue_stats = scheduler_->queue_stats();
  result_.queue_peak = queue_stats.peak;
  result_.queue_slots = queue_stats.slots;
  trace(obs::TraceKind::kRunEnd, kNoJob, result_.completed_value,
        result_.generated_value);
  if (sink_) sink_->flush();
}

// --- Live mode (real-time admission serving) --------------------------------

void Engine::begin_live() {
  SJS_CHECK_MSG(!live_ && !in_callback_, "begin_live: already live");
  live_ = true;
  result_.clear();
  result_.scheduler_name = scheduler_->name();
  result_.generated_value = instance_->total_value();
  result_.completion_times.assign(instance_->size(),
                                  std::numeric_limits<double>::quiet_NaN());
  result_.release_times.reserve(instance_->size());
  // A live session normally starts empty, but admit any pre-loaded jobs so a
  // warm-started instance behaves like the equivalent replay.
  for (const Job& j : instance_->jobs()) {
    util::append(result_.release_times, j.release);
    push_event(j.release, EventType::kRelease, j.id, 0);
    push_event(j.deadline, EventType::kExpiry, j.id, 0);
  }
  seal();

  trace(obs::TraceKind::kRunStart, kNoJob,
        static_cast<double>(instance_->size()));
  in_callback_ = true;
  scheduler_->on_start(*this);
  in_callback_ = false;
}

void Engine::admit_live(JobId id) {
  SJS_CHECK_MSG(live_ && !in_callback_, "admit_live outside live mode");
  SJS_CHECK_MSG(static_cast<std::size_t>(id) == jobs_.size(),
                "admit_live out of order: job " << id << ", expected "
                    << jobs_.size());
  const Job& j = instance_->job(id);
  SJS_CHECK_MSG(j.release >= now_ - 1e-12,
                "admit_live in the past: release " << j.release << " < now "
                    << now_);
  // Dense append: live ids stay == admission order (journal local ids and
  // the outcome CSV depend on it), so slots are never reused here. All
  // growth is to reserve_live's pre-size in a bounded-in-flight session.
  const JobId slab_id = jobs_.append_dense(j.workload);
  SJS_CHECK_MSG(slab_id == id, "job slab out of sync with instance ids");
  result_.generated_value += j.value;
  util::append(result_.completion_times,
               std::numeric_limits<double>::quiet_NaN());
  util::append(result_.release_times, j.release);
  push_event(j.release, EventType::kRelease, id, 0);
  push_event(j.deadline, EventType::kExpiry, id, 0);
}

bool Engine::cancel_live(JobId id) {
  SJS_CHECK_MSG(live_ && !in_callback_, "cancel_live outside live mode");
  if (!is_live(id)) return false;
  // Deliver an ordinary expiry interrupt at the current instant; the job's
  // original expiry event stays queued and later pops as a no-op (outcome is
  // no longer pending). Note this subdivides the running job's execution
  // integral at now(), so cancel-bearing sessions are excluded from the
  // bit-exact replay guarantee (docs/serving.md).
  advance_execution(now_);
  const Event event{now_, EventType::kExpiry, next_seq_++, id, 0};
  ++result_.events_processed;
  in_callback_ = true;
  handle_expiry(event);
  in_callback_ = false;
  return true;
}

void Engine::advance_to(double t) {
  SJS_CHECK_MSG(live_ && !in_callback_, "advance_to outside live mode");
  SJS_CHECK_MSG(t >= now_ - 1e-12, "advance_to moving backwards: " << t
                                       << " < " << now_);
  while (pending_events() > 0 && peek_event_time() < t) {
    step_event();
  }
  now_ = std::max(now_, t);
  // last_advance_ deliberately stays at the last processed event: execution
  // integrals must be subdivided at event times only, exactly as replay
  // subdivides them, or remaining workloads drift by ulps.
}

double Engine::next_event_time() const {
  if (pending_events() == 0) return std::numeric_limits<double>::infinity();
  return peek_event_time();
}

const SimResult& Engine::finish_live() {
  SJS_CHECK_MSG(live_ && !in_callback_, "finish_live outside live mode");
  while (pending_events() > 0) {
    step_event();
  }
  harvest_result();
  live_ = false;
  return result_;
}

void Engine::reserve_live(std::size_t max_in_flight, std::size_t jobs) {
  const std::size_t dense = std::max(max_in_flight, jobs);
  live_reserve_ = dense;
  jobs_.reserve(dense);
  // Live releases/expiries go to the volatile heap: up to two events per
  // in-flight job, plus the running job's completion.
  events_.reserve_volatile(2 * max_in_flight + 1);
  // The static side of a live run only takes capacity breakpoints.
  events_.reserve_static(instance_->capacity().breakpoints().size());
  wheel_.reserve(max_in_flight);
  result_.completion_times.reserve(dense);
  result_.release_times.reserve(dense);
  result_.outcomes.reserve(dense);
  result_.executed_work.reserve(dense);
  result_.value_trace.reserve(dense);
}

}  // namespace sjs::sim
