#include "sim/engine.hpp"

#include <algorithm>
#include <limits>

#include "util/logging.hpp"
#include "util/vec.hpp"

namespace sjs::sim {

Engine::Engine(const Instance& instance, Scheduler& scheduler)
    : instance_(&instance),
      scheduler_(&scheduler),
      core_(*this, instance.jobs(), &instance.capacity(), 1) {
  rewind();
}

void Engine::reset(Scheduler& scheduler) {
  scheduler_ = &scheduler;
  rewind();
}

void Engine::rewind() {
  core_.rewind();
  jobs_.bind_dense(instance_->size());
  static_sealed_ = false;
  wheel_.clear();
}

void Engine::seal() {
  SJS_CHECK_MSG(!static_sealed_,
                "static event queue sealed twice without a reset");
  const bool capacity = scheduler_->wants_capacity_events();
  const bool live = core_.live();
  const std::size_t n = live ? 0 : instance_->size();
  // The instance is append-only and its capacity path fixed, so a batch
  // seal is determined by the job count and the capacity subscription. A
  // batch seal starts at seq 0, so a cached one replays with its own seqs.
  const bool cached = !live && batch_seal_cached_ && batch_seal_jobs_ == n &&
                      batch_seal_capacity_ == capacity;
  // Breakpoints ascend strictly. A live run takes all of them, as its final
  // deadline is unknown up front; the extras beyond the last admitted
  // deadline fire with no live jobs and change nothing, so outcome equality
  // with replay is unaffected.
  const std::vector<double>& bps = instance_->capacity().breakpoints();
  const auto bp = std::upper_bound(bps.begin(), bps.end(), 0.0);
  const auto bp_end =
      !capacity ? bp
      : live    ? bps.end()
                : std::upper_bound(bp, bps.end(), instance_->max_deadline());
  core_.seal(n, bps.data() + (bp - bps.begin()),
             static_cast<std::size_t>(bp_end - bp), !cached);
  batch_seal_cached_ = !live;
  batch_seal_jobs_ = n;
  batch_seal_capacity_ = capacity;
  static_sealed_ = true;
  note_queue_peak();
}

Engine::Event Engine::pop_event() {
  // Three-way merge-pop: the queue's static/heap front against the timer
  // wheel's — whichever is smallest under Event's total order. The sides
  // never tie: seq numbers are globally unique.
  const Event* best = core_.queue().front();
  double wheel_time = 0.0;
  std::uint64_t wheel_seq = 0;
  if (wheel_.peek(wheel_time, wheel_seq)) {
    const Event wheel_front{wheel_time, wheel_seq, kNoJob, 0, 0,
                            EventType::kTimer};
    if (best == nullptr || *best > wheel_front) {
      const TimerWheel::Fired fired = wheel_.pop();
      // Event::id carries the tag in the low 32 bits and a tombstone flag in
      // bit 32 (a cancelled timer still pops as a dead event — see the
      // subdivision argument in sim/timer_wheel.hpp). The slot is freed.
      const std::uint64_t id =
          static_cast<std::uint32_t>(fired.tag) |
          (fired.live ? 0ull : (1ull << 32));
      return Event{fired.time, fired.seq, fired.job, id, 0, EventType::kTimer};
    }
  }
  return core_.queue().take(best);
}

double Engine::peek_event_time() const {
  // Only the minimum timestamp is needed here, and the fronts carry exact
  // (same-path) doubles, so a plain min over times matches the full
  // Event-order merge in pop_event.
  double t = core_.queue().front_time();
  double wheel_time = 0.0;
  std::uint64_t wheel_seq = 0;
  if (wheel_.peek(wheel_time, wheel_seq)) t = std::min(t, wheel_time);
  return t;
}

void Engine::maybe_compact_heap() {
  // The volatile side is the completion heap plus the wheel's queued nodes —
  // the same population the single pre-wheel heap held, so the trigger fires
  // at the same instants as before the split (digest-neutral by replication).
  if (!core_.queue().compaction_due(core_.queue().volatile_size() +
                                     wheel_.pending_count())) {
    return;
  }
  core_.purge_stale_completions();
  wheel_.purge_dead();
  ++result_.heap_compactions;
}

void Engine::note_queue_peak() {
  result_.event_heap_peak =
      std::max<std::uint64_t>(result_.event_heap_peak, pending_events());
}

void Engine::note_dead_peak() {
  result_.event_heap_dead_peak = std::max<std::uint64_t>(
      result_.event_heap_dead_peak, core_.queue().dead());
}

void Engine::halt_running() {
  if (core_.halt(0)) note_dead_peak();
}

void Engine::run(JobId id) {
  SJS_CHECK_MSG(core_.in_callback(),
                "Engine::run() outside a scheduler callback");
  core_.advance(now());
  const JobId current = running();
  if (id == current) return;

  if (current != kNoJob && core_.remaining(current) > 0.0) {
    ++result_.preemptions;
    trace(obs::TraceKind::kPreempt, current, core_.remaining(current));
  }
  halt_running();
  if (id == kNoJob) {
    trace(obs::TraceKind::kIdle, kNoJob);
    return;
  }

  SJS_CHECK_MSG(is_live(id), "run() on non-live job " << id);
  ++result_.dispatches;
  trace(obs::TraceKind::kDispatch, id, core_.remaining(id));
  // Without a queued completion the job cannot finish under the true
  // capacity path from here; the expiry event at its deadline will raise the
  // failure interrupt (the scheduler is free to preempt it earlier).
  if (core_.dispatch(0, id)) note_queue_peak();
}

TimerId Engine::set_timer(double t, JobId jid, int tag) {
  SJS_CHECK_MSG(core_.in_callback(), "set_timer() outside a scheduler callback");
  SJS_CHECK_MSG(t >= now() - 1e-12,
                "timer in the past: " << t << " < " << now());
  // The global seq keeps wheel entries totally ordered against the other two
  // event sides exactly as when timers shared the heap.
  const TimerId id = wheel_.arm(std::max(t, now()), jid, tag, core_.take_seq());
  ++result_.timers_armed;
  result_.timer_slab_peak =
      std::max<std::uint64_t>(result_.timer_slab_peak, wheel_.live_count());
  note_queue_peak();
  return id;
}

void Engine::cancel_timer(TimerId id) {
  if (id == kNoTimer) return;
  // O(1): frees the slab slot; the queued node stays as a tombstone (stale
  // ids are a tolerated no-op; corrupted ids fail a check inside the wheel).
  if (!wheel_.cancel(id)) return;
  core_.queue().mark_dead();  // its queued node is now dead weight
  note_dead_peak();
  maybe_compact_heap();
}

void Engine::handle_completion(const Event& event) {
  if (!core_.complete(event)) return;  // stale
  const Job& j = instance_->job(event.job);
  result_.completed_value += j.value;
  ++result_.completed_count;
  result_.completion_times[job_slot(event.job)] = now();
  result_.value_trace.append(now(), result_.completed_value);
  trace(obs::TraceKind::kComplete, event.job, j.value);

  scheduler_->on_complete(*this, event.job);
}

void Engine::handle_expiry(const Event& event) {
  if (!core_.expire(event.job)) return;  // completed (or cancelled) first
  ++result_.expired_count;
  const bool was_running = (running() == event.job);
  if (was_running) halt_running();
  trace(obs::TraceKind::kExpire, event.job, core_.remaining(event.job),
        was_running ? 1.0 : 0.0);
  // A job withdrawn before its release never reached the scheduler.
  if (is_released(event.job)) {
    scheduler_->on_expire(*this, event.job, was_running);
  }
}

void Engine::handle_release(const Event& event) {
  if (!core_.release(event.job)) return;  // withdrawn before its release
  const Job& j = instance_->job(event.job);
  trace(obs::TraceKind::kRelease, event.job, j.workload, j.deadline);
  scheduler_->on_release(*this, event.job);
}

void Engine::handle_timer(const Event& event) {
  if ((event.id >> 32) != 0) {
    // Cancelled before firing (a wheel tombstone): dead event, counted when
    // the cancel happened. Popping it still advanced the clock — the
    // digest-relevant side effect the tombstone exists to preserve.
    core_.queue().drop_dead();
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

void Engine::start_run() {
  // clear() (not `result_ = SimResult{}`) keeps every per-job vector's
  // capacity, so a warmed engine's replay performs no result allocations.
  result_.clear();
  result_.scheduler_name = scheduler_->name();
  result_.generated_value = instance_->total_value();
  result_.completion_times.assign(instance_->size(),
                                  std::numeric_limits<double>::quiet_NaN());
  result_.release_times.reserve(instance_->size());
  for (const Job& j : instance_->jobs()) {
    util::append(result_.release_times, j.release);
  }
}

const SimResult& Engine::run_to_completion() {
  start_run();
  result_.value_trace.reserve(instance_->size());
  seal();

  trace(obs::TraceKind::kRunStart, kNoJob,
        static_cast<double>(instance_->size()));
  core_.callback([&] { scheduler_->on_start(*this); });

  while (step_event()) {
  }

  harvest_result();
  return result_;
}

void Engine::process_event(const Event& event) {
  ++result_.events_processed;
  switch (event.type) {
    case EventType::kCompletion:
      handle_completion(event);
      break;
    case EventType::kExpiry:
      handle_expiry(event);
      break;
    case EventType::kCapacityChange:
      trace(obs::TraceKind::kCapacityChange, kNoJob, current_rate());
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
bool Engine::step_event() {
  if (pending_events() == 0) return false;
  const Event event = pop_event();
  core_.reach(event.time);
  // Safe exactly here: the pop removed the global minimum, so no pending
  // wheel entry is earlier than now() — the precondition for cascading.
  wheel_.advance_clock(now());
  core_.callback([&] { process_event(event); });
  return true;
}

void Engine::harvest_result() {
  core_.harvest(result_.outcomes, result_.executed_work);
  result_.busy_time = core_.busy_time(0);
  result_.executed_total = core_.executed_total();
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
  // A live session normally starts empty, but admit any pre-loaded jobs so a
  // warm-started instance behaves like the equivalent replay.
  core_.begin_live();
  start_run();
  seal();

  trace(obs::TraceKind::kRunStart, kNoJob,
        static_cast<double>(instance_->size()));
  core_.callback([&] { scheduler_->on_start(*this); });
}

void Engine::admit_live(JobId id) {
  const Job& j = core_.admit_live(id);
  const JobId slab_id = jobs_.append_dense();
  SJS_CHECK_MSG(slab_id == id, "job slab out of sync with instance ids");
  result_.generated_value += j.value;
  util::append(result_.completion_times,
               std::numeric_limits<double>::quiet_NaN());
  util::append(result_.release_times, j.release);
  note_queue_peak();
}

double Engine::next_event_time() const {
  if (pending_events() == 0) return std::numeric_limits<double>::infinity();
  return peek_event_time();
}

const SimResult& Engine::finish_live() {
  core_.finish_live();
  harvest_result();
  return result_;
}

void Engine::reserve_live(std::size_t max_in_flight, std::size_t jobs) {
  core_.reserve_live(max_in_flight, jobs);
  const std::size_t dense = core_.job_capacity_hint();
  jobs_.reserve(dense);
  // The static side of a live run only takes capacity breakpoints.
  core_.queue().reserve_static(instance_->capacity().breakpoints().size());
  wheel_.reserve(max_in_flight);
  result_.completion_times.reserve(dense);
  result_.release_times.reserve(dense);
  result_.outcomes.reserve(dense);
  result_.executed_work.reserve(dense);
  result_.value_trace.reserve(dense);
}

}  // namespace sjs::sim
