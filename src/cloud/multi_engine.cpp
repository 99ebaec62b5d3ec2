#include "cloud/multi_engine.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "sim/deadline_tolerance.hpp"
#include "util/logging.hpp"
#include "util/vec.hpp"

namespace sjs::cloud {

MultiEngine::MultiEngine(const std::vector<Job>& jobs,
                         std::vector<cap::CapacityProfile> servers,
                         GlobalScheduler& scheduler)
    : jobs_(&jobs), servers_(std::move(servers)), scheduler_(&scheduler) {
  SJS_CHECK_MSG(!servers_.empty(), "need at least one server");
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    SJS_CHECK_MSG(jobs[i].id == static_cast<JobId>(i),
                  "jobs must be in Instance canonical form (id == position)");
    SJS_CHECK_MSG(i == 0 || jobs[i].release >= jobs[i - 1].release,
                  "jobs must be release-sorted");
  }
  SJS_CHECK_MSG(servers_.size() < kNoEventServer, "too many servers");
  running_.assign(servers_.size(), kNoJob);
  epochs_.assign(servers_.size(), 0);
  completion_queued_.assign(servers_.size(), 0);
  cursors_.reserve(servers_.size());
  for (const cap::CapacityProfile& path : servers_) {
    util::append(cursors_, cap::CapacityProfile::Cursor(path));
  }
  placement_.assign(jobs.size(), kNoServer);
  remaining_.resize(jobs.size());
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    remaining_[i] = jobs[i].workload;
  }
  outcomes_.assign(jobs.size(), sim::JobOutcome::kPending);
  released_.assign(jobs.size(), 0);
}

void MultiEngine::push_job_event(double time, EventType type, JobId jid) {
  // Growth to the session high-water only; reserve_live pre-sizes the heap.
  events_.push(Event{time, next_seq_++, jid, 0, kNoEventServer, type});
}

void MultiEngine::seal() {
  // Seqs 2i / 2i+1: those of a release-then-expiry push per job, the order
  // admit_live pushes in, so a session and its replay tie-break alike.
  const std::size_t n = jobs_->size();
  events_.seal(*jobs_, n, next_seq_, nullptr, 0,
               [](sim::SealKind kind, double time, std::uint64_t seq,
                  std::size_t index) {
                 return Event{time, seq, static_cast<JobId>(index), 0,
                              kNoEventServer,
                              kind == sim::SealKind::kExpiry
                                  ? EventType::kExpiry
                                  : EventType::kRelease};
               });
  next_seq_ += events_.static_size();
}

double MultiEngine::server_rate(std::size_t server) const {
  SJS_CHECK(server < servers_.size());
  return cursors_[server].rate(now_);
}

double MultiEngine::remaining(JobId id) const {
  SJS_CHECK_MSG(is_released(id), "remaining() on unreleased job " << id);
  return remaining_[static_cast<std::size_t>(id)];
}

bool MultiEngine::is_released(JobId id) const {
  return id >= 0 && static_cast<std::size_t>(id) < released_.size() &&
         released_[static_cast<std::size_t>(id)];
}

bool MultiEngine::is_live(JobId id) const {
  return is_released(id) &&
         outcomes_[static_cast<std::size_t>(id)] == sim::JobOutcome::kPending;
}

std::size_t MultiEngine::server_of(JobId id) const {
  SJS_CHECK(id >= 0 && static_cast<std::size_t>(id) < placement_.size());
  return placement_[static_cast<std::size_t>(id)];
}

JobId MultiEngine::running_on(std::size_t server) const {
  SJS_CHECK(server < servers_.size());
  return running_[server];
}

void MultiEngine::advance_all(double t) {
  SJS_CHECK_MSG(t >= last_advance_ - 1e-12, "time moved backwards");
  t = std::max(t, last_advance_);
  if (t > last_advance_) {
    for (std::size_t s = 0; s < servers_.size(); ++s) {
      const JobId jid = running_[s];
      if (jid == kNoJob) continue;
      const double executed = cursors_[s].work(last_advance_, t);
      auto& rem = remaining_[static_cast<std::size_t>(jid)];
      rem = std::max(0.0, rem - executed);
      result_.busy_time_per_server[s] += t - last_advance_;
    }
  }
  last_advance_ = t;
}

void MultiEngine::invalidate_completion(std::size_t server) {
  ++epochs_[server];
  if (completion_queued_[server] == 0) return;
  completion_queued_[server] = 0;
  events_.mark_dead();
  if (!events_.compaction_due(queued_completions_)) return;
  // Order-neutral purge of the stale completions. The trigger counts only
  // completions, so a live session and its replay purge at the same events.
  queued_completions_ -= events_.dead();
  events_.compact([&](const Event& e) {
    return e.type == EventType::kCompletion && e.epoch != epochs_[e.server];
  });
  ++result_.heap_compactions;
}

void MultiEngine::halt_server(std::size_t server) {
  const JobId jid = running_[server];
  if (jid != kNoJob) {
    placement_[static_cast<std::size_t>(jid)] = kNoServer;
    running_[server] = kNoJob;
  }
  invalidate_completion(server);
}

void MultiEngine::schedule_completion(std::size_t server) {
  const JobId jid = running_[server];
  if (jid == kNoJob) return;
  const Job& j = job(jid);
  const double completion =
      cursors_[server].invert(now_, remaining_[static_cast<std::size_t>(jid)]);
  if (completion <= j.deadline + sim::deadline_eps(j.deadline)) {
    // Clamped so a completion "at" the deadline sorts before the expiry.
    events_.push(Event{std::min(completion, j.deadline), next_seq_++, jid,
                       epochs_[server], static_cast<std::uint32_t>(server),
                       EventType::kCompletion});
    completion_queued_[server] = 1;
    ++queued_completions_;
  }
}

void MultiEngine::run_on(std::size_t server, JobId id) {
  SJS_CHECK_MSG(in_callback_, "run_on() outside a scheduler callback");
  SJS_CHECK(server < servers_.size());
  SJS_CHECK_MSG(is_live(id), "run_on() with non-live job " << id);
  advance_all(now_);
  if (running_[server] == id) return;

  // Migration: stop it wherever it currently runs.
  const std::size_t current = placement_[static_cast<std::size_t>(id)];
  if (current != kNoServer) {
    trace(obs::TraceKind::kMigrate, id, server, static_cast<double>(current),
          static_cast<double>(server));
    halt_server(current);
    ++result_.migrations;
  }
  // Preempt the incumbent on the target server.
  if (running_[server] != kNoJob) {
    if (remaining_[static_cast<std::size_t>(running_[server])] > 0.0) {
      ++result_.preemptions;
      trace(obs::TraceKind::kPreempt, running_[server], server,
            remaining_[static_cast<std::size_t>(running_[server])]);
    }
    halt_server(server);
  } else {
    invalidate_completion(server);
  }
  running_[server] = id;
  placement_[static_cast<std::size_t>(id)] = server;
  ++result_.dispatches;
  trace(obs::TraceKind::kDispatch, id, server,
        remaining_[static_cast<std::size_t>(id)]);
  schedule_completion(server);
}

void MultiEngine::idle(std::size_t server) {
  SJS_CHECK_MSG(in_callback_, "idle() outside a scheduler callback");
  SJS_CHECK(server < servers_.size());
  advance_all(now_);
  if (running_[server] != kNoJob &&
      remaining_[static_cast<std::size_t>(running_[server])] > 0.0) {
    ++result_.preemptions;
    trace(obs::TraceKind::kPreempt, running_[server], server,
          remaining_[static_cast<std::size_t>(running_[server])]);
  }
  halt_server(server);
  trace(obs::TraceKind::kIdle, kNoJob, server);
}

void MultiEngine::stop(JobId id) {
  SJS_CHECK_MSG(in_callback_, "stop() outside a scheduler callback");
  const std::size_t server = placement_[static_cast<std::size_t>(id)];
  if (server != kNoServer) idle(server);
}

// sjs-hot-path-root
void MultiEngine::step_event() {
  process_event(events_.pop());
}

void MultiEngine::process_event(const Event& event) {
  now_ = std::max(now_, event.time);
  // Dead events subdivide the execution integrals too, exactly as in
  // sim::Engine; the compaction trigger keeps that identical across modes.
  advance_all(now_);
  in_callback_ = true;
  switch (event.type) {
    case EventType::kCompletion: {
      --queued_completions_;
      if (event.epoch != epochs_[event.server] ||
          running_[event.server] != event.job) {
        events_.drop_dead();  // counted when its epoch was bumped
        break;
      }
      completion_queued_[event.server] = 0;
      const auto idx = static_cast<std::size_t>(event.job);
      SJS_CHECK_MSG(remaining_[idx] <
                        sim::completion_residue_bound(
                            job(event.job),
                            servers_[event.server].max_rate()),
                    "completion with " << remaining_[idx] << " work left");
      remaining_[idx] = 0.0;
      outcomes_[idx] = sim::JobOutcome::kCompleted;
      result_.completion_times[idx] = now_;
      halt_server(event.server);
      result_.completed_value += job(event.job).value;
      ++result_.completed_count;
      trace(obs::TraceKind::kComplete, event.job, event.server,
            job(event.job).value);
      scheduler_->on_complete(*this, event.job, event.server);
      break;
    }
    case EventType::kExpiry: {
      const auto idx = static_cast<std::size_t>(event.job);
      if (outcomes_[idx] != sim::JobOutcome::kPending) break;
      outcomes_[idx] = sim::JobOutcome::kExpired;
      ++result_.expired_count;
      const std::size_t server = placement_[idx];
      if (server != kNoServer) halt_server(server);
      trace(obs::TraceKind::kExpire, event.job, server, remaining_[idx],
            server != kNoServer ? 1.0 : 0.0);
      scheduler_->on_expire(*this, event.job, server);
      break;
    }
    case EventType::kRelease: {
      released_[static_cast<std::size_t>(event.job)] = 1;
      const Job& j = job(event.job);
      trace(obs::TraceKind::kRelease, event.job, kNoServer, j.workload,
            j.deadline);
      scheduler_->on_release(*this, event.job);
      break;
    }
  }
  in_callback_ = false;
}

void MultiEngine::harvest() {
  result_.outcomes = outcomes_;
  result_.executed_work.resize(jobs_->size());
  for (std::size_t i = 0; i < jobs_->size(); ++i) {
    result_.executed_work[i] = (*jobs_)[i].workload - remaining_[i];
  }
  trace(obs::TraceKind::kRunEnd, kNoJob, kNoServer, result_.completed_value,
        result_.generated_value);
  if (sink_) sink_->flush();
}

MultiSimResult MultiEngine::run_to_completion() {
  SJS_CHECK_MSG(!live_, "run_to_completion during a live session");
  result_ = MultiSimResult{};
  result_.scheduler_name = scheduler_->name();
  result_.busy_time_per_server.assign(servers_.size(), 0.0);
  result_.completion_times.assign(jobs_->size(),
                                  std::numeric_limits<double>::quiet_NaN());
  for (const Job& j : *jobs_) result_.generated_value += j.value;
  seal();

  trace(obs::TraceKind::kRunStart, kNoJob, kNoServer,
        static_cast<double>(jobs_->size()),
        static_cast<double>(servers_.size()));

  in_callback_ = true;
  scheduler_->on_start(*this);
  in_callback_ = false;

  while (events_.pending() > 0) step_event();

  harvest();
  return result_;
}

// --- Live mode (real-time admission serving) --------------------------------

void MultiEngine::begin_live() {
  SJS_CHECK_MSG(!live_ && !in_callback_, "begin_live: already live");
  live_ = true;
  result_ = MultiSimResult{};
  result_.scheduler_name = scheduler_->name();
  result_.busy_time_per_server.assign(servers_.size(), 0.0);
  result_.completion_times.assign(jobs_->size(),
                                  std::numeric_limits<double>::quiet_NaN());
  // The reset above dropped reserve_live's pre-size of this one.
  result_.completion_times.reserve(live_reserve_);
  // A live session normally starts empty, but admit any pre-loaded jobs so a
  // warm-started fleet behaves like the equivalent replay.
  for (const Job& j : *jobs_) {
    result_.generated_value += j.value;
    push_job_event(j.release, EventType::kRelease, j.id);
    push_job_event(j.deadline, EventType::kExpiry, j.id);
  }
  trace(obs::TraceKind::kRunStart, kNoJob, kNoServer,
        static_cast<double>(jobs_->size()),
        static_cast<double>(servers_.size()));
  in_callback_ = true;
  scheduler_->on_start(*this);
  in_callback_ = false;
}

void MultiEngine::reserve_live(std::size_t max_in_flight, std::size_t jobs) {
  const std::size_t dense = std::max(max_in_flight, jobs);
  live_reserve_ = dense;
  placement_.reserve(dense);
  remaining_.reserve(dense);
  outcomes_.reserve(dense);
  released_.reserve(dense);
  result_.completion_times.reserve(dense);
  // A release and an expiry per in-flight job, a completion per server, and
  // the dead completions compaction lets accumulate (at most as many as the
  // live ones once past the minimum).
  events_.reserve_volatile(2 * max_in_flight + 2 * servers_.size() +
                           sim::kCompactionMinEvents);
}

void MultiEngine::admit_live(JobId id) {
  SJS_CHECK_MSG(live_ && !in_callback_, "admit_live outside live mode");
  SJS_CHECK_MSG(static_cast<std::size_t>(id) == placement_.size(),
                "admit_live out of order: job " << id << ", expected "
                    << placement_.size());
  SJS_CHECK_MSG(static_cast<std::size_t>(id) < jobs_->size(),
                "admit_live before the job was appended");
  const Job& j = job(id);
  SJS_CHECK_MSG(j.id == id, "job id out of sync with its position");
  SJS_CHECK_MSG(j.release >= now_ - 1e-12,
                "admit_live in the past: release " << j.release << " < now "
                    << now_);
  // Dense append: live ids stay == admission order, exactly as the replayed
  // Instance canonical form requires. Release-then-expiry push order per job
  // matches the batch seal's seqs (2i, 2i+1), so relative seq order within
  // every (time, type) class — the only thing the tie-break reads — is
  // identical.
  util::append(placement_, kNoServer);
  util::append(remaining_, j.workload);
  util::append(outcomes_, sim::JobOutcome::kPending);
  util::append(released_, std::uint8_t{0});
  result_.generated_value += j.value;
  util::append(result_.completion_times,
               std::numeric_limits<double>::quiet_NaN());
  push_job_event(j.release, EventType::kRelease, id);
  push_job_event(j.deadline, EventType::kExpiry, id);
}

bool MultiEngine::cancel_live(JobId id) {
  SJS_CHECK_MSG(live_ && !in_callback_, "cancel_live outside live mode");
  if (!is_live(id)) return false;
  // Deliver an ordinary expiry interrupt at the current instant; the job's
  // original expiry event stays queued and later pops as a no-op.
  advance_all(now_);
  process_event(Event{now_, next_seq_++, id, 0, kNoEventServer,
                      EventType::kExpiry});
  return true;
}

void MultiEngine::advance_to(double t) {
  SJS_CHECK_MSG(live_ && !in_callback_, "advance_to outside live mode");
  SJS_CHECK_MSG(t >= now_ - 1e-12,
                "advance_to moving backwards: " << t << " < " << now_);
  while (events_.front_time() < t) step_event();
  now_ = std::max(now_, t);
  // last_advance_ deliberately stays at the last processed event: execution
  // integrals must be subdivided at event times only, exactly as replay
  // subdivides them, or remaining workloads drift by ulps.
}

double MultiEngine::next_event_time() const {
  return events_.front_time();
}

const MultiSimResult& MultiEngine::finish_live() {
  SJS_CHECK_MSG(live_ && !in_callback_, "finish_live outside live mode");
  while (events_.pending() > 0) step_event();
  harvest();
  live_ = false;
  return result_;
}

sim::JobOutcome MultiEngine::outcome(JobId id) const {
  SJS_CHECK(id >= 0 && static_cast<std::size_t>(id) < outcomes_.size());
  return outcomes_[static_cast<std::size_t>(id)];
}

}  // namespace sjs::cloud
