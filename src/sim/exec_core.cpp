#include "sim/exec_core.hpp"

#include <limits>

#include "util/vec.hpp"

namespace sjs::sim {

ExecCore::ExecCore(Host& host, const std::vector<Job>& jobs,
                   const cap::CapacityProfile* paths, std::size_t count)
    : host_(&host), jobs_(&jobs) {
  SJS_CHECK_MSG(count > 0, "need at least one server");
  SJS_CHECK_MSG(count < std::numeric_limits<std::uint32_t>::max(),
                "too many servers");
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    SJS_CHECK_MSG(jobs[i].id == static_cast<JobId>(i),
                  "jobs must be in Instance canonical form (id == position)");
    SJS_CHECK_MSG(i == 0 || jobs[i].release >= jobs[i - 1].release,
                  "jobs must be release-sorted");
  }
  servers_.reserve(count);
  for (std::size_t s = 0; s < count; ++s) {
    util::append(servers_,
                 Server{&paths[s], cap::CapacityProfile::Cursor(paths[s])});
  }
  rewind();
}

void ExecCore::rewind() {
  now_ = 0.0;
  last_advance_ = 0.0;
  executed_total_ = 0.0;
  for (Server& s : servers_) {
    s.cursor.reset();
    s.running = kNoJob;
    s.epoch = 0;
    s.completion_queued = false;
    s.busy = 0.0;
  }
  const std::size_t n = jobs_->size();
  util::grow(remaining_, n);
  outcome_.assign(n, JobOutcome::kPending);
  released_.assign(n, 0);
  for (std::size_t i = 0; i < n; ++i) remaining_[i] = (*jobs_)[i].workload;
  // A sealed static layout survives the rewind, for seal() to replay;
  // parking the cursor at its end keeps it out of pending() until then.
  events_.park_static();
  events_.clear_volatile();
  next_seq_ = 0;
  in_callback_ = false;
  live_ = false;
}

void ExecCore::record_slice(JobId job, double t) {
  if (!schedule_->empty() && schedule_->back().job == job &&
      fp::exact_eq(schedule_->back().end, last_advance_)) {
    schedule_->back().end = t;
  } else {
    util::append(*schedule_, ExecutionSlice{last_advance_, t, job});
  }
}

void ExecCore::seal(std::size_t n, const double* extras,
                    std::size_t extra_count, bool rebuild) {
  if (rebuild) {
    // Positions are job ids (jobs/instance.hpp canonical form).
    events_.seal(*jobs_, n, next_seq_, extras, extra_count,
                 [](SealKind kind, double time, std::uint64_t seq,
                    std::size_t index) {
                   if (kind == SealKind::kExtra) {
                     return Event{time, seq, kNoJob, 0, 0,
                                  EventType::kCapacityChange};
                   }
                   return Event{time, seq, static_cast<JobId>(index), 0, 0,
                                kind == SealKind::kExpiry
                                    ? EventType::kExpiry
                                    : EventType::kRelease};
                 });
  }
  events_.rewind_static();
  next_seq_ += events_.static_size();
}

void ExecCore::purge_stale_completions() {
  events_.compact([&](const Event& e) {
    return e.type == EventType::kCompletion &&
           e.id != servers_[e.server].epoch;
  });
}

void ExecCore::harvest(std::vector<JobOutcome>& outcomes,
                       std::vector<double>& executed_work) const {
  outcomes = outcome_;
  const std::size_t n = jobs_->size();
  util::grow(executed_work, n);
  for (std::size_t i = 0; i < n; ++i) {
    executed_work[i] = (*jobs_)[i].workload - remaining_[i];
  }
}

// --- Live mode (real-time admission serving) --------------------------------

void ExecCore::push_job_events(const Job& job) {
  // Growth to the session high-water only; reserve_live pre-sizes the heap.
  events_.push(Event{job.release, next_seq_++, job.id, 0, 0,
                     EventType::kRelease});
  events_.push(Event{job.deadline, next_seq_++, job.id, 0, 0,
                     EventType::kExpiry});
}

void ExecCore::begin_live() {
  SJS_CHECK_MSG(!live_ && !in_callback_, "begin_live: already live");
  live_ = true;
  for (const Job& j : *jobs_) push_job_events(j);
}

void ExecCore::reserve_live(std::size_t max_in_flight, std::size_t jobs) {
  live_reserve_ = std::max(max_in_flight, jobs);
  remaining_.reserve(live_reserve_);
  outcome_.reserve(live_reserve_);
  released_.reserve(live_reserve_);
  events_.reserve_volatile(2 * max_in_flight + 2 * servers_.size() +
                           kCompactionMinEvents);
}

const Job& ExecCore::admit_live(JobId id) {
  SJS_CHECK_MSG(live_ && !in_callback_, "admit_live outside live mode");
  SJS_CHECK_MSG(static_cast<std::size_t>(id) == admitted(),
                "admit_live out of order: job " << id << ", expected "
                    << admitted());
  SJS_CHECK_MSG(static_cast<std::size_t>(id) < jobs_->size(),
                "admit_live before the job was appended");
  const Job& j = job(id);
  SJS_CHECK_MSG(j.id == id, "job id out of sync with its position");
  SJS_CHECK_MSG(j.release >= now_ - 1e-12,
                "admit_live in the past: release " << j.release << " < now "
                    << now_);
  // Dense append: live ids stay == admission order (journal local ids and
  // the outcome CSV depend on it). All growth is to reserve_live's pre-size
  // in a bounded-in-flight session.
  util::append(remaining_, j.workload);
  util::append(outcome_, JobOutcome::kPending);
  util::append(released_, std::uint8_t{0});
  push_job_events(j);
  return j;
}

bool ExecCore::cancel_live(JobId id) {
  SJS_CHECK_MSG(live_ && !in_callback_, "cancel_live outside live mode");
  if (id < 0 || job_slot(id) >= admitted() ||
      outcome(id) != JobOutcome::kPending) {
    return false;
  }
  if (is_released(id)) advance(now_);
  callback([&] {
    host_->process_event(
        Event{now_, next_seq_++, id, 0, 0, EventType::kExpiry});
  });
  return true;
}

void ExecCore::advance_to(double t) {
  SJS_CHECK_MSG(live_ && !in_callback_, "advance_to outside live mode");
  SJS_CHECK_MSG(t >= now_ - 1e-12,
                "advance_to moving backwards: " << t << " < " << now_);
  while (host_->next_event_time() < t) host_->step_event();
  now_ = std::max(now_, t);
  // last_advance_ deliberately stays at the last processed event: execution
  // integrals must be subdivided at event times only, exactly as replay
  // subdivides them, or remaining workloads drift by ulps.
}

void ExecCore::finish_live() {
  SJS_CHECK_MSG(live_ && !in_callback_, "finish_live outside live mode");
  while (host_->step_event()) {
  }
  live_ = false;
}

}  // namespace sjs::sim
