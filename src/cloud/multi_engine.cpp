#include "cloud/multi_engine.hpp"

#include <limits>

#include "util/logging.hpp"
#include "util/vec.hpp"

namespace sjs::cloud {

MultiEngine::MultiEngine(const std::vector<Job>& jobs,
                         std::vector<cap::CapacityProfile> servers,
                         GlobalScheduler& scheduler)
    : servers_(std::move(servers)),
      scheduler_(&scheduler),
      core_(*this, jobs, servers_.data(), servers_.size()) {
  placement_.assign(jobs.size(), kNoServer);
}

double MultiEngine::server_rate(std::size_t server) const {
  SJS_CHECK(server < server_count());
  return core_.rate(server);
}

std::size_t MultiEngine::server_of(JobId id) const {
  SJS_CHECK(id >= 0 && static_cast<std::size_t>(id) < placement_.size());
  return placement_[static_cast<std::size_t>(id)];
}

JobId MultiEngine::running_on(std::size_t server) const {
  SJS_CHECK(server < server_count());
  return core_.running(server);
}

sim::JobOutcome MultiEngine::outcome(JobId id) const {
  SJS_CHECK(id >= 0 && static_cast<std::size_t>(id) < core_.admitted());
  return core_.outcome(id);
}

void MultiEngine::halt_server(std::size_t server) {
  const JobId jid = core_.running(server);
  if (jid != kNoJob) placement_[static_cast<std::size_t>(jid)] = kNoServer;
  if (!core_.halt(server) ||
      !core_.queue().compaction_due(queued_completions_)) {
    return;
  }
  // Order-neutral purge of the stale completions. The trigger counts only
  // completions, so a live session and its replay purge at the same events.
  queued_completions_ -= core_.queue().dead();
  core_.purge_stale_completions();
  ++result_.heap_compactions;
}

void MultiEngine::note_preempt(std::size_t server) {
  const JobId jid = core_.running(server);
  if (jid != kNoJob && core_.remaining(jid) > 0.0) {
    ++result_.preemptions;
    trace(obs::TraceKind::kPreempt, jid, server, core_.remaining(jid));
  }
}

void MultiEngine::run_on(std::size_t server, JobId id) {
  SJS_CHECK_MSG(core_.in_callback(), "run_on() outside a scheduler callback");
  SJS_CHECK(server < server_count());
  SJS_CHECK_MSG(is_live(id), "run_on() with non-live job " << id);
  core_.advance(now());
  if (core_.running(server) == id) return;

  // Migration: stop it wherever it currently runs.
  const std::size_t current = placement_[static_cast<std::size_t>(id)];
  if (current != kNoServer) {
    trace(obs::TraceKind::kMigrate, id, server, static_cast<double>(current),
          static_cast<double>(server));
    halt_server(current);
    ++result_.migrations;
  }
  // Preempt the incumbent on the target server.
  note_preempt(server);
  halt_server(server);
  placement_[static_cast<std::size_t>(id)] = server;
  ++result_.dispatches;
  trace(obs::TraceKind::kDispatch, id, server, core_.remaining(id));
  if (core_.dispatch(server, id)) ++queued_completions_;
}

void MultiEngine::idle(std::size_t server) {
  SJS_CHECK_MSG(core_.in_callback(), "idle() outside a scheduler callback");
  SJS_CHECK(server < server_count());
  core_.advance(now());
  note_preempt(server);
  halt_server(server);
  trace(obs::TraceKind::kIdle, kNoJob, server);
}

void MultiEngine::stop(JobId id) {
  SJS_CHECK_MSG(core_.in_callback(), "stop() outside a scheduler callback");
  const std::size_t server = placement_[static_cast<std::size_t>(id)];
  if (server != kNoServer) idle(server);
}

// sjs-hot-path-root
bool MultiEngine::step_event() {
  if (core_.queue().pending() == 0) return false;
  const Event event = core_.queue().pop();
  // Dead events subdivide the execution integrals too, exactly as in
  // sim::Engine; the compaction trigger keeps that identical across modes.
  core_.reach(event.time);
  core_.callback([&] { process_event(event); });
  return true;
}

void MultiEngine::process_event(const Event& event) {
  const auto idx = static_cast<std::size_t>(event.job);
  switch (event.type) {
    case EventType::kCompletion: {
      --queued_completions_;
      if (!core_.complete(event)) break;  // stale
      placement_[idx] = kNoServer;
      result_.completion_times[idx] = now();
      const double value = job(event.job).value;
      result_.completed_value += value;
      ++result_.completed_count;
      trace(obs::TraceKind::kComplete, event.job, event.server, value);
      scheduler_->on_complete(*this, event.job, event.server);
      break;
    }
    case EventType::kExpiry: {
      if (!core_.expire(event.job)) break;  // completed (or cancelled) first
      ++result_.expired_count;
      const std::size_t server = placement_[idx];
      if (server != kNoServer) halt_server(server);
      trace(obs::TraceKind::kExpire, event.job, server,
            core_.remaining(event.job), server != kNoServer ? 1.0 : 0.0);
      // A job withdrawn before its release never reached the scheduler.
      if (is_released(event.job)) {
        scheduler_->on_expire(*this, event.job, server);
      }
      break;
    }
    case EventType::kRelease: {
      if (!core_.release(event.job)) break;  // withdrawn before its release
      const Job& j = job(event.job);
      trace(obs::TraceKind::kRelease, event.job, kNoServer, j.workload,
            j.deadline);
      scheduler_->on_release(*this, event.job);
      break;
    }
    default:  // capacity changes and timers are sim::Engine's
      break;
  }
}

void MultiEngine::start_run() {
  result_ = MultiSimResult{};
  result_.scheduler_name = scheduler_->name();
  result_.completion_times.assign(job_count(),
                                  std::numeric_limits<double>::quiet_NaN());
  for (const Job& j : core_.jobs()) result_.generated_value += j.value;
}

void MultiEngine::announce_start() {
  trace(obs::TraceKind::kRunStart, kNoJob, kNoServer,
        static_cast<double>(job_count()), static_cast<double>(server_count()));
  core_.callback([&] { scheduler_->on_start(*this); });
}

void MultiEngine::harvest() {
  core_.harvest(result_.outcomes, result_.executed_work);
  result_.busy_time_per_server.resize(server_count());
  for (std::size_t s = 0; s < server_count(); ++s) {
    result_.busy_time_per_server[s] = core_.busy_time(s);
  }
  trace(obs::TraceKind::kRunEnd, kNoJob, kNoServer, result_.completed_value,
        result_.generated_value);
  if (sink_) sink_->flush();
}

MultiSimResult MultiEngine::run_to_completion() {
  SJS_CHECK_MSG(!live_mode(), "run_to_completion during a live session");
  start_run();
  // Seqs 2i / 2i+1: those of a release-then-expiry push per job, the order
  // admit_live pushes in, so a session and its replay tie-break alike.
  core_.seal(job_count(), nullptr, 0);
  announce_start();
  while (step_event()) {
  }
  harvest();
  return result_;
}

// --- Live mode (real-time admission serving) --------------------------------

void MultiEngine::begin_live() {
  core_.begin_live();
  start_run();
  // The reset above dropped reserve_live's pre-size of this one.
  result_.completion_times.reserve(core_.job_capacity_hint());
  announce_start();
}

void MultiEngine::reserve_live(std::size_t max_in_flight, std::size_t jobs) {
  core_.reserve_live(max_in_flight, jobs);
  placement_.reserve(core_.job_capacity_hint());
  result_.completion_times.reserve(core_.job_capacity_hint());
}

void MultiEngine::admit_live(JobId id) {
  const Job& j = core_.admit_live(id);
  util::append(placement_, kNoServer);
  result_.generated_value += j.value;
  util::append(result_.completion_times,
               std::numeric_limits<double>::quiet_NaN());
}

const MultiSimResult& MultiEngine::finish_live() {
  core_.finish_live();
  harvest();
  return result_;
}

}  // namespace sjs::cloud
