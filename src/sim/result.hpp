// Per-run simulation outcome: value accounting, per-job outcomes, the
// cumulative value-vs-time trace (paper Fig. 1), and engine counters.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "jobs/job.hpp"
#include "stats/timeseries.hpp"

namespace sjs::sim {

enum class JobOutcome : std::uint8_t {
  kPending = 0,   ///< not yet released / still live at end of run
  kCompleted,     ///< finished by its deadline; value collected
  kExpired,       ///< deadline passed uncompleted
};

/// One maximal stretch of uninterrupted execution of one job.
struct ExecutionSlice {
  double start = 0.0;
  double end = 0.0;
  JobId job = kNoJob;
};

struct SimResult {
  std::string scheduler_name;

  double completed_value = 0.0;   ///< Σ v_i over completed jobs
  double generated_value = 0.0;   ///< Σ v_i over all jobs in the instance
  std::uint64_t completed_count = 0;
  std::uint64_t expired_count = 0;

  /// completed_value / generated_value — the paper's Table-I metric.
  double value_fraction() const {
    return generated_value > 0.0 ? completed_value / generated_value : 0.0;
  }

  std::vector<JobOutcome> outcomes;       ///< indexed by JobId
  std::vector<double> executed_work;      ///< work done per job (<= p_i)
  /// Completion instant per job; NaN for jobs that expired.
  std::vector<double> completion_times;
  /// Release instant per job (copied from the instance for convenience).
  std::vector<double> release_times;
  /// Response times (completion − release) of completed jobs, in JobId
  /// order. Empty when nothing completed.
  std::vector<double> response_times() const;
  /// Mean response time of completed jobs (0 when none).
  double mean_response_time() const;
  StepFunction value_trace;               ///< cumulative completed value v. time
  /// Full execution timeline (only populated when Engine::record_schedule()
  /// was enabled): non-overlapping slices in chronological order.
  std::vector<ExecutionSlice> schedule;

  // Engine counters (useful for ablations and performance sanity checks).
  std::uint64_t dispatches = 0;    ///< Engine::run() calls that changed the job
  std::uint64_t preemptions = 0;   ///< dispatches that displaced an unfinished job
  std::uint64_t events_processed = 0;
  double busy_time = 0.0;          ///< total time a job occupied the processor
  double executed_total = 0.0;     ///< Σ executed work (capacity-seconds)

  // Hot-path occupancy stats (timer slab and event heap; the bounded-memory
  // regression test and the engine.* metrics gauges read these).
  std::uint64_t timers_armed = 0;       ///< set_timer() calls over the run
  std::uint64_t timer_slab_peak = 0;    ///< peak simultaneously-live timers
  std::uint64_t timer_slab_slots = 0;   ///< distinct slots ever allocated
  std::uint64_t event_heap_peak = 0;    ///< peak pending events in the heap
  std::uint64_t event_heap_dead_peak = 0;  ///< peak dead (stale) heap events
  std::uint64_t heap_compactions = 0;   ///< lazy dead-event purges performed
  std::uint64_t timer_cascades = 0;     ///< wheel clock advances that relinked
  std::uint64_t timer_cascade_entries = 0;  ///< entries moved by cascades
  std::uint64_t timer_bucket_peak = 0;  ///< peak entries in one wheel bucket

  // Scheduler ready-queue occupancy (Scheduler::queue_stats, harvested at
  // the end of the run; zeros for schedulers that keep no priority queue).
  std::uint64_t queue_peak = 0;    ///< summed per-queue occupancy high-water
  std::uint64_t queue_slots = 0;   ///< entry storage reserved across queues

  // Job-slab occupancy (sim::JobTable — same shape as the timer-slab pair).
  std::uint64_t job_slab_peak = 0;   ///< peak simultaneously-tracked jobs
  std::uint64_t job_slab_slots = 0;  ///< distinct slab slots populated

  /// Rewinds every field to its default while keeping the capacity of every
  /// vector and the value trace — the engine-reuse path: `result_.clear()`
  /// instead of `result_ = SimResult{}` is what makes a warmed engine's
  /// replay allocation-free (tests/hotpath_test.cpp ratchets it to zero).
  void clear();

  std::string to_string() const;
};

/// Writes per-job outcomes as CSV ("id,outcome,completion,value_collected",
/// %.17g doubles, outcome ∈ {pending,completed,expired}, completion empty for
/// jobs that never finished) from the per-job outcome and completion-time
/// arrays of either engine (SimResult or cloud::MultiSimResult). The one
/// outcomes writer behind sjs_sim --outcomes-csv and every serving plane's
/// journal, so live-vs-replay fidelity is a byte diff
/// (scripts/serve_smoke.sh).
void save_outcomes_csv(const std::vector<JobOutcome>& outcomes,
                       const std::vector<double>& completion_times,
                       const std::vector<Job>& jobs, const std::string& path);

}  // namespace sjs::sim
