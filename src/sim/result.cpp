#include "sim/result.hpp"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <sstream>
#include <string_view>

#include "util/csv.hpp"

namespace sjs::sim {

std::vector<double> SimResult::response_times() const {
  std::vector<double> out;
  for (std::size_t i = 0;
       i < completion_times.size() && i < release_times.size(); ++i) {
    if (!std::isnan(completion_times[i])) {
      out.push_back(completion_times[i] - release_times[i]);
    }
  }
  return out;
}

void SimResult::clear() {
  scheduler_name.clear();
  completed_value = 0.0;
  generated_value = 0.0;
  completed_count = 0;
  expired_count = 0;
  outcomes.clear();
  executed_work.clear();
  completion_times.clear();
  release_times.clear();
  value_trace.clear();
  schedule.clear();
  dispatches = 0;
  preemptions = 0;
  events_processed = 0;
  busy_time = 0.0;
  executed_total = 0.0;
  timers_armed = 0;
  timer_slab_peak = 0;
  timer_slab_slots = 0;
  event_heap_peak = 0;
  event_heap_dead_peak = 0;
  heap_compactions = 0;
  timer_cascades = 0;
  timer_cascade_entries = 0;
  timer_bucket_peak = 0;
  queue_peak = 0;
  queue_slots = 0;
  job_slab_peak = 0;
  job_slab_slots = 0;
}

double SimResult::mean_response_time() const {
  const auto responses = response_times();
  if (responses.empty()) return 0.0;
  double total = 0.0;
  for (double r : responses) total += r;
  return total / static_cast<double>(responses.size());
}

std::string SimResult::to_string() const {
  std::ostringstream os;
  os << scheduler_name << ": value " << completed_value << "/"
     << generated_value << " (" << value_fraction() * 100.0 << "%), "
     << completed_count << " completed, " << expired_count << " expired, "
     << preemptions << " preemptions, " << events_processed << " events";
  return os.str();
}

void save_outcomes_csv(const std::vector<JobOutcome>& outcomes,
                       const std::vector<double>& completion_times,
                       const std::vector<Job>& jobs, const std::string& path) {
  CsvWriter w(path);
  w.write_row({"id", "outcome", "completion", "value_collected"});
  // id (20) + "completed" (9) + two numbers + separators fit with room.
  char row[40 + 2 * kDoubleChars];
  for (std::size_t i = 0; i < outcomes.size(); ++i) {
    std::string_view outcome = "pending";
    double collected = 0.0;
    bool has_completion = false;
    if (outcomes[i] == JobOutcome::kCompleted) {
      outcome = "completed";
      collected = i < jobs.size() ? jobs[i].value : 0.0;
      has_completion =
          i < completion_times.size() && !std::isnan(completion_times[i]);
    } else if (outcomes[i] == JobOutcome::kExpired) {
      outcome = "expired";
    }
    char* p = std::to_chars(row, row + 20, i).ptr;
    *p++ = ',';
    p = std::copy(outcome.begin(), outcome.end(), p);
    *p++ = ',';
    if (has_completion) p = format_double(p, completion_times[i]);
    *p++ = ',';
    p = format_double(p, collected);
    *p++ = '\n';
    w.write_raw(row, static_cast<std::size_t>(p - row));
  }
}

}  // namespace sjs::sim
