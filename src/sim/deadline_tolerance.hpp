// The deadline tolerance shared by both engines (sim::Engine and
// cloud::MultiEngine): when a completion counts as "by the deadline", and
// how much work such a completion may leave undone.
#pragma once

#include <algorithm>
#include <cmath>

#include "jobs/job.hpp"

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

}  // namespace sjs::sim
