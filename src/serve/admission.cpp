#include "serve/admission.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

namespace sjs::serve {

double AdmissionGate::stamp(double virtual_now, double engine_now) {
  double t = std::max(virtual_now, engine_now);
  if (t <= last_stamp_) {
    t = std::nextafter(last_stamp_, std::numeric_limits<double>::infinity());
  }
  last_stamp_ = t;
  return t;
}

AdmissionGate::Decision AdmissionGate::evaluate(
    double workload, double rel_deadline, double value, double virtual_now,
    double engine_now, bool draining, std::uint64_t in_flight) {
  Decision d;
  if (draining) {
    d.reply = MsgType::kRejected;
    d.reason = RejectReason::kDraining;
    return d;
  }
  if (in_flight >= max_in_flight_) {
    d.reply = MsgType::kShed;
    return d;
  }
  // The stamp is consumed before validation: an invalid submit still
  // advances the chain.
  d.job.release = stamp(virtual_now, engine_now);
  d.job.workload = workload;
  d.job.deadline = d.job.release + rel_deadline;
  d.job.value = value;
  if (!std::isfinite(workload) || !std::isfinite(rel_deadline) ||
      !std::isfinite(value) || !d.job.valid()) {
    d.reply = MsgType::kRejected;
    d.reason = RejectReason::kInvalid;
    return d;
  }
  if (admission_check_ && !d.job.individually_admissible(c_lo_)) {
    d.reply = MsgType::kRejected;
    d.reason = RejectReason::kInadmissible;
    return d;
  }
  d.reply = MsgType::kAccepted;
  return d;
}

}  // namespace sjs::serve
