// Request stream shared by the open-loop driver (pb_load) and the traced
// layer replay (pb_trace): the same seed yields the same requests in both,
// and the stream's shape (rates, phase lengths) is fixed here only.
//
// Job shapes follow the paper's Sec. IV model: Exp(mu) workloads, value
// density U[1, k], relative deadline = slack × p / c_lo with slack drawn
// from U[slack_lo, slack_hi]. Arrivals are Poisson in wall time, phase by
// phase: a nominal phase, then a fixed rate ladder.
#pragma once

#include <cstdint>
#include <vector>

#include "util/rng.hpp"

namespace pb {

inline constexpr double kNominalRate = 20000.0;  ///< requests per wall second
inline constexpr double kWarmupS = 0.5;  ///< warm-up at the nominal rate
inline constexpr double kStepS = 1.5;    ///< wall seconds per ladder step
inline constexpr double kMinNominalS = 1.0;
/// Virtual seconds per wall second on every serve plane; the server is
/// launched with the same --accel.
inline constexpr double kAccel = 9000.0;

enum class Kind : std::uint8_t { kSubmit = 0, kQuery = 1 };

struct Phase {
  double rate = 0.0;     ///< requests per wall second
  double seconds = 0.0;  ///< wall duration of the phase
};

struct StreamSpec {
  std::vector<Phase> phases;  ///< phases[0] is the nominal phase
  double query_share = 0.0;   ///< share of requests that are QUERY
  double query_lookback_s = 0.1;  ///< a QUERY names a SUBMIT due this much earlier
  double mu = 1.0;
  double k = 7.0;
  double c_lo = 1.0;
  double slack_lo = 1.05;
  double slack_hi = 4.0;
};

struct Request {
  double due = 0.0;            ///< wall seconds after the stream starts
  std::uint32_t phase = 0;
  Kind kind = Kind::kSubmit;
  std::uint32_t target = 0;    ///< QUERY: index of the SUBMIT it names
  double workload = 0.0;       ///< SUBMIT fields
  double rel_deadline = 0.0;
  double value = 0.0;
};

/// A serve workload's phases for a run of `seconds` wall seconds: warm-up,
/// then the nominal phase for whatever the ladder leaves (at least
/// kMinNominalS), then one kStepS step per ladder rate.
inline StreamSpec serve_spec(double seconds, const std::vector<double>& ladder,
                             double query_share) {
  StreamSpec spec;
  const double steps = kStepS * static_cast<double>(ladder.size());
  spec.phases.push_back({kNominalRate, kWarmupS});
  spec.phases.push_back(
      {kNominalRate, seconds - kWarmupS - steps > kMinNominalS
                         ? seconds - kWarmupS - steps
                         : kMinNominalS});
  for (double r : ladder) spec.phases.push_back({r, kStepS});
  spec.query_share = query_share;
  return spec;
}

inline std::vector<Request> make_stream(const StreamSpec& spec,
                                        std::uint64_t seed) {
  sjs::Rng rng(seed, 0x5eed);
  std::vector<Request> out;
  std::vector<std::uint32_t> submits;  // indices of SUBMIT requests
  std::size_t eligible = 0;  // submits[0, eligible) are due early enough
  double phase_start = 0.0;
  for (std::uint32_t ph = 0; ph < spec.phases.size(); ++ph) {
    const Phase& phase = spec.phases[ph];
    const double end = phase_start + phase.seconds;
    double t = phase_start + rng.exponential_rate(phase.rate);
    for (; t < end; t += rng.exponential_rate(phase.rate)) {
      Request r;
      r.due = t;
      r.phase = ph;
      // A QUERY names a SUBMIT due at least query_lookback_s earlier, so it
      // is acknowledged by the time the QUERY is due on a healthy server.
      while (eligible < submits.size() &&
             out[submits[eligible]].due <= t - spec.query_lookback_s) {
        ++eligible;
      }
      if (spec.query_share > 0.0 && eligible > 0 &&
          rng.bernoulli(spec.query_share)) {
        r.kind = Kind::kQuery;
        r.target = submits[rng.below(eligible)];
      } else {
        r.workload = rng.exponential_mean(spec.mu);
        r.rel_deadline =
            rng.uniform(spec.slack_lo, spec.slack_hi) * r.workload / spec.c_lo;
        r.value = rng.uniform(1.0, spec.k) * r.workload;
        submits.push_back(static_cast<std::uint32_t>(out.size()));
      }
      out.push_back(r);
    }
    phase_start = end;
  }
  return out;
}

}  // namespace pb
