// Fixture: ordered-set-hot-path covers the fleet engine's global schedulers
// in cloud/ (and cluster/) as it does sched/ and sim/: a std::set keyed on
// pair<double, ...> fires, a set keyed on an integer does not, and an
// audited suppression stays silent.
#include <cstdint>
#include <set>
#include <utility>

namespace sjs::cloud {

struct BadGlobalScheduler {
  std::set<std::pair<double, std::int64_t>> live_;      // BAD
  std::set<std::int64_t> servers_;                       // OK: not keyed on double
  // sjs-lint: allow(ordered-set-hot-path): fixture proves suppression works
  std::set<std::pair<double, std::int64_t>> audit_log_;  // suppressed
};

}  // namespace sjs::cloud
