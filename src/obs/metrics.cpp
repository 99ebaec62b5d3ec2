#include "obs/metrics.hpp"

#include <atomic>
#include <cmath>
#include <limits>
#include <sstream>
#include <unordered_map>

#include "util/logging.hpp"
#include "util/vec.hpp"

namespace sjs::obs {

namespace {
std::uint64_t next_registry_id() {
  static std::atomic<std::uint64_t> counter{1};
  return counter.fetch_add(1);
}
}  // namespace

MetricsRegistry::MetricsRegistry() : id_(next_registry_id()) {}

void MetricsRegistry::Shard::count(std::string_view name, double delta) {
  // Heterogeneous lookup: the steady-state path (key already present) never
  // builds a std::string. The insert is first-use setup.
  const auto it = counters_.find(name);
  if (it != counters_.end()) {
    it->second += delta;
    return;
  }
  counters_.emplace(std::string(name), delta);
}

void MetricsRegistry::Shard::set_gauge(std::string_view name, double value) {
  const auto it = gauges_.find(name);
  if (it != gauges_.end()) {
    it->second = value;
    return;
  }
  gauges_.emplace(std::string(name), value);
}

void MetricsRegistry::Shard::observe(std::string_view name, double value) {
  auto dist = distributions_.find(name);
  if (dist == distributions_.end()) {
    dist = distributions_.emplace(std::string(name), ExactMoments{}).first;
  }
  dist->second.add(value);
  auto it = histograms_.find(name);
  if (it == histograms_.end()) {
    const auto spec = owner_->histogram_specs_.find(name);
    if (spec == owner_->histogram_specs_.end()) return;
    it = histograms_
             .emplace(std::string(name),
                      Histogram(spec->second.lo, spec->second.hi,
                                spec->second.bins))
             .first;
  }
  it->second.add(value);
}

void MetricsRegistry::declare_histogram(const std::string& name, double lo,
                                        double hi, std::size_t bins) {
  std::lock_guard<std::mutex> lock(mu_);
  SJS_CHECK_MSG(shards_.empty(),
                "declare_histogram() after shards exist would bin "
                "inconsistently; declare before the parallel region");
  histogram_specs_.insert_or_assign(name, HistogramSpec{lo, hi, bins});
}

MetricsRegistry::Shard& MetricsRegistry::local() {
  // Keyed by registry id, not pointer: a destroyed registry's address can be
  // reused, and a stale cache hit would then write into a foreign shard.
  thread_local std::unordered_map<std::uint64_t, Shard*> cache;
  const auto it = cache.find(id_);
  if (it != cache.end()) return *it->second;
  std::lock_guard<std::mutex> lock(mu_);
  // Once per (thread, registry) at first use; every later call takes the
  // thread-local cache fast path above, so the steady state never reaches
  // this allocation.
  util::append(shards_, util::alloc_unique<Shard>(this));
  Shard* shard = shards_.back().get();
  cache.emplace(id_, shard);
  return *shard;
}

std::size_t MetricsRegistry::shard_count() const {
  std::lock_guard<std::mutex> lock(mu_);
  return shards_.size();
}

MetricsSnapshot MetricsRegistry::snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  MetricsSnapshot snap;
  for (const auto& shard : shards_) {
    for (const auto& [name, value] : shard->counters_) {
      snap.counters[name] += value;
    }
    for (const auto& [name, value] : shard->gauges_) {
      auto [it, inserted] = snap.gauges.emplace(name, value);
      if (!inserted && value > it->second) it->second = value;
    }
    for (const auto& [name, welford] : shard->distributions_) {
      snap.distributions[name].merge(welford);
    }
    for (const auto& [name, histogram] : shard->histograms_) {
      auto [it, inserted] = snap.histograms.emplace(name, histogram);
      if (!inserted) it->second.merge(histogram);
    }
  }
  return snap;
}

std::string MetricsSnapshot::render() const {
  std::ostringstream os;
  if (!counters.empty()) {
    os << "counters:\n";
    for (const auto& [name, value] : counters) {
      os << "  " << name << ": " << value << "\n";
    }
  }
  if (!gauges.empty()) {
    os << "gauges:\n";
    for (const auto& [name, value] : gauges) {
      os << "  " << name << ": " << value << "\n";
    }
  }
  if (!distributions.empty()) {
    os << "distributions:\n";
    for (const auto& [name, w] : distributions) {
      os << "  " << name << ": n=" << w.count() << " mean=" << w.mean()
         << " sd=" << w.stddev_sample() << " min=" << w.min()
         << " max=" << w.max() << "\n";
    }
  }
  for (const auto& [name, histogram] : histograms) {
    os << "histogram " << name << ":\n" << histogram.render();
  }
  return os.str();
}

namespace {
// Pre-joined "trace.<kind>" counter names, indexed by TraceKind. Keeping the
// table static makes the per-event counter bump string-free (the old
// std::string("trace.") + kind_name(...) concatenation allocated per event).
constexpr const char* kTraceCounterName[] = {
    "trace.run_start", "trace.release", "trace.dispatch",
    "trace.preempt",   "trace.idle",    "trace.complete",
    "trace.expire",    "trace.timer",   "trace.capacity_change",
    "trace.migrate",   "trace.note",    "trace.run_end",
};
static_assert(sizeof(kTraceCounterName) / sizeof(kTraceCounterName[0]) ==
              static_cast<std::size_t>(TraceKind::kRunEnd) + 1);
}  // namespace

void TraceMetricsBridge::record(const TraceEvent& event) {
  shard_->count(kTraceCounterName[static_cast<std::size_t>(event.kind)]);
  constexpr double kUnseen = std::numeric_limits<double>::quiet_NaN();
  switch (event.kind) {
    case TraceKind::kRelease: {
      const auto slot = static_cast<std::size_t>(job_slot(event.job));
      util::grow_to_index_fill(release_time_, slot, kUnseen);
      util::grow_to_index_fill(deadline_, slot, kUnseen);
      release_time_[slot] = event.time;
      deadline_[slot] = event.b;
      break;
    }
    case TraceKind::kComplete: {
      const auto slot = static_cast<std::size_t>(job_slot(event.job));
      if (slot < release_time_.size() && !std::isnan(release_time_[slot])) {
        shard_->observe("job.response_time", event.time - release_time_[slot]);
      }
      if (slot < deadline_.size() && !std::isnan(deadline_[slot])) {
        shard_->observe("job.slack_at_completion",
                        deadline_[slot] - event.time);
      }
      break;
    }
    case TraceKind::kRunEnd:
      if (event.b > 0.0) {
        shard_->observe("run.value_fraction", event.a / event.b);
      }
      break;
    default:
      break;
  }
}

}  // namespace sjs::obs
