// MetricsRegistry — named counters, gauges, and distributions with
// thread-local sharding.
//
// Parallel Monte-Carlo workers must not contend on shared counters, so the
// registry never takes a lock on the update path: each thread obtains its
// own Shard (created once, under the registration mutex) and updates plain
// maps thereafter. snapshot() merges every shard — counters add, gauges take
// the maximum (shards have no global ordering, so "last write" is
// undefined), distributions merge exactly (stats/exact_moments.hpp keeps
// exact power sums, so a snapshot does not depend on how samples were split
// across shards), histograms add bin-wise.
//
// Snapshotting while worker threads are still writing is a data race by
// design (no atomics on the hot path); call snapshot() after the parallel
// region has been joined (e.g. after ThreadPool::wait_idle()).
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "obs/trace_sink.hpp"
#include "stats/histogram.hpp"
#include "stats/exact_moments.hpp"

namespace sjs::obs {

/// Merged view over all shards at one point in time.
struct MetricsSnapshot {
  std::map<std::string, double> counters;
  std::map<std::string, double> gauges;
  std::map<std::string, ExactMoments> distributions;
  std::map<std::string, Histogram> histograms;

  /// Human-readable multi-line report.
  std::string render() const;
};

class MetricsRegistry {
 public:
  MetricsRegistry();

  /// Per-thread accumulator. Obtained via MetricsRegistry::local(); all
  /// update methods are lock-free (the shard is thread-private). Names are
  /// taken as string_view and looked up heterogeneously, so repeated updates
  /// of an existing metric never materialise a std::string — the only
  /// allocation is the first-use key insert (setup).
  class Shard {
   public:
    /// Construct via MetricsRegistry::local(); public only so the registry
    /// can route construction through the audited util allocation helper.
    explicit Shard(const MetricsRegistry* owner) : owner_(owner) {}

    /// Adds `delta` to a monotone counter.
    void count(std::string_view name, double delta = 1.0);
    /// Sets a gauge (merged across shards by maximum).
    void set_gauge(std::string_view name, double value);
    /// Feeds a sample into a distribution (streaming mean/variance/min/max),
    /// and into its histogram when binning was declared for `name`.
    void observe(std::string_view name, double value);

   private:
    friend class MetricsRegistry;

    const MetricsRegistry* owner_;
    std::map<std::string, double, std::less<>> counters_;
    std::map<std::string, double, std::less<>> gauges_;
    std::map<std::string, ExactMoments, std::less<>> distributions_;
    std::map<std::string, Histogram, std::less<>> histograms_;
  };

  /// Declares histogram binning for distribution `name`. Must be called
  /// before the parallel region; observe() calls for `name` then also fill a
  /// histogram with these bins.
  void declare_histogram(const std::string& name, double lo, double hi,
                         std::size_t bins);

  /// The calling thread's shard (created on first use).
  Shard& local();

  /// Number of shards created so far (== distinct threads that updated).
  std::size_t shard_count() const;

  /// Merges all shards. Only safe once parallel updates have quiesced.
  MetricsSnapshot snapshot() const;

  /// snapshot().render() convenience.
  std::string render() const { return snapshot().render(); }

 private:
  struct HistogramSpec {
    double lo;
    double hi;
    std::size_t bins;
  };

  const std::uint64_t id_;  // distinguishes registries in thread-local caches
  mutable std::mutex mu_;
  std::vector<std::unique_ptr<Shard>> shards_;
  std::map<std::string, HistogramSpec, std::less<>> histogram_specs_;
};

// Hot-path occupancy metric names fed from SimResult by the engine's
// consumers (mc::run_monte_carlo when McConfig::metrics is set, sjs_sim
// --metrics). Gauges merge by maximum across shards, so a campaign snapshot
// reports the worst run. The bounded-memory guarantee of the timer slab /
// event heap (engine.hpp) is observable here: slab peak stays O(jobs) and the
// dead-event peak stays at most ~half the heap peak no matter how many
// timers a run arms or cancels.
inline constexpr const char* kGaugeTimerSlabPeak = "engine.timer_slab_peak";
inline constexpr const char* kGaugeTimerSlabSlots = "engine.timer_slab_slots";
inline constexpr const char* kGaugeEventHeapPeak = "engine.event_heap_peak";
inline constexpr const char* kGaugeEventHeapDeadPeak =
    "engine.event_heap_dead_peak";
inline constexpr const char* kCounterTimersArmed = "engine.timers_armed";
inline constexpr const char* kCounterHeapCompactions =
    "engine.heap_compactions";

// Job-slab occupancy (sim::JobTable, the SoA per-job state store). Peak is
// the live-job high-water mark of a run; slots the slot-array length — the
// storage actually reserved. On dense (replay) runs slots == the instance
// size; on live admission runs both are bounded by the in-flight high-water,
// never by how many jobs the session admitted in total.
inline constexpr const char* kGaugeJobSlabPeak = "engine.job_slab_peak";
inline constexpr const char* kGaugeJobSlabSlots = "engine.job_slab_slots";

// Timer-wheel churn (sim::TimerWheel, the kTimer backend of the volatile
// event side). Cascades count clock advances that relinked a bucket;
// cascade entries the nodes moved (each node cascades at most 7 times over
// its life); bucket peak merges by maximum — the deepest single bucket any
// run saw, the bound on one find-min scan.
inline constexpr const char* kCounterTimerCascades = "engine.timer.cascades";
inline constexpr const char* kCounterTimerCascadeEntries =
    "engine.timer.cascade_entries";
inline constexpr const char* kGaugeTimerBucketPeak =
    "engine.timer.bucket_peak";

// Scheduler ready-queue occupancy (sched::ReadyQueue via
// Scheduler::queue_stats -> SimResult::queue_peak/queue_slots). Gauges merge
// by maximum, so a campaign snapshot reports the worst (run, scheduler)
// cell: peak is the summed per-queue occupancy high-water mark, slots the
// entry storage reserved — bounded by O(jobs), never by event count.
inline constexpr const char* kGaugeQueuePeak = "sched.queue.peak";
inline constexpr const char* kGaugeQueueSlots = "sched.queue.slots";

// Cluster plane (cluster::Dispatcher over cloud::MultiEngine). Counters
// accumulate across runs: placement churn (dispatches / preemptions /
// migrations), fleet elasticity (rent / release events), and the rental-cost
// integral. Gauges merge by maximum: rented_machines is the rented-fleet
// high-water mark; per-server utilisation gauges are built by
// cluster_util_gauge(k) as "cluster.util.server<k>" — busy time over session
// span, per machine.
inline constexpr const char* kCounterClusterDispatches = "cluster.dispatches";
inline constexpr const char* kCounterClusterPreemptions =
    "cluster.preemptions";
inline constexpr const char* kCounterClusterMigrations = "cluster.migrations";
inline constexpr const char* kCounterClusterRentEvents = "cluster.rent_events";
inline constexpr const char* kCounterClusterReleaseEvents =
    "cluster.release_events";
inline constexpr const char* kCounterClusterCostAccrued =
    "cluster.cost_accrued";
inline constexpr const char* kGaugeClusterRentedMachines =
    "cluster.rented_machines";
inline constexpr const char* kGaugeClusterRentedMachineTime =
    "cluster.rented_machine_time";

/// Per-server utilisation gauge name, "cluster.util.server<k>".
inline std::string cluster_util_gauge(std::size_t server) {
  return "cluster.util.server" + std::to_string(server);
}

/// Bridges a trace stream into a metrics shard: per-kind event counters
/// ("trace.release", "trace.dispatch", ...) plus derived distributions —
/// "job.response_time" (completion - release) and "job.slack_at_completion"
/// (deadline - completion). Lets any engine run feed the metrics surface
/// without bespoke wiring.
class TraceMetricsBridge : public TraceSink {
 public:
  explicit TraceMetricsBridge(MetricsRegistry::Shard& shard) : shard_(&shard) {}

  void record(const TraceEvent& event) override;

 private:
  MetricsRegistry::Shard* shard_;
  // Per-job release/deadline stamps, indexed by job slot (dense vectors, not
  // maps: the per-event path must not allocate node storage). NaN = unseen.
  std::vector<double> release_time_;
  std::vector<double> deadline_;
};

}  // namespace sjs::obs
