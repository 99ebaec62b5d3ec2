// ReadyQueue — flat, addressable d-ary heap for scheduler ready queues.
//
// Every priority-driven scheduler in src/sched/ keeps its ready jobs ordered
// by one double key (deadline, laxity intercept, remaining work, value, ...).
// The original implementation was std::set<std::pair<double, JobId>>: a
// node-based red-black tree paying one heap allocation per insert and a
// pointer chase per begin()/erase() — the dominant per-event cost of the
// queue-heavy schedulers (LLF, V-Dover) in BM_FullSimulation. ReadyQueue
// replaces it with a 4-ary min-heap (or max-heap, by policy) over contiguous
// (key, id) storage plus a JobId -> heap-position index, giving
//
//   push / pop / erase-by-id / update-key   O(log n), allocation-free after
//                                           reserve()
//   top / contains / key_of                 O(1)
//
// Ordering contract (digest-gated — see docs/performance.md): the pop order
// is EXACTLY that of the std::set it replaced. kMinFirst pops the smallest
// (key, id) pair lexicographically (ties broken toward the smaller JobId);
// kMaxFirst pops the largest (key, id) pair (ties toward the LARGER JobId,
// matching std::set<..., std::greater<>>). JobIds are unique within a queue,
// so the pop sequence is a total order independent of insertion order and of
// the heap's internal layout.
//
// Addressable-slot invalidation rules: the position index is keyed by JobId
// and is only valid while the job is in the queue. push() requires the id to
// be absent; erase()/pop() invalidate the id's slot immediately (erase of an
// absent id is a tolerated no-op — schedulers purge expired jobs from every
// queue they might be in). Keys are frozen at push(); a key that must change
// goes through update_key(), never through mutation in place.
//
// clear() keeps the backing storage, and destroyed queues donate their
// buffers to a small thread-local recycler that the next queue constructed
// on the same thread adopts — so mc::run_monte_carlo's engine-reuse path,
// which constructs one fresh scheduler per (run, scheduler) cell on the same
// worker thread, reuses queue storage across cells just as Engine::reset()
// reuses the event heap and timer slab.
#pragma once

#include <cstdint>
#include <vector>

#include "jobs/job.hpp"
#include "util/fp.hpp"

namespace sjs::sched {

/// Pop-order policy: which (key, id) pair top()/pop() yield.
enum class QueueOrder : std::uint8_t {
  kMinFirst,  ///< smallest (key, id), ties toward the smaller id
  kMaxFirst,  ///< largest (key, id), ties toward the larger id
};

class ReadyQueue {
 public:
  struct Entry {
    double key;
    JobId id;
  };

  explicit ReadyQueue(QueueOrder order = QueueOrder::kMinFirst);
  ~ReadyQueue();

  ReadyQueue(const ReadyQueue&) = delete;
  ReadyQueue& operator=(const ReadyQueue&) = delete;

  /// Reserves the position index for JobIds in [0, id_bound) and the heap
  /// storage, so a run whose queue never exceeds id_bound entries performs
  /// no allocation after this call. Schedulers call it from on_start with
  /// engine.job_count().
  void reserve(std::size_t id_bound);

  /// Empties the queue in O(size), keeping all storage for reuse. The peak
  /// statistic is NOT reset (it is a lifetime high-water mark).
  void clear();

  bool empty() const { return heap_.empty(); }
  std::size_t size() const { return heap_.size(); }

  /// True iff `id` is currently queued. O(1).
  bool contains(JobId id) const {
    const auto idx = static_cast<std::size_t>(id);
    return id >= 0 && idx < pos_.size() && pos_[idx] != kNpos;
  }

  /// Key `id` was queued with. The job must be queued. O(1).
  double key_of(JobId id) const;

  /// The best entry per the queue's policy. The queue must be non-empty.
  const Entry& top() const;

  /// Inserts `id` with `key`. The id must not already be queued.
  void push(double key, JobId id);

  /// Removes and returns the best entry. The queue must be non-empty.
  Entry pop();

  /// Removes `id` if queued; returns whether it was. Erasing an absent id is
  /// a no-op (schedulers purge dead jobs from every queue they might be in).
  bool erase(JobId id);

  /// Re-keys a queued job in place (one sift instead of erase + push).
  void update_key(JobId id, double key);

  /// Lifetime high-water mark of size() — the per-run occupancy peak
  /// surfaced as SimResult::queue_peak / the sched.queue.peak gauge.
  std::uint64_t peak() const { return peak_; }

  /// Entry slots currently reserved (capacity of the backing array).
  std::uint64_t slots() const { return heap_.capacity(); }

  /// Visits entries in unspecified order (the raw heap layout). Only for
  /// order-insensitive consumers — anything whose result feeds a schedule
  /// decision or a trace payload must use for_each_ordered instead.
  template <typename F>
  void for_each_unordered(F&& f) const {
    for (const Entry& e : heap_) f(e);
  }

  /// Visits entries in exact pop order (the order the replaced std::set
  /// iterated in) without disturbing the queue. O(n log n) via a scratch
  /// sort; the scratch buffer is retained, so repeated calls do not
  /// allocate. Safe against mutation of THIS queue from inside `f` (the
  /// visit walks a snapshot), which the V-Dover capacity-change re-arm path
  /// relies on.
  template <typename F>
  void for_each_ordered(F&& f) const {
    snapshot_ordered();
    for (const Entry& e : scratch_) f(e);
  }

 private:
  static constexpr std::size_t kArity = 4;
  static constexpr std::uint32_t kNpos = 0xffffffffu;

  /// Strict priority: true iff `a` pops before `b`. Total order (JobIds are
  /// unique), identical to the lexicographic pair order of the replaced set.
  bool before(const Entry& a, const Entry& b) const {
    if (order_ == QueueOrder::kMinFirst) {
      return a.key < b.key || (fp::exact_eq(a.key, b.key) && a.id < b.id);
    }
    return a.key > b.key || (fp::exact_eq(a.key, b.key) && a.id > b.id);
  }

  void place(std::size_t slot, const Entry& e) {
    heap_[slot] = e;
    pos_[static_cast<std::size_t>(e.id)] = static_cast<std::uint32_t>(slot);
  }

  void sift_up(std::size_t slot);
  void sift_down(std::size_t slot);
  /// Fills scratch_ with the entries sorted into pop order.
  void snapshot_ordered() const;

  QueueOrder order_;
  std::vector<Entry> heap_;
  std::vector<std::uint32_t> pos_;  // JobId -> heap slot, kNpos when absent
  mutable std::vector<Entry> scratch_;
  std::uint64_t peak_ = 0;
};

}  // namespace sjs::sched
