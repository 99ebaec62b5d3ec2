// EventQueue — the split static/volatile event queue both event engines pop
// from (sim::Engine for one server, cloud::MultiEngine for a fleet).
//
// Events split in two by churn profile:
//
//  * Static side: every job's release and expiry (and, for sim::Engine, the
//    capacity breakpoints) is known at run start and never cancelled. seal()
//    lays them out in pop order once; consumption is a cursor walk (O(1)
//    pops, no heap traffic). The layout is built by a linear merge:
//    releases already ascend (jobs are in Instance canonical form: release-
//    sorted, id == position), the optional extra list ascends, and only the
//    n expiries are sorted. Seqs are those a push-everything-then-sort queue
//    would have assigned: release i gets base + 2i, expiry i base + 2i + 1,
//    extra c base + 2n + c.
//  * Volatile side: completions, plus the releases and expiries of jobs
//    admitted after the seal (live mode) — a binary min-heap driven by
//    std::push_heap/pop_heap. It is an explicit vector rather than a
//    std::priority_queue so dead events (stale completions left behind by a
//    preemption) can be purged in place by compact().
//
// front()/take() merge the two fronts under the engine's total order on
// Event (time, type, seq — Event::operator>), so the merged pop sequence is
// the one a single priority queue holding every event would give. The sides
// never tie: seqs are globally unique. Side placement therefore never
// affects pop order, which is what lets a live session (everything on the
// heap) replay bit-exactly through a batch run (releases/expiries sealed).
//
// The queue does not decide when a volatile event is dead — only the engine
// knows its epochs. The engine counts dead events with mark_dead()/
// drop_dead(), asks compaction_due() after marking, and calls compact() with
// its own liveness predicate. Compaction is order-neutral (total order), but
// note that an engine which subdivides execution integrals at every popped
// event's time sees one fewer subdivision per purged event: the trigger must
// therefore be a pure function of the engine's event history (both engines
// keep it identical between live and replay runs).
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <limits>
#include <vector>

#include "jobs/job.hpp"
#include "util/fp.hpp"
#include "util/vec.hpp"

namespace sjs::sim {

/// Which merged list a sealed static event came from. At equal timestamps
/// the merge yields expiries, then extras, then releases — the engines'
/// event-type priority (Expiry < CapacityChange < Release).
enum class SealKind : std::uint8_t { kExpiry, kExtra, kRelease };

/// Compaction is skipped below this many volatile events: tiny heaps make
/// the dead fraction noisy and the O(n) pass isn't worth a few entries.
inline constexpr std::size_t kCompactionMinEvents = 64;

template <class Event>
class EventQueue {
 public:
  // --- static side ---------------------------------------------------------

  /// Lays out the static side for the first `n` jobs of `jobs` (canonical
  /// form) plus `extra_count` ascending `extras`, seqs starting at `base`
  /// (see the header comment), and rewinds the cursor to its start.
  /// `make(kind, time, seq, index)` builds one Event; `index` is the job's
  /// position for releases and expiries, the extra's index for extras.
  template <class Make>
  void seal(const std::vector<Job>& jobs, std::size_t n, std::uint64_t base,
            const double* extras, std::size_t extra_count, Make make) {
    // Expiries are the one list that needs sorting: by deadline, ties by
    // position, which is their seq order.
    expiries_.clear();
    for (std::size_t i = 0; i < n; ++i) {
      util::append(expiries_, SealKey{jobs[i].deadline, i});
    }
    std::sort(expiries_.begin(), expiries_.end(),
              [](const SealKey& a, const SealKey& b) {
                return fp::exact_ne(a.time, b.time) ? a.time < b.time
                                                    : a.pos < b.pos;
              });
    // Linear three-way merge. Each list holds one event kind, so at equal
    // times the kind order alone decides: expiry, then extra, then release.
    util::grow(static_, 2 * n + extra_count);
    std::size_t r = 0;
    std::size_t x = 0;
    std::size_t c = 0;
    for (Event& out : static_) {
      const bool has_r = r < n;
      const bool has_c = c < extra_count;
      if (x < n && (!has_r || expiries_[x].time <= jobs[r].release) &&
          (!has_c || expiries_[x].time <= extras[c])) {
        const SealKey& key = expiries_[x++];
        out = make(SealKind::kExpiry, key.time, base + 2 * key.pos + 1,
                   key.pos);
      } else if (has_c && (!has_r || extras[c] <= jobs[r].release)) {
        out = make(SealKind::kExtra, extras[c], base + 2 * n + c, c);
        ++c;
      } else {
        out = make(SealKind::kRelease, jobs[r].release, base + 2 * r, r);
        ++r;
      }
    }
    cursor_ = 0;
  }

  /// Restarts consumption of the current static layout (a cached seal
  /// replayed by the next run).
  void rewind_static() { cursor_ = 0; }
  /// Parks the cursor at the end: the layout is kept but pending() no longer
  /// counts it (until rewind_static or the next seal).
  void park_static() { cursor_ = static_.size(); }
  /// Events in the current static layout, consumed or not.
  std::size_t static_size() const { return static_.size(); }
  void reserve_static(std::size_t n) { static_.reserve(n); }

  // --- volatile side -------------------------------------------------------

  /// Pushes onto the heap (growth to the episode high-water only).
  void push(const Event& event) {
    util::append(heap_, event);
    std::push_heap(heap_.begin(), heap_.end(), std::greater<Event>{});
  }
  std::size_t volatile_size() const { return heap_.size(); }
  void reserve_volatile(std::size_t n) { heap_.reserve(n); }
  /// Empties the heap and the dead count, keeping capacity.
  void clear_volatile() {
    heap_.clear();
    dead_ = 0;
  }

  /// Dead heap events (as counted by the engine) — and, for an engine with
  /// further volatile structures, their dead entries too.
  std::size_t dead() const { return dead_; }
  void mark_dead() { ++dead_; }
  void drop_dead() { --dead_; }
  /// True when dead events outnumber live ones on a volatile side of
  /// `volatile_events` (the heap plus whatever else the engine counts).
  bool compaction_due(std::size_t volatile_events) const {
    return volatile_events >= kCompactionMinEvents &&
           dead_ * 2 > volatile_events;
  }
  /// Erases every heap event `is_dead` selects, restores the heap, and
  /// zeroes the dead count.
  template <class Dead>
  void compact(Dead is_dead) {
    std::erase_if(heap_, is_dead);
    std::make_heap(heap_.begin(), heap_.end(), std::greater<Event>{});
    dead_ = 0;
  }

  // --- merged front --------------------------------------------------------

  /// Events not yet popped, dead ones included.
  std::size_t pending() const {
    return heap_.size() + (static_.size() - cursor_);
  }
  /// The smaller of the two fronts under Event's total order, or nullptr
  /// when both sides are empty.
  const Event* front() const {
    const Event* best = cursor_ < static_.size() ? &static_[cursor_] : nullptr;
    if (!heap_.empty() && (best == nullptr || *best > heap_.front())) {
      best = &heap_.front();
    }
    return best;
  }
  /// Pops `front` — which must be the current front() — and returns it.
  Event take(const Event* front) {
    if (!heap_.empty() && front == &heap_.front()) {
      std::pop_heap(heap_.begin(), heap_.end(), std::greater<Event>{});
      const Event event = heap_.back();
      heap_.pop_back();
      return event;
    }
    return static_[cursor_++];
  }
  /// Pops the front. Requires pending() > 0.
  Event pop() { return take(front()); }
  /// Timestamp of the front, or +inf when empty. The fronts carry exact
  /// doubles, so a plain min over times matches the full-order merge.
  double front_time() const {
    double t = std::numeric_limits<double>::infinity();
    if (cursor_ < static_.size()) t = static_[cursor_].time;
    if (!heap_.empty()) t = std::min(t, heap_.front().time);
    return t;
  }

 private:
  struct SealKey {
    double time;
    std::size_t pos;
  };

  std::vector<Event> static_;
  std::size_t cursor_ = 0;
  std::vector<Event> heap_;
  std::size_t dead_ = 0;
  /// seal()'s sort scratch, retained across seals.
  std::vector<SealKey> expiries_;
};

}  // namespace sjs::sim
