#include "sched/ready_queue.hpp"

#include <algorithm>
#include <utility>

#include "util/logging.hpp"
#include "util/vec.hpp"

namespace sjs::sched {

namespace {

// Thread-local buffer recycler. The Monte-Carlo driver constructs one fresh
// scheduler per (run, scheduler) cell on the same worker thread; donating a
// destroyed queue's buffers here and adopting them in the next queue makes
// the steady state allocation-free across cells, mirroring Engine::reset()'s
// reuse of the event heap and timer slab. Thread-local keeps it race-free
// (TSan-clean) and deterministic: buffer identity never influences behavior.
// The cap bounds worst-case retention (a V-Dover cell donates three pairs).
constexpr std::size_t kRecyclerCap = 8;

struct BufferRecycler {
  std::vector<std::vector<ReadyQueue::Entry>> entries;
  std::vector<std::vector<std::uint32_t>> positions;
};

BufferRecycler& recycler() {
  thread_local BufferRecycler pool;
  return pool;
}

}  // namespace

ReadyQueue::ReadyQueue(QueueOrder order) : order_(order) {
  BufferRecycler& pool = recycler();
  if (!pool.entries.empty()) {
    heap_ = std::move(pool.entries.back());
    pool.entries.pop_back();
    heap_.clear();
  }
  if (!pool.positions.empty()) {
    pos_ = std::move(pool.positions.back());
    pool.positions.pop_back();
    pos_.clear();
  }
  if (!pool.entries.empty()) {
    scratch_ = std::move(pool.entries.back());
    pool.entries.pop_back();
    scratch_.clear();
  }
}

ReadyQueue::~ReadyQueue() {
  BufferRecycler& pool = recycler();
  if (heap_.capacity() > 0 && pool.entries.size() < kRecyclerCap) {
    heap_.clear();
    pool.entries.push_back(std::move(heap_));
  }
  if (scratch_.capacity() > 0 && pool.entries.size() < kRecyclerCap) {
    scratch_.clear();
    pool.entries.push_back(std::move(scratch_));
  }
  if (pos_.capacity() > 0 && pool.positions.size() < kRecyclerCap) {
    pos_.clear();
    pool.positions.push_back(std::move(pos_));
  }
}

void ReadyQueue::reserve(std::size_t id_bound) {
  // This IS the pre-sizing remedy: reserve every table before the hot loop.
  // The position index is reserved, not filled: push() extends it within
  // capacity, so a live session's large id bound costs address space, not
  // resident memory. The scratch is included so all buffers a queue donates
  // to the recycler have capacity >= id_bound — whichever buffer the next
  // same-sized queue adopts, its own reserve() is then a no-op (the
  // zero-allocation warmed steady state depends on this interchangeability).
  pos_.reserve(id_bound);
  heap_.reserve(id_bound);
  scratch_.reserve(id_bound);
}

void ReadyQueue::clear() {
  for (const Entry& e : heap_) pos_[static_cast<std::size_t>(e.id)] = kNpos;
  heap_.clear();
}

double ReadyQueue::key_of(JobId id) const {
  SJS_CHECK_MSG(contains(id), "ReadyQueue::key_of on absent job " << id);
  return heap_[pos_[static_cast<std::size_t>(id)]].key;
}

const ReadyQueue::Entry& ReadyQueue::top() const {
  SJS_CHECK_MSG(!heap_.empty(), "ReadyQueue::top on an empty queue");
  return heap_.front();
}

void ReadyQueue::push(double key, JobId id) {
  SJS_CHECK_MSG(id >= 0, "ReadyQueue::push of invalid job " << id);
  const auto idx = static_cast<std::size_t>(id);
  // Amortized doubling to the live-set high-water; reserve() pre-sizes both
  // tables, so a warmed steady state never grows them.
  util::grow_to_index_fill(pos_, idx, kNpos);
  SJS_CHECK_MSG(pos_[idx] == kNpos,
                "ReadyQueue::push of already-queued job " << id);
  util::append(heap_, Entry{key, id});
  pos_[idx] = static_cast<std::uint32_t>(heap_.size() - 1);
  sift_up(heap_.size() - 1);
  peak_ = std::max<std::uint64_t>(peak_, heap_.size());
}

ReadyQueue::Entry ReadyQueue::pop() {
  SJS_CHECK_MSG(!heap_.empty(), "ReadyQueue::pop on an empty queue");
  const Entry best = heap_.front();
  pos_[static_cast<std::size_t>(best.id)] = kNpos;
  const Entry last = heap_.back();
  heap_.pop_back();
  if (!heap_.empty()) {
    place(0, last);
    sift_down(0);
  }
  return best;
}

bool ReadyQueue::erase(JobId id) {
  if (!contains(id)) return false;
  const std::size_t slot = pos_[static_cast<std::size_t>(id)];
  pos_[static_cast<std::size_t>(id)] = kNpos;
  const Entry last = heap_.back();
  heap_.pop_back();
  if (slot < heap_.size()) {
    place(slot, last);
    // The replacement may violate the heap property in either direction.
    sift_down(slot);
    if (heap_[slot].id == last.id) sift_up(slot);
  }
  return true;
}

void ReadyQueue::update_key(JobId id, double key) {
  SJS_CHECK_MSG(contains(id), "ReadyQueue::update_key on absent job " << id);
  const std::size_t slot = pos_[static_cast<std::size_t>(id)];
  const Entry updated{key, id};
  const bool toward_top = before(updated, heap_[slot]);
  heap_[slot].key = key;
  if (toward_top) {
    sift_up(slot);
  } else {
    sift_down(slot);
  }
}

void ReadyQueue::sift_up(std::size_t slot) {
  const Entry moving = heap_[slot];
  while (slot > 0) {
    const std::size_t parent = (slot - 1) / kArity;
    if (!before(moving, heap_[parent])) break;
    place(slot, heap_[parent]);
    slot = parent;
  }
  place(slot, moving);
}

void ReadyQueue::sift_down(std::size_t slot) {
  const Entry moving = heap_[slot];
  const std::size_t n = heap_.size();
  while (true) {
    const std::size_t first_child = slot * kArity + 1;
    if (first_child >= n) break;
    const std::size_t last_child = std::min(first_child + kArity, n);
    std::size_t best = first_child;
    for (std::size_t c = first_child + 1; c < last_child; ++c) {
      if (before(heap_[c], heap_[best])) best = c;
    }
    if (!before(heap_[best], moving)) break;
    place(slot, heap_[best]);
    slot = best;
  }
  place(slot, moving);
}

void ReadyQueue::snapshot_ordered() const {
  scratch_.assign(heap_.begin(), heap_.end());
  std::sort(scratch_.begin(), scratch_.end(),
            [this](const Entry& a, const Entry& b) { return before(a, b); });
}

}  // namespace sjs::sched
