#include "sim/job_table.hpp"

#include "util/logging.hpp"
#include "util/vec.hpp"

namespace sjs::sim {

void JobTable::init_slot(std::uint32_t slot) {
  qedf_meta_[slot] = QedfMeta{};
  ocl_timer_[slot] = kNoTimer;
  abandoned_[slot] = 0;
  ocl_scheduled_[slot] = 0;
}

void JobTable::append_slot() {
  util::append(qedf_meta_, QedfMeta{});
  util::append(ocl_timer_, kNoTimer);
  util::append(abandoned_, std::uint8_t{0});
  util::append(ocl_scheduled_, std::uint8_t{0});
  util::append(gen_, std::uint32_t{0});
  util::append(freed_, std::uint8_t{0});
}

void JobTable::bind_dense(std::size_t n) {
  util::grow(qedf_meta_, n);
  util::grow(ocl_timer_, n);
  util::grow(abandoned_, n);
  util::grow(ocl_scheduled_, n);
  util::grow(gen_, n);
  util::grow(freed_, n);
  free_.clear();
  for (std::size_t i = 0; i < n; ++i) {
    init_slot(static_cast<std::uint32_t>(i));
    gen_[i] = 0;
    freed_[i] = 0;
  }
  live_ = n;
  peak_ = n;
}

JobId JobTable::append_dense() {
  SJS_CHECK_MSG(free_.empty(),
                "append_dense after slab-regime reuse: dense ids require "
                "no slot reuse");
  const auto slot = static_cast<std::uint32_t>(gen_.size());
  append_slot();
  ++live_;
  if (live_ > peak_) peak_ = live_;
  return make_job_id(slot, 0);
}

JobId JobTable::allocate() {
  std::uint32_t slot;
  if (!free_.empty()) {
    slot = free_.back();
    free_.pop_back();
    freed_[slot] = 0;
    init_slot(slot);
  } else {
    slot = static_cast<std::uint32_t>(gen_.size());
    append_slot();
  }
  ++live_;
  if (live_ > peak_) peak_ = live_;
  return make_job_id(slot, gen_[slot]);
}

bool JobTable::release_slot(JobId id) {
  if (!valid(id)) return false;  // stale generation or foreign id: no-op
  const std::uint32_t slot = job_slot(id);
  ++gen_[slot];  // invalidates every outstanding handle to this slot
  freed_[slot] = 1;
  util::append(free_, slot);
  --live_;
  return true;
}

void JobTable::clear() {
  // Treat the clear as releasing every occupied slot: bump its generation
  // (so handles from before the clear stay invalid even after the slot is
  // repopulated) and put it on the free list. Lanes keep their high-water
  // length and capacity — the generation stamps must survive, and a LIFO
  // free list restores slot reuse without any reallocation.
  for (std::size_t i = gen_.size(); i-- > 0;) {
    if (!freed_[i]) {
      ++gen_[i];
      freed_[i] = 1;
      util::append(free_, static_cast<std::uint32_t>(i));
    }
  }
  live_ = 0;
  peak_ = 0;
}

void JobTable::reserve(std::size_t n) {
  qedf_meta_.reserve(n);
  ocl_timer_.reserve(n);
  abandoned_.reserve(n);
  ocl_scheduled_.reserve(n);
  gen_.reserve(n);
  freed_.reserve(n);
  free_.reserve(n);
  admission_scratch_.reserve(n + 2);
}

}  // namespace sjs::sim
