// Unit tests for the SoA job slab (sim/job_table.hpp): generation-stamped
// handle semantics, free-list slot reuse (with every lane reset on reuse),
// clear()-for-reuse across Monte-Carlo cells, and the bounded-memory
// contract under churn. The lanes observed are the schedulers' (Qedf
// metadata, abandonment flag, 0cl timer handle); the engine's ground truth
// lives in sim::ExecCore.
//
// The differential test mirrors ready_queue_test.cpp's approach: drive the
// slab and a deliberately naive AoS reference (maps keyed by handle) with
// one random operation stream and require identical observable state after
// every step — including that stale handles (released, or from before a
// clear()) are rejected exactly when the reference says they must be.
#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <set>
#include <thread>
#include <vector>

#include "jobs/job.hpp"
#include "sim/job_table.hpp"
#include "util/rng.hpp"

namespace sjs {
namespace {

using sim::JobTable;

TEST(JobTableTest, DenseBindMatchesInstanceOrder) {
  std::vector<Job> jobs;
  for (int i = 0; i < 5; ++i) {
    jobs.push_back(Job{static_cast<JobId>(i), 0.0, 1.0 + i, 10.0, 1.0});
  }
  JobTable table;
  table.bind_dense(jobs.size());
  ASSERT_EQ(table.size(), 5u);
  for (JobId id = 0; id < 5; ++id) {
    // Dense ids are numerically the slot: generation 0.
    EXPECT_EQ(job_slot(id), static_cast<std::uint32_t>(id));
    EXPECT_EQ(job_generation(id), 0u);
    EXPECT_TRUE(table.valid(id));
    EXPECT_EQ(table.qedf_meta(id).t_insert, 0.0);
    EXPECT_EQ(table.ocl_timer(id), sim::kNoTimer);
    EXPECT_FALSE(table.abandoned(id));
  }
}

TEST(JobTableTest, AppendDenseAssignsAdmissionOrderIds) {
  JobTable table;
  table.bind_dense(0);
  EXPECT_EQ(table.append_dense(), 0);
  EXPECT_EQ(table.append_dense(), 1);
  EXPECT_EQ(table.append_dense(), 2);
  EXPECT_EQ(table.size(), 3u);
  EXPECT_EQ(table.live_count(), 3u);
  EXPECT_EQ(table.ocl_timer(1), sim::kNoTimer);
}

TEST(JobTableTest, ReleaseSlotInvalidatesHandleAndReusesSlot) {
  JobTable table;
  const JobId a = table.allocate();
  const JobId b = table.allocate();
  ASSERT_TRUE(table.valid(a));
  ASSERT_TRUE(table.valid(b));
  EXPECT_EQ(table.live_count(), 2u);
  table.qedf_meta(a).t_insert = 1.0;
  table.set_abandoned(a, true);

  EXPECT_TRUE(table.release_slot(a));
  EXPECT_FALSE(table.valid(a));
  EXPECT_EQ(table.live_count(), 1u);
  // Releasing again (or any stale handle) is a harmless no-op.
  EXPECT_FALSE(table.release_slot(a));
  EXPECT_EQ(table.live_count(), 1u);

  // The freed slot is reused under a NEW generation: same slot, different
  // handle, and the stale handle still bounces.
  const JobId c = table.allocate();
  EXPECT_EQ(job_slot(c), job_slot(a));
  EXPECT_NE(job_generation(c), job_generation(a));
  EXPECT_TRUE(table.valid(c));
  EXPECT_FALSE(table.valid(a));
  // The reused slot's lanes start fresh.
  EXPECT_EQ(table.qedf_meta(c).t_insert, 0.0);
  EXPECT_FALSE(table.abandoned(c));
  EXPECT_EQ(table.size(), 2u);  // no third slot was ever created
}

TEST(JobTableTest, ClearBumpsGenerationsOfOccupiedSlots) {
  JobTable table;
  const JobId a = table.allocate();
  const JobId b = table.allocate();
  table.set_abandoned(a, true);
  table.qedf_meta(b).t_insert = 2.0;
  table.clear();

  EXPECT_EQ(table.live_count(), 0u);
  EXPECT_FALSE(table.valid(a));
  EXPECT_FALSE(table.valid(b));
  // Lanes keep their high-water length (clear is reuse, not shrink).
  EXPECT_EQ(table.slots(), 2u);

  // Slots come back under fresh generations with fresh lane state.
  const JobId c = table.allocate();
  EXPECT_FALSE(table.valid(a));
  EXPECT_FALSE(table.valid(b));
  EXPECT_TRUE(table.valid(c));
  EXPECT_FALSE(table.abandoned(c));
  EXPECT_EQ(table.qedf_meta(c).t_insert, 0.0);
  EXPECT_EQ(table.size(), 2u);
}

TEST(JobTableTest, RandomizedDifferentialAgainstAosReference) {
  // The reference is the pre-slab design: per-job state in ordered maps
  // keyed by the full handle. A handle is valid iff it is in the map;
  // release erases it; clear erases everything. The slab must agree on
  // every observable after every operation.
  JobTable table;
  std::map<JobId, double> ref_remaining;  // the qedf_meta t_insert lane
  std::map<JobId, bool> ref_released;     // the abandoned lane
  std::vector<JobId> live;  // reference's live handles, insertion order
  std::vector<JobId> stale; // every handle ever invalidated
  Rng rng(20250809);

  for (int step = 0; step < 20000; ++step) {
    const double roll = rng.uniform(0.0, 1.0);
    if (roll < 0.40 || live.empty()) {
      // Allocate.
      const double workload = rng.uniform(0.5, 9.5);
      const JobId id = table.allocate();
      ASSERT_TRUE(table.valid(id));
      table.qedf_meta(id).t_insert = workload;
      ASSERT_EQ(ref_remaining.count(id), 0u) << "slab returned a live handle";
      ref_remaining[id] = workload;
      ref_released[id] = false;
      live.push_back(id);
    } else if (roll < 0.65) {
      // Release a random live handle.
      const std::size_t k = static_cast<std::size_t>(
          rng.uniform(0.0, static_cast<double>(live.size())));
      const JobId id = live[std::min(k, live.size() - 1)];
      EXPECT_TRUE(table.release_slot(id));
      ref_remaining.erase(id);
      ref_released.erase(id);
      live.erase(live.begin() +
                 static_cast<std::ptrdiff_t>(std::min(k, live.size() - 1)));
      stale.push_back(id);
    } else if (roll < 0.85) {
      // Mutate a random live handle's lanes.
      const std::size_t k = static_cast<std::size_t>(
          rng.uniform(0.0, static_cast<double>(live.size())));
      const JobId id = live[std::min(k, live.size() - 1)];
      const double served = rng.uniform(0.0, 0.5);
      table.qedf_meta(id).t_insert -= served;
      ref_remaining[id] -= served;
      if (rng.uniform(0.0, 1.0) < 0.3) {
        table.set_abandoned(id, true);
        ref_released[id] = true;
      }
    } else if (roll < 0.995) {
      // Probe a stale handle: must be invalid, release must no-op.
      if (!stale.empty()) {
        const std::size_t k = static_cast<std::size_t>(
            rng.uniform(0.0, static_cast<double>(stale.size())));
        const JobId id = stale[std::min(k, stale.size() - 1)];
        EXPECT_FALSE(table.valid(id));
        EXPECT_FALSE(table.release_slot(id));
      }
    } else {
      // Clear-for-reuse: the Monte-Carlo cell boundary.
      table.clear();
      for (const auto& [id, unused] : ref_remaining) stale.push_back(id);
      ref_remaining.clear();
      ref_released.clear();
      live.clear();
      EXPECT_EQ(table.live_count(), 0u);
    }

    // Full-state comparison every step.
    ASSERT_EQ(table.live_count(), ref_remaining.size());
    for (const auto& [id, rem] : ref_remaining) {
      ASSERT_TRUE(table.valid(id)) << "live handle rejected";
      ASSERT_EQ(table.qedf_meta(id).t_insert, rem);
      ASSERT_EQ(table.abandoned(id), ref_released[id]);
    }
  }

  // The run exercised reuse: far fewer slots than allocations.
  EXPECT_LT(table.slots(), 20000u / 4);
}

TEST(JobTableTest, ChurnKeepsSlotsBoundedByPeakOccupancy) {
  // Mirror of ready_queue_test's bounded-memory churn test: on a fresh
  // thread (so nothing donated by earlier tests skews accounting), cycle
  // far more allocations through the slab than it ever holds at once. Slot
  // count must track PEAK occupancy, never the operation count — this is
  // the bounded-memory contract for unbounded-session serving.
  std::thread worker([] {
    constexpr std::size_t kWindow = 64;
    constexpr int kOps = 100000;
    JobTable table;
    table.reserve(kWindow);
    std::vector<JobId> window;
    Rng rng(777);
    for (int i = 0; i < kOps; ++i) {
      window.push_back(table.allocate());
      if (window.size() == kWindow) {
        // Free in a scrambled order so the LIFO free list sees churn.
        while (!window.empty()) {
          const std::size_t k = static_cast<std::size_t>(rng.uniform(
              0.0, static_cast<double>(window.size())));
          const std::size_t j = std::min(k, window.size() - 1);
          EXPECT_TRUE(table.release_slot(window[j]));
          window[j] = window.back();
          window.pop_back();
        }
      }
    }
    EXPECT_EQ(table.peak(), kWindow);
    EXPECT_LE(table.slots(), kWindow);
  });
  worker.join();
}

TEST(JobTableTest, DenseRebindInvalidatesPriorHandlesByContract) {
  std::vector<Job> jobs{Job{0, 0.0, 1.0, 10.0, 1.0},
                        Job{1, 0.0, 2.0, 10.0, 1.0}};
  JobTable table;
  table.bind_dense(jobs.size());
  table.qedf_meta(0).t_insert = 0.25;
  table.set_abandoned(1, true);
  table.ocl_timer(0) = sim::TimerId{7};

  // Rebinding the same instance resets every slot to its initial state.
  table.bind_dense(jobs.size());
  EXPECT_EQ(table.qedf_meta(0).t_insert, 0.0);
  EXPECT_FALSE(table.abandoned(1));
  EXPECT_EQ(table.ocl_timer(0), sim::kNoTimer);
  EXPECT_EQ(table.live_count(), 2u);
}

}  // namespace
}  // namespace sjs
