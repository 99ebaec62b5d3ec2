// Tests for the discrete-event engine: exact completion times under varying
// capacity, preemption/resume, deadline semantics, timers, event ordering,
// and accounting invariants.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "capacity/capacity_profile.hpp"
#include "jobs/instance.hpp"
#include "obs/digest.hpp"
#include "sched/factory.hpp"
#include "sim/engine.hpp"
#include "util/fp.hpp"
#include "util/logging.hpp"

namespace sjs::sim {
namespace {

Job make_job(double r, double p, double d, double v) {
  Job j;
  j.release = r;
  j.workload = p;
  j.deadline = d;
  j.value = v;
  return j;
}

/// Runs whatever was just released; re-dispatches nothing on completion.
/// Used to probe raw engine mechanics.
class RunOnReleaseScheduler : public Scheduler {
 public:
  void on_release(Engine& engine, JobId job) override { engine.run(job); }
  void on_complete(Engine&, JobId) override {}
  void on_expire(Engine&, JobId, bool) override {}
  std::string name() const override { return "run-on-release"; }
};

/// Work-conserving EDF-ish test scheduler that also logs every callback.
class LoggingScheduler : public Scheduler {
 public:
  void on_release(Engine& engine, JobId job) override {
    log_.push_back({'R', job, engine.now()});
    ready_.push_back(job);
    if (engine.running() == kNoJob) dispatch(engine);
  }
  void on_complete(Engine& engine, JobId job) override {
    log_.push_back({'C', job, engine.now()});
    dispatch(engine);
  }
  void on_expire(Engine& engine, JobId job, bool) override {
    log_.push_back({'X', job, engine.now()});
    std::erase(ready_, job);
    if (engine.running() == kNoJob) dispatch(engine);
  }
  void on_timer(Engine& engine, JobId job, int tag) override {
    log_.push_back({'T', job, engine.now()});
    last_timer_tag_ = tag;
  }
  std::string name() const override { return "logging"; }

  struct Entry {
    char kind;
    JobId job;
    double time;
  };
  std::vector<Entry> log_;
  int last_timer_tag_ = -1;

 private:
  void dispatch(Engine& engine) {
    while (!ready_.empty()) {
      JobId next = ready_.front();
      ready_.erase(ready_.begin());
      if (engine.is_live(next)) {
        engine.run(next);
        return;
      }
    }
  }
  std::vector<JobId> ready_;
};

TEST(Engine, SingleJobCompletesAtExactTime) {
  Instance instance({make_job(1.0, 4.0, 10.0, 5.0)},
                    cap::CapacityProfile(2.0));
  RunOnReleaseScheduler sched;
  Engine engine(instance, sched);
  auto result = engine.run_to_completion();
  EXPECT_EQ(result.completed_count, 1u);
  EXPECT_DOUBLE_EQ(result.completed_value, 5.0);
  // 4 units at rate 2 from t=1 -> completes at t=3.
  ASSERT_EQ(result.value_trace.size(), 1u);
  EXPECT_DOUBLE_EQ(result.value_trace.times()[0], 3.0);
}

TEST(Engine, CompletionSpansCapacityChangeExactly) {
  // Rate 1 on [0,10), then 35: a 12-unit job started at t=8 gets 2 units by
  // t=10 and the remaining 10 units in 10/35 time.
  Instance instance({make_job(8.0, 12.0, 100.0, 1.0)},
                    cap::CapacityProfile({0.0, 10.0}, {1.0, 35.0}));
  RunOnReleaseScheduler sched;
  Engine engine(instance, sched);
  auto result = engine.run_to_completion();
  EXPECT_EQ(result.completed_count, 1u);
  EXPECT_DOUBLE_EQ(result.value_trace.times()[0], 10.0 + 10.0 / 35.0);
}

TEST(Engine, JobCompletingExactlyAtDeadlineSucceeds) {
  // p = 4 at rate 1 with window exactly 4.
  Instance instance({make_job(0.0, 4.0, 4.0, 3.0)}, cap::CapacityProfile(1.0));
  RunOnReleaseScheduler sched;
  Engine engine(instance, sched);
  auto result = engine.run_to_completion();
  EXPECT_EQ(result.completed_count, 1u);
  EXPECT_EQ(result.expired_count, 0u);
  EXPECT_DOUBLE_EQ(result.completed_value, 3.0);
}

TEST(Engine, InfeasibleJobFailsAtDeadline) {
  Instance instance({make_job(0.0, 10.0, 4.0, 3.0)},
                    cap::CapacityProfile(1.0));
  RunOnReleaseScheduler sched;
  Engine engine(instance, sched);
  auto result = engine.run_to_completion();
  EXPECT_EQ(result.completed_count, 0u);
  EXPECT_EQ(result.expired_count, 1u);
  EXPECT_DOUBLE_EQ(result.completed_value, 0.0);
  // It executed for its whole window though.
  EXPECT_DOUBLE_EQ(result.executed_work[0], 4.0);
}

TEST(Engine, UnscheduledJobExpiresUntouched) {
  /// A scheduler that never runs anything.
  class IdleScheduler : public Scheduler {
   public:
    void on_release(Engine&, JobId) override {}
    void on_complete(Engine&, JobId) override {}
    void on_expire(Engine& engine, JobId job, bool was_running) override {
      EXPECT_FALSE(was_running);
      EXPECT_FALSE(engine.is_live(job));
    }
    std::string name() const override { return "idle"; }
  };
  Instance instance({make_job(0.0, 1.0, 2.0, 1.0)}, cap::CapacityProfile(1.0));
  IdleScheduler sched;
  Engine engine(instance, sched);
  auto result = engine.run_to_completion();
  EXPECT_EQ(result.expired_count, 1u);
  EXPECT_DOUBLE_EQ(result.executed_work[0], 0.0);
  EXPECT_DOUBLE_EQ(result.busy_time, 0.0);
}

TEST(Engine, PreemptionResumesFromPointOfPreemption) {
  // Job 0: long, released first. Job 1: short, preempts at t=2 (the logging
  // scheduler runs whatever is released when idle; we force the preemption
  // by a custom scheduler).
  class PreemptingScheduler : public Scheduler {
   public:
    void on_release(Engine& engine, JobId job) override { engine.run(job); }
    void on_complete(Engine& engine, JobId job) override {
      if (job == 1 && engine.is_live(0)) engine.run(0);  // resume job 0
    }
    void on_expire(Engine&, JobId, bool) override {}
    std::string name() const override { return "preempting"; }
  };
  Instance instance(
      {make_job(0.0, 5.0, 20.0, 1.0), make_job(2.0, 1.0, 10.0, 1.0)},
      cap::CapacityProfile(1.0));
  PreemptingScheduler sched;
  Engine engine(instance, sched);
  auto result = engine.run_to_completion();
  EXPECT_EQ(result.completed_count, 2u);
  EXPECT_EQ(result.preemptions, 1u);
  // Job 0: 2 units by t=2, paused for 1, resumes and finishes at t=6.
  const auto& times = result.value_trace.times();
  ASSERT_EQ(times.size(), 2u);
  EXPECT_DOUBLE_EQ(times[0], 3.0);  // job 1
  EXPECT_DOUBLE_EQ(times[1], 6.0);  // job 0
}

TEST(Engine, RemainingTracksExecution) {
  class ProbeScheduler : public Scheduler {
   public:
    void on_release(Engine& engine, JobId job) override {
      EXPECT_DOUBLE_EQ(engine.remaining(job), engine.job(job).workload);
      engine.run(job);
    }
    void on_complete(Engine& engine, JobId job) override {
      EXPECT_DOUBLE_EQ(engine.remaining(job), 0.0);
      EXPECT_TRUE(engine.is_completed(job));
    }
    void on_expire(Engine&, JobId, bool) override {}
    std::string name() const override { return "probe"; }
  };
  Instance instance({make_job(0.0, 3.0, 10.0, 1.0)},
                    cap::CapacityProfile(1.5));
  ProbeScheduler sched;
  Engine engine(instance, sched);
  engine.run_to_completion();
}

TEST(Engine, TimerFiresAtRequestedInstant) {
  class TimerScheduler : public LoggingScheduler {
   public:
    void on_release(Engine& engine, JobId job) override {
      LoggingScheduler::on_release(engine, job);
      engine.set_timer(engine.now() + 0.5, job, 42);
    }
  };
  Instance instance({make_job(1.0, 5.0, 20.0, 1.0)},
                    cap::CapacityProfile(1.0));
  TimerScheduler sched;
  Engine engine(instance, sched);
  engine.run_to_completion();
  bool saw_timer = false;
  for (const auto& e : sched.log_) {
    if (e.kind == 'T') {
      saw_timer = true;
      EXPECT_DOUBLE_EQ(e.time, 1.5);
    }
  }
  EXPECT_TRUE(saw_timer);
  EXPECT_EQ(sched.last_timer_tag_, 42);
}

TEST(Engine, CancelledTimerNeverFires) {
  class CancelScheduler : public LoggingScheduler {
   public:
    void on_release(Engine& engine, JobId job) override {
      LoggingScheduler::on_release(engine, job);
      auto id = engine.set_timer(engine.now() + 0.5, job, 1);
      engine.cancel_timer(id);
    }
  };
  Instance instance({make_job(0.0, 2.0, 20.0, 1.0)},
                    cap::CapacityProfile(1.0));
  CancelScheduler sched;
  Engine engine(instance, sched);
  engine.run_to_completion();
  for (const auto& e : sched.log_) EXPECT_NE(e.kind, 'T');
}

TEST(Engine, TimerForDeadJobIsSuppressed) {
  class DeadTimerScheduler : public LoggingScheduler {
   public:
    void on_release(Engine& engine, JobId job) override {
      LoggingScheduler::on_release(engine, job);
      // Fires after the job's deadline — must be swallowed by the engine.
      engine.set_timer(engine.job(job).deadline + 1.0, job, 9);
    }
  };
  Instance instance({make_job(0.0, 10.0, 2.0, 1.0)},
                    cap::CapacityProfile(1.0));
  DeadTimerScheduler sched;
  Engine engine(instance, sched);
  engine.run_to_completion();
  for (const auto& e : sched.log_) EXPECT_NE(e.kind, 'T');
}

TEST(Engine, ImmediateTimerFiresAfterCurrentHandler) {
  class ImmediateTimerScheduler : public LoggingScheduler {
   public:
    void on_release(Engine& engine, JobId job) override {
      LoggingScheduler::on_release(engine, job);
      engine.set_timer(engine.now(), job, 7);
    }
  };
  Instance instance({make_job(1.0, 2.0, 20.0, 1.0)},
                    cap::CapacityProfile(1.0));
  ImmediateTimerScheduler sched;
  Engine engine(instance, sched);
  engine.run_to_completion();
  ASSERT_GE(sched.log_.size(), 2u);
  EXPECT_EQ(sched.log_[0].kind, 'R');
  EXPECT_EQ(sched.log_[1].kind, 'T');
  EXPECT_DOUBLE_EQ(sched.log_[1].time, 1.0);
}

TEST(Engine, CompletionBeatsExpiryAtSameInstant) {
  // Window exactly equal to processing time: completion and expiry collide
  // at t=4 and the completion must win.
  Instance instance({make_job(0.0, 4.0, 4.0, 1.0)}, cap::CapacityProfile(1.0));
  LoggingScheduler sched;
  Engine engine(instance, sched);
  auto result = engine.run_to_completion();
  EXPECT_EQ(result.completed_count, 1u);
  bool saw_expire = false;
  for (const auto& e : sched.log_) saw_expire |= (e.kind == 'X');
  EXPECT_FALSE(saw_expire);
}

TEST(Engine, ValueTraceIsCumulative) {
  Instance instance(
      {make_job(0.0, 1.0, 5.0, 2.0), make_job(0.0, 1.0, 5.0, 3.0)},
      cap::CapacityProfile(1.0));
  LoggingScheduler sched;
  Engine engine(instance, sched);
  auto result = engine.run_to_completion();
  EXPECT_EQ(result.completed_count, 2u);
  ASSERT_EQ(result.value_trace.size(), 2u);
  const auto& values = result.value_trace.values();
  EXPECT_GT(values[1], values[0]);
  EXPECT_DOUBLE_EQ(values[1], 5.0);
}

TEST(Engine, WorkConservation) {
  Instance instance(
      {make_job(0.0, 3.0, 4.0, 1.0), make_job(1.0, 2.0, 8.0, 1.0)},
      cap::CapacityProfile({0.0, 2.0}, {1.0, 3.0}));
  LoggingScheduler sched;
  Engine engine(instance, sched);
  auto result = engine.run_to_completion();
  double executed = 0.0;
  for (double w : result.executed_work) executed += w;
  EXPECT_NEAR(executed, result.executed_total, 1e-9);
  // Executed work cannot exceed what the capacity path offered while busy.
  EXPECT_LE(result.executed_total,
            instance.capacity().work(0.0, instance.max_deadline()) + 1e-9);
}

TEST(Engine, RunningNonLiveJobThrows) {
  class BadScheduler : public Scheduler {
   public:
    void on_release(Engine& engine, JobId) override {
      engine.run(1);  // job 1 not released yet
    }
    void on_complete(Engine&, JobId) override {}
    void on_expire(Engine&, JobId, bool) override {}
    std::string name() const override { return "bad"; }
  };
  Instance instance(
      {make_job(0.0, 1.0, 5.0, 1.0), make_job(3.0, 1.0, 9.0, 1.0)},
      cap::CapacityProfile(1.0));
  BadScheduler sched;
  Engine engine(instance, sched);
  EXPECT_THROW(engine.run_to_completion(), CheckError);
}

TEST(Engine, RunOutsideCallbackThrows) {
  Instance instance({make_job(0.0, 1.0, 5.0, 1.0)}, cap::CapacityProfile(1.0));
  LoggingScheduler sched;
  Engine engine(instance, sched);
  EXPECT_THROW(engine.run(0), CheckError);
}

TEST(Engine, RunSameJobIsNoOp) {
  class RedundantScheduler : public Scheduler {
   public:
    void on_release(Engine& engine, JobId job) override {
      engine.run(job);
      engine.run(job);  // no-op, must not count a preemption
    }
    void on_complete(Engine&, JobId) override {}
    void on_expire(Engine&, JobId, bool) override {}
    std::string name() const override { return "redundant"; }
  };
  Instance instance({make_job(0.0, 1.0, 5.0, 1.0)}, cap::CapacityProfile(1.0));
  RedundantScheduler sched;
  Engine engine(instance, sched);
  auto result = engine.run_to_completion();
  EXPECT_EQ(result.preemptions, 0u);
  EXPECT_EQ(result.dispatches, 1u);
  EXPECT_EQ(result.completed_count, 1u);
}

TEST(Engine, IdleRunStopsExecution) {
  class StopScheduler : public Scheduler {
   public:
    void on_release(Engine& engine, JobId job) override {
      if (job == 0) engine.run(0);
      if (job == 1) engine.run(kNoJob);  // park the processor at t=1
    }
    void on_complete(Engine&, JobId) override {}
    void on_expire(Engine&, JobId, bool) override {}
    std::string name() const override { return "stop"; }
  };
  Instance instance(
      {make_job(0.0, 5.0, 3.0, 1.0), make_job(1.0, 1.0, 2.0, 1.0)},
      cap::CapacityProfile(1.0));
  StopScheduler sched;
  Engine engine(instance, sched);
  auto result = engine.run_to_completion();
  EXPECT_EQ(result.completed_count, 0u);
  EXPECT_DOUBLE_EQ(result.executed_work[0], 1.0);  // only [0,1)
  EXPECT_DOUBLE_EQ(result.busy_time, 1.0);
}

TEST(Engine, ClaxityMatchesDefinition) {
  class ClaxityProbe : public Scheduler {
   public:
    void on_release(Engine& engine, JobId job) override {
      // claxity = d − t − p_rem/c_est.
      EXPECT_DOUBLE_EQ(engine.claxity(job, 2.0),
                       engine.job(job).deadline - engine.now() -
                           engine.remaining(job) / 2.0);
      engine.run(job);
    }
    void on_complete(Engine&, JobId) override {}
    void on_expire(Engine&, JobId, bool) override {}
    std::string name() const override { return "claxity"; }
  };
  Instance instance({make_job(1.0, 6.0, 9.0, 1.0)}, cap::CapacityProfile(3.0));
  ClaxityProbe sched;
  Engine engine(instance, sched);
  engine.run_to_completion();
}

TEST(Engine, CapacityChangeEventsDeliveredWhenRequested) {
  class CapacityWatcher : public LoggingScheduler {
   public:
    bool wants_capacity_events() const override { return true; }
    void on_capacity_change(Engine& engine) override {
      changes_.push_back({engine.now(), engine.current_rate()});
    }
    std::vector<std::pair<double, double>> changes_;
  };
  Instance instance({make_job(0.0, 30.0, 40.0, 1.0)},
                    cap::CapacityProfile({0.0, 10.0, 20.0}, {1.0, 2.0, 1.0}));
  CapacityWatcher sched;
  Engine engine(instance, sched);
  engine.run_to_completion();
  ASSERT_EQ(sched.changes_.size(), 2u);
  EXPECT_DOUBLE_EQ(sched.changes_[0].first, 10.0);
  EXPECT_DOUBLE_EQ(sched.changes_[0].second, 2.0);
  EXPECT_DOUBLE_EQ(sched.changes_[1].first, 20.0);
}

TEST(Engine, CompletionAndResponseTimesRecorded) {
  Instance instance(
      {make_job(1.0, 2.0, 9.0, 1.0), make_job(2.0, 50.0, 4.0, 1.0)},
      cap::CapacityProfile(1.0));
  LoggingScheduler sched;
  Engine engine(instance, sched);
  auto result = engine.run_to_completion();
  ASSERT_EQ(result.completion_times.size(), 2u);
  EXPECT_DOUBLE_EQ(result.completion_times[0], 3.0);   // [1, 3)
  EXPECT_TRUE(std::isnan(result.completion_times[1])); // expired
  auto responses = result.response_times();
  ASSERT_EQ(responses.size(), 1u);
  EXPECT_DOUBLE_EQ(responses[0], 2.0);
  EXPECT_DOUBLE_EQ(result.mean_response_time(), 2.0);
}

TEST(Engine, MeanResponseTimeZeroWhenNothingCompletes) {
  Instance instance({make_job(0.0, 9.0, 1.0, 1.0)}, cap::CapacityProfile(1.0));
  LoggingScheduler sched;
  Engine engine(instance, sched);
  auto result = engine.run_to_completion();
  EXPECT_DOUBLE_EQ(result.mean_response_time(), 0.0);
  EXPECT_TRUE(result.response_times().empty());
}

// ------------------------------------------------------------- timer slab

TEST(EngineTimerSlab, CancelCorruptedIdThrows) {
  Instance instance({make_job(0.0, 1.0, 5.0, 1.0)}, cap::CapacityProfile(1.0));
  LoggingScheduler sched;
  Engine engine(instance, sched);
  // Slot index 999 was never allocated: a corrupted handle, not a stale one.
  EXPECT_THROW(engine.cancel_timer(TimerId{999}), CheckError);
}

TEST(EngineTimerSlab, StaleCancelAfterSlotReuseIsNoOp) {
  // Cancel a timer, arm a new one (which reuses the freed slot with a bumped
  // generation), then cancel the FIRST handle again: the stale cancel must
  // not kill the new timer.
  class ReuseScheduler : public LoggingScheduler {
   public:
    void on_release(Engine& engine, JobId job) override {
      LoggingScheduler::on_release(engine, job);
      TimerId first = engine.set_timer(engine.now() + 0.25, job, 1);
      engine.cancel_timer(first);
      TimerId second = engine.set_timer(engine.now() + 0.5, job, 2);
      EXPECT_EQ(engine.live_timer_count(), 1u);
      engine.cancel_timer(first);  // stale generation: harmless no-op
      EXPECT_EQ(engine.live_timer_count(), 1u);
      (void)second;
    }
  };
  Instance instance({make_job(0.0, 2.0, 20.0, 1.0)},
                    cap::CapacityProfile(1.0));
  ReuseScheduler sched;
  Engine engine(instance, sched);
  engine.run_to_completion();
  int timer_fires = 0;
  for (const auto& e : sched.log_) timer_fires += (e.kind == 'T');
  EXPECT_EQ(timer_fires, 1);
  EXPECT_EQ(sched.last_timer_tag_, 2);  // the second timer, not the first
  EXPECT_EQ(engine.live_timer_count(), 0u);
}

TEST(EngineTimerSlab, SlotsAreReusedNotLeaked) {
  // One timer live at a time, armed and fired N times in sequence: the slab
  // must stay at a single slot however many timers were armed.
  class ChainScheduler : public LoggingScheduler {
   public:
    void on_timer(Engine& engine, JobId job, int tag) override {
      LoggingScheduler::on_timer(engine, job, tag);
      if (tag < 8 && engine.is_live(job)) {
        engine.set_timer(engine.now() + 0.5, job, tag + 1);
      }
    }
    void on_release(Engine& engine, JobId job) override {
      LoggingScheduler::on_release(engine, job);
      engine.set_timer(engine.now() + 0.5, job, 1);
    }
  };
  Instance instance({make_job(0.0, 6.0, 20.0, 1.0)},
                    cap::CapacityProfile(1.0));
  ChainScheduler sched;
  Engine engine(instance, sched);
  auto result = engine.run_to_completion();
  EXPECT_EQ(result.timers_armed, 8u);
  EXPECT_EQ(result.timer_slab_slots, 1u);   // same slot recycled every time
  EXPECT_EQ(result.timer_slab_peak, 1u);
  EXPECT_EQ(engine.live_timer_count(), 0u);
}

TEST(EngineTimerSlab, LiveTimerCountTracksArmAndCancel) {
  class CountScheduler : public LoggingScheduler {
   public:
    void on_release(Engine& engine, JobId job) override {
      LoggingScheduler::on_release(engine, job);
      TimerId a = engine.set_timer(engine.now() + 1.0, job, 1);
      engine.set_timer(engine.now() + 2.0, job, 2);
      EXPECT_EQ(engine.live_timer_count(), 2u);
      engine.cancel_timer(a);
      EXPECT_EQ(engine.live_timer_count(), 1u);
      engine.cancel_timer(kNoTimer);  // explicit no-op
      EXPECT_EQ(engine.live_timer_count(), 1u);
    }
  };
  Instance instance({make_job(0.0, 4.0, 20.0, 1.0)},
                    cap::CapacityProfile(1.0));
  CountScheduler sched;
  Engine engine(instance, sched);
  auto result = engine.run_to_completion();
  EXPECT_EQ(result.timer_slab_peak, 2u);
  EXPECT_EQ(engine.live_timer_count(), 0u);
}

TEST(EngineTimerSlab, DeadJobTimerStillFreesItsSlot) {
  // A timer that fires after its job's deadline is swallowed (no callback),
  // but the slab slot must still come back.
  class DeadTimerScheduler : public LoggingScheduler {
   public:
    void on_release(Engine& engine, JobId job) override {
      LoggingScheduler::on_release(engine, job);
      engine.set_timer(engine.job(job).deadline + 1.0, job, 9);
    }
  };
  Instance instance({make_job(0.0, 10.0, 2.0, 1.0)},
                    cap::CapacityProfile(1.0));
  DeadTimerScheduler sched;
  Engine engine(instance, sched);
  engine.run_to_completion();
  EXPECT_EQ(engine.live_timer_count(), 0u);
}

// ------------------------------------------------------------ engine reuse

TEST(EngineReset, ReplaysIdenticallyOnSameInstance) {
  Instance instance(
      {make_job(0.0, 3.0, 4.0, 1.0), make_job(1.0, 2.0, 8.0, 2.0),
       make_job(1.5, 4.0, 5.0, 3.0)},
      cap::CapacityProfile({0.0, 2.0, 5.0}, {1.0, 3.0, 2.0}));

  obs::DigestSink first_digest;
  LoggingScheduler first_sched;
  Engine engine(instance, first_sched);
  engine.attach_trace(&first_digest);
  auto first = engine.run_to_completion();

  obs::DigestSink second_digest;
  LoggingScheduler second_sched;  // fresh scheduler, same engine
  engine.reset(second_sched);
  engine.attach_trace(&second_digest);
  auto second = engine.run_to_completion();

  EXPECT_EQ(first_digest.digest(), second_digest.digest());
  EXPECT_EQ(first_digest.event_count(), second_digest.event_count());
  EXPECT_EQ(first.completed_count, second.completed_count);
  EXPECT_DOUBLE_EQ(first.completed_value, second.completed_value);
  EXPECT_EQ(first.events_processed, second.events_processed);
  EXPECT_EQ(first.preemptions, second.preemptions);
  ASSERT_EQ(first.executed_work.size(), second.executed_work.size());
  for (std::size_t i = 0; i < first.executed_work.size(); ++i) {
    EXPECT_DOUBLE_EQ(first.executed_work[i], second.executed_work[i]);
  }
}

TEST(EngineReset, ClearsTimersFromPreviousRun) {
  // Run 1 leaves nothing live, but even mid-slab state must not leak into
  // run 2: stale handles from run 1 are rejected as corrupted or stale, and
  // the slab starts empty.
  class ArmOnlyScheduler : public LoggingScheduler {
   public:
    void on_release(Engine& engine, JobId job) override {
      LoggingScheduler::on_release(engine, job);
      saved_ = engine.set_timer(engine.now() + 50.0, job, 3);  // never fires
    }
    TimerId saved_ = kNoTimer;
  };
  Instance instance({make_job(0.0, 1.0, 2.0, 1.0)}, cap::CapacityProfile(1.0));
  ArmOnlyScheduler first;
  Engine engine(instance, first);
  engine.run_to_completion();

  LoggingScheduler second;
  engine.reset(second);
  EXPECT_EQ(engine.live_timer_count(), 0u);
  EXPECT_EQ(engine.timer_slab_size(), 0u);
  auto result = engine.run_to_completion();
  EXPECT_EQ(result.completed_count, 1u);
  for (const auto& e : second.log_) EXPECT_NE(e.kind, 'T');
}

// The static release/expiry queue is sealed once and reused across reset()
// while the job count and capacity subscription stay the same. Every test
// below holds a reused engine to a fresh engine's replay, bit for bit.

/// Tied releases (jobs 0/1 and 2/3), tied deadlines (0/1 at 4, 3/4 at 9), a
/// release equal to another job's deadline (job 2 at 4, job 4 at 6), and
/// breakpoints on job times (2, 4, 6, 9) plus one past the last deadline.
Instance tie_heavy_instance() {
  return Instance(
      {make_job(0.0, 2.0, 4.0, 1.0), make_job(0.0, 1.0, 4.0, 3.0),
       make_job(4.0, 1.0, 6.0, 2.0), make_job(4.0, 3.0, 9.0, 5.0),
       make_job(6.0, 0.5, 9.0, 1.0), make_job(2.0, 1.5, 6.0, 4.0)},
      cap::CapacityProfile({0.0, 2.0, 4.0, 6.0, 9.0, 12.0},
                           {1.0, 2.0, 1.0, 3.0, 2.0, 1.0}));
}

struct Replay {
  std::uint64_t digest = 0;
  std::uint64_t trace_events = 0;
  SimResult result;
};

/// One batch run of `engine` (already bound to its scheduler), digested.
Replay replay(Engine& engine) {
  obs::DigestSink digest;
  engine.attach_trace(&digest);
  Replay out;
  out.result = engine.run_to_completion();
  engine.attach_trace(nullptr);
  out.digest = digest.digest();
  out.trace_events = digest.event_count();
  return out;
}

/// A run of `factory` on a freshly constructed engine.
Replay fresh_replay(const Instance& instance,
                    const sched::NamedFactory& factory) {
  auto scheduler = factory.make();
  Engine engine(instance, *scheduler);
  return replay(engine);
}

void expect_same_replay(const Replay& fresh, const Replay& reused) {
  EXPECT_EQ(fresh.digest, reused.digest);
  EXPECT_EQ(fresh.trace_events, reused.trace_events);
  const SimResult& a = fresh.result;
  const SimResult& b = reused.result;
  EXPECT_EQ(a.events_processed, b.events_processed);
  EXPECT_EQ(a.completed_count, b.completed_count);
  EXPECT_EQ(a.expired_count, b.expired_count);
  EXPECT_EQ(a.event_heap_peak, b.event_heap_peak);
  EXPECT_EQ(a.event_heap_dead_peak, b.event_heap_dead_peak);
  EXPECT_EQ(a.heap_compactions, b.heap_compactions);
  EXPECT_EQ(a.timers_armed, b.timers_armed);
  EXPECT_EQ(a.timer_slab_peak, b.timer_slab_peak);
  EXPECT_EQ(a.timer_slab_slots, b.timer_slab_slots);
  EXPECT_EQ(a.timer_cascades, b.timer_cascades);
  EXPECT_EQ(a.timer_cascade_entries, b.timer_cascade_entries);
  EXPECT_EQ(a.timer_bucket_peak, b.timer_bucket_peak);
  // queue_slots is left out: it is the storage the scheduler's queues took
  // from the thread-local buffer recycler (sched/ready_queue.hpp), so it
  // depends on which schedulers this thread destroyed before, not on the
  // engine.
  EXPECT_EQ(a.queue_peak, b.queue_peak);
  EXPECT_EQ(a.job_slab_peak, b.job_slab_peak);
  EXPECT_EQ(a.job_slab_slots, b.job_slab_slots);
}

sched::NamedFactory vdover_ewma() {
  sched::VDoverOptions options;
  options.adaptive_estimate = true;
  return sched::make_vdover_with(options);
}

TEST(EngineSeal, StaticEventsPopInTotalOrder) {
  // Oracle for the merge-built seal: a scheduler that runs nothing sees
  // exactly the static side — every release, every expiry, and (subscribed)
  // every breakpoint in (0, max deadline] — which must pop in the engine's
  // total order: time, then expiry < capacity change < release, then job id.
  class IdleWatcher : public Scheduler {
   public:
    void on_release(Engine&, JobId) override {}
    void on_complete(Engine&, JobId) override {}
    void on_expire(Engine&, JobId, bool) override {}
    bool wants_capacity_events() const override { return true; }
    std::string name() const override { return "idle-watcher"; }
  };
  struct Popped {
    double time;
    int rank;
    JobId job;
    bool operator<(const Popped& o) const {
      if (fp::exact_ne(time, o.time)) return time < o.time;
      if (rank != o.rank) return rank < o.rank;
      return job < o.job;
    }
    bool operator==(const Popped& o) const {
      return fp::exact_eq(time, o.time) && rank == o.rank && job == o.job;
    }
  };
  const Instance instance = tie_heavy_instance();
  std::vector<Popped> expected;
  for (const Job& j : instance.jobs()) {
    expected.push_back({j.release, 3, j.id});
    expected.push_back({j.deadline, 1, j.id});
  }
  for (double bp : instance.capacity().breakpoints()) {
    if (bp > 0.0 && bp <= instance.max_deadline()) {
      expected.push_back({bp, 2, kNoJob});
    }
  }
  std::sort(expected.begin(), expected.end());

  IdleWatcher watcher;
  Engine engine(instance, watcher);
  obs::VectorTraceSink sink;
  engine.attach_trace(&sink);
  engine.run_to_completion();
  std::vector<Popped> popped;
  for (const obs::TraceEvent& e : sink.events()) {
    if (e.kind == obs::TraceKind::kExpire) popped.push_back({e.time, 1, e.job});
    if (e.kind == obs::TraceKind::kCapacityChange) {
      popped.push_back({e.time, 2, kNoJob});
    }
    if (e.kind == obs::TraceKind::kRelease) popped.push_back({e.time, 3, e.job});
  }
  EXPECT_EQ(popped, expected);
}

TEST(EngineSeal, TiesReplayIdenticallyOnReusedEngine) {
  const Instance instance = tie_heavy_instance();
  for (const auto& factory :
       {sched::make_vdover(), vdover_ewma(), sched::make_llf(),
        sched::make_edf(), sched::make_dover(2.0)}) {
    SCOPED_TRACE(factory.name);
    const Replay fresh = fresh_replay(instance, factory);
    // The static side holds every release, expiry and breakpoint up front.
    EXPECT_GE(fresh.result.event_heap_peak, 2 * instance.size());

    auto first = factory.make();
    Engine engine(instance, *first);
    expect_same_replay(fresh, replay(engine));
    for (int rerun = 0; rerun < 2; ++rerun) {
      auto again = factory.make();
      engine.reset(*again);
      expect_same_replay(fresh, replay(engine));
    }
  }
}

TEST(EngineSeal, ResetAcrossCapacitySubscriptionChanges) {
  // V-Dover ignores capacity changes, V-Dover-EWMA subscribes to them, so
  // the seal is rebuilt with and then without the breakpoints.
  const Instance instance = tie_heavy_instance();
  const sched::NamedFactory lineup[] = {sched::make_vdover(), vdover_ewma(),
                                        sched::make_vdover()};
  std::unique_ptr<Scheduler> scheduler = lineup[0].make();
  Engine engine(instance, *scheduler);
  for (std::size_t i = 0; i < std::size(lineup); ++i) {
    SCOPED_TRACE(lineup[i].name);
    if (i > 0) {
      scheduler = lineup[i].make();
      engine.reset(*scheduler);
    }
    expect_same_replay(fresh_replay(instance, lineup[i]), replay(engine));
  }
}

TEST(EngineSeal, LiveAndBatchSealsDoNotShareTheCache) {
  // A live session seals every breakpoint and no job events, a batch run
  // only the breakpoints up to the last deadline; neither may replay the
  // other's queue. The empty instance is the case where the two seals
  // share a job count (zero) yet differ.
  const Instance ties = tie_heavy_instance();
  const Instance empty({},
                       cap::CapacityProfile({0.0, 2.0, 4.0}, {1.0, 2.0, 1.0}));
  for (const Instance* instance : {&ties, &empty}) {
    for (const auto& factory : {vdover_ewma(), sched::make_vdover()}) {
      SCOPED_TRACE(factory.name + " on " + std::to_string(instance->size()) +
                   " jobs");
      const Replay fresh = fresh_replay(*instance, factory);
      auto fresh_live_scheduler = factory.make();
      Engine fresh_live(*instance, *fresh_live_scheduler);
      fresh_live.begin_live();
      const SimResult fresh_live_result = fresh_live.finish_live();

      auto batch = factory.make();
      Engine engine(*instance, *batch);
      expect_same_replay(fresh, replay(engine));

      // Nor may the live session replay the cached batch queue.
      auto live = factory.make();
      engine.reset(*live);
      engine.begin_live();
      const SimResult live_result = engine.finish_live();
      EXPECT_EQ(live_result.events_processed,
                fresh_live_result.events_processed);
      EXPECT_EQ(live_result.completed_count, fresh.result.completed_count);

      auto after = factory.make();
      engine.reset(*after);
      expect_same_replay(fresh, replay(engine));
    }
  }
}

// ------------------------------------------------- live cancellation

TEST(Engine, CancelBeforeReleaseExpiresTheJobUnseen) {
  // A live admission cancelled before its release event pops (as when a
  // failed journal commit withdraws a batch) expires at once; its queued
  // release and expiry later pop as no-ops, so the scheduler never sees it.
  Instance instance({}, cap::CapacityProfile(1.0));
  LoggingScheduler sched;
  Engine engine(instance, sched);
  engine.begin_live();
  const JobId kept = instance.append_job(make_job(1.0, 1.0, 5.0, 1.0));
  engine.admit_live(kept);
  const JobId withdrawn = instance.append_job(make_job(1.0, 1.0, 5.0, 2.0));
  engine.admit_live(withdrawn);
  EXPECT_TRUE(engine.cancel_live(withdrawn));
  EXPECT_TRUE(engine.is_expired(withdrawn));
  EXPECT_FALSE(engine.cancel_live(withdrawn));  // no longer pending
  const SimResult& result = engine.finish_live();
  EXPECT_EQ(result.completed_count, 1u);
  EXPECT_EQ(result.expired_count, 1u);
  const auto slot = static_cast<std::size_t>(withdrawn);
  EXPECT_EQ(result.outcomes[slot], JobOutcome::kExpired);
  EXPECT_EQ(result.executed_work[slot], 0.0);
  ASSERT_FALSE(sched.log_.empty());
  for (const auto& entry : sched.log_) {
    EXPECT_NE(entry.job, withdrawn) << "scheduler saw '" << entry.kind << "'";
  }
}

// ------------------------------------------------- completion residue

TEST(Engine, CompletionClampedOntoLateDeadlineCompletes) {
  // At c = 35 the exact completion lands 5e-4 after a deadline of 1e6, inside
  // the 1e-3 deadline tolerance, so it is clamped onto the deadline and
  // 35 * 5e-4 of work is left at the completion event: far above 1e-6 of
  // the workload, but exactly what the clamp cut off.
  Instance instance({make_job(999999.0, 35.0 * 1.0005, 1e6, 1.0)},
                    cap::CapacityProfile(35.0));
  RunOnReleaseScheduler sched;
  Engine engine(instance, sched);
  SimResult result;
  ASSERT_NO_THROW(result = engine.run_to_completion());
  EXPECT_EQ(result.completed_count, 1u);
  EXPECT_EQ(result.expired_count, 0u);
  EXPECT_DOUBLE_EQ(result.completion_times[0], 1e6);
}

TEST(Engine, GeneratedValueEqualsInstanceTotal) {
  Instance instance(
      {make_job(0.0, 1.0, 1.0, 2.5), make_job(0.5, 1.0, 9.0, 4.5)},
      cap::CapacityProfile(1.0));
  LoggingScheduler sched;
  Engine engine(instance, sched);
  auto result = engine.run_to_completion();
  EXPECT_DOUBLE_EQ(result.generated_value, 7.0);
  EXPECT_LE(result.completed_value, result.generated_value);
}

}  // namespace
}  // namespace sjs::sim
