// Tests for the coupled multi-server engine and the global (migrating)
// schedulers: placement/migration mechanics, exact per-server completion
// arithmetic, conservation invariants under a chaos scheduler, and the
// expected dominance relations (more servers >= fewer; migration >= none on
// feasible loads).
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>

#include "capacity/capacity_process.hpp"
#include "cloud/dispatch.hpp"
#include "cloud/global_sched.hpp"
#include "cloud/multi_engine.hpp"
#include "jobs/instance.hpp"
#include "jobs/workload_gen.hpp"
#include "sched/edf.hpp"
#include "sched/factory.hpp"
#include "sim/engine.hpp"
#include "util/logging.hpp"
#include "util/rng.hpp"

namespace sjs::cloud {
namespace {

Job make_job(JobId id, double r, double p, double d, double v) {
  Job j;
  j.id = id;
  j.release = r;
  j.workload = p;
  j.deadline = d;
  j.value = v;
  return j;
}

std::vector<Job> canonical(std::vector<Job> jobs) {
  std::stable_sort(jobs.begin(), jobs.end(), [](const Job& a, const Job& b) {
    return a.release < b.release;
  });
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    jobs[i].id = static_cast<JobId>(i);
  }
  return jobs;
}

std::vector<cap::CapacityProfile> uniform_fleet(std::size_t n, double rate) {
  return std::vector<cap::CapacityProfile>(n, cap::CapacityProfile(rate));
}

// ------------------------------------------------------------- mechanics

TEST(MultiEngine, TwoJobsRunTrulyInParallel) {
  auto jobs = canonical({make_job(0, 0.0, 4.0, 5.0, 1.0),
                         make_job(0, 0.0, 4.0, 5.0, 1.0)});
  GlobalKeyScheduler scheduler(GlobalKey::kDeadline);
  MultiEngine engine(jobs, uniform_fleet(2, 1.0), scheduler);
  auto result = engine.run_to_completion();
  // On one rate-1 server only one of the two 4-in-5 jobs could finish;
  // two servers complete both by t=4.
  EXPECT_EQ(result.completed_count, 2u);
  EXPECT_DOUBLE_EQ(result.busy_time_per_server[0], 4.0);
  EXPECT_DOUBLE_EQ(result.busy_time_per_server[1], 4.0);
}

TEST(MultiEngine, HeterogeneousRatesGiveExactCompletionTimes) {
  // Urgent job on the fast server (global EDF assigns fastest-first).
  auto jobs = canonical({make_job(0, 0.0, 10.0, 3.0, 1.0),
                         make_job(0, 0.0, 10.0, 11.0, 1.0)});
  GlobalKeyScheduler scheduler(GlobalKey::kDeadline);
  std::vector<cap::CapacityProfile> fleet{cap::CapacityProfile(1.0),
                                          cap::CapacityProfile(5.0)};
  MultiEngine engine(jobs, fleet, scheduler);
  auto result = engine.run_to_completion();
  EXPECT_EQ(result.completed_count, 2u);
  // Earliest deadline ran at rate 5: done at t=2; the other at rate 1: t=10.
  EXPECT_DOUBLE_EQ(result.executed_work[0], 10.0);
  EXPECT_DOUBLE_EQ(result.executed_work[1], 10.0);
}

TEST(MultiEngine, MigrationCarriesRemainingWork) {
  // A scheduler that deliberately migrates job 0 from server 0 to server 1
  // at job 1's release.
  class MigratingScheduler : public GlobalScheduler {
   public:
    void on_release(MultiEngine& engine, JobId job) override {
      if (job == 0) {
        engine.run_on(0, 0);
      } else {
        engine.run_on(1, 0);  // migrate job 0; leave job 1 unscheduled
      }
    }
    void on_complete(MultiEngine&, JobId, std::size_t) override {}
    void on_expire(MultiEngine&, JobId, std::size_t) override {}
    std::string name() const override { return "migrating"; }
  };
  auto jobs = canonical({make_job(0, 0.0, 6.0, 20.0, 1.0),
                         make_job(0, 2.0, 1.0, 3.0, 1.0)});
  MigratingScheduler scheduler;
  // Server 0 runs at 1, server 1 at 2: job 0 does 2 units by t=2, then the
  // remaining 4 at rate 2 -> completes at t=4.
  std::vector<cap::CapacityProfile> fleet{cap::CapacityProfile(1.0),
                                          cap::CapacityProfile(2.0)};
  MultiEngine engine(jobs, fleet, scheduler);
  auto result = engine.run_to_completion();
  EXPECT_EQ(result.migrations, 1u);
  EXPECT_EQ(result.outcomes[0], sim::JobOutcome::kCompleted);
  EXPECT_DOUBLE_EQ(result.executed_work[0], 6.0);
  EXPECT_EQ(result.outcomes[1], sim::JobOutcome::kExpired);
}

TEST(MultiEngine, JobNeverOnTwoServers) {
  class DoublePlacer : public GlobalScheduler {
   public:
    void on_release(MultiEngine& engine, JobId job) override {
      engine.run_on(0, job);
      engine.run_on(1, job);  // must migrate, not duplicate
      EXPECT_EQ(engine.server_of(job), 1u);
      EXPECT_EQ(engine.running_on(0), kNoJob);
    }
    void on_complete(MultiEngine&, JobId, std::size_t) override {}
    void on_expire(MultiEngine&, JobId, std::size_t) override {}
    std::string name() const override { return "double"; }
  };
  auto jobs = canonical({make_job(0, 0.0, 2.0, 5.0, 1.0)});
  DoublePlacer scheduler;
  MultiEngine engine(jobs, uniform_fleet(2, 1.0), scheduler);
  auto result = engine.run_to_completion();
  EXPECT_EQ(result.completed_count, 1u);
  // Executed exactly its workload despite the double placement.
  EXPECT_DOUBLE_EQ(result.executed_work[0], 2.0);
}

TEST(MultiEngine, StopAndIdleWork) {
  class StopScheduler : public GlobalScheduler {
   public:
    void on_release(MultiEngine& engine, JobId job) override {
      if (job == 0) engine.run_on(0, 0);
      if (job == 1) engine.stop(0);  // park job 0 at t=1, run nothing
    }
    void on_complete(MultiEngine&, JobId, std::size_t) override {}
    void on_expire(MultiEngine&, JobId, std::size_t) override {}
    std::string name() const override { return "stopper"; }
  };
  auto jobs = canonical({make_job(0, 0.0, 5.0, 4.0, 1.0),
                         make_job(0, 1.0, 1.0, 9.0, 1.0)});
  StopScheduler scheduler;
  MultiEngine engine(jobs, uniform_fleet(1, 1.0), scheduler);
  auto result = engine.run_to_completion();
  EXPECT_EQ(result.completed_count, 0u);
  EXPECT_DOUBLE_EQ(result.executed_work[0], 1.0);  // only [0, 1)
}

TEST(MultiEngine, CompletionClampedOntoLateDeadlineCompletes) {
  // The multi-server twin of the engine_test case: at rate 35 the exact
  // completion lands 5e-4 past a deadline of 1e6, inside the deadline
  // tolerance, so it is clamped and leaves 35 * 5e-4 of work behind.
  auto jobs = canonical({make_job(0, 999999.0, 35.0 * 1.0005, 1e6, 1.0)});
  GlobalKeyScheduler scheduler(GlobalKey::kDeadline);
  MultiEngine engine(jobs, uniform_fleet(1, 35.0), scheduler);
  MultiSimResult result;
  ASSERT_NO_THROW(result = engine.run_to_completion());
  EXPECT_EQ(result.completed_count, 1u);
  EXPECT_DOUBLE_EQ(result.completion_times[0], 1e6);
}

TEST(MultiEngine, CancelBeforeReleaseExpiresTheJobUnseen) {
  // Same contract as sim::Engine: a live admission cancelled before its
  // release pops expires unseen by the scheduler (which would refuse to run
  // a non-live job), and its queued release and expiry pop as no-ops.
  std::vector<Job> jobs;
  GlobalKeyScheduler scheduler(GlobalKey::kDeadline);
  MultiEngine engine(jobs, uniform_fleet(2, 1.0), scheduler);
  engine.begin_live();
  jobs.push_back(make_job(0, 1.0, 1.0, 5.0, 1.0));
  engine.admit_live(0);
  jobs.push_back(make_job(1, 1.0, 1.0, 5.0, 2.0));
  engine.admit_live(1);
  EXPECT_TRUE(engine.cancel_live(1));
  EXPECT_EQ(engine.outcome(1), sim::JobOutcome::kExpired);
  EXPECT_FALSE(engine.cancel_live(1));  // no longer pending
  const MultiSimResult& result = engine.finish_live();
  EXPECT_EQ(result.completed_count, 1u);
  EXPECT_EQ(result.expired_count, 1u);
  EXPECT_EQ(result.executed_work[1], 0.0);
}

TEST(MultiEngine, RejectsMisuse) {
  auto jobs = canonical({make_job(0, 0.0, 1.0, 2.0, 1.0)});
  GlobalKeyScheduler scheduler(GlobalKey::kDeadline);
  MultiEngine engine(jobs, uniform_fleet(1, 1.0), scheduler);
  EXPECT_THROW(engine.run_on(0, 0), CheckError);  // outside callback
  EXPECT_THROW(MultiEngine(jobs, {}, scheduler), CheckError);
}

// ------------------------------------------------------------- invariants

class ChaosGlobalScheduler : public GlobalScheduler {
 public:
  explicit ChaosGlobalScheduler(std::uint64_t seed) : rng_(seed) {}
  void on_release(MultiEngine& engine, JobId) override { act(engine); }
  void on_complete(MultiEngine& engine, JobId, std::size_t) override {
    act(engine);
  }
  void on_expire(MultiEngine& engine, JobId, std::size_t) override {
    act(engine);
  }
  std::string name() const override { return "chaos"; }

 private:
  void act(MultiEngine& engine) {
    std::vector<JobId> live;
    for (JobId id = 0; id < static_cast<JobId>(engine.job_count()); ++id) {
      if (engine.is_live(id)) live.push_back(id);
    }
    for (std::size_t s = 0; s < engine.server_count(); ++s) {
      if (live.empty() || rng_.bernoulli(0.3)) {
        engine.idle(s);
      } else {
        engine.run_on(s, live[rng_.below(live.size())]);
      }
    }
  }
  Rng rng_;
};

class MultiEngineInvariants : public ::testing::TestWithParam<int> {};

TEST_P(MultiEngineInvariants, ConservationUnderChaos) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) + 15000);
  gen::JobGenParams jp;
  jp.lambda = 8.0;
  jp.horizon = 25.0;
  jp.slack_factor = 1.0 + rng.uniform01();
  auto jobs = canonical(gen::generate_jobs(jp, rng));
  double cover = 30.0;
  for (const auto& j : jobs) cover = std::max(cover, j.deadline);

  std::vector<cap::CapacityProfile> fleet;
  for (int s = 0; s < 3; ++s) {
    cap::TwoStateMarkovParams cp;
    cp.mean_sojourn_lo = cp.mean_sojourn_hi = 5.0;
    fleet.push_back(cap::sample_two_state_markov(cp, cover, rng));
  }
  ChaosGlobalScheduler chaos(static_cast<std::uint64_t>(GetParam()));
  MultiEngine engine(jobs, fleet, chaos);
  auto result = engine.run_to_completion();

  EXPECT_EQ(result.completed_count + result.expired_count, jobs.size());
  double total_available = 0.0;
  for (std::size_t s = 0; s < fleet.size(); ++s) {
    total_available += fleet[s].work(0.0, cover);
  }
  double executed = 0.0, completed_value = 0.0;
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    EXPECT_GE(result.executed_work[i], -1e-9);
    EXPECT_LE(result.executed_work[i], jobs[i].workload + 1e-9);
    executed += result.executed_work[i];
    if (result.outcomes[i] == sim::JobOutcome::kCompleted) {
      completed_value += jobs[i].value;
      EXPECT_NEAR(result.executed_work[i], jobs[i].workload,
                  1e-6 * std::max(1.0, jobs[i].workload));
    }
  }
  EXPECT_LE(executed, total_available + 1e-6);
  EXPECT_NEAR(result.completed_value, completed_value,
              1e-9 * std::max(1.0, completed_value));
}

INSTANTIATE_TEST_SUITE_P(Seeds, MultiEngineInvariants, ::testing::Range(0, 6));

// Stale completions are purged on a trigger that counts only queued
// completions, so a live session — whose heap also holds every admitted
// job's release and expiry — compacts at the same events as its batch
// replay, and the two stay bit-identical although each purge drops the
// execution-integral subdivisions the dead events would have made.
TEST(MultiEngine, CompactionFiresAtTheSameEventsLiveAndBatch) {
  Rng rng(4242);
  gen::JobGenParams jp;
  jp.lambda = 40.0;
  jp.horizon = 30.0;
  jp.slack_factor = 3.0;
  const std::vector<Job> jobs = canonical(gen::generate_jobs(jp, rng));
  const auto fleet = uniform_fleet(8, 1.0);

  ChaosGlobalScheduler batch_chaos(7);
  MultiEngine batch(jobs, fleet, batch_chaos);
  const MultiSimResult expected = batch.run_to_completion();
  ASSERT_GT(expected.heap_compactions, 0u);

  std::vector<Job> admitted;
  admitted.reserve(jobs.size());
  ChaosGlobalScheduler live_chaos(7);
  MultiEngine live(admitted, fleet, live_chaos);
  live.begin_live();
  for (const Job& j : jobs) {
    live.advance_to(j.release);
    admitted.push_back(j);
    live.admit_live(j.id);
  }
  const MultiSimResult actual = live.finish_live();

  EXPECT_EQ(actual.heap_compactions, expected.heap_compactions);
  EXPECT_EQ(actual.dispatches, expected.dispatches);
  ASSERT_EQ(actual.outcomes, expected.outcomes);
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    EXPECT_EQ(std::bit_cast<std::uint64_t>(actual.completion_times[i]),
              std::bit_cast<std::uint64_t>(expected.completion_times[i]));
    EXPECT_EQ(std::bit_cast<std::uint64_t>(actual.executed_work[i]),
              std::bit_cast<std::uint64_t>(expected.executed_work[i]));
  }
}

// ------------------------------------------------------- K = 1 differential

// One server: the fleet engine under Global-EDF and sim::Engine under EDF
// pick the same job at every interrupt (the earliest deadline; random
// deadlines never tie) and pop the same releases, expiries and completions
// in the same order, so every execution integral is subdivided at the same
// instants. Outcomes, completion instants and executed work must therefore
// agree bit for bit — no ulp tolerance. Overloaded instances with a
// piecewise (two-state Markov) capacity path exercise preemption, expiry of
// running and queued jobs, and completions clamped onto deadlines.
class SingleServerDifferential : public ::testing::TestWithParam<int> {};

TEST_P(SingleServerDifferential, GlobalEdfMatchesSimEdfBitForBit) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) + 27000);
  gen::JobGenParams jp;
  jp.lambda = 3.0 + 4.0 * rng.uniform01();
  jp.horizon = 60.0;
  jp.slack_factor = 1.0 + 2.0 * rng.uniform01();
  std::vector<Job> jobs = canonical(gen::generate_jobs(jp, rng));
  double cover = jp.horizon;
  for (const Job& j : jobs) cover = std::max(cover, j.deadline);
  cap::TwoStateMarkovParams cp;
  cp.c_lo = 1.0;
  cp.c_hi = 4.0;
  cp.mean_sojourn_lo = cp.mean_sojourn_hi = 2.0;
  const cap::CapacityProfile path = cap::sample_two_state_markov(cp, cover, rng);
  ASSERT_GT(path.segments(), 4u);

  const Instance instance(jobs, path);
  sched::EdfScheduler edf;
  sim::Engine single(instance, edf);
  const sim::SimResult expected = single.run_to_completion();

  GlobalKeyScheduler global(GlobalKey::kDeadline);
  MultiEngine fleet(instance.jobs(), {path}, global);
  const MultiSimResult actual = fleet.run_to_completion();

  ASSERT_EQ(actual.outcomes.size(), expected.outcomes.size());
  ASSERT_GT(expected.preemptions, 0u);
  ASSERT_GT(expected.expired_count, 0u);
  EXPECT_EQ(actual.completed_count, expected.completed_count);
  EXPECT_EQ(actual.expired_count, expected.expired_count);
  EXPECT_EQ(actual.dispatches, expected.dispatches);
  EXPECT_EQ(actual.preemptions, expected.preemptions);
  for (std::size_t i = 0; i < expected.outcomes.size(); ++i) {
    SCOPED_TRACE(i);
    EXPECT_EQ(actual.outcomes[i], expected.outcomes[i]);
    EXPECT_EQ(std::bit_cast<std::uint64_t>(actual.completion_times[i]),
              std::bit_cast<std::uint64_t>(expected.completion_times[i]));
    EXPECT_EQ(std::bit_cast<std::uint64_t>(actual.executed_work[i]),
              std::bit_cast<std::uint64_t>(expected.executed_work[i]));
  }
  EXPECT_EQ(std::bit_cast<std::uint64_t>(actual.completed_value),
            std::bit_cast<std::uint64_t>(expected.completed_value));
}

INSTANTIATE_TEST_SUITE_P(Seeds, SingleServerDifferential,
                         ::testing::Range(0, 8));

// ------------------------------------------------------------- dominance

TEST(GlobalSched, GlobalEdfCompletesPartitionableLoad) {
  // Four sequential streams that exactly fit four servers.
  std::vector<Job> jobs;
  for (int stream = 0; stream < 4; ++stream) {
    for (int i = 0; i < 5; ++i) {
      jobs.push_back(make_job(0, i * 2.0, 2.0, (i + 1) * 2.0, 1.0));
    }
  }
  auto canon = canonical(jobs);
  GlobalKeyScheduler scheduler(GlobalKey::kDeadline);
  MultiEngine engine(canon, uniform_fleet(4, 1.0), scheduler);
  auto result = engine.run_to_completion();
  EXPECT_EQ(result.completed_count, canon.size());
}

TEST(GlobalSched, MoreServersNeverHurt) {
  Rng rng(99);
  gen::JobGenParams jp;
  jp.lambda = 6.0;
  jp.horizon = 40.0;
  auto jobs = canonical(gen::generate_jobs(jp, rng));
  auto run_k = [&](std::size_t k) {
    GlobalKeyScheduler scheduler(GlobalKey::kDeadline);
    MultiEngine engine(jobs, uniform_fleet(k, 1.0), scheduler);
    return engine.run_to_completion().completed_value;
  };
  EXPECT_GE(run_k(4), run_k(2));
  EXPECT_GE(run_k(2), run_k(1));
}

TEST(GlobalSched, MigrationBeatsDispatchOnUnbalancedBursts) {
  // All jobs arrive while server 0 is slow and server 1 is fast, then the
  // roles flip. Dispatch-once policies strand work on whichever server they
  // picked; the migrating global scheduler follows the capacity.
  std::vector<Job> jobs;
  for (int i = 0; i < 12; ++i) {
    jobs.push_back(make_job(0, 0.1 * i, 4.0, 0.1 * i + 8.0, 1.0));
  }
  auto canon = canonical(jobs);
  std::vector<cap::CapacityProfile> fleet{
      cap::CapacityProfile({0.0, 4.0}, {1.0, 10.0}),
      cap::CapacityProfile({0.0, 4.0}, {10.0, 1.0}),
  };
  GlobalKeyScheduler global(GlobalKey::kDeadline);
  MultiEngine engine(canon, fleet, global);
  auto migrating = engine.run_to_completion();

  CloudConfig config;
  config.c_lo = 1.0;
  config.c_hi = 10.0;
  config.policy = DispatchPolicy::kLeastBacklog;
  auto dispatched = run_cloud(canon, fleet, config, sched::make_edf());

  EXPECT_GE(migrating.completed_value, dispatched.completed_value);
  EXPECT_GT(migrating.migrations, 0u);
}

TEST(GlobalSched, HvdfPrefersDenseJobsUnderOverload) {
  std::vector<Job> jobs{
      make_job(0, 0.0, 4.0, 4.0, 28.0),  // density 7
      make_job(0, 0.0, 4.0, 4.0, 4.0),   // density 1
      make_job(0, 0.0, 4.0, 4.0, 4.0),   // density 1
  };
  auto canon = canonical(jobs);
  GlobalKeyScheduler scheduler(GlobalKey::kValueDensity);
  MultiEngine engine(canon, uniform_fleet(2, 1.0), scheduler);
  auto result = engine.run_to_completion();
  EXPECT_EQ(result.completed_count, 2u);
  EXPECT_DOUBLE_EQ(result.completed_value, 32.0);  // dense + one filler
}

}  // namespace
}  // namespace sjs::cloud
