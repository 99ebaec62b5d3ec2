// Tests for src/jobs: Job semantics, Instance canonicalisation and
// validation, serialization, and the workload generators (including the
// paper's Sec. IV setup invariants).
#include <gtest/gtest.h>

#include <cmath>
#include <filesystem>
#include <fstream>

#include "capacity/capacity_process.hpp"
#include "jobs/instance.hpp"
#include "jobs/workload_gen.hpp"
#include "offline/feasibility.hpp"
#include "util/logging.hpp"
#include "util/rng.hpp"
#include "temp_paths.hpp"

namespace sjs {
namespace {

Job make_job(double r, double p, double d, double v) {
  Job j;
  j.release = r;
  j.workload = p;
  j.deadline = d;
  j.value = v;
  return j;
}

// ---------------------------------------------------------------- Job

TEST(Job, ValueDensityAndWindow) {
  Job j = make_job(1.0, 2.0, 5.0, 6.0);
  EXPECT_DOUBLE_EQ(j.value_density(), 3.0);
  EXPECT_DOUBLE_EQ(j.window(), 4.0);
}

TEST(Job, IndividualAdmissibility) {
  // Definition 4: d − r >= p / c_lo.
  Job j = make_job(0.0, 4.0, 2.0, 1.0);
  EXPECT_TRUE(j.individually_admissible(2.0));   // needs 2.0 <= 2.0
  EXPECT_FALSE(j.individually_admissible(1.9));  // needs ~2.1 > 2.0
}

TEST(Job, LaxityDefinition) {
  Job j = make_job(0.0, 4.0, 10.0, 1.0);
  // Definition 5 with c_est = 2: d − t − p_rem/c_est.
  EXPECT_DOUBLE_EQ(j.laxity(3.0, 4.0, 2.0), 10.0 - 3.0 - 2.0);
  EXPECT_DOUBLE_EQ(j.laxity(3.0, 2.0, 2.0), 6.0);
}

TEST(Job, ValidityChecks) {
  EXPECT_TRUE(make_job(0, 1, 1, 1).valid());
  EXPECT_FALSE(make_job(-1, 1, 1, 1).valid());          // negative release
  EXPECT_FALSE(make_job(0, 0, 1, 1).valid());           // zero workload
  EXPECT_FALSE(make_job(2, 1, 2, 1).valid());           // deadline == release
  EXPECT_FALSE(make_job(0, 1, 1, -0.5).valid());        // negative value
  Job nan_job = make_job(0, 1, 1, 1);
  nan_job.deadline = std::nan("");
  EXPECT_FALSE(nan_job.valid());
}

TEST(Job, ToStringMentionsFields) {
  auto s = make_job(1, 2, 3, 4).to_string();
  EXPECT_NE(s.find("r=1"), std::string::npos);
  EXPECT_NE(s.find("p=2"), std::string::npos);
}

// ---------------------------------------------------------------- Instance

TEST(Instance, SortsByReleaseAndAssignsIds) {
  std::vector<Job> jobs{make_job(5, 1, 7, 1), make_job(1, 1, 3, 1),
                        make_job(3, 1, 9, 1)};
  Instance instance(jobs, cap::CapacityProfile(1.0));
  ASSERT_EQ(instance.size(), 3u);
  EXPECT_DOUBLE_EQ(instance.jobs()[0].release, 1.0);
  EXPECT_DOUBLE_EQ(instance.jobs()[1].release, 3.0);
  EXPECT_DOUBLE_EQ(instance.jobs()[2].release, 5.0);
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(instance.jobs()[i].id, static_cast<JobId>(i));
    EXPECT_EQ(instance.job(static_cast<JobId>(i)).id, static_cast<JobId>(i));
  }
}

TEST(Instance, ImportanceRatio) {
  std::vector<Job> jobs{make_job(0, 1, 2, 1), make_job(0, 1, 2, 7),
                        make_job(0, 2, 4, 6)};  // densities 1, 7, 3
  Instance instance(jobs, cap::CapacityProfile(1.0));
  EXPECT_DOUBLE_EQ(instance.importance_ratio(), 7.0);
}

TEST(Instance, ImportanceRatioEmptyIsOne) {
  Instance instance({}, cap::CapacityProfile(1.0));
  EXPECT_DOUBLE_EQ(instance.importance_ratio(), 1.0);
}

TEST(Instance, Totals) {
  std::vector<Job> jobs{make_job(0, 2, 3, 5), make_job(1, 3, 8, 7)};
  Instance instance(jobs, cap::CapacityProfile(1.0));
  EXPECT_DOUBLE_EQ(instance.total_value(), 12.0);
  EXPECT_DOUBLE_EQ(instance.total_workload(), 5.0);
  EXPECT_DOUBLE_EQ(instance.max_deadline(), 8.0);
}

TEST(Instance, BandDefaultsToProfileMinMax) {
  cap::CapacityProfile p({0.0, 1.0}, {2.0, 6.0});
  Instance instance({make_job(0, 1, 2, 1)}, p);
  EXPECT_DOUBLE_EQ(instance.c_lo(), 2.0);
  EXPECT_DOUBLE_EQ(instance.c_hi(), 6.0);
  EXPECT_DOUBLE_EQ(instance.delta(), 3.0);
}

TEST(Instance, RejectsPathOutsideDeclaredBand) {
  cap::CapacityProfile p({0.0, 1.0}, {1.0, 35.0});
  EXPECT_THROW(Instance({make_job(0, 1, 2, 1)}, p, 2.0, 35.0), CheckError);
  EXPECT_THROW(Instance({make_job(0, 1, 2, 1)}, p, 1.0, 30.0), CheckError);
}

TEST(Instance, RejectsInvalidJob) {
  EXPECT_THROW(Instance({make_job(0, -1, 2, 1)}, cap::CapacityProfile(1.0)),
               CheckError);
}

TEST(Instance, AdmissibilityScan) {
  // c_lo = 2: first job needs window >= 1, second needs >= 3.
  std::vector<Job> jobs{make_job(0, 2, 1, 1), make_job(0, 6, 2, 1)};
  Instance instance(jobs, cap::CapacityProfile(2.0));
  EXPECT_FALSE(instance.all_individually_admissible());
  EXPECT_EQ(instance.inadmissible_jobs().size(), 1u);
  auto cleaned = instance.drop_inadmissible();
  EXPECT_EQ(cleaned.size(), 1u);
  EXPECT_TRUE(cleaned.all_individually_admissible());
}

TEST(Instance, NormalizedSetsMinDensityToOne) {
  std::vector<Job> jobs{make_job(0, 2, 4, 1),    // density 0.5 (the min)
                        make_job(0, 1, 2, 3)};   // density 3
  Instance instance(jobs, cap::CapacityProfile(1.0));
  auto normalized = instance.normalized();
  double min_density = 1e300;
  for (const auto& j : normalized.jobs()) {
    min_density = std::min(min_density, j.value_density());
  }
  EXPECT_NEAR(min_density, 1.0, 1e-12);
  // Importance ratio is scale-invariant.
  EXPECT_NEAR(normalized.importance_ratio(), instance.importance_ratio(),
              1e-12);
  // Values scaled by exactly 1/0.5 = 2.
  EXPECT_NEAR(normalized.total_value(), instance.total_value() * 2.0, 1e-12);
}

TEST(Instance, NormalizedEmptyAndAlreadyNormalised) {
  Instance empty({}, cap::CapacityProfile(1.0));
  EXPECT_EQ(empty.normalized().size(), 0u);
  std::vector<Job> jobs{make_job(0, 2, 4, 2)};  // density exactly 1
  Instance instance(jobs, cap::CapacityProfile(1.0));
  EXPECT_DOUBLE_EQ(instance.normalized().total_value(),
                   instance.total_value());
}

using testing_paths::case_temp_path;

class InstanceIo : public ::testing::Test {
 protected:
  std::string path_ = case_temp_path("sjs_jobs_test", ".csv");
  void TearDown() override { std::filesystem::remove(path_); }
};

TEST_F(InstanceIo, SaveLoadRoundTrip) {
  std::vector<Job> jobs{make_job(0.5, 1.25, 2.75, 3.5),
                        make_job(1.0, 0.1, 9.0, 0.7)};
  Instance instance(jobs, cap::CapacityProfile(1.0));
  instance.save_jobs(path_);
  auto loaded = Instance::load_jobs(path_);
  ASSERT_EQ(loaded.size(), 2u);
  for (std::size_t i = 0; i < 2; ++i) {
    EXPECT_EQ(loaded[i], instance.jobs()[i]);
  }
}

TEST_F(InstanceIo, LoadRejectsBadRows) {
  {
    std::ofstream out(path_);
    out << "id,release,workload,deadline,value\n0,0.0,1.0\n";
  }
  EXPECT_THROW(Instance::load_jobs(path_), std::runtime_error);
}

// Every field must be one whole number: std::stod/std::stol used to load
// "1.5abc" as 1.5 and an id "3.7" as 3. The error names the row.
std::string load_jobs_error(const std::string& path) {
  try {
    Instance::load_jobs(path);
  } catch (const std::runtime_error& e) {
    return e.what();
  }
  return "";
}

TEST_F(InstanceIo, LoadRejectsTrailingGarbage) {
  {
    std::ofstream out(path_);
    out << "id,release,workload,deadline,value\n"
        << "0,0,1,5,1\n"
        << "1,1.5abc,1,5,1\n";
  }
  const std::string what = load_jobs_error(path_);
  EXPECT_NE(what.find("job row 2 is not numeric"), std::string::npos) << what;
  EXPECT_NE(what.find("1.5abc"), std::string::npos) << what;
}

TEST_F(InstanceIo, LoadRejectsFractionalId) {
  {
    std::ofstream out(path_);
    out << "3.7,0,1,5,1\n";
  }
  EXPECT_NE(load_jobs_error(path_).find("job row 0 is not numeric"),
            std::string::npos);
}

TEST_F(InstanceIo, LoadRejectsEmptyField) {
  {
    std::ofstream out(path_);
    out << "id,release,workload,deadline,value\n0,0,,5,1\n";
  }
  EXPECT_NE(load_jobs_error(path_).find("job row 1 is not numeric"),
            std::string::npos);
}

TEST_F(InstanceIo, LoadRejectsWrongFieldCount) {
  {
    std::ofstream out(path_);
    out << "id,release,workload,deadline,value\n0,0,1,5,1\n1,0,1,5,1,9\n";
  }
  EXPECT_NE(load_jobs_error(path_).find("job row 2 must have 5 fields"),
            std::string::npos);
}

TEST_F(InstanceIo, LoadRejectsInvalidJob) {
  {
    std::ofstream out(path_);
    out << "0,5.0,1.0,4.0,1.0\n";  // deadline before release
  }
  EXPECT_THROW(Instance::load_jobs(path_), std::runtime_error);
}

// ---------------------------------------------------------------- generators

TEST(WorkloadGen, PoissonCountNearLambdaH) {
  Rng rng(1);
  gen::JobGenParams params;
  params.lambda = 5.0;
  params.horizon = 2000.0;
  auto jobs = gen::generate_jobs(params, rng);
  EXPECT_NEAR(static_cast<double>(jobs.size()), 10000.0, 500.0);
}

TEST(WorkloadGen, ReleasesWithinHorizonAndSorted) {
  Rng rng(2);
  gen::JobGenParams params;
  params.horizon = 100.0;
  auto jobs = gen::generate_jobs(params, rng);
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    EXPECT_GE(jobs[i].release, 0.0);
    EXPECT_LT(jobs[i].release, 100.0);
    if (i) {
      EXPECT_GE(jobs[i].release, jobs[i - 1].release);
    }
  }
}

TEST(WorkloadGen, ZeroConservativeLaxityAtRelease) {
  // The paper's setup: relative deadline = p / c_lo exactly.
  Rng rng(3);
  gen::JobGenParams params;
  params.slack_factor = 1.0;
  params.c_lo = 1.0;
  auto jobs = gen::generate_jobs(params, rng);
  ASSERT_FALSE(jobs.empty());
  for (const auto& j : jobs) {
    EXPECT_NEAR(j.window(), j.workload / params.c_lo, 1e-12);
    EXPECT_NEAR(j.laxity(j.release, j.workload, params.c_lo), 0.0, 1e-12);
  }
}

TEST(WorkloadGen, DensityInRange) {
  Rng rng(4);
  gen::JobGenParams params;
  params.density_lo = 1.0;
  params.density_hi = 7.0;
  auto jobs = gen::generate_jobs(params, rng);
  for (const auto& j : jobs) {
    EXPECT_GE(j.value_density(), 1.0 - 1e-12);
    EXPECT_LE(j.value_density(), 7.0 + 1e-12);
  }
}

TEST(WorkloadGen, WorkloadMeanMatches) {
  Rng rng(5);
  gen::JobGenParams params;
  params.lambda = 10.0;
  params.horizon = 2000.0;
  params.workload_mean = 2.0;
  auto jobs = gen::generate_jobs(params, rng);
  double mean = 0.0;
  for (const auto& j : jobs) mean += j.workload;
  mean /= static_cast<double>(jobs.size());
  EXPECT_NEAR(mean, 2.0, 0.1);
}

TEST(WorkloadGen, AllDistributionsProducePositiveWork) {
  for (auto dist :
       {gen::WorkloadDist::kExponential, gen::WorkloadDist::kDeterministic,
        gen::WorkloadDist::kBoundedPareto, gen::WorkloadDist::kUniform}) {
    Rng rng(6);
    gen::JobGenParams params;
    params.workload_dist = dist;
    params.horizon = 50.0;
    auto jobs = gen::generate_jobs(params, rng);
    for (const auto& j : jobs) EXPECT_GT(j.workload, 0.0);
  }
}

TEST(PaperSetup, HorizonFormula) {
  gen::PaperSetup setup;
  setup.lambda = 8.0;
  setup.expected_jobs = 2000.0;
  EXPECT_DOUBLE_EQ(setup.horizon(), 250.0);
}

TEST(PaperSetup, InstanceMatchesPaperParameters) {
  gen::PaperSetup setup;
  setup.lambda = 6.0;
  Rng rng(7);
  auto instance = gen::generate_paper_instance(setup, rng);
  EXPECT_DOUBLE_EQ(instance.c_lo(), 1.0);
  EXPECT_DOUBLE_EQ(instance.c_hi(), 35.0);
  EXPECT_LE(instance.importance_ratio(), 7.0 + 1e-9);
  // slack_factor 1.0 puts every job exactly at the admissibility boundary.
  EXPECT_TRUE(instance.all_individually_admissible());
  // Roughly 2000 expected jobs.
  EXPECT_NEAR(static_cast<double>(instance.size()), 2000.0, 250.0);
  // Capacity must cover the last deadline.
  EXPECT_GE(instance.capacity().breakpoints().back() +
                1e9,  // profile extends to infinity anyway
            0.0);
}

TEST(PaperSetup, SubUnitSlackFactorBreaksAdmissibility) {
  gen::PaperSetup setup;
  setup.lambda = 6.0;
  setup.slack_factor = 0.5;
  Rng rng(8);
  auto instance = gen::generate_paper_instance(setup, rng);
  EXPECT_FALSE(instance.all_individually_admissible());
}

TEST(UnderloadedGen, ProducesFeasibleSet) {
  for (std::uint64_t seed = 0; seed < 5; ++seed) {
    Rng rng(seed);
    cap::TwoStateMarkovParams cp;
    cp.mean_sojourn_lo = cp.mean_sojourn_hi = 20.0;
    auto profile = cap::sample_two_state_markov(cp, 100.0, rng);
    auto jobs =
        gen::generate_underloaded_jobs(profile, 100.0, 20, 0.9, rng);
    for (std::size_t i = 0; i < jobs.size(); ++i) {
      jobs[i].id = static_cast<JobId>(i);
    }
    EXPECT_TRUE(offline::edf_feasible(jobs, profile)) << "seed " << seed;
  }
}

TEST(MmppGen, ArrivalCountBetweenPhaseRates) {
  Rng rng(20);
  gen::JobGenParams shape;
  shape.horizon = 5000.0;
  gen::MmppParams mmpp;
  mmpp.lambda_low = 2.0;
  mmpp.lambda_high = 10.0;
  mmpp.mean_sojourn_low = mmpp.mean_sojourn_high = 20.0;
  auto jobs = gen::generate_mmpp_jobs(shape, mmpp, rng);
  // Symmetric sojourns: expected rate = (2 + 10)/2 = 6.
  const double rate = static_cast<double>(jobs.size()) / shape.horizon;
  EXPECT_GT(rate, 4.0);
  EXPECT_LT(rate, 8.0);
}

TEST(MmppGen, ReleasesSortedWithinHorizon) {
  Rng rng(21);
  gen::JobGenParams shape;
  shape.horizon = 200.0;
  auto jobs = gen::generate_mmpp_jobs(shape, gen::MmppParams{}, rng);
  ASSERT_FALSE(jobs.empty());
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    EXPECT_LT(jobs[i].release, 200.0);
    if (i) {
      EXPECT_GE(jobs[i].release, jobs[i - 1].release);
    }
    EXPECT_TRUE(jobs[i].valid());
  }
}

TEST(MmppGen, BurstierThanPoissonAtSameMeanRate) {
  // Compare the variance of arrivals per unit-time window: MMPP with a big
  // rate spread must exceed Poisson at the same mean rate.
  auto window_variance = [](const std::vector<Job>& jobs, double horizon) {
    std::vector<int> counts(static_cast<std::size_t>(horizon), 0);
    for (const auto& j : jobs) {
      ++counts[static_cast<std::size_t>(j.release)];
    }
    double mean = 0.0;
    for (int c : counts) mean += c;
    mean /= static_cast<double>(counts.size());
    double var = 0.0;
    for (int c : counts) var += (c - mean) * (c - mean);
    return var / static_cast<double>(counts.size());
  };
  Rng rng(22);
  gen::JobGenParams shape;
  shape.horizon = 2000.0;
  gen::MmppParams mmpp;
  mmpp.lambda_low = 1.0;
  mmpp.lambda_high = 11.0;
  mmpp.mean_sojourn_low = mmpp.mean_sojourn_high = 25.0;
  auto bursty = gen::generate_mmpp_jobs(shape, mmpp, rng);

  gen::JobGenParams poisson = shape;
  poisson.lambda = 6.0;  // same mean rate
  auto smooth = gen::generate_jobs(poisson, rng);

  EXPECT_GT(window_variance(bursty, shape.horizon),
            1.5 * window_variance(smooth, shape.horizon));
}

TEST(MmppGen, RejectsBadParameters) {
  Rng rng(23);
  gen::JobGenParams shape;
  gen::MmppParams mmpp;
  mmpp.lambda_low = 0.0;
  EXPECT_THROW(gen::generate_mmpp_jobs(shape, mmpp, rng), CheckError);
}

TEST(SmallRandomGen, RespectsAdmissibilityWindow) {
  Rng rng(9);
  auto jobs = gen::generate_small_random_jobs(50, 10.0, 7.0, 1.0, 3.0, rng);
  EXPECT_EQ(jobs.size(), 50u);
  for (const auto& j : jobs) {
    EXPECT_GE(j.window() + 1e-12, j.workload);  // admissible at c_lo = 1
    EXPECT_LE(j.window(), 3.0 * j.workload + 1e-9);
  }
}

}  // namespace
}  // namespace sjs
