// Tests for the elastic fleet (src/cluster/): fleet presets and persistence,
// rental controllers, the dispatcher's rental-cost accounting against a
// hand-computed oracle on a scripted 3-machine scenario, budget enforcement,
// the cluster Monte-Carlo driver's thread-count independence, and the
// cluster.* metrics surface.
#include <gtest/gtest.h>

#include <cmath>
#include <filesystem>
#include <fstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "cluster/cluster_metrics.hpp"
#include "cluster/dispatcher.hpp"
#include "cluster/fleet.hpp"
#include "cluster/rental.hpp"
#include "jobs/workload_gen.hpp"
#include "mc/cluster_mc.hpp"
#include "obs/metrics.hpp"

namespace {

using sjs::Job;
using sjs::cluster::Dispatcher;
using sjs::cluster::DispatcherConfig;
using sjs::cluster::Fleet;
using sjs::cluster::FleetLoad;
using sjs::cluster::ServerSpec;

Job make_job(sjs::JobId id, double release, double workload, double deadline,
             double value) {
  Job j;
  j.id = id;
  j.release = release;
  j.workload = workload;
  j.deadline = deadline;
  j.value = value;
  return j;
}

TEST(FleetTest, HeterogeneousPresetCyclesFastestFirst) {
  const Fleet fleet = Fleet::heterogeneous(4);
  ASSERT_EQ(fleet.size(), 4u);
  // large, standard, small, large — the lowest-rented configuration (the
  // dispatcher releases highest-index-first) keeps the strongest machine.
  EXPECT_DOUBLE_EQ(fleet.spec(0).speed, 2.0);
  EXPECT_DOUBLE_EQ(fleet.spec(1).speed, 1.0);
  EXPECT_DOUBLE_EQ(fleet.spec(2).speed, 0.5);
  EXPECT_DOUBLE_EQ(fleet.spec(3).speed, 2.0);
  // Admission floor is the strongest machine's effective c_lo.
  EXPECT_DOUBLE_EQ(fleet.admission_c_lo(), 2.0);
  EXPECT_DOUBLE_EQ(fleet.max_hi(), 70.0);
  EXPECT_DOUBLE_EQ(fleet.total_cost_rate(), 2.2 + 1.0 + 0.45 + 2.2);
  const auto paths = fleet.constant_paths();
  ASSERT_EQ(paths.size(), 4u);
  EXPECT_DOUBLE_EQ(paths[0].rate(0.0), 70.0);
  EXPECT_DOUBLE_EQ(paths[2].rate(123.0), 17.5);
}

TEST(FleetTest, CsvRoundTripIsExact) {
  Fleet fleet;
  fleet.add(ServerSpec{1.0, 35.0, 2.0, 2.2});
  fleet.add(ServerSpec{0.7, 12.5, 1.0, 1.0 / 3.0});
  const auto path =
      (std::filesystem::path(testing::TempDir()) / "fleet_rt.csv").string();
  sjs::cluster::save_fleet_csv(fleet, path);
  const Fleet loaded = sjs::cluster::load_fleet_csv(path);
  ASSERT_EQ(loaded.size(), fleet.size());
  for (std::size_t k = 0; k < fleet.size(); ++k) {
    EXPECT_EQ(loaded.spec(k).c_lo, fleet.spec(k).c_lo);
    EXPECT_EQ(loaded.spec(k).c_hi, fleet.spec(k).c_hi);
    EXPECT_EQ(loaded.spec(k).speed, fleet.spec(k).speed);
    EXPECT_EQ(loaded.spec(k).cost_rate, fleet.spec(k).cost_rate);
  }
}

// A fleet row "0,1x,35,2,2.2" used to load silently as c_lo = 1.
std::string load_fleet_error(const std::string& text) {
  const auto path =
      (std::filesystem::path(testing::TempDir()) / "fleet_bad.csv").string();
  {
    std::ofstream out(path);
    out << "server,c_lo,c_hi,speed,cost_rate\n" << text;
  }
  try {
    sjs::cluster::load_fleet_csv(path);
  } catch (const std::runtime_error& e) {
    return e.what();
  }
  return "";
}

TEST(FleetTest, CsvRejectsMalformedRows) {
  EXPECT_EQ(load_fleet_error("0,1,35,2,2.2\n"), "");
  EXPECT_NE(load_fleet_error("0,1x,35,2,2.2\n")
                .find("fleet.csv row 1 is not numeric"),
            std::string::npos);
  EXPECT_NE(load_fleet_error("0,1,35,2,2.2\n1,1,,2,2.2\n")
                .find("fleet.csv row 2 is not numeric"),
            std::string::npos);
  EXPECT_NE(load_fleet_error("0,1,35,2\n")
                .find("fleet.csv row 1 must have 5 fields"),
            std::string::npos);
  EXPECT_NE(load_fleet_error("").find("no machines"), std::string::npos);
}

TEST(RentalTest, ThresholdControllerHysteresis) {
  sjs::cluster::ThresholdRentalController ctl;  // rent > 2.0, release < 0.75
  // Empty fleet: rent one machine as soon as a job exists.
  EXPECT_EQ(ctl.target_machines(FleetLoad{0.0, 0, 0, 4}), 0u);
  EXPECT_EQ(ctl.target_machines(FleetLoad{0.0, 1, 0, 4}), 1u);
  // Inside the hysteresis band: hold.
  EXPECT_EQ(ctl.target_machines(FleetLoad{0.0, 2, 1, 4}), 1u);
  EXPECT_EQ(ctl.target_machines(FleetLoad{0.0, 3, 2, 4}), 2u);
  // Above the rent threshold: grow by one.
  EXPECT_EQ(ctl.target_machines(FleetLoad{0.0, 3, 1, 4}), 2u);
  EXPECT_EQ(ctl.target_machines(FleetLoad{0.0, 9, 2, 4}), 3u);
  // Below the release threshold: shrink by one.
  EXPECT_EQ(ctl.target_machines(FleetLoad{0.0, 1, 2, 4}), 1u);
  EXPECT_EQ(ctl.target_machines(FleetLoad{0.0, 0, 1, 4}), 0u);
}

TEST(RentalTest, LoadTrackingControllerEwma) {
  sjs::cluster::LoadTrackingRentalController ctl(0.5, 2.0);
  // First observation primes the EWMA directly.
  EXPECT_EQ(ctl.target_machines(FleetLoad{0.0, 8, 0, 4}), 4u);  // ceil(8/2)
  // EWMA: 0.5*0 + 0.5*8 = 4 → ceil(4/2) = 2.
  EXPECT_EQ(ctl.target_machines(FleetLoad{1.0, 0, 4, 4}), 2u);
  // EWMA: 0.5*0 + 0.5*4 = 2 → ceil(2/2) = 1.
  EXPECT_EQ(ctl.target_machines(FleetLoad{2.0, 0, 2, 4}), 1u);
}

TEST(RentalTest, FactoryNamesAndErrors) {
  EXPECT_NE(sjs::cluster::make_rental_controller("threshold"), nullptr);
  EXPECT_NE(sjs::cluster::make_rental_controller("load"), nullptr);
  EXPECT_EQ(sjs::cluster::make_rental_controller("static"), nullptr);
  EXPECT_EQ(sjs::cluster::make_rental_controller(""), nullptr);
  EXPECT_THROW(sjs::cluster::make_rental_controller("spot-market"),
               std::runtime_error);
}

// ---------------------------------------------------------------------------
// The acceptance oracle: rental cost on a scripted 3-machine scenario,
// computed by hand.
//
// Fleet heterogeneous(3): machine 0 = large (rate 70, cost 2.2), machine 1 =
// standard (rate 35, cost 1.0), machine 2 = small (rate 17.5, cost 0.45).
// Threshold rental (rent when jobs/machine > 2, release when < 0.75),
// min_rented = 1. Three jobs at t = 0 sized to the machine rates:
//
//   t=0    on_start rents machine 0 (min_rented).           rent #1
//          j0 (p=70) released → 1 job/machine → hold; j0 runs on m0. (d1)
//          j1 (p=35) released → 2 jobs/machine → hold; j1 queues.
//          j2 (p=17.5) released → 3 > 2 → rent machine 1.   rent #2
//          Top-2 by (deadline, id): j0 stays on m0, j1 → m1 (d2); j2 queues.
//   [0,1]  two machines rented: cost 2.2 + 1.0 = 3.2.
//   t=1    j0 completes (70/70) → 2 jobs, 2 machines → hold. m0 is now the
//          fastest free machine, so top-priority j1 (done but not yet
//          reaped) migrates m1 → m0 (d3, the migration) and j2 takes m1
//          (d4).
//          j1's completion lands → 1 job / 2 machines = 0.5 < 0.75 →
//          release machine 1, evicting j2 (the preemption). release #1
//          j2 re-places onto m0 (d5).
//   [1,1.25] one machine rented: cost 2.2 · 0.25 = 0.55.
//   t=1.25 j2 completes (17.5 remaining at rate 70).
//   [1.25,10] the jobs' expiry events (scheduled at admission, stale once
//          the jobs completed) still advance the engine clock to the
//          deadline horizon, and run_cluster settles the account at the
//          last event: cost 2.2 · 8.75 = 19.25 on the pinned min fleet.
//
// Totals: cost = 3.2 + 0.55 + 19.25 = 23, machine-time = 2·1 + 1·9 = 11,
// 2 rents, 1 release, peak 2, 5 dispatches, 1 migration, 1 preemption.
TEST(DispatcherTest, RentalCostMatchesHandOracle) {
  const Fleet fleet = Fleet::heterogeneous(3);
  const std::vector<Job> jobs = {
      make_job(0, 0.0, 70.0, 10.0, 1.0),
      make_job(1, 0.0, 35.0, 10.0, 1.0),
      make_job(2, 0.0, 17.5, 10.0, 1.0),
  };
  DispatcherConfig config;
  Dispatcher dispatcher(fleet, config,
                        sjs::cluster::make_rental_controller("threshold"));
  const sjs::cloud::MultiSimResult result = sjs::cluster::run_cluster(
      jobs, fleet.constant_paths(), dispatcher);

  EXPECT_EQ(result.completed_count, 3u);
  EXPECT_EQ(result.expired_count, 0u);
  ASSERT_EQ(result.completion_times.size(), 3u);
  EXPECT_DOUBLE_EQ(result.completion_times[0], 1.0);
  EXPECT_DOUBLE_EQ(result.completion_times[1], 1.0);
  EXPECT_DOUBLE_EQ(result.completion_times[2], 1.25);

  EXPECT_NEAR(result.rental_cost, (2.2 + 1.0) * 1.0 + 2.2 * 9.0, 1e-9);
  EXPECT_NEAR(result.rented_machine_time, 11.0, 1e-9);
  EXPECT_EQ(result.rent_events, 2u);
  EXPECT_EQ(result.release_events, 1u);
  EXPECT_EQ(result.rented_peak, 2u);
  EXPECT_EQ(result.dispatches, 5u);
  EXPECT_EQ(result.migrations, 1u);
  EXPECT_EQ(result.preemptions, 1u);
  EXPECT_EQ(result.scheduler_name, "Cluster-EDF/threshold");
}

TEST(DispatcherTest, BudgetPinsTheFleetToMinRented) {
  const Fleet fleet = Fleet::heterogeneous(3);
  sjs::gen::JobGenParams params;
  params.lambda = 10.0;
  params.horizon = 30.0;
  params.c_lo = fleet.admission_c_lo();
  sjs::Rng rng(77, 0);
  std::vector<Job> jobs = sjs::gen::generate_jobs(params, rng);
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    jobs[i].id = static_cast<sjs::JobId>(i);
  }

  DispatcherConfig unlimited;
  Dispatcher free_dispatcher(fleet, unlimited,
                             sjs::cluster::make_rental_controller("threshold"));
  const auto free_run = sjs::cluster::run_cluster(
      jobs, fleet.constant_paths(), free_dispatcher);

  DispatcherConfig capped = unlimited;
  capped.budget = 5.0;
  Dispatcher capped_dispatcher(
      fleet, capped, sjs::cluster::make_rental_controller("threshold"));
  const auto capped_run = sjs::cluster::run_cluster(
      jobs, fleet.constant_paths(), capped_dispatcher);

  // The unbudgeted fleet actually elasticises under this load.
  EXPECT_GT(free_run.rented_peak, 1u);
  EXPECT_GT(free_run.rent_events, 1u);
  // Once accrued cost crosses the budget the fleet pins to min_rented: the
  // capped run never holds more machines than the free one and spends
  // strictly less (here the budget is gone before the first rent trigger,
  // so it never elasticises at all).
  EXPECT_LT(capped_run.rental_cost, free_run.rental_cost);
  EXPECT_LE(capped_run.rented_peak, free_run.rented_peak);
  EXPECT_EQ(capped_run.rented_peak, 1u);
}

TEST(DispatcherTest, StaticRentalKeepsWholeFleetAndHvdfNames) {
  const Fleet fleet = Fleet::heterogeneous(2);
  const std::vector<Job> jobs = {make_job(0, 0.0, 70.0, 10.0, 1.0)};
  DispatcherConfig config;
  config.key = sjs::cloud::GlobalKey::kValueDensity;
  Dispatcher dispatcher(fleet, config, nullptr);
  const auto result =
      sjs::cluster::run_cluster(jobs, fleet.constant_paths(), dispatcher);
  EXPECT_EQ(result.scheduler_name, "Cluster-HVDF/static");
  EXPECT_EQ(result.rented_peak, 2u);
  EXPECT_EQ(result.release_events, 0u);
  // Whole fleet rented for the whole session, which runs to the last engine
  // event — the job's (stale) expiry at its deadline, t = 10.
  EXPECT_NEAR(result.rental_cost, fleet.total_cost_rate() * 10.0, 1e-9);
  EXPECT_EQ(result.completed_count, 1u);
}

TEST(ClusterMcTest, ThreadCountIndependentDigests) {
  sjs::mc::ClusterMcConfig config;
  config.fleet = Fleet::heterogeneous(4);
  config.jobs.lambda = 6.0;
  config.jobs.horizon = 20.0;
  config.jobs.c_lo = config.fleet.admission_c_lo();
  config.scenario.kind = sjs::cap::ScenarioKind::kFlashCrowd;
  config.runs = 8;
  config.compute_digests = true;

  config.threads = 1;
  const auto serial = sjs::mc::run_cluster_mc(config);
  config.threads = 4;
  const auto parallel = sjs::mc::run_cluster_mc(config);

  EXPECT_EQ(serial.scheduler_name, "Cluster-EDF/threshold");
  EXPECT_EQ(serial.scenario, "flash-crowd");
  ASSERT_EQ(serial.run_digests.size(), 8u);
  EXPECT_EQ(serial.run_digests, parallel.run_digests);
  EXPECT_EQ(serial.combined_digest, parallel.combined_digest);
  EXPECT_NE(serial.combined_digest, 0u);
  ASSERT_EQ(serial.value_fractions.size(), 8u);
  EXPECT_EQ(serial.value_fractions, parallel.value_fractions);
  EXPECT_DOUBLE_EQ(serial.mean_cost, parallel.mean_cost);
  ASSERT_EQ(serial.mean_util_per_server.size(), 4u);
}

TEST(ClusterMetricsTest, PublishesCountersAndPerServerGauges) {
  sjs::cloud::MultiSimResult result;
  result.dispatches = 10;
  result.preemptions = 2;
  result.migrations = 3;
  result.rent_events = 4;
  result.release_events = 1;
  result.rental_cost = 12.5;
  result.rented_machine_time = 40.0;
  result.rented_peak = 3;
  result.busy_time_per_server = {50.0, 25.0, 0.0};

  sjs::obs::MetricsRegistry registry;
  sjs::cluster::publish_cluster_metrics(result, 100.0, registry.local());
  const std::string rendered = registry.render();
  EXPECT_NE(rendered.find("cluster.dispatches: 10"), std::string::npos)
      << rendered;
  EXPECT_NE(rendered.find("cluster.migrations: 3"), std::string::npos);
  EXPECT_NE(rendered.find("cluster.cost_accrued: 12.5"), std::string::npos);
  EXPECT_NE(rendered.find("cluster.rented_machines: 3"), std::string::npos);
  EXPECT_NE(rendered.find("cluster.util.server0: 0.5"), std::string::npos);
  EXPECT_NE(rendered.find("cluster.util.server1: 0.25"), std::string::npos);
  EXPECT_NE(rendered.find("cluster.util.server2: 0"), std::string::npos);
}

}  // namespace
