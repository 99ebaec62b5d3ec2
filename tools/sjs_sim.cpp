// sjs_sim — command-line simulator for archived instance bundles.
//
// The downstream-user entry point: point it at an instance bundle (see
// src/jobs/bundle.hpp — jobs.csv + capacity.csv + band.csv, e.g. exported
// from production telemetry or archived by worst_case_hunt), pick a
// scheduler, and get the run report, optional Gantt chart, optional
// value-trace CSV, and optional comparison against the exact offline
// optimum.
//
//   sjs_sim --bundle=DIR [--scheduler=V-Dover] [--gantt] [--opt]
//           [--trace-csv=out.csv] [--outcomes-csv=out.csv]
//           [--trace=FILE --trace-format=jsonl|chrome]
//           [--metrics] [--check-invariants] [--list-schedulers]
//   sjs_sim --cluster-bundle=DIR [--outcomes-csv=out.csv]
//   sjs_sim --cluster=K [--rental=threshold] [--budget=0] [--min-rented=1]
//           [--cluster-runs=32] [--cluster-lambda=6] [--seed=42]
//
// A serving journal (sjs_serve --journal=DIR) is itself a bundle: replaying
// it here with the journalled scheduler reproduces the live session's
// outcomes bit-exactly (docs/serving.md).
//
// --cluster-bundle replays a cluster journal (sjs_serve --cluster=K
// --journal=DIR, docs/cluster.md): the fleet, dispatcher configuration, and
// admitted stream are rebuilt from the bundle and the outcomes reproduce the
// live session byte-for-byte (cancel-free sessions).
//
// --cluster=K runs the fleet Monte-Carlo tables instead: every capacity
// scenario (steady / diurnal / flash-crowd / outage) × both global
// schedulers on a heterogeneous K-machine fleet, reporting captured value,
// rental cost, rented peak, and migrations per cell.
#include <cstdio>

#include "cluster/cluster_journal.hpp"
#include "cluster/dispatcher.hpp"
#include "jobs/bundle.hpp"
#include "mc/cluster_mc.hpp"
#include "obs/digest.hpp"
#include "obs/exporters.hpp"
#include "obs/invariants.hpp"
#include "obs/metrics.hpp"
#include "offline/exact.hpp"
#include "offline/greedy_offline.hpp"
#include "sched/factory.hpp"
#include "sim/engine.hpp"
#include "sim/gantt.hpp"
#include "util/cli.hpp"
#include "util/csv.hpp"

namespace {

/// Replays a cluster journal bundle bit-exactly (docs/cluster.md).
int run_cluster_replay(const std::string& dir, const std::string& outcomes_csv) {
  sjs::cluster::ClusterBundle bundle;
  try {
    bundle = sjs::cluster::load_cluster_bundle(dir);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "failed to load cluster bundle: %s\n", e.what());
    return 1;
  }
  sjs::cluster::ReplaySettings settings;
  try {
    settings = sjs::cluster::replay_settings(bundle.meta);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "malformed cluster bundle meta: %s\n", e.what());
    return 1;
  }
  const sjs::cluster::DispatcherConfig& dc = settings.dispatcher;
  const std::string& rental = settings.rental;
  std::printf("cluster bundle: %zu jobs, fleet of %zu, band [%g, %g], "
              "key=%s rental=%s budget=%g min_rented=%zu\n",
              bundle.jobs.size(), bundle.fleet.size(),
              bundle.fleet.admission_c_lo(), bundle.fleet.max_hi(),
              dc.key == sjs::cloud::GlobalKey::kDeadline ? "deadline"
                                                         : "density",
              rental.c_str(), dc.budget, dc.min_rented);
  if (!bundle.cancels.empty()) {
    std::printf("note: %zu cancels in the bundle — cancel-bearing sessions "
                "are outside the bit-exact replay guarantee\n",
                bundle.cancels.size());
  }
  sjs::cluster::Dispatcher dispatcher(
      bundle.fleet, dc, sjs::cluster::make_rental_controller(rental));
  const sjs::cloud::MultiSimResult result = sjs::cluster::run_cluster(
      bundle.jobs, std::move(bundle.paths), dispatcher);
  std::printf("\n%s: %llu completed, %llu expired, value %.3f/%.3f, "
              "rental cost %.3f, peak %llu machines, %llu migrations\n",
              result.scheduler_name.c_str(),
              static_cast<unsigned long long>(result.completed_count),
              static_cast<unsigned long long>(result.expired_count),
              result.completed_value, result.generated_value,
              result.rental_cost,
              static_cast<unsigned long long>(result.rented_peak),
              static_cast<unsigned long long>(result.migrations));
  if (!outcomes_csv.empty()) {
    sjs::sim::save_outcomes_csv(result.outcomes, result.completion_times,
                                bundle.jobs, outcomes_csv);
    std::printf("outcomes written to %s\n", outcomes_csv.c_str());
  }
  return 0;
}

/// Fleet Monte-Carlo tables: scenarios × global schedulers.
int run_cluster_tables(std::size_t fleet_size, const std::string& rental,
                       double budget, std::size_t min_rented, std::size_t runs,
                       double lambda, std::uint64_t seed) {
  sjs::mc::ClusterMcConfig config;
  config.fleet = sjs::cluster::Fleet::heterogeneous(fleet_size);
  config.jobs.lambda = lambda;
  config.jobs.horizon = 400.0 / lambda;
  config.jobs.c_lo = config.fleet.admission_c_lo();
  config.rental = rental;
  config.budget = budget;
  config.min_rented = min_rented;
  config.runs = runs;
  config.seed = seed;
  std::printf("cluster MC: heterogeneous fleet of %zu, %zu runs/cell, "
              "lambda=%g, seed=%llu, rental=%s\n\n",
              fleet_size, runs, lambda,
              static_cast<unsigned long long>(seed), rental.c_str());
  std::printf("%-12s %-24s %9s %7s %9s %6s %6s %6s\n", "scenario",
              "scheduler", "value%", "±ci95", "cost", "peak", "migr",
              "expire");
  for (const auto kind : sjs::cap::all_scenarios()) {
    config.scenario.kind = kind;
    for (const auto key : {sjs::cloud::GlobalKey::kDeadline,
                           sjs::cloud::GlobalKey::kValueDensity}) {
      config.key = key;
      const sjs::mc::ClusterAggregate agg = sjs::mc::run_cluster_mc(config);
      const double half =
          (agg.fraction_summary.ci95_hi - agg.fraction_summary.ci95_lo) / 2.0;
      std::printf("%-12s %-24s %8.2f%% %7.2f %9.2f %6.1f %6.1f %6.1f\n",
                  agg.scenario.c_str(), agg.scheduler_name.c_str(),
                  100.0 * agg.fraction_summary.mean, 100.0 * half,
                  agg.mean_cost, agg.mean_rented_peak, agg.mean_migrations,
                  agg.mean_expired);
    }
  }
  std::printf("\nper-server utilisation (steady scenario, %s):\n",
              rental.c_str());
  config.scenario.kind = sjs::cap::ScenarioKind::kSteady;
  config.key = sjs::cloud::GlobalKey::kDeadline;
  const sjs::mc::ClusterAggregate agg = sjs::mc::run_cluster_mc(config);
  for (std::size_t s = 0; s < agg.mean_util_per_server.size(); ++s) {
    std::printf("  server%zu (speed %.1f, cost %.2f): %.1f%%\n", s,
                config.fleet.spec(s).speed, config.fleet.spec(s).cost_rate,
                100.0 * agg.mean_util_per_server[s]);
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  sjs::CliFlags flags;
  flags.add_string("bundle", "", "instance bundle directory (required)");
  flags.add_string("scheduler", "V-Dover",
                   "scheduler name (see --list-schedulers)");
  flags.add_bool("gantt", false, "print an ASCII Gantt chart");
  flags.add_bool("opt", false,
                 "also compute the exact offline optimum (small instances) "
                 "and the greedy offline approximation");
  flags.add_string("trace-csv", "",
                   "write the cumulative value trace to this CSV");
  flags.add_string("outcomes-csv", "",
                   "write per-job outcomes to this CSV (the serving smoke "
                   "gate diffs this against a live session's journal)");
  flags.add_string("trace", "", "write the full engine event trace to FILE");
  flags.add_string("trace-format", "jsonl",
                   "trace file format: jsonl | chrome (chrome://tracing)");
  flags.add_bool("metrics", false,
                 "collect and print run metrics (counters, distributions)");
  flags.add_bool("check-invariants", false,
                 "verify conservation laws online against the event stream");
  flags.add_bool("list-schedulers", false, "print scheduler names and exit");
  flags.add_string("cluster-bundle", "",
                   "replay a cluster journal (sjs_serve --cluster) bit-exactly");
  flags.add_int("cluster", 0,
                "fleet size for the cluster Monte-Carlo tables (0 = off)");
  flags.add_string("rental", "threshold",
                   "cluster rental policy: static | threshold | load");
  flags.add_double("budget", 0.0, "cluster rental budget (<= 0 = unlimited)");
  flags.add_int("min-rented", 1, "cluster minimum rented machines");
  flags.add_int("cluster-runs", 32, "Monte-Carlo runs per cluster cell");
  flags.add_double("cluster-lambda", 6.0, "cluster table arrival rate");
  flags.add_int("seed", 42, "cluster Monte-Carlo master seed");
  if (!flags.parse(argc, argv)) {
    if (!flags.error().empty()) {
      std::fprintf(stderr, "%s\n", flags.error().c_str());
      return 1;
    }
    return 0;
  }

  if (flags.get_bool("list-schedulers")) {
    for (const auto& f : sjs::sched::full_lineup(1.0, 35.0)) {
      std::printf("%s\n", f.name.c_str());
    }
    return 0;
  }
  if (!flags.get_string("cluster-bundle").empty()) {
    return run_cluster_replay(flags.get_string("cluster-bundle"),
                              flags.get_string("outcomes-csv"));
  }
  if (flags.get_int("cluster") > 0) {
    const long min_rented = flags.get_int("min-rented");
    const long runs = flags.get_int("cluster-runs");
    const double lambda = flags.get_double("cluster-lambda");
    if (min_rented < 1 || min_rented > flags.get_int("cluster") ||
        runs < 1 || !(lambda > 0.0)) {
      std::fprintf(stderr, "need 1 <= min-rented <= cluster, cluster-runs "
                   ">= 1, cluster-lambda > 0\n");
      return 1;
    }
    try {
      return run_cluster_tables(
          static_cast<std::size_t>(flags.get_int("cluster")),
          flags.get_string("rental"), flags.get_double("budget"),
          static_cast<std::size_t>(min_rented), static_cast<std::size_t>(runs),
          lambda, static_cast<std::uint64_t>(flags.get_int("seed")));
    } catch (const std::exception& e) {
      std::fprintf(stderr, "%s\n", e.what());
      return 1;
    }
  }
  if (flags.get_string("bundle").empty()) {
    std::fprintf(stderr, "--bundle is required (try --help)\n");
    return 1;
  }

  sjs::Instance instance = [&] {
    try {
      return sjs::load_instance_bundle(flags.get_string("bundle"));
    } catch (const std::exception& e) {
      std::fprintf(stderr, "failed to load bundle: %s\n", e.what());
      std::exit(1);
    }
  }();

  std::printf("bundle: %zu jobs, total value %.3f, band [%g, %g] "
              "(delta %.2f), k=%.2f, %s\n",
              instance.size(), instance.total_value(), instance.c_lo(),
              instance.c_hi(), instance.delta(), instance.importance_ratio(),
              instance.all_individually_admissible()
                  ? "all jobs individually admissible"
                  : "contains inadmissible jobs");

  const auto factories =
      sjs::sched::full_lineup(instance.c_lo(), instance.c_hi());
  const sjs::sched::NamedFactory* chosen =
      sjs::sched::find_factory(factories, flags.get_string("scheduler"));
  if (!chosen) {
    std::fprintf(stderr, "unknown scheduler \"%s\" — use --list-schedulers\n",
                 flags.get_string("scheduler").c_str());
    return 1;
  }

  auto scheduler = chosen->make();
  sjs::sim::Engine engine(instance, *scheduler);
  if (flags.get_bool("gantt")) engine.record_schedule(true);

  // Observability wiring (src/obs/): every requested consumer taps the same
  // event stream through one tee.
  const bool want_trace = !flags.get_string("trace").empty();
  const bool want_metrics = flags.get_bool("metrics");
  const bool want_invariants = flags.get_bool("check-invariants");
  sjs::obs::VectorTraceSink events;
  sjs::obs::DigestSink digest;
  sjs::obs::MetricsRegistry registry;
  sjs::obs::TraceMetricsBridge bridge(registry.local());
  sjs::obs::InvariantChecker checker(instance);
  sjs::obs::TeeSink tee;
  if (want_trace) tee.add(&events);
  if (want_metrics) tee.add(&bridge);
  if (want_invariants) tee.add(&checker);
  if (tee.sink_count() > 0) {
    tee.add(&digest);
    engine.attach_trace(&tee);
  }

  auto result = engine.run_to_completion();
  std::printf("\n%s\n", result.to_string().c_str());

  if (want_trace) {
    const std::string path = flags.get_string("trace");
    const std::string format = flags.get_string("trace-format");
    try {
      sjs::obs::save_trace(events.events(), path, format);
      std::printf("event trace (%zu events, %s) written to %s\n",
                  events.events().size(), format.c_str(), path.c_str());
    } catch (const std::exception& e) {
      std::fprintf(stderr, "failed to write trace: %s\n", e.what());
      return 1;
    }
  }
  if (want_metrics) {
    // Hot-path occupancy gauges (timer slab / event heap) from the run.
    auto& shard = registry.local();
    shard.set_gauge(sjs::obs::kGaugeTimerSlabPeak,
                    static_cast<double>(result.timer_slab_peak));
    shard.set_gauge(sjs::obs::kGaugeTimerSlabSlots,
                    static_cast<double>(result.timer_slab_slots));
    shard.set_gauge(sjs::obs::kGaugeJobSlabPeak,
                    static_cast<double>(result.job_slab_peak));
    shard.set_gauge(sjs::obs::kGaugeJobSlabSlots,
                    static_cast<double>(result.job_slab_slots));
    shard.set_gauge(sjs::obs::kGaugeEventHeapPeak,
                    static_cast<double>(result.event_heap_peak));
    shard.set_gauge(sjs::obs::kGaugeEventHeapDeadPeak,
                    static_cast<double>(result.event_heap_dead_peak));
    shard.count(sjs::obs::kCounterTimersArmed,
                static_cast<double>(result.timers_armed));
    shard.count(sjs::obs::kCounterHeapCompactions,
                static_cast<double>(result.heap_compactions));
    shard.count(sjs::obs::kCounterTimerCascades,
                static_cast<double>(result.timer_cascades));
    shard.count(sjs::obs::kCounterTimerCascadeEntries,
                static_cast<double>(result.timer_cascade_entries));
    shard.set_gauge(sjs::obs::kGaugeTimerBucketPeak,
                    static_cast<double>(result.timer_bucket_peak));
    shard.set_gauge(sjs::obs::kGaugeQueuePeak,
                    static_cast<double>(result.queue_peak));
    shard.set_gauge(sjs::obs::kGaugeQueueSlots,
                    static_cast<double>(result.queue_slots));
    std::printf("\nmetrics:\n%s", registry.render().c_str());
  }
  if (want_invariants) {
    checker.verify_executed_work(result.executed_work);
    if (checker.ok()) {
      std::printf("\ninvariants: all hold (%llu events checked, replay "
                  "digest %016llx)\n",
                  static_cast<unsigned long long>(digest.event_count()),
                  static_cast<unsigned long long>(digest.digest()));
    } else {
      std::fprintf(stderr, "\ninvariant violations:\n%s",
                   checker.report().c_str());
      return 1;
    }
  }

  if (flags.get_bool("gantt")) {
    std::printf("\n%s", sjs::sim::render_gantt(instance, result).c_str());
  }

  if (!flags.get_string("outcomes-csv").empty()) {
    sjs::sim::save_outcomes_csv(result.outcomes, result.completion_times,
                                instance.jobs(),
                                flags.get_string("outcomes-csv"));
    std::printf("outcomes written to %s\n",
                flags.get_string("outcomes-csv").c_str());
  }

  if (!flags.get_string("trace-csv").empty()) {
    sjs::CsvWriter writer(flags.get_string("trace-csv"));
    writer.write_row({"time", "cumulative_value"});
    for (std::size_t i = 0; i < result.value_trace.size(); ++i) {
      const double row[] = {result.value_trace.times()[i],
                            result.value_trace.values()[i]};
      writer.write_row_numeric(row, 2);
    }
    std::printf("value trace written to %s\n",
                flags.get_string("trace-csv").c_str());
  }

  if (flags.get_bool("opt")) {
    auto greedy = sjs::offline::best_greedy_offline_value(instance);
    std::printf("\ngreedy offline approximation: %.3f\n", greedy.value);
    if (instance.size() <= 24) {
      auto exact = sjs::offline::exact_offline_value(instance);
      std::printf("exact offline optimum: %.3f (%s, %llu nodes)\n",
                  exact.value,
                  exact.proved_optimal ? "proved" : "budget-truncated",
                  static_cast<unsigned long long>(exact.nodes_visited));
      if (exact.value > 0.0) {
        std::printf("online/OPT ratio: %.4f\n",
                    result.completed_value / exact.value);
      }
    } else {
      std::printf("(instance too large for the exact solver; greedy and the "
                  "flow bound are the available references)\n");
    }
  }
  return 0;
}
