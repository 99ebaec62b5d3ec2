// Reproduces **Figure 1 (a)-(d)** of the paper: cumulative value vs time for
// λ = 6 on one shared capacity sample path; each panel compares V-Dover with
// Dover(ĉ) for ĉ ∈ {1, 10.5, 24.5, 35}.
//
// The traces are written as CSV (one file per panel) and rendered as ASCII
// charts so the qualitative shape — line segments whose slope tracks the
// CTMC capacity state, with V-Dover on or above Dover — is visible in the
// bench log, matching the paper's discussion of Fig. 1.
//
//   ./bench_fig1 [--lambda=6] [--seed=S] [--jobs=2000] [--points=120]
//                [--csv-prefix=fig1]
#include <cstdio>

#include "jobs/workload_gen.hpp"
#include "mc/monte_carlo.hpp"
#include "sched/factory.hpp"
#include "sim/engine.hpp"
#include "util/ascii_chart.hpp"
#include "util/cli.hpp"
#include "util/csv.hpp"
#include "util/gnuplot.hpp"

int main(int argc, char** argv) {
  sjs::CliFlags flags;
  flags.add_double("lambda", 6.0, "arrival rate (paper Fig. 1 uses 6.0)");
  flags.add_int("seed", 7, "RNG seed selecting the sample path");
  flags.add_double("jobs", 2000.0, "expected jobs (paper: 2000)");
  flags.add_int("points", 120, "resampling grid size for CSV/chart");
  flags.add_string("csv-prefix", "fig1",
                   "CSV prefix; files <prefix>_chat<c>.csv (empty to skip)");
  if (!flags.parse(argc, argv)) {
    if (!flags.error().empty()) {
      std::fprintf(stderr, "%s\n", flags.error().c_str());
      return 1;
    }
    return 0;
  }

  sjs::gen::PaperSetup setup;
  setup.lambda = flags.get_double("lambda");
  setup.expected_jobs = flags.get_double("jobs");
  sjs::Rng rng(static_cast<std::uint64_t>(flags.get_int("seed")));
  const sjs::Instance instance = sjs::gen::generate_paper_instance(setup, rng);
  const double end = instance.max_deadline();
  const auto n_points = static_cast<std::size_t>(flags.get_int("points"));

  auto run = [&](const sjs::sched::NamedFactory& f) {
    auto scheduler = f.make();
    sjs::sim::Engine engine(instance, *scheduler);
    return engine.run_to_completion();
  };

  std::printf("=== Figure 1: value vs time, lambda=%.1f, one sample path ===\n",
              setup.lambda);
  std::printf("jobs=%zu  total value=%.1f  horizon=%.1f\n\n", instance.size(),
              instance.total_value(), end);

  const auto vdover = run(sjs::sched::make_vdover());
  auto vd_series = vdover.value_trace.resample(0.0, end, n_points);

  for (double c_hat : {1.0, 10.5, 24.5, 35.0}) {
    const auto dover = run(sjs::sched::make_dover(c_hat));
    auto dv_series = dover.value_trace.resample(0.0, end, n_points);

    sjs::AsciiSeries vd{"V-Dover", {}, vd_series, '#'};
    sjs::AsciiSeries dv{"Dover(c^=" + std::to_string(c_hat) + ")", {},
                        dv_series, '.'};
    for (std::size_t i = 0; i < n_points; ++i) {
      const double t = end * static_cast<double>(i) /
                       static_cast<double>(n_points - 1);
      vd.x.push_back(t);
      dv.x.push_back(t);
    }
    sjs::AsciiChartOptions options;
    options.title = "panel c^=" + std::to_string(c_hat) +
                    "  (final: V-Dover=" + std::to_string(vdover.completed_value) +
                    ", Dover=" + std::to_string(dover.completed_value) + ")";
    options.x_label = "time";
    options.y_label = "cumulative value";
    std::printf("%s\n", render_ascii_chart({dv, vd}, options).c_str());

    const auto& prefix = flags.get_string("csv-prefix");
    if (!prefix.empty()) {
      char path[128];
      std::snprintf(path, sizeof(path), "%s_chat%.1f.csv", prefix.c_str(),
                    c_hat);
      sjs::CsvWriter writer(path);
      writer.write_row({"time", "vdover_value", "dover_value"});
      for (std::size_t i = 0; i < n_points; ++i) {
        const double row[] = {vd.x[i], vd_series[i], dv_series[i]};
        writer.write_row_numeric(row, 3);
      }
      // A ready-to-run gnuplot script per panel (paper Fig. 1 styling).
      char gp_path[128], png_path[128], panel[64];
      std::snprintf(gp_path, sizeof(gp_path), "%s_chat%.1f.gp",
                    prefix.c_str(), c_hat);
      std::snprintf(png_path, sizeof(png_path), "%s_chat%.1f.png",
                    prefix.c_str(), c_hat);
      std::snprintf(panel, sizeof(panel),
                    "Fig. 1: value vs time (lambda=%.1f, c^=%.1f)",
                    setup.lambda, c_hat);
      sjs::GnuplotFigure figure;
      figure.title = panel;
      figure.x_label = "time";
      figure.y_label = "cumulative value";
      figure.output_png = png_path;
      figure.series = {{path, 1, 2, "V-Dover"}, {path, 1, 3, "Dover"}};
      sjs::write_gnuplot_script(figure, gp_path);
      std::printf("series written to %s (plot with: gnuplot %s)\n\n", path,
                  gp_path);
    }
  }
  return 0;
}
