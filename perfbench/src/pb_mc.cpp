// pb_mc — the paper's Table I campaign as a timed workload.
//
// Builds the Table I line-up (Dover at ĉ ∈ {1, 10.5, 24.5, 35} plus
// V-Dover) and prints `READY <simulations per row> <live runs per unit>`.
// Then, until --seconds have passed, it runs Table I rows — one
// mc::run_monte_carlo call per λ ∈ {4, 5, 6, 7, 8, 10, 12} with kRowsRuns
// runs on one worker thread — round after round (round r uses master seed
// seed × 1000003 + r), each row followed by a live unit: kLiveRuns paper
// instances of the row's λ whose jobs are submitted one at a time to a live
// V-Dover engine (Instance::append_job, Engine::admit_live/advance_to; no
// sockets), timing how fast the engine absorbs them; each live run is then
// replayed in batch and must give the same schedule. Rows and live units
// alternate so that both sample the whole run. Each finished row and live
// unit is printed at once as
//
//   ROW <wall ms> <simulations> <V-Dover captured %>
//   LIVE <jobs> <live wall s> <schedules equal: 1|0>
//
// so that a caller still has every finished line when a run aborts the
// process (an SJS_CHECK in the engine terminates it).
//
// --reference runs the fixed reference campaign instead (master seed 42,
// 20 runs per λ, replay digests on) and prints one JSON object of per-cell
// captured % and combined digests, which the caller compares with the
// stored reference.
//
//   pb_mc --seed=S --seconds=T [--setup-only]
//   pb_mc --reference
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "jobs/workload_gen.hpp"
#include "mc/monte_carlo.hpp"
#include "report.hpp"
#include "sched/factory.hpp"
#include "sim/engine.hpp"
#include "util/cli.hpp"
#include "util/rng.hpp"

namespace {

const std::vector<double> kLambdas = {4, 5, 6, 7, 8, 10, 12};
const std::vector<double> kChats = {1.0, 10.5, 24.5, 35.0};
constexpr std::uint64_t kReferenceSeed = 42;
constexpr std::size_t kReferenceRuns = 20;
constexpr std::size_t kRowsRuns = 4;  // Monte-Carlo runs per timed row call
constexpr std::size_t kLiveRuns = 2;  // live runs per unit (one per row)

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

std::string hex(std::uint64_t v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

double mean(const std::vector<double>& v) {
  double s = 0.0;
  for (double x : v) s += x;
  return v.empty() ? 0.0 : s / static_cast<double>(v.size());
}

void reference(const std::vector<sjs::sched::NamedFactory>& lineup) {
  std::string out = "{";
  for (std::size_t li = 0; li < kLambdas.size(); ++li) {
    sjs::mc::McConfig config;
    config.setup.lambda = kLambdas[li];
    config.runs = kReferenceRuns;
    config.seed = kReferenceSeed;
    config.threads = 1;
    config.compute_digests = true;
    const auto outcome = sjs::mc::run_monte_carlo(config, lineup);
    pb::JsonObject cells, digests;
    for (const auto& agg : outcome.per_scheduler) {
      cells.num(agg.name, 100.0 * mean(agg.value_fractions));
      digests.str(agg.name, hex(agg.combined_digest));
    }
    pb::JsonObject row;
    row.raw("captured_pct", cells.text()).raw("digest", digests.text());
    char key[32];
    std::snprintf(key, sizeof(key), "%g", kLambdas[li]);
    out += std::string(li ? ", " : "") + "\"" + key + "\": " + row.text();
  }
  std::printf("%s}\n", out.c_str());
}

/// Same outcome and the same completion instant (NaN when expired) per job.
bool same_schedule(const sjs::sim::SimResult& a, const sjs::sim::SimResult& b) {
  return a.outcomes == b.outcomes && a.completed_value == b.completed_value &&
         std::equal(a.completion_times.begin(), a.completion_times.end(),
                    b.completion_times.begin(), b.completion_times.end(),
                    [](double x, double y) {
                      return x == y || (std::isnan(x) && std::isnan(y));
                    });
}

struct LiveUnit {
  double jobs = 0.0;
  double seconds = 0.0;  ///< wall time of the live submissions alone
  bool same = true;      ///< every live schedule equals its batch replay
};

/// kLiveRuns paper instances at `lambda`, their jobs submitted live to
/// V-Dover in release order; then each instance in batch, whose schedule
/// must match.
LiveUnit live_unit(const sjs::sched::NamedFactory& vdover, double lambda,
                   std::uint64_t seed) {
  LiveUnit out;
  for (std::size_t k = 0; k < kLiveRuns; ++k) {
    sjs::gen::PaperSetup setup;
    setup.lambda = lambda;
    sjs::Rng rng(seed, k);
    const sjs::Instance inst = sjs::gen::generate_paper_instance(setup, rng);
    sjs::Instance live(std::vector<sjs::Job>{}, inst.capacity(), inst.c_lo(),
                       inst.c_hi());
    live.reserve_jobs(inst.jobs().size());
    const auto live_sched = vdover.make();
    sjs::sim::Engine engine(live, *live_sched);
    const double start = now_s();
    engine.begin_live();
    for (const sjs::Job& job : inst.jobs()) {
      engine.advance_to(job.release);
      engine.admit_live(live.append_job(job));
    }
    const sjs::sim::SimResult got = engine.finish_live();
    out.seconds += now_s() - start;
    out.jobs += static_cast<double>(inst.jobs().size());

    const auto batch_sched = vdover.make();
    sjs::sim::Engine batch(inst, *batch_sched);
    out.same = out.same && same_schedule(got, batch.run_to_completion());
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  sjs::CliFlags flags;
  flags.add_int("seed", 1, "campaign seed");
  flags.add_double("seconds", 10.0, "wall seconds of the timed campaign");
  flags.add_bool("setup-only", false, "build the line-up, print READY, exit");
  flags.add_bool("reference", false, "run the reference campaign instead");
  if (!flags.parse(argc, argv)) {
    if (!flags.error().empty()) std::fprintf(stderr, "%s\n", flags.error().c_str());
    return 2;
  }
  const auto lineup = sjs::sched::paper_lineup(kChats);
  if (flags.get_bool("reference")) {
    reference(lineup);
    return 0;
  }
  std::printf("READY %zu %zu\n", kRowsRuns * lineup.size(), kLiveRuns);
  std::fflush(stdout);
  if (flags.get_bool("setup-only")) return 0;

  const auto seed = static_cast<std::uint64_t>(flags.get_int("seed"));
  const double seconds = flags.get_double("seconds");
  const std::size_t vdover = kChats.size();
  const double t0 = now_s();
  for (std::uint64_t round = 0; now_s() - t0 < seconds; ++round) {
    const std::uint64_t round_seed = seed * 1000003ULL + round;
    for (std::size_t li = 0; li < kLambdas.size() && now_s() - t0 < seconds;
         ++li) {
      sjs::mc::McConfig config;
      config.setup.lambda = kLambdas[li];
      config.runs = kRowsRuns;
      config.seed = round_seed;
      config.threads = 1;
      const double start = now_s();
      const auto outcome = sjs::mc::run_monte_carlo(config, lineup);
      std::printf("ROW %.9g %zu %.17g\n", (now_s() - start) * 1e3,
                  kRowsRuns * lineup.size(),
                  100.0 * mean(outcome.per_scheduler[vdover].value_fractions));
      std::fflush(stdout);
      const LiveUnit u = live_unit(lineup[vdover], kLambdas[li],
                                   round_seed * 8 + li);
      std::printf("LIVE %.17g %.9g %d\n", u.jobs, u.seconds, u.same ? 1 : 0);
      std::fflush(stdout);
    }
  }
  return 0;
}
