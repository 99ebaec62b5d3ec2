// Phase-1 (per-file) rules, ported unchanged from the original single-pass
// sjs_lint. Diagnostic text, coordinates, and firing conditions are frozen:
// tests/lint_test.cpp diffs the output on the fixture tree against
// tests/lint_fixtures/legacy_golden.txt, so any drift here is a test
// failure, not a silent behavior change.
#include <cctype>
#include <regex>
#include <set>

#include "lint/rules.hpp"

namespace sjs::lint {

// ---------------------------------------------------------------------------
// Rule: unordered-iter
// ---------------------------------------------------------------------------

void check_unordered_iter(const SourceFile& file,
                          std::vector<Diagnostic>& diags) {
  if (!is_hot_path_dir(file.rel)) return;
  // Pass 1: names declared (locals or members) with an unordered type.
  static const std::regex decl_re(
      R"((?:std::)?unordered_(?:map|set|multimap|multiset)\s*<)");
  static const std::regex name_re(R"(>\s*&?\s*([A-Za-z_][A-Za-z0-9_]*)\s*[;={(])");
  std::set<std::string> unordered_names;
  for (const std::string& code : file.code) {
    std::smatch m;
    if (!std::regex_search(code, m, decl_re)) continue;
    // Find the declared name after the closing template bracket.
    std::smatch n;
    std::string tail = code.substr(static_cast<std::size_t>(m.position()));
    if (std::regex_search(tail, n, name_re)) {
      unordered_names.insert(n[1]);
    }
  }
  // Pass 2: range-for over an unordered-typed name or inline unordered
  // expression, and explicit .begin()/.cbegin() iteration.
  static const std::regex range_for_re(
      R"(for\s*\(.*:\s*([A-Za-z_][A-Za-z0-9_.\->]*)\s*\))");
  static const std::regex begin_re(
      R"(([A-Za-z_][A-Za-z0-9_]*)\s*\.\s*c?begin\s*\()");
  for (std::size_t i = 0; i < file.code.size(); ++i) {
    const std::string& code = file.code[i];
    std::smatch m;
    if (std::regex_search(code, m, range_for_re)) {
      std::string target = m[1];
      // Last path component of `a.b->c` chains.
      const std::size_t cut = target.find_last_of(".>");
      std::string leaf = cut == std::string::npos ? target : target.substr(cut + 1);
      if (unordered_names.count(leaf) || unordered_names.count(target) ||
          code.find("unordered_") != std::string::npos) {
        report(file, i + 1, static_cast<std::size_t>(m.position()) + 1,
               "unordered-iter",
               "range-for over unordered container '" + target +
                   "': iteration order is implementation-defined and leaks "
                   "into schedule decisions / replay digests; use an ordered "
                   "container or sort the keys first",
               diags);
      }
    }
    for (auto it = std::sregex_iterator(code.begin(), code.end(), begin_re);
         it != std::sregex_iterator(); ++it) {
      const std::string name = (*it)[1];
      if (unordered_names.count(name)) {
        report(file, i + 1, static_cast<std::size_t>(it->position()) + 1,
               "unordered-iter",
               "iterator walk over unordered container '" + name +
                   "': iteration order is implementation-defined; use an "
                   "ordered container or sort the keys first",
               diags);
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Rule: ordered-set-hot-path
// ---------------------------------------------------------------------------

// std::set / std::multiset keyed on double (including pair<double, ...>) in
// the scheduler/engine hot paths — the single-server engine and schedulers
// (sim/, sched/) and the fleet engine and its global schedulers (cloud/,
// cluster/): every insert/erase is a node allocation plus a pointer-chasing
// rebalance, and erase-by-value needs the exact key. sched::ReadyQueue
// provides the same deterministic (key, id) pop order over flat storage with
// O(log n) erase-by-id and no per-operation allocation.
void check_ordered_set_hot_path(const SourceFile& file,
                                std::vector<Diagnostic>& diags) {
  if (!path_in(file.rel, "sched") && !path_in(file.rel, "sim") &&
      !path_in(file.rel, "cloud") && !path_in(file.rel, "cluster")) {
    return;
  }
  static const std::regex ordered_set_re(
      R"((?:std::)?(?:multi)?set\s*<\s*(?:(?:std::)?pair\s*<\s*double\b|double\b))");
  for (std::size_t i = 0; i < file.code.size(); ++i) {
    const std::string& code = file.code[i];
    for (auto it =
             std::sregex_iterator(code.begin(), code.end(), ordered_set_re);
         it != std::sregex_iterator(); ++it) {
      const auto pos = static_cast<std::size_t>(it->position());
      // std::regex (ECMAScript) has no lookbehind: drop matches that are the
      // tail of a longer identifier (unordered_set, flat_set, ...).
      if (pos > 0 &&
          (std::isalnum(static_cast<unsigned char>(code[pos - 1])) ||
           code[pos - 1] == '_')) {
        continue;
      }
      report(file, i + 1, pos + 1, "ordered-set-hot-path",
             "ordered std::set/std::multiset keyed on double in a "
             "scheduler/engine hot path allocates a node per insert and "
             "rebalances on every churn; use sched::ReadyQueue "
             "(sched/ready_queue.hpp) — same deterministic (key, id) order "
             "over flat storage with O(log n) erase-by-id",
             diags);
    }
  }
}

// ---------------------------------------------------------------------------
// Rule: banned-time
// ---------------------------------------------------------------------------

void check_banned_time(const SourceFile& file, std::vector<Diagnostic>& diags) {
  if (is_rng_or_logging(file.rel)) return;
  struct Banned {
    std::regex re;
    const char* what;
  };
  static const std::vector<Banned> banned = {
      {std::regex(R"((?:std::)?\brand\s*\()"), "std::rand()"},
      {std::regex(R"((?:std::)?\bsrand\s*\()"), "std::srand()"},
      {std::regex(R"(\brandom_device\b)"), "std::random_device"},
      {std::regex(R"(\b\w*_clock\s*::\s*now\b)"), "std::chrono::*_clock::now"},
      {std::regex(R"(\btime\s*\(\s*(?:NULL|nullptr|0)\s*\))"),
       "time(nullptr)"},
      {std::regex(R"(\bclock\s*\(\s*\))"), "clock()"},
      {std::regex(R"(\bgettimeofday\s*\()"), "gettimeofday()"},
      {std::regex(R"(\bclock_gettime\s*\()"), "clock_gettime()"},
      {std::regex(R"(\btimespec_get\s*\()"), "timespec_get()"},
  };
  for (std::size_t i = 0; i < file.code.size(); ++i) {
    const std::string& code = file.code[i];
    for (const Banned& b : banned) {
      std::smatch m;
      if (std::regex_search(code, m, b.re)) {
        report(file, i + 1, static_cast<std::size_t>(m.position()) + 1,
               "banned-time",
               std::string(b.what) +
                   " is nondeterministic; all randomness/time must flow "
                   "through the seeded sjs::Rng (util/rng.hpp)",
               diags);
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Rule: float-eq
// ---------------------------------------------------------------------------

// Flags `==`/`!=` where an operand is a floating-point literal or an
// identifier with a time-like name. Exact comparison of derived doubles is
// almost always a determinism bug (two algebraically equal expressions need
// not be bit-equal); where exactness IS the contract (digest folding,
// piecewise boundaries), util/fp.hpp names that intent.
void check_float_eq(const SourceFile& file, std::vector<Diagnostic>& diags) {
  static const std::regex fp_lit_cmp(
      R"(([0-9]+\.[0-9]+(?:[eE][+-]?[0-9]+)?f?\s*(?:==|!=))|((?:==|!=)\s*[0-9]+\.[0-9]+(?:[eE][+-]?[0-9]+)?f?))");
  static const std::regex time_cmp(
      R"(([A-Za-z_][A-Za-z0-9_]*)\s*(?:==|!=)\s*([A-Za-z_][A-Za-z0-9_.]*)\b)");
  static const std::regex time_name(
      R"(^(?:.*_time|time_?[a-z]*|now|t_now|deadline|deadline_|expiry|expiry_|last_advance_)$)");
  for (std::size_t i = 0; i < file.code.size(); ++i) {
    const std::string& code = file.code[i];
    std::smatch m;
    if (std::regex_search(code, m, fp_lit_cmp)) {
      report(file, i + 1, static_cast<std::size_t>(m.position()) + 1,
             "float-eq",
             "raw ==/!= against a floating-point literal; use "
             "sjs::fp::is_zero / sjs::fp::exact_eq / sjs::fp::near "
             "(util/fp.hpp) so the comparison's intent is explicit",
             diags);
      continue;  // one report per line is enough
    }
    for (auto it = std::sregex_iterator(code.begin(), code.end(), time_cmp);
         it != std::sregex_iterator(); ++it) {
      const std::string lhs = (*it)[1];
      std::string rhs = (*it)[2];
      const std::size_t cut = rhs.find_last_of('.');
      if (cut != std::string::npos) rhs = rhs.substr(cut + 1);
      if (std::regex_match(lhs, time_name) || std::regex_match(rhs, time_name)) {
        report(file, i + 1, static_cast<std::size_t>(it->position()) + 1,
               "float-eq",
               "raw ==/!= on simulation-time operands ('" + lhs + "' vs '" +
                   (*it)[2].str() +
                   "'); use sjs::fp::exact_eq/near (util/fp.hpp) to name "
                   "whether exact bit-equality is the contract",
               diags);
        break;
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Rule: float-type
// ---------------------------------------------------------------------------

void check_float_type(const SourceFile& file, std::vector<Diagnostic>& diags) {
  static const std::regex float_re(R"(\bfloat\b)");
  for (std::size_t i = 0; i < file.code.size(); ++i) {
    std::smatch m;
    if (std::regex_search(file.code[i], m, float_re)) {
      report(file, i + 1, static_cast<std::size_t>(m.position()) + 1,
             "float-type",
             "`float` in simulation code: state and signatures are "
             "double-only (float truncation shifts event timestamps and "
             "breaks replay digests); use double",
             diags);
    }
  }
}

// ---------------------------------------------------------------------------
// Rule: include-hygiene
// ---------------------------------------------------------------------------

namespace {
const std::set<std::string> kModuleDirs = {
    "util",  "stats",   "capacity", "jobs", "obs",   "sim",  "sched",
    "offline", "theory", "mc",      "cloud", "serve", "conc", "lint",
    "cluster"};
}  // namespace

void check_include_hygiene(const SourceFile& file,
                           std::vector<Diagnostic>& diags) {
  static const std::regex quoted_re(R"(^\s*#\s*include\s*"([^"]+)\")");
  static const std::regex angled_re(R"(^\s*#\s*include\s*<([^>]+)>)");
  static const std::regex using_ns_re(R"(^\s*using\s+namespace\s+)");
  const bool header = is_header(file.rel);
  for (std::size_t i = 0; i < file.raw.size(); ++i) {
    const std::string& line = file.raw[i];
    std::smatch m;
    if (std::regex_search(line, m, quoted_re)) {
      const std::string inc = m[1];
      const std::size_t slash = inc.find('/');
      const std::string top =
          slash == std::string::npos ? std::string() : inc.substr(0, slash);
      if (inc.rfind("../", 0) == 0 || slash == std::string::npos ||
          kModuleDirs.count(top) == 0) {
        report(file, i + 1, 1, "include-hygiene",
               "quoted include \"" + inc +
                   "\" must be module-rooted (e.g. \"util/rng.hpp\"); "
                   "relative and bare includes break when files move and "
                   "defeat include-what-you-use auditing",
               diags);
      }
    } else if (header && std::regex_search(line, m, angled_re)) {
      if (std::string(m[1]) == "iostream") {
        report(file, i + 1, 1, "include-hygiene",
               "<iostream> in a header drags the static iostream "
               "constructors into every TU; include <ostream>/<istream> in "
               "the header and <iostream> only in .cpp files",
               diags);
      }
    }
    if (header && std::regex_search(file.code[i], using_ns_re)) {
      report(file, i + 1, 1, "include-hygiene",
             "file-scope `using namespace` in a header pollutes every "
             "includer; qualify names instead",
             diags);
    }
  }
}

// ---------------------------------------------------------------------------
// Rule: header-guard
// ---------------------------------------------------------------------------

void check_header_guard(const SourceFile& file,
                        std::vector<Diagnostic>& diags) {
  if (!is_header(file.rel)) return;
  static const std::regex pragma_once_re(R"(^\s*#\s*pragma\s+once\b)");
  for (const std::string& line : file.code) {
    if (std::regex_search(line, pragma_once_re)) return;
  }
  report(file, 1, 1, "header-guard",
         "header is missing `#pragma once` (double inclusion would be an "
         "ODR hazard)",
         diags);
}

// ---------------------------------------------------------------------------
// Rule: raw-concurrency
// ---------------------------------------------------------------------------

// The sharded admission plane's thread-safety argument is structural: every
// cross-thread interaction flows through conc::Channel / conc::ShardSet
// (src/conc/), so serve/, sched/, and cluster/ code can be audited as
// single-threaded. A raw primitive smuggled into any of these layers
// silently reopens the data-race surface the TSan CI job is meant to have
// closed — it must either move behind conc/ or carry an audited suppression.
void check_raw_concurrency(const SourceFile& file,
                           std::vector<Diagnostic>& diags) {
  if (!path_in(file.rel, "serve") && !path_in(file.rel, "sched") &&
      !path_in(file.rel, "cluster")) {
    return;
  }
  static const std::regex prim_re(
      R"(\bstd\s*::\s*(thread|jthread|mutex|recursive_mutex|timed_mutex|recursive_timed_mutex|shared_mutex|shared_timed_mutex|condition_variable(?:_any)?|atomic(?:_flag|_ref)?|lock_guard|unique_lock|scoped_lock|shared_lock|counting_semaphore|binary_semaphore|latch|barrier|future|promise|async)\b)");
  for (std::size_t i = 0; i < file.code.size(); ++i) {
    const std::string& code = file.code[i];
    for (auto it = std::sregex_iterator(code.begin(), code.end(), prim_re);
         it != std::sregex_iterator(); ++it) {
      report(file, i + 1, static_cast<std::size_t>(it->position()) + 1,
             "raw-concurrency",
             "std::" + (*it)[1].str() +
                 " in src/serve//src/sched//src/cluster/: cross-thread "
                 "traffic must flow "
                 "through conc::Channel / conc::ShardSet (src/conc/) or "
                 "util/thread_pool so the layer stays auditable "
                 "single-threaded",
             diags);
    }
  }
}

// ---------------------------------------------------------------------------
// Rule: timer-wheel-bypass
// ---------------------------------------------------------------------------

// Timer events must enter the engine through TimerWheel::arm (wrapped by
// Engine::set_timer): a kTimer event pushed straight into the static queue
// or the completion heap bypasses the wheel's generation-stamped slab, so
// cancel_timer could not tombstone it and the lazy dead-event compaction
// accounting would drift — both are digest-visible failures. The wheel's
// own implementation files are the one place allowed to queue timer nodes.
void check_timer_wheel_bypass(const SourceFile& file,
                              std::vector<Diagnostic>& diags) {
  if (!path_in(file.rel, "sim")) return;
  if (file.rel.rfind("src/sim/timer_wheel.", 0) == 0) return;
  static const std::regex push_re(
      R"(\b(push_event|push_back|emplace_back|push_heap|emplace|insert)\s*\()");
  for (std::size_t i = 0; i < file.code.size(); ++i) {
    const std::string& code = file.code[i];
    if (code.find("kTimer") == std::string::npos) continue;
    std::smatch m;
    if (std::regex_search(code, m, push_re)) {
      report(file, i + 1, static_cast<std::size_t>(m.position()) + 1,
             "timer-wheel-bypass",
             "kTimer event pushed into an event queue directly; timers must "
             "be armed through Engine::set_timer so the wheel's "
             "generation-stamped slab (sim/timer_wheel.hpp) owns the "
             "cancel/tombstone lifecycle the replay digest depends on",
             diags);
    }
  }
}

void run_file_rules(const SourceFile& file, std::vector<Diagnostic>& diags) {
  check_unordered_iter(file, diags);
  check_ordered_set_hot_path(file, diags);
  check_banned_time(file, diags);
  check_float_eq(file, diags);
  check_float_type(file, diags);
  check_include_hygiene(file, diags);
  check_header_guard(file, diags);
  check_raw_concurrency(file, diags);
  check_timer_wheel_bypass(file, diags);
}

}  // namespace sjs::lint
