// White-box tests for the sjs_lint analyzer library (tools/lint/): the
// lexer's comment/string blanking, the declaration indexer's goldens over a
// mini-project, name-resolved call-graph construction, taint propagation
// depth, and content-hash cache invalidation. The CLI-level contracts
// (diagnostic text, exit codes, suppressions) live in lint_test.cpp.
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "lint/analyzer.hpp"
#include "lint/call_graph.hpp"
#include "lint/index.hpp"
#include "lint/source.hpp"

namespace fs = std::filesystem;
using namespace sjs::lint;

namespace {

std::vector<std::string> lines(std::initializer_list<const char*> ls) {
  return {ls.begin(), ls.end()};
}

SourceFile load_fixture(const std::string& rel) {
  const fs::path root = SJS_LINT_FIXTURES;
  auto file = load_file(root / rel, root);
  EXPECT_TRUE(file.has_value()) << rel;
  return std::move(*file);
}

const FunctionDef* find_func(const FileIndex& idx, const std::string& name) {
  for (const FunctionDef& fn : idx.funcs) {
    if (fn.name == name) return &fn;
  }
  return nullptr;
}

// --- lexer ------------------------------------------------------------------

TEST(LintLexer, BlanksMultiLineRawStringBodies) {
  const auto code = strip_comments(lines({
      "const char* s = R\"(",
      "  std::rand() // not a comment",
      ")\";",
      "int after = 1;",
  }));
  EXPECT_EQ(code[1].find("rand"), std::string::npos) << code[1];
  EXPECT_NE(code[3].find("after"), std::string::npos) << code[3];
}

TEST(LintLexer, RawStringDelimiterMustMatch) {
  const auto code = strip_comments(lines({
      "const char* s = R\"sep( body with )\" inside )sep\";",
      "int after = 2;",
  }));
  // The embedded )" must not close the literal early.
  EXPECT_EQ(code[0].find("inside"), std::string::npos) << code[0];
  EXPECT_NE(code[1].find("after"), std::string::npos) << code[1];
}

TEST(LintLexer, LineSpliceContinuesLineComment) {
  const auto code = strip_comments(lines({
      "// comment spliced \\",
      "std::random_device still_comment;",
      "int after = 3;",
  }));
  EXPECT_EQ(code[1].find("random_device"), std::string::npos) << code[1];
  EXPECT_NE(code[2].find("after"), std::string::npos) << code[2];
}

TEST(LintLexer, LineSpliceContinuesStringLiteral) {
  const auto code = strip_comments(lines({
      "const char* s = \"first half \\",
      "time(nullptr) second half\";",
      "int after = 4;",
  }));
  EXPECT_EQ(code[1].find("time("), std::string::npos) << code[1];
  EXPECT_NE(code[2].find("after"), std::string::npos) << code[2];
}

TEST(LintLexer, ColumnsArePreservedByBlanking) {
  const auto code = strip_comments(lines({
      "int x = 1; /* mid */ int y = 2;",
  }));
  ASSERT_EQ(code.size(), 1u);
  EXPECT_EQ(code[0].size(), std::string("int x = 1; /* mid */ int y = 2;").size());
  EXPECT_EQ(code[0].find("int y"), 21u) << code[0];
}

// --- indexer goldens over the mini-project ----------------------------------

TEST(LintIndexer, QualifiedNamesAndBodyRanges) {
  const SourceFile file = load_fixture("graph/engine.cpp");
  const FileIndex idx = build_index(file);

  const FunctionDef* step = find_func(idx, "step");
  ASSERT_NE(step, nullptr);
  EXPECT_EQ(step->qualified, "mini::Engine::step");
  EXPECT_EQ(step->line, 16u);
  EXPECT_EQ(step->body_begin, 16u);
  EXPECT_EQ(step->body_end, 20u);

  const FunctionDef* helper = find_func(idx, "helper");
  ASSERT_NE(helper, nullptr);
  EXPECT_EQ(helper->qualified, "mini::Engine::helper");
  ASSERT_EQ(helper->allocs.size(), 1u);
  EXPECT_EQ(helper->allocs[0].what, "push_back");
}

TEST(LintIndexer, CallSitesRecordWrittenQualifiers) {
  const SourceFile file = load_fixture("graph/engine.cpp");
  const FileIndex idx = build_index(file);
  const FunctionDef* step = find_func(idx, "step");
  ASSERT_NE(step, nullptr);

  bool saw_qualified_tick = false, saw_helper = false, saw_free_fn = false;
  for (const CallSite& call : step->calls) {
    if (call.name == "tick") {
      saw_qualified_tick = call.qual == "Engine::tick";
    }
    if (call.name == "helper") saw_helper = true;
    if (call.name == "free_fn") saw_free_fn = true;
  }
  EXPECT_TRUE(saw_qualified_tick);
  EXPECT_TRUE(saw_helper);
  EXPECT_TRUE(saw_free_fn);
}

TEST(LintIndexer, BannedReadsAreBodyFacts) {
  const SourceFile file = load_fixture("graph/util.cpp");
  const FileIndex idx = build_index(file);
  const FunctionDef* wall = find_func(idx, "wall_now");
  ASSERT_NE(wall, nullptr);
  ASSERT_EQ(wall->banned.size(), 1u);
  EXPECT_EQ(wall->banned[0].what, "std::chrono::*_clock::now");

  const FunctionDef* alloc = find_func(idx, "free_fn");
  ASSERT_NE(alloc, nullptr);
  ASSERT_EQ(alloc->allocs.size(), 1u);
  EXPECT_EQ(alloc->allocs[0].what, "new");
}

// --- call graph -------------------------------------------------------------

TEST(LintCallGraph, ResolvesCrossFileCallsByName) {
  std::vector<FileIndex> indices = {
      build_index(load_fixture("graph/engine.cpp")),
      build_index(load_fixture("graph/util.cpp")),
  };
  const CallGraph g = build_call_graph(indices);

  const auto& steps = g.named("step");
  ASSERT_EQ(steps.size(), 1u);
  const auto& frees = g.named("free_fn");
  ASSERT_EQ(frees.size(), 1u);

  bool step_calls_free_fn = false;
  for (const std::size_t e : g.out[steps[0]]) {
    if (g.edges[e].callee == frees[0]) step_calls_free_fn = true;
  }
  EXPECT_TRUE(step_calls_free_fn);
}

TEST(LintCallGraph, ForwardPropagationReachesTransitiveCallees) {
  std::vector<FileIndex> indices = {
      build_index(load_fixture("graph/engine.cpp")),
      build_index(load_fixture("graph/util.cpp")),
  };
  const CallGraph g = build_call_graph(indices);
  const auto& steps = g.named("step");
  ASSERT_EQ(steps.size(), 1u);

  const Reachability r = propagate(g, {steps[0]}, /*forward=*/true,
                                   [](std::size_t) { return false; });
  for (const char* name : {"helper", "tick", "free_fn"}) {
    const auto& ids = g.named(name);
    ASSERT_EQ(ids.size(), 1u) << name;
    EXPECT_TRUE(r.reached[ids[0]]) << name;
  }
  // wall_now is never called: unreachable.
  const auto& walls = g.named("wall_now");
  ASSERT_EQ(walls.size(), 1u);
  EXPECT_FALSE(r.reached[walls[0]]);
}

TEST(LintCallGraph, ThreeDeepTaintChainIsReconstructed) {
  // The CLI-visible behavior of this fixture is covered in lint_test.cpp;
  // here the chain itself is asserted through the library.
  AnalyzerOptions options;
  options.root = SJS_LINT_FIXTURES;
  options.inputs = {fs::path(SJS_LINT_FIXTURES) /
                    "src/sim/bad_transitive_time.cpp"};
  const AnalyzerResult result = run_analyzer(options);

  const Diagnostic* top = nullptr;
  for (const Diagnostic& d : result.diags) {
    if (d.rule == "transitive-banned-time" &&
        d.message.find("'fixture::middle_layer'") != std::string::npos) {
      top = &d;
    }
  }
  ASSERT_NE(top, nullptr);
  // Chain notes: top_layer -> middle_layer -> read_clock_directly.
  ASSERT_EQ(top->chain.size(), 3u);
  EXPECT_NE(top->chain[0].find("top_layer"), std::string::npos);
  EXPECT_NE(top->chain[1].find("middle_layer"), std::string::npos);
  EXPECT_NE(top->chain[2].find("read_clock_directly"), std::string::npos);
}

// --- cache ------------------------------------------------------------------

class LintCacheTest : public ::testing::Test {
 protected:
  void SetUp() override {
    // One directory per case: ctest -j runs the cases as parallel
    // processes, and a shared directory would let one case's remove_all
    // delete another's files mid-run.
    const std::string name =
        ::testing::UnitTest::GetInstance()->current_test_info()->name();
    dir_ = fs::path(::testing::TempDir()) / ("sjs_lint_cache_test_" + name);
    fs::remove_all(dir_);
    fs::create_directories(dir_ / "src" / "util");
    cache_ = dir_ / "index.cache";
  }
  void TearDown() override { fs::remove_all(dir_); }

  void write_source(const std::string& body) {
    std::ofstream out(dir_ / "src" / "util" / "probe.cpp", std::ios::trunc);
    out << body;
  }

  AnalyzerResult analyze() {
    AnalyzerOptions options;
    options.root = dir_;
    options.inputs = {dir_ / "src"};
    options.cache_path = cache_;
    return run_analyzer(options);
  }

  fs::path dir_;
  fs::path cache_;
};

TEST_F(LintCacheTest, SecondRunHitsAndReplaysIdenticalDiagnostics) {
  write_source("bool f(double x) { return x == 0.5; }\n");
  const AnalyzerResult cold = analyze();
  EXPECT_EQ(cold.cache_hits, 0u);
  ASSERT_EQ(cold.diags.size(), 1u);
  EXPECT_EQ(cold.diags[0].rule, "float-eq");

  const AnalyzerResult warm = analyze();
  EXPECT_EQ(warm.cache_hits, 1u);
  ASSERT_EQ(warm.diags.size(), 1u);
  EXPECT_EQ(warm.diags[0].rule, cold.diags[0].rule);
  EXPECT_EQ(warm.diags[0].line, cold.diags[0].line);
  EXPECT_EQ(warm.diags[0].col, cold.diags[0].col);
  EXPECT_EQ(warm.diags[0].message, cold.diags[0].message);
}

TEST_F(LintCacheTest, EditInvalidatesByContentHash) {
  write_source("bool f(double x) { return x == 0.5; }\n");
  analyze();

  // Fix the finding; the cached (stale) entry must not replay.
  write_source("bool f(double x) { return x < 0.5; }\n");
  const AnalyzerResult fixed = analyze();
  EXPECT_EQ(fixed.cache_hits, 0u);
  EXPECT_TRUE(fixed.diags.empty());

  // Reintroduce a different finding at a different line.
  write_source("\nfloat g() { return 0; }\n");
  const AnalyzerResult changed = analyze();
  EXPECT_EQ(changed.cache_hits, 0u);
  ASSERT_EQ(changed.diags.size(), 1u);
  EXPECT_EQ(changed.diags[0].rule, "float-type");
  EXPECT_EQ(changed.diags[0].line, 2u);
}

TEST_F(LintCacheTest, CorruptCacheIsIgnoredNotFatal) {
  write_source("bool f(double x) { return x == 0.5; }\n");
  {
    std::ofstream out(cache_, std::ios::trunc);
    out << "not a cache file\n\x1f\x1fgarbage\n";
  }
  const AnalyzerResult result = analyze();
  EXPECT_EQ(result.cache_hits, 0u);
  ASSERT_EQ(result.diags.size(), 1u);
  EXPECT_EQ(result.diags[0].rule, "float-eq");
}

}  // namespace
