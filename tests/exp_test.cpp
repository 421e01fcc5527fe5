/// Experiment-engine tests: deterministic sweep plans and per-point seeds,
/// byte-identical ResultTables at any worker count, thread-safe sharing of
/// one immutable Platform, and up-front plan validation.

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>
#include <thread>

#include "rispp/exp/platform.hpp"
#include "rispp/exp/runner.hpp"
#include "rispp/exp/standard_eval.hpp"
#include "rispp/exp/sweep.hpp"
#include "rispp/isa/io.hpp"
#include "rispp/util/error.hpp"

namespace {

using namespace rispp::exp;
using rispp::util::Error;
using rispp::util::PreconditionError;

TEST(SweepPlan, GridEnumeratesLastAxisFastest) {
  Sweep sweep;
  sweep.axis("a", {"1", "2"}).axis("b", {"x", "y", "z"});
  const auto points = sweep.points();
  ASSERT_EQ(points.size(), 6u);
  EXPECT_EQ(sweep.size(), 6u);
  EXPECT_EQ(points[0].at("a"), "1");
  EXPECT_EQ(points[0].at("b"), "x");
  EXPECT_EQ(points[1].at("b"), "y");
  EXPECT_EQ(points[2].at("b"), "z");
  EXPECT_EQ(points[3].at("a"), "2");
  EXPECT_EQ(points[3].at("b"), "x");
  for (std::size_t i = 0; i < points.size(); ++i)
    EXPECT_EQ(points[i].index, i);
}

TEST(SweepPlan, SeedsAreDeterministicAndDistinct) {
  Sweep sweep;
  sweep.axis("a", {"1", "2", "3", "4"}).base_seed(42);
  const auto first = sweep.points();
  const auto again = sweep.points();
  ASSERT_EQ(first.size(), again.size());
  for (std::size_t i = 0; i < first.size(); ++i) {
    EXPECT_EQ(first[i].seed, again[i].seed) << i;
    EXPECT_EQ(first[i].seed, Sweep::derive_seed(42, i));
    for (std::size_t j = i + 1; j < first.size(); ++j)
      EXPECT_NE(first[i].seed, first[j].seed);
  }
  // A different base seed moves every point's stream.
  EXPECT_NE(Sweep::derive_seed(42, 0), Sweep::derive_seed(43, 0));
}

TEST(SweepPlan, ParseGridRoundTrips) {
  const auto sweep = Sweep::parse_grid("containers=4,8;workload=enc");
  ASSERT_EQ(sweep.axes().size(), 2u);
  EXPECT_EQ(sweep.axes()[0].name, "containers");
  EXPECT_EQ(sweep.axes()[0].values,
            (std::vector<std::string>{"4", "8"}));
  EXPECT_EQ(sweep.axes()[1].name, "workload");
  EXPECT_EQ(sweep.size(), 2u);
}

TEST(SweepPlan, ParseGridRejectsMalformedSpecs) {
  EXPECT_THROW(Sweep::parse_grid("noequals"), PreconditionError);
  EXPECT_THROW(Sweep::parse_grid("=4"), PreconditionError);
  EXPECT_THROW(Sweep::parse_grid("a=,"), PreconditionError);
  EXPECT_THROW(Sweep::parse_grid("a=1;a=2"), PreconditionError);
}

TEST(SweepPlan, GridAndExplicitModesCannotMix) {
  Sweep grid;
  grid.axis("a", {"1"});
  EXPECT_THROW(grid.add_point({{"b", "2"}}), PreconditionError);
  Sweep list;
  list.add_point({{"b", "2"}});
  EXPECT_THROW(list.axis("a", {"1"}), PreconditionError);
}

TEST(SweepPlan, PointAccessors) {
  Sweep sweep;
  sweep.add_point({{"n", "7"}, {"x", "1.5"}, {"s", "abc"}});
  const auto p = sweep.points().at(0);
  EXPECT_EQ(p.get_u64("n", 0), 7u);
  EXPECT_DOUBLE_EQ(p.get_f64("x", 0), 1.5);
  EXPECT_EQ(p.get("missing", "fallback"), "fallback");
  EXPECT_EQ(p.get_u64("missing", 9), 9u);
  EXPECT_THROW(p.at("missing"), PreconditionError);
  EXPECT_THROW(p.get_u64("s", 0), PreconditionError);
  EXPECT_THROW(p.get_f64("s", 0), PreconditionError);
}

TEST(ResultTableTest, RowsSortByPointAndColumnsUnionInOrder) {
  ResultTable table;
  table.add({2, 22, {{"a", "1"}, {"c", "3"}}});
  table.add({0, 20, {{"a", "4"}, {"b", "5"}}});
  table.add({1, 21, {{"b", "6"}}});
  EXPECT_EQ(table.columns(),
            (std::vector<std::string>{"point", "seed", "a", "b", "c"}));
  EXPECT_EQ(table.csv(),
            "point,seed,a,b,c\n"
            "0,20,4,5,\n"
            "1,21,,6,\n"
            "2,22,1,,3\n");
  EXPECT_THROW(table.add({1, 0, {}}), PreconditionError);
}

TEST(ResultTableTest, JsonRendering) {
  ResultTable table;
  table.add({0, 9, {{"metric", "val\"ue"}}});
  EXPECT_EQ(table.json(),
            "{\n  \"columns\": [\"point\", \"seed\", \"metric\"],\n"
            "  \"rows\": [\n"
            "    {\"point\": 0, \"seed\": 9, \"metric\": \"val\\\"ue\"}\n"
            "  ]\n}\n");
  EXPECT_EQ(ResultTable{}.json(),
            "{\n  \"columns\": [\"point\", \"seed\"],\n  \"rows\": []\n}\n");
}

TEST(ResultTableTest, RaggedRowsRenderEmptyCellsInBothFormats) {
  ResultTable table;
  table.add({0, 10, {{"a", "1"}, {"b", "2"}}});
  table.add({1, 11, {}});  // a row with no cells at all
  table.add({2, 12, {{"b", "3"}}});
  EXPECT_EQ(table.csv(),
            "point,seed,a,b\n"
            "0,10,1,2\n"
            "1,11,,\n"
            "2,12,,3\n");
  // JSON rows carry only the cells they have; absent cells are absent keys.
  EXPECT_NE(table.json().find("{\"point\": 1, \"seed\": 11}"),
            std::string::npos);
}

TEST(ResultTableTest, DuplicateCellKeysCsvTakesFirstJsonKeepsBoth) {
  ResultTable table;
  table.add({0, 5, {{"m", "first"}, {"m", "second"}}});
  // The column union lists `m` once and CSV resolves it via the row's first
  // occurrence; JSON echoes cells verbatim, duplicates included.
  EXPECT_EQ(table.columns(),
            (std::vector<std::string>{"point", "seed", "m"}));
  EXPECT_EQ(table.csv(), "point,seed,m\n0,5,first\n");
  EXPECT_NE(table.json().find("\"m\": \"first\", \"m\": \"second\""),
            std::string::npos);
}

TEST(ResultTableTest, CsvQuotesCommasQuotesAndNewlines) {
  ResultTable table;
  table.add({0, 1,
             {{"plain", "x"},
              {"comma", "a,b"},
              {"quote", "say \"hi\""},
              {"newline", "two\nlines"}}});
  EXPECT_EQ(table.csv(),
            "point,seed,plain,comma,quote,newline\n"
            "0,1,x,\"a,b\",\"say \"\"hi\"\"\",\"two\nlines\"\n");
}

TEST(ResultTableTest, OutOfOrderAddsMatchAscendingAddsByteForByte) {
  const auto row = [](std::size_t p) {
    return ResultRow{p, 100 + p, {{"v", std::to_string(p)}}};
  };
  ResultTable ascending, shuffled;
  for (const std::size_t p : {0u, 1u, 2u, 3u, 4u, 5u}) ascending.add(row(p));
  for (const std::size_t p : {4u, 0u, 5u, 2u, 1u, 3u}) shuffled.add(row(p));
  EXPECT_EQ(shuffled.csv(), ascending.csv());
  EXPECT_EQ(shuffled.json(), ascending.json());
  // Duplicates are caught on both the append fast path and the sorted
  // insert fallback.
  EXPECT_THROW(ascending.add(row(5)), PreconditionError);
  EXPECT_THROW(ascending.add(row(2)), PreconditionError);
}

TEST(PlatformTest, BuiltinsAndParetoTables) {
  for (const auto& name : Platform::builtin_names()) {
    const auto platform = Platform::builtin(name);
    EXPECT_EQ(platform->name(), name);
    for (std::size_t s = 0; s < platform->library().size(); ++s) {
      const auto direct =
          platform->library().at(s).pareto_front(platform->catalog());
      ASSERT_EQ(platform->pareto(s).size(), direct.size());
      for (std::size_t i = 0; i < direct.size(); ++i) {
        EXPECT_EQ(platform->pareto(s)[i].cycles, direct[i].cycles);
        EXPECT_EQ(platform->pareto(s)[i].rotatable_atoms,
                  direct[i].rotatable_atoms);
      }
    }
  }
  EXPECT_THROW(Platform::builtin("nope"), PreconditionError);
}

TEST(PlatformTest, FromFileParsesOnce) {
  const auto path = ::testing::TempDir() + "rispp_exp_lib.txt";
  {
    std::ofstream out(path);
    rispp::isa::write_si_library(out, rispp::isa::SiLibrary::h264());
  }
  const auto platform = Platform::from_file(path);
  EXPECT_EQ(platform->library().size(),
            rispp::isa::SiLibrary::h264().size());
  EXPECT_THROW(Platform::from_file("/nonexistent/lib.txt"),
               PreconditionError);
}

/// A cheap pure-ISA evaluator for scheduling-focused tests.
PointMetrics cheap_eval(const Platform& platform, const SweepPoint& point) {
  const auto& si = platform.library().find(point.at("si"));
  const auto best =
      si.best_with_budget(point.get_u64("budget", 0), platform.catalog());
  return {{"cycles",
           std::to_string(best ? best->cycles : si.software_cycles())}};
}

Sweep cheap_sweep(const Platform& platform) {
  Sweep sweep;
  std::vector<std::string> names;
  for (const auto& si : platform.library().sis()) names.push_back(si.name());
  sweep.axis("si", names)
      .axis("budget", {"0", "2", "4", "8", "16"})
      .base_seed(3);
  return sweep;
}

TEST(RunnerTest, ResultsAreByteIdenticalAtAnyWorkerCount) {
  const auto platform = Platform::builtin("h264");
  const auto sweep = cheap_sweep(*platform);
  const auto serial = Runner(platform, {1}).run(sweep, cheap_eval);
  EXPECT_EQ(serial.size(), sweep.size());
  for (const unsigned jobs : {2u, 4u, 8u}) {
    const auto parallel = Runner(platform, {jobs}).run(sweep, cheap_eval);
    EXPECT_EQ(parallel.csv(), serial.csv()) << jobs << " workers";
    EXPECT_EQ(parallel.json(), serial.json()) << jobs << " workers";
  }
}

TEST(RunnerTest, JobsZeroMeansHardwareConcurrency) {
  const Runner runner(Platform::builtin("h264"), {0});
  EXPECT_GE(runner.jobs(), 1u);
}

TEST(RunnerTest, EvaluatorExceptionsPropagateToTheCaller) {
  const auto platform = Platform::builtin("h264");
  const auto sweep = cheap_sweep(*platform);
  const auto faulty = [](const Platform& p, const SweepPoint& point) {
    if (point.index == 7) throw PreconditionError("point 7 is cursed");
    return cheap_eval(p, point);
  };
  for (const unsigned jobs : {1u, 4u})
    EXPECT_THROW(Runner(platform, {jobs}).run(sweep, faulty),
                 PreconditionError);
}

TEST(RunnerTest, ConcurrentRunnersShareOnePlatformSafely) {
  // Two full sweeps race on the same immutable snapshot; both must match
  // the serial reference (the sanitizer presets watch the memory accesses).
  const auto platform = Platform::builtin("h264_frame");
  Sweep sweep;
  sweep.axis("workload", {"enc", "dec"})
      .axis("containers", {"4", "8"})
      .axis("frames", {"1"})
      .axis("mb", {"8"});
  const auto reference = Runner(platform, {1}).run(sweep, run_sim_point);
  std::string a, b;
  std::thread ta([&] { a = Runner(platform, {2}).run(sweep, run_sim_point).csv(); });
  std::thread tb([&] { b = Runner(platform, {2}).run(sweep, run_sim_point).csv(); });
  ta.join();
  tb.join();
  EXPECT_EQ(a, reference.csv());
  EXPECT_EQ(b, reference.csv());
}

TEST(StandardEval, SweepValidationFailsFastOnTypos) {
  const auto platform = Platform::builtin("h264");
  // Unknown policy key: rejected before any worker runs, with the
  // registered keys listed (the util::Error contract of rt::validate).
  Sweep bad_policy;
  bad_policy.axis("selector", {"greedy", "greedyy"});
  try {
    run_sim_sweep(platform, bad_policy, 2);
    FAIL() << "expected util::Error";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("greedy"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("exhaustive"), std::string::npos);
  }
  Sweep bad_workload;
  bad_workload.axis("workload", {"doom"});
  EXPECT_THROW(validate_sim_sweep(bad_workload), PreconditionError);
  Sweep good;
  good.axis("workload", {"enc"}).axis("replacement", {"lru", "mru"});
  EXPECT_NO_THROW(validate_sim_sweep(good));
}

TEST(StandardEval, OutOfRangeUnsignedAxesAreRejectedNotNarrowed) {
  // 2^32 retries used to narrow to 0 — a silent "quarantine on the first
  // failure" — and 2^32 + 1 containers or lib_max_count to 1.
  Sweep retries;
  retries.axis("retries", {"3", "4294967296"});
  try {
    validate_sim_sweep(retries);
    FAIL() << "expected PreconditionError";
  } catch (const PreconditionError& e) {
    EXPECT_NE(std::string(e.what()).find("retries"), std::string::npos);
  }
  Sweep containers;
  containers.axis("containers", {"4294967297"});
  EXPECT_THROW(validate_sim_sweep(containers), PreconditionError);
  Sweep max_count;
  max_count.axis("workload", {"generated"})
      .axis("lib_max_count", {"4294967297"});
  EXPECT_THROW(validate_sim_sweep(max_count), PreconditionError);
  Sweep largest;
  largest.axis("retries", {"4294967295"});
  EXPECT_NO_THROW(validate_sim_sweep(largest));
}

TEST(StandardEval, JitterDrawsFromThePointSeed) {
  const auto platform = Platform::builtin("h264");
  Sweep sweep;
  sweep.axis("workload", {"fig7"})
      .axis("mb", {"4"})
      .axis("jitter", {"0.2"});
  const auto first = run_sim_sweep(platform, sweep, 1);
  const auto again = run_sim_sweep(platform, sweep, 2);
  EXPECT_EQ(first.csv(), again.csv());  // same seeds → same jitter
  Sweep reseeded = sweep;
  reseeded.base_seed(99);
  const auto other = run_sim_sweep(platform, reseeded, 1);
  EXPECT_NE(other.rows().at(0).at("cycles"),
            first.rows().at(0).at("cycles"));
}

TEST(StandardEval, PerPointReportsAreByteIdenticalAtAnyWorkerCount) {
  // A `report_dir` axis makes every point drop a run report; the payload
  // carries only the point label (no paths, no times), so the bytes must
  // not depend on the worker count that produced them.
  const auto platform = Platform::builtin("h264_frame");
  const auto run_with = [&](unsigned jobs, const std::string& dir) {
    std::filesystem::create_directories(dir);
    Sweep sweep;
    sweep.axis("workload", {"enc", "dec"})
        .axis("containers", {"4", "6"})
        .axis("frames", {"1"})
        .axis("mb", {"8"})
        .axis("report_dir", {dir})
        .base_seed(1);
    (void)run_sim_sweep(platform, sweep, jobs);
    std::vector<std::string> reports;
    for (std::size_t i = 0; i < sweep.size(); ++i) {
      std::ifstream in(dir + "/point_" + std::to_string(i) + ".report.json",
                       std::ios::binary);
      EXPECT_TRUE(in.good()) << "missing report for point " << i;
      std::stringstream ss;
      ss << in.rdbuf();
      reports.push_back(ss.str());
    }
    return reports;
  };
  const auto serial = run_with(1, ::testing::TempDir() + "rispp_reports_j1");
  const auto parallel = run_with(4, ::testing::TempDir() + "rispp_reports_j4");
  ASSERT_EQ(serial.size(), parallel.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    EXPECT_FALSE(serial[i].empty()) << i;
    EXPECT_EQ(serial[i], parallel[i]) << "report for point " << i
                                      << " depends on the worker count";
  }
  EXPECT_NE(serial[0].find("\"scenario\": \"point_0\""), std::string::npos);
}

TEST(StandardEval, GoldenSweepMatchesCheckedInCsv) {
  // The exact grid the CI smoke runs through tools/rispp_sweep --jobs=2.
  auto sweep = Sweep::parse_grid(
      "workload=enc;frames=1;mb=20;containers=4,6;quantum=10000,30000");
  sweep.base_seed(1);
  const auto table =
      run_sim_sweep(Platform::builtin("h264_frame"), sweep, 2);
  std::ifstream in(std::string(RISPP_TEST_DATA_DIR) + "/sweep_golden.csv",
                   std::ios::binary);
  ASSERT_TRUE(in.good());
  std::stringstream golden;
  golden << in.rdbuf();
  EXPECT_EQ(table.csv(), golden.str());
}

}  // namespace
