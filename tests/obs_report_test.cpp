/// Run-report serialization: the JSON substrate (ordered objects, token-
/// preserving numbers), byte-stable write→read→write round trips, the
/// checked-in fig06 report golden, and the tolerance-aware diff used by
/// `rispp_report diff` and the CI regression gate.

#include <gtest/gtest.h>

#include <fstream>
#include <sstream>

#include "rispp/obs/csv_trace.hpp"
#include "rispp/obs/json.hpp"
#include "rispp/obs/profiler.hpp"
#include "rispp/obs/report.hpp"
#include "rispp/sim/observe.hpp"
#include "rispp/sim/simulator.hpp"
#include "rispp/util/error.hpp"
#include "sim_scenarios.hpp"

namespace {

using namespace rispp::obs;
using rispp::util::PreconditionError;

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << "cannot open " << path;
  std::stringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

std::string golden_path() {
  return std::string(RISPP_TEST_DATA_DIR) + "/fig06_report_golden.json";
}

TEST(Json, ObjectsPreserveInsertionOrder) {
  auto v = json::Value::object();
  v.add("zebra", json::Value::number(std::uint64_t{1}));
  v.add("alpha", json::Value::number(std::uint64_t{2}));
  EXPECT_EQ(v.dump(), "{\"zebra\":1,\"alpha\":2}");
  EXPECT_EQ(v.at("alpha").as_u64(), 2u);
  EXPECT_EQ(v.find("missing"), nullptr);
  EXPECT_THROW(v.at("missing"), PreconditionError);
}

TEST(Json, NumbersKeepTheirSourceToken) {
  // "0.10" must not reformat to "0.1" on a parse → dump round trip.
  const auto v = json::parse("[0.10, 1e3, -7]");
  EXPECT_EQ(v.dump(), "[0.10,1e3,-7]");
  EXPECT_DOUBLE_EQ(v.items()[0].as_double(), 0.1);
  EXPECT_DOUBLE_EQ(v.items()[1].as_double(), 1000.0);
  EXPECT_EQ(v.items()[2].as_i64(), -7);
}

TEST(Json, ParseRejectsMalformedInput) {
  for (const char* bad :
       {"", "{", "[1,]", "{\"a\" 1}", "nul", "1.", "2e", "\"\\q\"",
        "[1] trailing", "{\"a\":1,}"}) {
    EXPECT_THROW(json::parse(bad), PreconditionError) << bad;
  }
}

TEST(Json, StringEscapesRoundTrip) {
  const auto v = json::parse(R"("line\n\ttab \"q\" \\ \u0041")");
  EXPECT_EQ(v.as_string(), "line\n\ttab \"q\" \\ A");
  EXPECT_EQ(json::escape("a\nb\"c\\d\x01"),
            "a\\nb\\\"c\\\\d\\u0001");
}

/// The exact bench scenario (bench/fig06_runtime_scenario.cpp, labels and
/// all) with a live Profiler sink — the stream behind the checked-in golden.
RunReport run_fig06_report() {
  using namespace rispp::sim;
  const auto lib = rispp::isa::SiLibrary::h264();
  SimConfig cfg;
  cfg.rt.atom_containers = 6;
  cfg.quantum = 25000;
  Profiler profiler(make_trace_meta(lib, cfg, {"A", "B"}));
  cfg.rt.sink = &profiler;
  Simulator sim(borrow(lib), cfg);
  sim_scenarios::add_all(sim, sim_scenarios::fig06(lib));
  (void)sim.run();
  return profiler.finalize("fig06");
}

TEST(ReportGolden, Fig06MatchesCheckedInReportByteForByte) {
  const auto golden = read_file(golden_path());
  ASSERT_FALSE(golden.empty());
  EXPECT_EQ(write_report(run_fig06_report()), golden)
      << "fig06 run report diverged from tests/data/fig06_report_golden.json"
      << " — regenerate with bench/fig06_runtime_scenario --report-out= if"
      << " the change is intentional";
}

TEST(ReportGolden, CsvReplayIsTheSameCodePathAsLiveStreaming) {
  // tools/trace_summary --json replays a CSV trace through exactly this
  // call; the replayed fig06 stream must serialize to the same bytes as the
  // live profiler run (the golden), names learned from the CSV columns.
  std::ifstream in(std::string(RISPP_TEST_DATA_DIR) + "/fig06_golden.csv");
  ASSERT_TRUE(in.good());
  TraceMeta learned;
  const auto events = read_csv_trace(in, &learned);
  const auto report = Profiler::profile(events, learned, "fig06");
  EXPECT_EQ(write_report(report), read_file(golden_path()));
}

TEST(ReportRoundTrip, WriteReadWriteIsByteStable) {
  const auto text = read_file(golden_path());
  const auto report = read_report(text);
  EXPECT_EQ(report.version, kReportVersion);
  EXPECT_EQ(report.scenario, "fig06");
  EXPECT_EQ(write_report(report), text);
}

TEST(ReportRoundTrip, RejectsForeignSchemaAndVersion) {
  EXPECT_THROW(read_report("not json"), PreconditionError);
  EXPECT_THROW(read_report("{}"), PreconditionError);
  EXPECT_THROW(
      read_report(R"({"schema":"other.format","version":1})"),
      PreconditionError);
  EXPECT_THROW(
      read_report(R"({"schema":"rispp.run_report","version":999})"),
      PreconditionError);
  EXPECT_THROW(read_report_file("/nonexistent/report.json"),
               PreconditionError);
}

TEST(ReportDiff, IdenticalReportsHaveNoDivergences) {
  const auto golden = json::parse(read_file(golden_path()));
  EXPECT_TRUE(diff_reports(golden, golden).empty());
}

TEST(ReportDiff, PerturbedCounterIsReportedWithItsPath) {
  const auto golden = json::parse(read_file(golden_path()));
  auto text = read_file(golden_path());
  const std::string needle = "\"rotations\": 8";
  const auto pos = text.find(needle);
  ASSERT_NE(pos, std::string::npos);
  text.replace(pos, needle.size(), "\"rotations\": 9");
  const auto entries = diff_reports(golden, json::parse(text));
  ASSERT_EQ(entries.size(), 1u);
  EXPECT_EQ(entries[0].path, "counts.rotations");
  EXPECT_EQ(entries[0].golden, "8");
  EXPECT_EQ(entries[0].candidate, "9");
  EXPECT_NEAR(entries[0].rel, 1.0 / 9.0, 1e-12);

  // A wide enough tolerance on that path swallows the drift; a tolerance
  // for an unrelated path does not.
  EXPECT_TRUE(diff_reports(golden, json::parse(text),
                           {{"counts.rotations", 0.2}})
                  .empty());
  EXPECT_FALSE(diff_reports(golden, json::parse(text),
                            {{"port.utilization", 0.2}})
                   .empty());
}

TEST(ReportDiff, LongestMatchingTolerancePatternWins) {
  auto golden = json::Value::object();
  golden.add("port", json::Value::object())
      .add("utilization", json::Value::number(std::string("0.50")));
  auto candidate = json::Value::object();
  candidate.add("port", json::Value::object())
      .add("utilization", json::Value::number(std::string("0.55")));
  // The generic rule would fail the 10% drift; the more specific (longer)
  // rule allows it — order in the list must not matter.
  EXPECT_TRUE(diff_reports(golden, candidate,
                           {{"utilization", 0.0},
                            {"port.utilization", 0.2}})
                  .empty());
  EXPECT_FALSE(diff_reports(golden, candidate,
                            {{"port.utilization", 0.01},
                             {"utilization", 0.5}})
                   .empty());
}

TEST(ReportDiff, StructuralDivergenceRendersAbsent) {
  const auto golden = json::parse(R"({"a":[1,2],"b":1})");
  const auto shorter = json::parse(R"({"a":[1],"b":1})");
  auto entries = diff_reports(golden, shorter);
  ASSERT_EQ(entries.size(), 1u);
  EXPECT_EQ(entries[0].path, "a[1]");
  EXPECT_EQ(entries[0].candidate, "<absent>");

  const auto missing_key = json::parse(R"({"a":[1,2]})");
  entries = diff_reports(golden, missing_key);
  ASSERT_EQ(entries.size(), 1u);
  EXPECT_EQ(entries[0].path, "b");
  EXPECT_EQ(entries[0].candidate, "<absent>");

  // Kind mismatch is structural regardless of tolerance.
  const auto wrong_kind = json::parse(R"({"a":[1,"2"],"b":1})");
  EXPECT_FALSE(diff_reports(golden, wrong_kind, {{"a", 1.0}}).empty());
}

TEST(ReportDiff, NumberTokensCompareByValueNotText) {
  // "1e3" and "1000" are the same number; the fast path is token equality
  // but the fallback must be numeric.
  const auto a = json::parse(R"({"x":1e3})");
  const auto b = json::parse(R"({"x":1000})");
  EXPECT_TRUE(diff_reports(a, b).empty());
}

}  // namespace
