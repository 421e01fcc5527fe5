/// Differential oracle for the manager's demand bookkeeping. RisppManager
/// keeps one aggregated demand per SI, re-folded only when that SI is
/// forecast or released, and counts each window's executions off a per-SI
/// clock against a mark taken when its forecast fired. The model below is
/// the straightforward formulation: every (SI, task) window carries its own
/// execution count, and the aggregate is folded from scratch over all
/// windows. Over random forecast / forecast_release / execute sequences the
/// two must agree bit for bit: active_demands() after every step, and
/// learned_expectation() after every release.

#include <gtest/gtest.h>

#include <iterator>
#include <map>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "genlib_fixture.hpp"
#include "rispp/rt/manager.hpp"
#include "rispp/util/rng.hpp"

namespace {

using namespace rispp::rt;
using rispp::isa::SiLibrary;

class DemandModel {
 public:
  explicit DemandModel(double learning_rate) : rate_(learning_rate) {}

  void forecast(std::size_t si, double expected, double probability,
                int task) {
    double expectation = expected;
    if (const auto it = learned_.find(si); it != learned_.end())
      expectation = rate_ * it->second + (1.0 - rate_) * expected;
    windows_[{si, task}] = {ForecastDemand{si, expectation, probability, task},
                            0};
  }

  void release(std::size_t si, int task) {
    const auto it = windows_.find({si, task});
    if (it == windows_.end()) return;
    const double observed = static_cast<double>(it->second.observed);
    if (const auto l = learned_.find(si); l != learned_.end())
      l->second = rate_ * observed + (1.0 - rate_) * l->second;
    else
      learned_[si] = observed;
    windows_.erase(it);
  }

  void execute(std::size_t si) {
    for (auto& [key, window] : windows_)
      if (key.first == si) ++window.observed;
  }

  /// The fold over every window, in (SI, task) order.
  std::vector<ForecastDemand> demands() const {
    std::vector<ForecastDemand> out;
    for (const auto& [key, window] : windows_) {
      const auto& d = window.demand;
      if (out.empty() || out.back().si_index != key.first) {
        out.push_back(d);
        out.back().expected_executions = d.weight();
        out.back().probability = 1.0;
        continue;
      }
      if (d.weight() > out.back().expected_executions)
        out.back().task = d.task;
      out.back().expected_executions += d.weight();
    }
    return out;
  }

  std::optional<double> learned(std::size_t si) const {
    const auto it = learned_.find(si);
    if (it == learned_.end()) return std::nullopt;
    return it->second;
  }

  /// A window that exists, if any, else nullopt.
  std::optional<std::pair<std::size_t, int>> some_window(
      rispp::util::Xoshiro256& rng) const {
    if (windows_.empty()) return std::nullopt;
    auto it = windows_.begin();
    std::advance(it, static_cast<long>(rng.below(windows_.size())));
    return it->first;
  }

 private:
  struct Window {
    ForecastDemand demand;
    std::uint64_t observed = 0;
  };
  double rate_;
  std::map<std::pair<std::size_t, int>, Window> windows_;
  std::map<std::size_t, double> learned_;
};

void expect_same_demands(const std::vector<ForecastDemand>& got,
                         const std::vector<ForecastDemand>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    SCOPED_TRACE("demand " + std::to_string(i));
    EXPECT_EQ(got[i].si_index, want[i].si_index);
    EXPECT_TRUE(got[i].expected_executions == want[i].expected_executions)
        << got[i].expected_executions << " vs " << want[i].expected_executions;
    EXPECT_TRUE(got[i].probability == want[i].probability);
    EXPECT_EQ(got[i].task, want[i].task);
  }
}

void check_sequences(const SiLibrary& lib, std::uint64_t seed) {
  static const double kRates[] = {0.5, 0.0, 0.25, 1.0};
  static const double kProbabilities[] = {1.0, 0.5, 0.3, 0.9};
  rispp::util::Xoshiro256 rng(seed);
  for (const double rate : kRates) {
    RtConfig cfg;
    cfg.atom_containers = 2 + static_cast<unsigned>(rng.below(7));
    cfg.learning_rate = rate;
    RisppManager mgr(rispp::isa::borrow(lib), cfg);
    DemandModel model(rate);
    Cycle now = 0;
    for (int step = 0; step < 300; ++step) {
      SCOPED_TRACE("rate " + std::to_string(rate) + ", step " +
                   std::to_string(step));
      now += rng.below(5000);
      const auto si = static_cast<std::size_t>(rng.below(lib.size()));
      const int task = static_cast<int>(rng.below(5)) - 1;
      switch (rng.below(4)) {
        case 0: {
          // One in eight forecasts expects nothing: a zero-weight window.
          const double expected =
              rng.below(8) == 0
                  ? 0.0
                  : static_cast<double>(rng.below(2000)) / 7.0;
          const double probability = kProbabilities[rng.below(4)];
          mgr.forecast(si, expected, probability, now, task);
          model.forecast(si, expected, probability, task);
          break;
        }
        case 1: {
          // Mostly an open window; sometimes one that was never opened.
          auto window = model.some_window(rng);
          if (!window || rng.below(4) == 0) window = {si, task};
          mgr.forecast_release(window->first, now, window->second);
          model.release(window->first, window->second);
          EXPECT_TRUE(mgr.learned_expectation(window->first) ==
                      model.learned(window->first));
          break;
        }
        default:
          mgr.execute(si, now, task);
          model.execute(si);
          break;
      }
      expect_same_demands(mgr.active_demands(), model.demands());
      if (::testing::Test::HasFailure()) return;
    }
  }
}

TEST(DemandOracle, H264FrameLibrary) {
  check_sequences(SiLibrary::h264_frame(), 11);
}

class GeneratedDemandOracle : public ::testing::TestWithParam<std::uint64_t> {
};

TEST_P(GeneratedDemandOracle, AggregatesAndLearningMatchTheFold) {
  SCOPED_TRACE("genlib " +
               genlib_fixture::matrix_config(GetParam()).describe());
  check_sequences(genlib_fixture::generated_library(GetParam()), GetParam());
}

INSTANTIATE_TEST_SUITE_P(GeneratedLibraries, GeneratedDemandOracle,
                         ::testing::Range<std::uint64_t>(1, 21));

}  // namespace
