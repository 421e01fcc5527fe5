#include <algorithm>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "perfbench.hpp"
#include "rispp/obs/json.hpp"
#include "rispp/rt/manager.hpp"
#include "rispp/rt/policy.hpp"
#include "rispp/rt/selection.hpp"

namespace perfbench {

std::uint64_t now_ns() {
  static const auto epoch = std::chrono::steady_clock::now();
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - epoch)
          .count());
}

LayerClock::Snapshot LayerClock::Snapshot::operator-(const Snapshot& o) const {
  Snapshot d;
  d.select_calls = select_calls - o.select_calls;
  d.select_ns = select_ns - o.select_ns;
  d.select_useful = select_useful - o.select_useful;
  d.replace_calls = replace_calls - o.replace_calls;
  d.replace_ns = replace_ns - o.replace_ns;
  d.events = events - o.events;
  d.sink_ns = sink_ns - o.sink_ns;
  d.task_switches = task_switches - o.task_switches;
  return d;
}

LayerClock::Snapshot LayerClock::snapshot() const {
  constexpr auto r = std::memory_order_relaxed;
  Snapshot s;
  s.select_calls = select_calls.load(r);
  s.select_ns = select_ns.load(r);
  s.select_useful = select_useful.load(r);
  s.replace_calls = replace_calls.load(r);
  s.replace_ns = replace_ns.load(r);
  s.events = events.load(r);
  s.sink_ns = sink_ns.load(r);
  s.task_switches = task_switches.load(r);
  return s;
}

void Tracer::end_unit(LayerValues& v) const {
  const auto d = clock.snapshot() - mark;
  v["rt.select.calls"] += static_cast<double>(d.select_calls);
  v["rt.select.ms"] += static_cast<double>(d.select_ns) / 1e6;
  v["rt.select.useful"] += static_cast<double>(d.select_useful);
  v["rt.replace.calls"] += static_cast<double>(d.replace_calls);
  v["rt.replace.ms"] += static_cast<double>(d.replace_ns) / 1e6;
  v["obs.events"] += static_cast<double>(d.events);
  v["obs.sink_ms"] += static_cast<double>(d.sink_ns) / 1e6;
  v["sim.task_switches"] += static_cast<double>(d.task_switches);
}

namespace {

using rispp::rt::ForecastDemand;
using rispp::rt::SelectionPlan;
using rispp::rt::VictimCandidate;

/// Delegates to a built-in selector and, while the clock is timing, charges
/// the call to it. A plan is "useful" when its target differs from this instance's previous
/// target (one instance belongs to one manager, so one thread).
class TimedSelection final : public rispp::rt::SelectionPolicy {
 public:
  TimedSelection(const rispp::isa::SiLibrary& lib,
                 std::unique_ptr<rispp::rt::SelectionPolicy> inner,
                 LayerClock& clock)
      : SelectionPolicy(lib), inner_(std::move(inner)), clock_(clock) {}

  SelectionPlan plan(const std::vector<ForecastDemand>& demands,
                     std::uint64_t containers) const override {
    if (!clock_.timing.load(std::memory_order_relaxed))
      return inner_->plan(demands, containers);
    const auto t0 = now_ns();
    auto p = inner_->plan(demands, containers);
    const auto t1 = now_ns();
    clock_.select_ns.fetch_add(t1 - t0, std::memory_order_relaxed);
    clock_.select_calls.fetch_add(1, std::memory_order_relaxed);
    if (!has_prev_ || !(p.target == prev_)) {
      clock_.select_useful.fetch_add(1, std::memory_order_relaxed);
      prev_ = p.target;
      has_prev_ = true;
    }
    return p;
  }
  std::string_view name() const override { return inner_->name(); }

 private:
  std::unique_ptr<rispp::rt::SelectionPolicy> inner_;
  LayerClock& clock_;
  mutable rispp::atom::Molecule prev_;
  mutable bool has_prev_ = false;
};

/// Delegates to a built-in replacement policy; charges it like the above.
class TimedReplacement final : public rispp::rt::ReplacementPolicy {
 public:
  TimedReplacement(std::unique_ptr<rispp::rt::ReplacementPolicy> inner,
                   LayerClock& clock)
      : inner_(std::move(inner)), clock_(clock) {}

  unsigned pick(const std::vector<VictimCandidate>& candidates) override {
    if (!clock_.timing.load(std::memory_order_relaxed))
      return inner_->pick(candidates);
    const auto t0 = now_ns();
    const auto victim = inner_->pick(candidates);
    const auto t1 = now_ns();
    clock_.replace_ns.fetch_add(t1 - t0, std::memory_order_relaxed);
    clock_.replace_calls.fetch_add(1, std::memory_order_relaxed);
    return victim;
  }
  std::string_view name() const override { return inner_->name(); }

 private:
  std::unique_ptr<rispp::rt::ReplacementPolicy> inner_;
  LayerClock& clock_;
};

template <class Selector>
void wrap_selection(const char* key, LayerClock& clock) {
  rispp::rt::register_selection_policy(
      key, [&clock](const rispp::isa::SiLibrary& lib) {
        return std::make_unique<TimedSelection>(
            lib, std::make_unique<Selector>(lib), clock);
      });
}

template <class Replacement>
void wrap_replacement(const char* key, LayerClock& clock) {
  rispp::rt::register_replacement_policy(key, [&clock] {
    return std::make_unique<TimedReplacement>(
        std::make_unique<Replacement>(), clock);
  });
}

}  // namespace

void register_timing_policies(LayerClock& clock) {
  wrap_selection<rispp::rt::GreedySelector>("greedy", clock);
  wrap_selection<rispp::rt::ExhaustiveSelector>("exhaustive", clock);
  wrap_replacement<rispp::rt::LruReplacement>("lru", clock);
  wrap_replacement<rispp::rt::MruReplacement>("mru", clock);
}

std::int64_t SpanLog::add(Span s) {
  spans_.push_back(std::move(s));
  return static_cast<std::int64_t>(spans_.size()) - 1;
}

std::int64_t SpanLog::open(const char* name, std::int64_t parent,
                           std::uint64_t unit) {
  return add({name, now_ns(), 0, 1, 0, parent, unit});
}

void SpanLog::close(std::int64_t id) {
  spans_[static_cast<std::size_t>(id)].end_ns = now_ns();
}

void SpanLog::write_chrome_trace(const std::string& path) const {
  std::ofstream out(path, std::ios::binary);
  if (!out.good()) throw std::runtime_error("cannot write " + path);
  out << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n"
      << "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\"tid\":0,"
         "\"args\":{\"name\":\"perfbench (benchmark-side spans)\"}},\n"
      << "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":2,\"tid\":0,"
         "\"args\":{\"name\":\"exp telemetry (sweep runner spans)\"}}";
  char buf[128];
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const auto& s = spans_[i];
    // A span left open by an op that threw is written with zero length.
    const auto end = std::max(s.end_ns, s.start_ns);
    std::snprintf(buf, sizeof buf, "%.3f,\"dur\":%.3f",
                  static_cast<double>(s.start_ns) / 1e3,
                  static_cast<double>(end - s.start_ns) / 1e3);
    out << ",\n{\"name\":\"" << rispp::obs::json::escape(s.name)
        << "\",\"ph\":\"X\",\"pid\":" << s.pid << ",\"tid\":" << s.tid
        << ",\"ts\":" << buf << ",\"args\":{\"id\":" << i
        << ",\"parent\":" << s.parent << ",\"unit\":" << s.unit << "}}";
  }
  out << "\n]}\n";
  if (!out.good()) throw std::runtime_error("failed writing " + path);
}

void add_manager_counters(const rispp::rt::RisppManager& m, LayerValues& v) {
  const auto& c = m.counters();
  const auto add = [&](const char* key, std::uint64_t n) {
    v[key] += static_cast<double>(n);
  };
  add("rt.reallocations", c.get("reallocations"));
  add("rt.selector_plans", c.get("selector_plans"));
  add("rt.si_exec", c.get("si_exec_hw") + c.get("si_exec_sw"));
  add("rt.rotations", c.get("rotations"));
  add("rt.rotation_retries", c.get("rotation_retries"));
}

std::uint64_t fnv1a(const std::string& text, std::uint64_t h) {
  for (const unsigned char c : text) {
    h ^= c;
    h *= 1099511628211ull;
  }
  return h;
}

std::string hex64(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in.good()) throw std::runtime_error("cannot read " + path);
  std::stringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

std::string recorded_digest(const Options& opts) {
  const auto doc = rispp::obs::json::parse(read_file(opts.expected));
  if (doc.at("seed").as_u64() != opts.seed) return {};
  const auto* wl = doc.find(opts.workload);
  const auto* d = wl ? wl->find(opts.size) : nullptr;
  return d ? d->as_string() : std::string{};
}

double quantile(std::vector<double> v, double q) {
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const auto hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

}  // namespace perfbench
