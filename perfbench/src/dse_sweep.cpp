/// dse-sweep — a fixed 64-point grid through the sweep engine, streaming
/// rows into a StreamingAggregator and a JSONL shard manifest the way
/// `rispp_sweep --agg-out= --out-shard=` does. Axes: workload {enc, encdec}
/// x containers {4,6,8,10} x selector {greedy, exhaustive} x replacement
/// {lru, mru} x fault_p {0, 0.05}, with frames/mb scaled down so a run
/// holds many passes. One op is one point; one timed unit is one pass.
///
/// The sweep is exp::run_sim_sweep_into's two calls made here directly —
/// validate_sim_sweep once in set-up, then Runner::run with the standard
/// evaluator — so that each point's latency can be clocked around
/// exp::run_sim_point.

#include <algorithm>
#include <cstdio>
#include <stdexcept>

#include "perfbench.hpp"
#include "rispp/exp/manifest.hpp"
#include "rispp/exp/platform.hpp"
#include "rispp/exp/runner.hpp"
#include "rispp/exp/sink.hpp"
#include "rispp/exp/standard_eval.hpp"
#include "rispp/obs/telemetry.hpp"

namespace perfbench {
namespace {

using namespace rispp;

constexpr const char* kFullGrid =
    "workload=enc,encdec;containers=4,6,8,10;selector=greedy,exhaustive;"
    "replacement=lru,mru;fault_p=0,0.05;frames=1;mb=20";
constexpr const char* kTinyGrid =
    "workload=enc;containers=4,6;selector=greedy,exhaustive;"
    "replacement=lru;fault_p=0,0.05;frames=1;mb=4";

/// Remembers each row's serialized manifest line (as a hash, by point) and
/// sums the work counters the rows carry.
class RowCheck final : public exp::ResultSink {
 public:
  explicit RowCheck(std::size_t points) : rows(points, 0) {}

  void on_row(const exp::ResultRow& row) override {
    rows.at(row.point) = fnv1a(exp::manifest_row_line(row));
    const auto add = [&](const char* cell, const char* key) {
      if (const auto* v = row.find(cell)) sums[key] += std::stod(*v);
    };
    add("cycles", "sim.cycles");
    add("rotations", "rt.rotations");
    add("reallocations", "rt.reallocations");
    add("selector_plans", "rt.selector_plans");
    add("si_hw", "rt.si_exec");
    add("si_sw", "rt.si_exec");
    add("rotation_retries", "rt.rotation_retries");
  }

  std::vector<std::uint64_t> rows;
  LayerValues sums;
};

class DseSweep final : public Workload {
 public:
  explicit DseSweep(const Options& opts) : opts_(opts) {}

  void setup(Tracer*) override {
    jobs_ = opts_.jobs;
    platform_ = exp::Platform::builtin("h264_frame");
    sweep_ = exp::Sweep::parse_grid(opts_.size == "tiny" ? kTinyGrid
                                                         : kFullGrid);
    sweep_.base_seed(opts_.seed);
    const auto t0 = now_ns();
    exp::validate_sim_sweep(sweep_);
    validate_ms_ = ms_between(t0, now_ns());
    header_ = exp::ManifestHeader::for_sweep(sweep_, platform_->name(),
                                             exp::kSimEvaluatorId);
    (void)exp::run_sim_point(*platform_, sweep_.point_at(0));  // warm-up op
  }

  Unit run_unit(Tracer* tr) override {
    Unit u;
    passes_.push_back(run_pass(jobs_, opts_.out_dir + "/dse-sweep.manifest.jsonl",
                               tr, &u));
    return u;
  }

  std::size_t ops_per_unit() const override { return sweep_.size(); }
  bool single_threaded() const override { return false; }

  std::uint64_t verify(std::uint64_t attempted,
                       std::uint64_t failed) override {
    // The reference is a jobs=1 pass: every jobs=N pass must reproduce its
    // rows, its aggregate and its manifest bytes exactly.
    const auto ref = run_pass(
        1, opts_.out_dir + "/dse-sweep.reference.jsonl", nullptr, nullptr);
    for (const auto& p : passes_) {
      std::uint64_t bad = 0;
      for (std::size_t i = 0; i < p.rows.size(); ++i)
        bad += p.rows[i] != ref.rows[i];
      if (bad == 0 && (p.agg != ref.agg || p.manifest != ref.manifest))
        bad = p.rows.size();
      failed += bad;
    }
    digest_ = hex64(fnv1a(hex64(ref.agg), ref.manifest));
    const auto recorded = recorded_digest(opts_);
    if (!recorded.empty() && recorded != digest_) {
      std::fprintf(stderr, "dse-sweep: digest %s differs from recorded %s\n",
                   digest_.c_str(), recorded.c_str());
      return attempted;
    }
    return failed;
  }

  LayerValues run_layers() const override {
    return {{"exp.validate_ms", validate_ms_}};
  }

  std::string digest() const override { return digest_; }

 private:
  struct Pass {
    std::vector<std::uint64_t> rows;  ///< manifest-line hash per point
    std::uint64_t agg = 0;            ///< hash of the aggregate's JSON
    std::uint64_t manifest = 0;       ///< hash of the manifest file
  };

  /// One pass over the grid with `jobs` workers. When `u` is set, fills the
  /// timed unit (and, with `tr`, its per-layer values).
  Pass run_pass(unsigned jobs, const std::string& manifest_path, Tracer* tr,
                Unit* u) {
    const auto n = sweep_.size();
    std::vector<double> latency(n, 0.0);
    const exp::PointFn timed = [&](const exp::Platform& p,
                                   const exp::SweepPoint& point) {
      const auto t0 = now_ns();
      auto metrics = exp::run_sim_point(p, point);
      latency[point.index] = ms_between(t0, now_ns());
      return metrics;
    };
    RowCheck check(n);
    exp::StreamingAggregator agg;
    exp::RunStats stats;
    {
      exp::ManifestWriter manifest(manifest_path, header_);
      exp::MultiSink sinks({&manifest, &agg, &check});
      exp::Runner::RunOptions ro;
      ro.stats = &stats;
      std::unique_ptr<obs::Telemetry> tel;
      std::unique_ptr<obs::Telemetry::Binding> bind;
      std::uint64_t tel_offset = 0;
      if (tr) {
        tr->begin_unit();
        obs::Telemetry::Config tcfg;
        tcfg.keep_spans = true;
        tel = std::make_unique<obs::Telemetry>(tcfg);
        tel_offset = now_ns() - tel->now_ns();
        bind = std::make_unique<obs::Telemetry::Binding>(*tel, 0);
        ro.telemetry = tel.get();
      }
      const exp::Runner runner(platform_, {jobs});
      const auto t0 = now_ns();
      runner.run(sweep_, timed, sinks, ro);
      const auto t1 = now_ns();
      if (u) {
        u->wall_s = static_cast<double>(t1 - t0) / 1e9;
        u->op_ms = latency;
        u->sim_cycles = check.sums["sim.cycles"];
      }
      if (tr && u) {
        bind.reset();
        tr->log.add({"pass", t0, t1, 1, 0, -1, tr->unit});
        collect(*tr, *tel, tel_offset, t0, t1, stats, jobs, check, *u);
      }
    }
    Pass pass;
    pass.rows = std::move(check.rows);
    pass.agg = fnv1a(agg.summary_json());
    pass.manifest = fnv1a(read_file(manifest_path));
    return pass;
  }

  /// Per-layer values of one traced pass, from the telemetry spans, the
  /// runner's per-worker stats, the layer clock and the rows. The pass ran
  /// from `begin` to `end`; a telemetry time plus `offset` is a now_ns().
  void collect(Tracer& tr, const obs::Telemetry& tel, std::uint64_t offset,
               std::uint64_t begin, std::uint64_t end,
               const exp::RunStats& stats, unsigned jobs,
               const RowCheck& check, Unit& u) {
    auto& v = u.layers;
    // Per worker (ordinals 1..jobs): its first span's start and its last
    // span's end. Outside them the worker was starting up or had run out of
    // points while stragglers finished.
    std::vector<std::uint64_t> first(jobs + 1, end), last(jobs + 1, begin);
    for (const auto& s : tel.spans()) {
      const auto start = s.start_ns + offset, stop = s.end_ns + offset;
      const double ms = ms_between(start, stop);
      const std::string name = s.name;
      // A point's self time is its span minus its two children.
      if (name == "point") v["exp.point_self_ms"] += ms;
      if (name == "point.workload") v["workload.gen_ms"] += ms;
      if (name == "point.sim") v["sim.run_ms"] += ms;
      if (name == "point.workload" || name == "point.sim")
        v["exp.point_self_ms"] -= ms;
      if (s.thread >= 1 && s.thread <= jobs) {
        first[s.thread] = std::min(first[s.thread], start);
        last[s.thread] = std::max(last[s.thread], stop);
      }
      tr.log.add({s.detail.empty() ? name : name + " " + s.detail, start,
                  stop, 2, s.thread, -1, tr.unit});
    }
    double edge_ms = 0;
    for (unsigned w = 1; w <= jobs; ++w)
      edge_ms += first[w] < last[w]
                     ? ms_between(begin, std::max(begin, first[w])) +
                           ms_between(std::min(end, last[w]), end)
                     : ms_between(begin, end);
    v["exp.edge_idle_ms"] = edge_ms;
    double busy_ms = 0, points = 0;
    for (const auto& w : stats.workers) {
      busy_ms += static_cast<double>(w.busy_ns) / 1e6;
      points += static_cast<double>(w.points);
      v["exp.gate_waits"] += static_cast<double>(w.gate_waits);
      v["exp.gate_wait_ms"] += static_cast<double>(w.gate_wait_ns) / 1e6;
      v["exp.sink_flush_ms"] += static_cast<double>(w.flush_ns) / 1e6;
    }
    const double capacity_ms = jobs * u.wall_s * 1e3;
    v["exp.point_eval_ms"] = points > 0 ? busy_ms / points : 0;
    v["exp.busy_ms"] = busy_ms;
    v["exp.idle_ms"] = capacity_ms - busy_ms;
    v["exp.worker_util"] = capacity_ms > 0 ? busy_ms / capacity_ms : 0;
    v["exp.max_reorder_buffered"] =
        static_cast<double>(stats.max_reorder_buffered);
    v["exp.jobs"] = jobs;
    for (const auto& [k, x] : check.sums) v[k] += x;
    tr.end_unit(v);
  }

  Options opts_;
  unsigned jobs_ = 1;
  std::shared_ptr<const exp::Platform> platform_;
  exp::Sweep sweep_;
  exp::ManifestHeader header_;
  double validate_ms_ = 0;
  std::vector<Pass> passes_;
  std::string digest_;
};

}  // namespace

std::unique_ptr<Workload> make_dse_sweep(const Options& opts) {
  return std::make_unique<DseSweep>(opts);
}

}  // namespace perfbench
