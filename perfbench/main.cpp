// sldf-perfbench: the repository benchmark of the sldf cycle engine.
//
// It drives the simulator only through its public calls
// (core::parse_scenario_text, core::build_network, core::traffic_factory,
// core::workload_run_config, sim::Network::reset_dynamic_state, the
// sim::Simulator constructor / step / try_skip_idle / run, and
// workload::make_workload / run_workload) and records host wall time, CPU
// time, RSS and counts around each call. One invocation runs one workload:
//
//   sldf-perfbench --workload NAME --seed N --seconds S --trace 0|1
//                  [--out DIR] [--git-sha SHA] [--src-sha256 HASH]
//   sldf-perfbench --self-test
//
// Untraced runs (--trace 0) report the end-to-end metrics; a traced run
// (--trace 1) records spans around every call (down to each step() of the
// open-loop windows), writes them to DIR/<workload>-seed<N>.spans.json and
// reports the per-layer metrics. Every run checks its simulated outputs;
// the last line of stdout is one JSON object {correct, attempted, failed,
// metrics}. The model is unvalidated against hardware, so no accuracy
// figure is reported: "correct" means the simulated counters are the
// expected, bit-exact ones.
#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <exception>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/builder.hpp"
#include "core/scenario.hpp"
#include "expected.hpp"
#include "sim/simulator.hpp"
#include "workload/registry.hpp"

namespace {

using namespace sldf;
using Clock = std::chrono::steady_clock;

// ------------------------------------------------------------ host probes ---

double wall_now() {
  return std::chrono::duration<double>(Clock::now().time_since_epoch())
      .count();
}

struct Usage {
  double cpu_s = 0.0;  ///< User + system CPU of every thread of the process.
  long vcsw = 0;       ///< Voluntary context switches (sleeps, waits).
};

Usage usage_now() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  const auto sec = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) +
           1e-6 * static_cast<double>(t.tv_usec);
  };
  return {sec(ru.ru_utime) + sec(ru.ru_stime), ru.ru_nvcsw};
}

/// A `Vm*: N kB` line of /proc/self/status, in MB (0 when unavailable).
double proc_status_mb(const char* key) {
  double kb = 0.0;
  if (std::FILE* f = std::fopen("/proc/self/status", "r")) {
    char line[256];
    const std::size_t n = std::strlen(key);
    while (std::fgets(line, sizeof(line), f) != nullptr) {
      if (std::strncmp(line, key, n) == 0 && line[n] == ':') {
        std::sscanf(line + n + 1, "%lf", &kb);
        break;
      }
    }
    std::fclose(f);
  }
  return kb / 1024.0;
}

/// Resets the kernel's resident high-water mark (VmHWM) so the next read
/// covers only what the workload touches. Where clear_refs is not
/// writable the mark keeps the (few-MB) process start-up footprint.
void reset_peak_rss() {
  if (std::FILE* f = std::fopen("/proc/self/clear_refs", "w")) {
    std::fputs("5", f);
    std::fclose(f);
  }
}

// ------------------------------------------------------------------ spans ---

struct Span {
  std::string name;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  int parent = -1;
  [[nodiscard]] double seconds() const {
    return 1e-9 * static_cast<double>(end_ns - start_ns);
  }
};

/// In-memory span recorder. Off, it records nothing and reads no clock.
class Tracer {
 public:
  explicit Tracer(bool on) : on_(on), t0_(Clock::now()) {}
  [[nodiscard]] bool on() const { return on_; }

  /// Opens a child of the innermost open span; returns its id (-1 off).
  int open(std::string name) {
    if (!on_) return -1;
    const int parent = stack_.empty() ? -1 : stack_.back();
    stack_.push_back(static_cast<int>(spans_.size()));
    spans_.push_back(Span{std::move(name), ns(), 0, parent});
    return stack_.back();
  }
  void close() {
    if (!on_) return;
    spans_[static_cast<std::size_t>(stack_.back())].end_ns = ns();
    stack_.pop_back();
  }

  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }
  [[nodiscard]] double seconds(int id) const {
    return id < 0 ? 0.0 : spans_[static_cast<std::size_t>(id)].seconds();
  }

  /// Each span's duration minus the part its children cover.
  [[nodiscard]] std::vector<std::int64_t> self_ns() const {
    std::vector<std::int64_t> self(spans_.size());
    for (std::size_t i = 0; i < spans_.size(); ++i)
      self[i] = spans_[i].end_ns - spans_[i].start_ns;
    for (const Span& s : spans_)
      if (s.parent >= 0)
        self[static_cast<std::size_t>(s.parent)] -= s.end_ns - s.start_ns;
    return self;
  }

  /// Durations (s) of every span called `name`, in record order.
  [[nodiscard]] std::vector<double> durations(const std::string& name) const {
    std::vector<double> d;
    for (const Span& s : spans_)
      if (s.name == name) d.push_back(s.seconds());
    return d;
  }

 private:
  [[nodiscard]] std::int64_t ns() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                                t0_)
        .count();
  }
  bool on_;
  Clock::time_point t0_;
  std::vector<Span> spans_;
  std::vector<int> stack_;
};

class SpanScope {
 public:
  SpanScope(Tracer& t, std::string name) : t_(t) { t_.open(std::move(name)); }
  ~SpanScope() { t_.close(); }
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;

 private:
  Tracer& t_;
};

/// Runs `fn` inside span `name`; returns the span's seconds.
template <class Fn>
double timed(Tracer& tr, std::string name, Fn&& fn) {
  const int id = tr.open(std::move(name));
  fn();
  tr.close();
  return tr.seconds(id);
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// num / den, or 0 when there is nothing to divide by.
double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

/// Nearest-rank quantile.
double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(v.size())));
  return v[std::max<std::size_t>(rank, 1) - 1];
}

// -------------------------------------------------------------- workloads ---

/// The benchmark's workloads. Each is one process; its load is generated
/// in-process from the seed, and the simulator receives only the
/// generated scenario text (scenario_text below says why each is here).
const std::vector<std::string>& workloads() {
  static const std::vector<std::string> names = {"sat-radix16-sh4",
                                                 "reqreply-radix16"};
  return names;
}

/// The scenario text of workload `name` for `seed`. `small` shrinks the
/// windows and request count for the harness self-test; counters are only
/// checked against stored values at full size.
std::string scenario_text(const std::string& name, std::uint64_t seed,
                          bool small) {
  const std::string s = std::to_string(seed);
  const std::string base =
      "topology = radix16-swless\nseed = " + s + "\nthreads = 1\n";
  // The only workload that runs the shard team (dispatch, barrier, commit
  // replay) and rate-driven generation. Past the ~0.42 saturation knee the
  // router pipeline dominates; it is the serial engine's router code run
  // in parallel, so a serial-path gain that costs the sharded path shows
  // here, and the traced run's one-shard base measures the serial engine.
  if (name == "sat-radix16-sh4")
    return base +
           (small ? "warmup = 40\nmeasure = 80\ndrain = 40\n"
                  : "warmup = 150\nmeasure = 300\ndrain = 150\n") +
           "label = sat-radix16-sh4\ntraffic = uniform\nrates = 0.9\n"
           "shards = 4\n";
  // The closed-loop engine drives the simulator: dependency DAG, timed
  // releases, inject_packet backpressure, trace generation and idle-cycle
  // elision via try_skip_idle(limit). With gap = 1000 the fabric is often
  // empty; rate-driven generation and the shard team are unused, so
  // per-cycle fixed costs show.
  if (name == "reqreply-radix16")
    return base + "label = reqreply-radix16\nworkload = request-reply\n" +
           "workload.requests = " + (small ? "100" : "2000") +
           "\nworkload.req_kib = 1\nworkload.rep_kib = 4\n"
           "workload.gap = 1000\ntrace.seed = " + s + "\nshards = 1\n";
  throw std::invalid_argument("unknown workload '" + name + "'");
}

/// Per-point metric label: offered load in hundredths, e.g. 0.9 -> r090.
std::string point_label(double rate) {
  char buf[16];
  std::snprintf(buf, sizeof(buf), "r%03ld", std::lround(rate * 100.0));
  return buf;
}

// ------------------------------------------------------------- counters ---

bool same_point(const sim::SimResult& a, const sim::SimResult& b) {
  return a.cycles_run == b.cycles_run && a.flit_hops == b.flit_hops &&
         a.delivered_total == b.delivered_total &&
         a.avg_latency == b.avg_latency && a.p99_latency == b.p99_latency &&
         a.accepted == b.accepted &&
         a.generated_packets == b.generated_packets &&
         a.ejected_flits == b.ejected_flits &&
         a.delivered_measured == b.delivered_measured;
}

bool same_closed(const workload::WorkloadResult& a,
                 const workload::WorkloadResult& b) {
  return a.cycles == b.cycles && a.packets == b.packets &&
         a.completed == b.completed && a.messages == b.messages &&
         a.packets_delivered == b.packets_delivered &&
         a.flit_hops == b.flit_hops && a.avg_msg_cycles == b.avg_msg_cycles;
}

bool ledger_balances(const sim::SimResult& r) {
  return r.generated_packets ==
             r.delivered_total + r.dropped_packets + r.inflight_packets &&
         r.generated_flits == r.ejected_flits + r.lost_flits + r.inflight_flits;
}

// ------------------------------------------------------------------ setup ---

/// A ready engine: everything from scenario text up to the first
/// constructed Simulator (open loop) or the generated graph (closed loop).
struct Ready {
  core::ScenarioSpec spec;
  sim::Network net;
  std::unique_ptr<sim::TrafficSource> traffic;  ///< Open loop only.
  sim::SimContext ctx;                          ///< Open loop only.
  workload::WorkloadRunConfig rc;               ///< Closed loop only.
  workload::WorkloadGraph graph;                ///< Closed loop only.
  int shards = 1;  ///< Shard count the first Simulator resolved.
  double rss_after_build_mb = 0.0;
  double rss_after_init_mb = 0.0;
};

std::unique_ptr<Ready> setup(const std::string& text, Tracer& tr) {
  SpanScope st(tr, "setup");
  auto r = std::make_unique<Ready>();
  {
    SpanScope s(tr, "parse");
    r->spec = core::parse_scenario_text(text).at(0);
  }
  {
    SpanScope s(tr, "build");
    core::build_network(r->net, r->spec);
  }
  if (tr.on()) r->rss_after_build_mb = proc_status_mb("VmRSS");
  if (r->spec.workload.empty()) {
    {
      SpanScope s(tr, "traffic");
      r->traffic = core::traffic_factory(r->spec)(r->net);
    }
    SpanScope s(tr, "init");
    sim::SimConfig sc = r->spec.sim;
    sc.inj_rate_per_chip = r->spec.effective_rates().at(0);
    const sim::Simulator first(r->net, sc, *r->traffic, r->ctx);
    r->shards = first.shards();
  } else {
    SpanScope s(tr, "graph");
    core::KvMap gen_opts;
    r->rc = core::workload_run_config(r->spec, &gen_opts);
    workload::WorkloadEnv env;
    env.flit_bytes = r->rc.flit_bytes;
    env.trace_file = r->spec.trace_file;
    env.trace_seed = r->spec.trace_seed;
    r->graph =
        workload::make_workload(r->spec.workload, r->net, gen_opts, env);
  }
  if (tr.on()) r->rss_after_init_mb = proc_status_mb("VmRSS");
  return r;
}

// ---------------------------------------------------------------- drivers ---

/// Traced-run numbers of one open-loop point.
struct PointTrace {
  double warmup_s = 0.0, measure_s = 0.0, drain_s = 0.0;
  std::uint64_t steps = 0, skipped_cycles = 0;
  std::uint64_t measure_hops = 0;  ///< flit_hops() delta over the window.
  std::uint64_t window_hops = 0;   ///< flit_hops() at the end of measure.
  std::vector<double> step_us;
  long vcsw = 0;  ///< Voluntary context switches over warmup + measure.
};

struct Point {
  double rate = 0.0;
  sim::SimResult res;
  double run_s = 0.0;  ///< Wall of the point's simulation (not its init).
  double cpu_s = 0.0;
  PointTrace tr;
};

/// Counts and times TrafficSource::dest() calls (traced runs only).
class CountingTraffic final : public sim::TrafficSource {
 public:
  explicit CountingTraffic(sim::TrafficSource& inner) : inner_(inner) {}
  NodeId dest(const sim::Network& net, NodeId src, Rng& rng) override {
    const auto t0 = Clock::now();
    const NodeId d = inner_.dest(net, src, rng);
    ns_ += std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                                t0)
               .count();
    ++calls_;
    return d;
  }
  [[nodiscard]] const char* name() const override { return inner_.name(); }
  [[nodiscard]] std::uint64_t calls() const { return calls_; }
  [[nodiscard]] double seconds() const {
    return 1e-9 * static_cast<double>(ns_);
  }

 private:
  sim::TrafficSource& inner_;
  std::uint64_t calls_ = 0;
  std::int64_t ns_ = 0;
};

/// Steps `sim` to cycle `end` exactly as Simulator::run() does before its
/// drain (try_skip_idle to the horizon, then step()), timing every step.
void step_window(sim::Simulator& sim, Cycle end, Tracer& tr, PointTrace& pt) {
  while (sim.now() < end) {
    const Cycle before = sim.now();
    sim.try_skip_idle(end);
    pt.skipped_cycles += sim.now() - before;
    if (sim.now() >= end) break;
    pt.step_us.push_back(1e6 * timed(tr, "step", [&] { sim.step(); }));
    ++pt.steps;
  }
}

/// One open-loop series, as core::run_sweep's serial path runs it: one
/// network, traffic source and SimContext reused across the points, point
/// i seeded base + i, stopping once latency passes stop_factor x the
/// first point's. Untraced, each point is one Simulator::run(); traced,
/// the harness steps warmup and measure itself and run() does the drain.
std::vector<Point> run_series(Ready& r, const core::ScenarioSpec& spec,
                              sim::TrafficSource& traffic, Tracer& tr) {
  std::vector<Point> pts;
  const std::vector<double> rates = spec.effective_rates();
  double zero_load = 0.0;
  for (std::size_t i = 0; i < rates.size(); ++i) {
    sim::SimConfig sc = spec.sim;
    sc.inj_rate_per_chip = rates[i];
    sc.seed = spec.sim.seed + i;
    Point pt;
    pt.rate = rates[i];
    SpanScope ps(tr, point_label(rates[i]));
    tr.open("init");
    // A reused network must be rewound first; sim::run_sim does the same.
    r.net.reset_dynamic_state();
    sim::Simulator sim(r.net, sc, traffic, r.ctx);
    tr.close();
    const double t0 = wall_now();
    const Usage u0 = usage_now();
    if (tr.on()) {
      PointTrace& t = pt.tr;
      t.warmup_s =
          timed(tr, "warmup", [&] { step_window(sim, sc.warmup, tr, t); });
      const std::uint64_t warm_hops = sim.flit_hops();
      t.measure_s = timed(tr, "measure", [&] {
        step_window(sim, sc.warmup + sc.measure, tr, t);
      });
      t.window_hops = sim.flit_hops();
      t.measure_hops = t.window_hops - warm_hops;
      t.vcsw = usage_now().vcsw - u0.vcsw;
      t.drain_s = timed(tr, "drain", [&] { pt.res = sim.run(); });
    } else {
      pt.res = sim.run();
    }
    pt.run_s = wall_now() - t0;
    pt.cpu_s = usage_now().cpu_s - u0.cpu_s;
    pts.push_back(std::move(pt));
    const double lat = pts.back().res.avg_latency;
    if (i == 0) zero_load = lat;
    if (spec.stop_latency_factor > 0 && zero_load > 0 &&
        lat > zero_load * spec.stop_latency_factor)
      break;
  }
  return pts;
}

/// One repetition of a workload's simulations.
struct Rep {
  std::vector<Point> points;        ///< Open loop.
  workload::WorkloadResult closed;  ///< Closed loop.
  double run_s = 0.0, cpu_s = 0.0;
  std::uint64_t flit_hops = 0, cycles = 0;
};

Rep run_rep(Ready& r, Tracer& tr, sim::TrafficSource* traffic = nullptr) {
  SpanScope s(tr, "run");
  Rep rep;
  if (r.spec.workload.empty()) {
    rep.points = run_series(r, r.spec, traffic ? *traffic : *r.traffic, tr);
    for (const Point& p : rep.points) {
      rep.run_s += p.run_s;
      rep.cpu_s += p.cpu_s;
      rep.flit_hops += p.res.flit_hops;
      rep.cycles += p.res.cycles_run;
    }
  } else {
    SpanScope w(tr, "run_workload");
    const double t0 = wall_now();
    const Usage u0 = usage_now();
    rep.closed = workload::run_workload(r.net, r.graph, r.rc);
    rep.run_s = wall_now() - t0;
    rep.cpu_s = usage_now().cpu_s - u0.cpu_s;
    rep.flit_hops = rep.closed.flit_hops;
    rep.cycles = rep.closed.cycles;
  }
  return rep;
}

bool same_rep(const Rep& a, const Rep& b) {
  if (a.points.size() != b.points.size()) return false;
  for (std::size_t i = 0; i < a.points.size(); ++i)
    if (a.points[i].rate != b.points[i].rate ||
        !same_point(a.points[i].res, b.points[i].res))
      return false;
  return a.points.empty() ? same_closed(a.closed, b.closed) : true;
}

// ---------------------------------------------------------------- metrics ---

struct MetricDef {
  std::string name;
  std::string unit;
};

const std::vector<MetricDef>& end_to_end_defs() {
  static const std::vector<MetricDef> defs = {
      {"run_s", "s"},           {"setup_s", "s"},
      {"cpu_s", "s"},           {"flit_hops_per_s", "1/s"},
      {"sim_cycles_per_s", "1/s"}, {"peak_rss_mb", "MB"}};
  return defs;
}

/// Every open-loop point any workload runs.
const std::vector<std::string>& point_labels() {
  static const std::vector<std::string> labels = {"r090"};
  return labels;
}

// Each per-layer metric, with the end-to-end metric it should move:
//   core.*            -> setup_s, all workloads
//   topo.*, mem.*     -> peak_rss_mb
//   sim.init_s        -> setup_s on sat-radix16-sh4 (shard-team spawn)
//   sim.rXXX.*        -> run_s (steps / skipped_cycles -> sim_cycles_per_s,
//                        ns_per_flit_hop -> flit_hops_per_s)
//   sim.cpu_per_wall, sim.vcsw_per_step -> run_s / cpu_s on sh4
//   traffic.*         -> run_s on sat-radix16-sh4
//   workload.*        -> setup_s (graph_s) and run_s on reqreply
// The router's route computation runs inside Simulator::step() and cannot
// be timed from outside the library: it is part of each step span's self
// time. A layer a workload does not run reports 0.
const std::vector<MetricDef>& per_layer_defs() {
  static const std::vector<MetricDef> defs = [] {
    std::vector<MetricDef> d = {
        {"core.parse_s", "s"},           {"core.build_network_s", "s"},
        {"topo.routers", "count"},       {"topo.channels", "count"},
        {"topo.input_vcs", "count"},     {"mem.rss_after_build_mb", "MB"},
        {"mem.rss_after_init_mb", "MB"}, {"sim.init_s", "s"}};
    for (const std::string& p : point_labels()) {
      const std::string k = "sim." + p + ".";
      d.push_back({k + "warmup_s", "s"});
      d.push_back({k + "measure_s", "s"});
      d.push_back({k + "drain_s", "s"});
      d.push_back({k + "steps", "count"});
      d.push_back({k + "skipped_cycles", "cycles"});
      d.push_back({k + "step_us_p50", "us"});
      d.push_back({k + "step_us_p99", "us"});
      d.push_back({k + "ns_per_flit_hop", "ns"});
      d.push_back({k + "flit_hops_per_step", "count"});
    }
    const std::vector<MetricDef> rest = {
        {"sim.cpu_per_wall", "ratio"},
        {"sim.vcsw_per_step", "count"},
        {"sim.shard_speedup", "ratio"},
        {"sim.shard_serial_measure_s", "s"},
        {"traffic.dest_calls", "count"},
        {"traffic.dest_s", "s"},
        {"workload.graph_s", "s"},
        {"workload.run_s", "s"},
        {"workload.ns_per_packet", "ns"},
        {"workload.messages", "count"},
        {"workload.packets", "count"},
        {"workload.ttc_cycles", "cycles"},
        {"trace.overhead_s", "s"},
        {"trace.untraced_run_s", "s"}};
    d.insert(d.end(), rest.begin(), rest.end());
    return d;
  }();
  return defs;
}

// ---------------------------------------------------------------- results ---

struct Options {
  std::string workload;
  std::uint64_t seed = kDefaultSeed;
  double seconds = 10.0;
  bool trace = false;
  bool small = false;  ///< Self-test size: no stored-value comparison.
  std::string out_dir;
  std::string git_sha = "unknown";
  std::string src_sha256 = "unknown";
};

/// Operations attempted / failed, with a reason per failure.
struct Gate {
  int attempted = 0;
  int failed = 0;
  void check(bool ok, const std::string& what) {
    ++attempted;
    if (!ok) {
      ++failed;
      std::fprintf(stderr, "sldf-perfbench: FAILED: %s\n", what.c_str());
    }
  }
};

std::string json_str(const std::string& s) {
  std::string o = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      o += '\\';
      o += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      o += ' ';
    } else {
      o += c;
    }
  }
  return o + "\"";
}

std::string num(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string cpu_model() {
  std::string model = "unknown";
  if (std::FILE* f = std::fopen("/proc/cpuinfo", "r")) {
    char line[512];
    while (std::fgets(line, sizeof(line), f) != nullptr) {
      if (std::strncmp(line, "model name", 10) == 0) {
        const char* c = std::strchr(line, ':');
        if (c != nullptr) {
          model = c + 1;
          model.erase(0, model.find_first_not_of(" \t"));
          model.erase(model.find_last_not_of(" \t\n") + 1);
        }
        break;
      }
    }
    std::fclose(f);
  }
  return model;
}

int nproc() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0) return CPU_COUNT(&set);
  return 1;
}

/// Host and build stamp of every result, so numbers from different hosts
/// (1 vs 4 cores) or builds cannot be mixed up.
std::string meta_json(const Options& m) {
#if defined(__clang__)
  const std::string compiler = std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
  const std::string compiler = std::string("gcc ") + __VERSION__;
#else
  const std::string compiler = "unknown";
#endif
  return "{\"workload\": " + json_str(m.workload) +
         ", \"seed\": " + std::to_string(m.seed) +
         ", \"trace\": " + (m.trace ? "1" : "0") +
         ", \"nproc\": " + std::to_string(nproc()) +
         ", \"cpu_model\": " + json_str(cpu_model()) +
         ", \"compiler\": " + json_str(compiler) +
         ", \"build_type\": " + json_str(PERFBENCH_BUILD_TYPE) +
         ", \"lto\": " + (PERFBENCH_LTO ? "true" : "false") +
         ", \"git_sha\": " + json_str(m.git_sha) +
         ", \"src_sha256\": " + json_str(m.src_sha256) + "}";
}

std::string metrics_json(const std::vector<MetricDef>& defs,
                         const std::map<std::string, double>& values) {
  std::string o = "{";
  for (std::size_t i = 0; i < defs.size(); ++i) {
    if (i) o += ", ";
    o += json_str(defs[i].name) + ": {\"value\": " +
         num(values.at(defs[i].name)) + ", \"unit\": " +
         json_str(defs[i].unit) + "}";
  }
  return o + "}";
}

bool write_file(const std::string& path, const std::string& body) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const bool ok = std::fwrite(body.data(), 1, body.size(), f) == body.size();
  return std::fclose(f) == 0 && ok;
}

std::string spans_json(const Options& m, const Tracer& tr) {
  const std::vector<std::int64_t> self = tr.self_ns();
  std::string o = "{\"meta\": " + meta_json(m) + ",\n \"spans\": [\n";
  const auto& spans = tr.spans();
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    o += "  {\"id\": " + std::to_string(i) + ", \"name\": " + json_str(s.name) +
         ", \"parent\": " + std::to_string(s.parent) +
         ", \"start_ns\": " + std::to_string(s.start_ns) +
         ", \"end_ns\": " + std::to_string(s.end_ns) +
         ", \"self_ns\": " + std::to_string(self[i]) + "}" +
         (i + 1 < spans.size() ? ",\n" : "\n");
  }
  return o + " ]}\n";
}

/// Prints the stored-value line of every counter set, in the syntax of
/// expected.hpp, so the table can be regenerated from a seed-1 run.
void print_expect_lines(const std::string& workload, const Rep& rep) {
  for (const Point& p : rep.points)
    std::printf(
        "expect {\"%s\", %a, %llu, %llu, %llu, %a, %a, %a},\n",
        workload.c_str(), p.rate,
        static_cast<unsigned long long>(p.res.cycles_run),
        static_cast<unsigned long long>(p.res.flit_hops),
        static_cast<unsigned long long>(p.res.delivered_total),
        p.res.avg_latency, p.res.p99_latency, p.res.accepted);
  if (rep.points.empty())
    std::printf("expect_closed {\"%s\", %llu, %llu, %s},\n", workload.c_str(),
                static_cast<unsigned long long>(rep.closed.cycles),
                static_cast<unsigned long long>(rep.closed.packets),
                rep.closed.completed ? "true" : "false");
}

/// Compares a full-size run at the default seed with the stored values.
bool matches_expected(const std::string& workload, const Rep& rep) {
  if (rep.points.empty()) {
    for (const ExpectedClosed& e : kExpectedClosed)
      if (workload == e.workload)
        return rep.closed.cycles == e.cycles &&
               rep.closed.packets == e.packets &&
               rep.closed.completed == e.completed;
    return false;
  }
  std::size_t seen = 0;
  for (const ExpectedPoint& e : kExpectedPoints) {
    if (workload != e.workload) continue;
    if (seen >= rep.points.size()) return false;
    const Point& p = rep.points[seen++];
    if (p.rate != e.rate || p.res.cycles_run != e.cycles_run ||
        p.res.flit_hops != e.flit_hops ||
        p.res.delivered_total != e.delivered_total ||
        p.res.avg_latency != e.avg_latency ||
        p.res.p99_latency != e.p99_latency || p.res.accepted != e.accepted)
      return false;
  }
  return seen > 0 && seen == rep.points.size();
}

// ------------------------------------------------------------ one workload ---


/// Full-engine set-ups per run; setup_s is their median.
constexpr int kSetups = 51;
/// Untraced repetitions per run, at least; more while --seconds allows.
constexpr std::size_t kMinReps = 3;

struct RunResult {
  Gate gate;
  std::map<std::string, double> values;
  const std::vector<MetricDef>* defs = nullptr;
};

RunResult run_workload_bench(const Options& opt) {
  RunResult out;
  Gate& gate = out.gate;
  const std::string text = scenario_text(opt.workload, opt.seed, opt.small);
  Tracer tr(opt.trace);
  Tracer off(false);
  tr.open("workload");

  // Set-up: scenario text to a ready engine, repeated; the last stays.
  reset_peak_rss();
  std::vector<double> setup_s;
  std::unique_ptr<Ready> ready;
  for (int i = 0; i < kSetups; ++i) {
    ready.reset();
    const double t0 = wall_now();
    ready = setup(text, tr);
    setup_s.push_back(wall_now() - t0);
  }
  Ready& r = *ready;
  const bool open_loop = r.spec.workload.empty();
  if (open_loop)
    gate.check(r.shards == r.spec.sim.shards,
               "engine resolved " + std::to_string(r.shards) +
                   " shards, scenario asks for " +
                   std::to_string(r.spec.sim.shards));

  // Untraced repetitions for --seconds; every one must repeat the first.
  // A repetition starts only if it should end within the budget.
  std::vector<Rep> reps;
  const double t_start = wall_now();
  double last_rep_s = 0.0;
  while (reps.size() < kMinReps ||
         wall_now() - t_start + last_rep_s <= opt.seconds) {
    const double t0 = wall_now();
    reps.push_back(run_rep(r, off));
    last_rep_s = wall_now() - t0;
    if (!open_loop)
      gate.check(reps.back().closed.completed, "closed-loop run completed");
    if (reps.size() > 1)
      gate.check(same_rep(reps.front(), reps.back()),
                 "repetition " + std::to_string(reps.size()) +
                     " reproduces the first bit for bit");
  }
  for (std::size_t i = 0; i < reps.size(); ++i)
    std::printf("rep %zu run_s %.6f cpu_s %.6f\n", i + 1, reps[i].run_s,
                reps[i].cpu_s);
  const double peak_rss_mb = proc_status_mb("VmHWM");
  const Rep& first = reps.front();
  std::vector<double> run_s, cpu_s;
  for (const Rep& rep : reps) {
    run_s.push_back(rep.run_s);
    cpu_s.push_back(rep.cpu_s);
  }

  // Traced run: the same simulations with spans around every call, right
  // after the untraced repetitions, so that its overhead base (the last
  // kMinReps of them) ran under the same host conditions: host speed
  // drifts over a minute.
  Rep traced;
  double traced_wall = 0.0;
  double traced_cpu = 0.0;
  std::unique_ptr<CountingTraffic> counting;
  if (opt.trace) {
    if (open_loop) counting = std::make_unique<CountingTraffic>(*r.traffic);
    const Usage u0 = usage_now();
    const double w0 = wall_now();
    traced = run_rep(r, tr, counting.get());
    traced_wall = wall_now() - w0;
    traced_cpu = usage_now().cpu_s - u0.cpu_s;
    gate.check(same_rep(first, traced),
               "traced run reproduces the untraced counters bit for bit");
  }

  // Correctness gate.
  for (const Point& p : first.points)
    gate.check(ledger_balances(p.res),
               "conservation ledger of " + point_label(p.rate));
  if (!open_loop)
    gate.check(first.closed.failed_messages == 0 &&
                   first.closed.orphaned_messages == 0 &&
                   first.closed.packets_delivered == first.closed.packets,
               "closed-loop run delivered every packet");
  print_expect_lines(opt.workload, first);
  if (!opt.small && opt.seed == kDefaultSeed)
    gate.check(matches_expected(opt.workload, first),
               "counters equal the stored seed-" +
                   std::to_string(kDefaultSeed) + " values");
  // The harness drivers against the library's own entry points; for the
  // sharded workload the reference runs with shards = 1, so this is also
  // the sharded-vs-serial equality check.
  if (open_loop) {
    core::ScenarioSpec ref_spec = r.spec;
    ref_spec.sim.shards = 1;
    const core::SweepSeries ref = core::run_scenario(ref_spec);
    bool same = ref.points.size() == first.points.size();
    for (std::size_t i = 0; same && i < ref.points.size(); ++i)
      same = ref.points[i].rate == first.points[i].rate &&
             same_point(ref.points[i].res, first.points[i].res);
    gate.check(same, "driver equals core::run_scenario (shards = 1)");
  } else {
    const core::WorkloadRun ref = core::run_workload_scenario(r.spec);
    gate.check(same_closed(ref.result, first.closed),
               "driver equals core::run_workload_scenario");
  }

  auto& v = out.values;
  if (!opt.trace) {
    out.defs = &end_to_end_defs();
    const double run_med = median(run_s);
    v["run_s"] = run_med;
    v["setup_s"] = median(setup_s);
    v["cpu_s"] = median(cpu_s);
    v["flit_hops_per_s"] = static_cast<double>(first.flit_hops) / run_med;
    v["sim_cycles_per_s"] = static_cast<double>(first.cycles) / run_med;
    v["peak_rss_mb"] = peak_rss_mb;
    tr.close();
    return out;
  }

  out.defs = &per_layer_defs();
  for (const MetricDef& d : per_layer_defs()) v[d.name] = 0.0;

  v["core.parse_s"] = median(tr.durations("parse"));
  v["core.build_network_s"] = median(tr.durations("build"));
  v["topo.routers"] = static_cast<double>(r.net.num_routers());
  v["topo.channels"] =
      static_cast<double>(core::census(r.net).channels_total);
  v["topo.input_vcs"] = static_cast<double>(r.net.num_in_ports()) *
                        static_cast<double>(r.net.num_vcs());
  v["mem.rss_after_build_mb"] = r.rss_after_build_mb;
  v["mem.rss_after_init_mb"] = r.rss_after_init_mb;
  v["sim.cpu_per_wall"] = traced_cpu / traced_wall;
  const std::vector<double> last(
      run_s.end() - static_cast<std::ptrdiff_t>(kMinReps), run_s.end());
  v["trace.untraced_run_s"] = median(last);
  v["trace.overhead_s"] = traced.run_s - median(last);
  if (open_loop) {
    // Set-up inits only: the per-point inits of the runs are spans too.
    std::vector<double> inits;
    const auto& spans = tr.spans();
    for (const Span& s : spans)
      if (s.name == "init" && s.parent >= 0 &&
          spans[static_cast<std::size_t>(s.parent)].name == "setup")
        inits.push_back(s.seconds());
    v["sim.init_s"] = median(inits);
    std::uint64_t steps = 0;
    long vcsw = 0;
    for (const Point& p : traced.points) {
      const std::string k = "sim." + point_label(p.rate) + ".";
      const PointTrace& t = p.tr;
      v[k + "warmup_s"] = t.warmup_s;
      v[k + "measure_s"] = t.measure_s;
      v[k + "drain_s"] = t.drain_s;
      v[k + "steps"] = static_cast<double>(t.steps);
      v[k + "skipped_cycles"] = static_cast<double>(t.skipped_cycles);
      v[k + "step_us_p50"] = quantile(t.step_us, 0.50);
      v[k + "step_us_p99"] = quantile(t.step_us, 0.99);
      v[k + "ns_per_flit_hop"] =
          ratio(1e9 * t.measure_s, static_cast<double>(t.measure_hops));
      v[k + "flit_hops_per_step"] = ratio(static_cast<double>(t.window_hops),
                                          static_cast<double>(t.steps));
      steps += t.steps;
      vcsw += t.vcsw;
    }
    v["sim.vcsw_per_step"] =
        ratio(static_cast<double>(vcsw), static_cast<double>(steps));
    v["traffic.dest_calls"] = static_cast<double>(counting->calls());
    v["traffic.dest_s"] = counting->seconds();
    if (r.spec.sim.shards > 1) {
      // Serial base of the speed-up: the same points stepped on 1 shard.
      core::ScenarioSpec serial = r.spec;
      serial.sim.shards = 1;
      tr.open("serial_base");
      const std::vector<Point> base = run_series(r, serial, *r.traffic, tr);
      tr.close();
      bool same = base.size() == traced.points.size();
      double serial_s = 0.0, sharded_s = 0.0;
      for (std::size_t i = 0; same && i < base.size(); ++i) {
        same = same_point(base[i].res, traced.points[i].res);
        serial_s += base[i].tr.measure_s;
        sharded_s += traced.points[i].tr.measure_s;
      }
      gate.check(same, "traced serial base equals the sharded counters");
      v["sim.shard_serial_measure_s"] = serial_s;
      v["sim.shard_speedup"] = serial_s / sharded_s;
    }
  } else {
    v["workload.graph_s"] = median(tr.durations("graph"));
    v["workload.run_s"] = traced.run_s;
    v["workload.ns_per_packet"] =
        1e9 * traced.run_s / static_cast<double>(traced.closed.packets);
    v["workload.messages"] = static_cast<double>(traced.closed.messages);
    v["workload.packets"] = static_cast<double>(traced.closed.packets);
    v["workload.ttc_cycles"] = static_cast<double>(traced.closed.cycles);
  }
  tr.close();

  const std::vector<std::int64_t> self = tr.self_ns();
  const bool self_ok = std::all_of(self.begin(), self.end(),
                                   [](std::int64_t s) { return s >= 0; });
  gate.check(!self.empty() && self_ok,
             "spans recorded, every self time non-negative");
  if (!opt.out_dir.empty()) {
    const std::string path = opt.out_dir + "/" + opt.workload + "-seed" +
                             std::to_string(opt.seed) + ".spans.json";
    gate.check(write_file(path, spans_json(opt, tr)), "write " + path);
  }
  return out;
}

/// Every declared metric is present once, with a unit, and is finite.
bool metrics_complete(const RunResult& res) {
  if (res.defs == nullptr || res.values.size() != res.defs->size())
    return false;
  for (const MetricDef& d : *res.defs)
    if (d.unit.empty() || res.values.count(d.name) != 1 ||
        !std::isfinite(res.values.at(d.name)))
      return false;
  return true;
}

void print_result(const Options& opt, const RunResult& res) {
  for (const MetricDef& d : *res.defs)
    std::printf("metric %-34s %20.6f %s\n", d.name.c_str(),
                res.values.at(d.name), d.unit.c_str());
  std::string line = "{\"correct\": " +
                     std::string(res.gate.failed == 0 ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(res.gate.attempted) +
                     ", \"failed\": " + std::to_string(res.gate.failed) +
                     ", \"metrics\": " + metrics_json(*res.defs, res.values) +
                     "}";
  if (!opt.out_dir.empty()) {
    const std::string path = opt.out_dir + "/" + opt.workload + "-seed" +
                             std::to_string(opt.seed) + "-trace" +
                             (opt.trace ? "1" : "0") + ".json";
    write_file(path, "{\"meta\": " + meta_json(opt) +
                         ",\n \"result\": " + line + "}\n");
  }
  std::printf("%s\n", line.c_str());
}

/// Harness self-test: at small size, for every workload, untraced and
/// traced, the drivers reproduce core::run_scenario /
/// core::run_workload_scenario and the traced run reproduces the untraced
/// one (all inside run_workload_bench's gate); every metric prints with its
/// unit; every span's self time is non-negative.
int self_test() {
  int failed = 0;
  for (const std::string& w : workloads()) {
    for (const bool trace : {false, true}) {
      Options opt;
      opt.workload = w;
      opt.seconds = 0.0;
      opt.trace = trace;
      opt.small = true;
      const RunResult res = run_workload_bench(opt);
      print_result(opt, res);
      const bool complete = metrics_complete(res);
      const bool ok = res.gate.failed == 0 && complete;
      std::printf("self-test %-18s trace=%d  checks=%d failed=%d metrics=%s  "
                  "%s\n",
                  w.c_str(), trace ? 1 : 0, res.gate.attempted, res.gate.failed,
                  complete ? "ok" : "BAD", ok ? "PASS" : "FAIL");
      failed += ok ? 0 : 1;
    }
  }
  std::printf("self-test: %s\n", failed == 0 ? "PASS" : "FAIL");
  return failed == 0 ? 0 : 1;
}

[[noreturn]] void usage_error(const std::string& msg) {
  std::fprintf(stderr,
               "sldf-perfbench: %s\nusage: sldf-perfbench --workload NAME "
               "--seed N --seconds S --trace 0|1 [--out DIR] [--git-sha SHA] "
               "[--src-sha256 HASH]\n       sldf-perfbench --self-test\n",
               msg.c_str());
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  bool want_self_test = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "--self-test") {
      want_self_test = true;
      continue;
    }
    if (i + 1 >= argc) usage_error("missing value for " + a);
    const std::string val = argv[++i];
    try {
      if (a == "--workload") opt.workload = val;
      else if (a == "--seed") opt.seed = std::stoull(val);
      else if (a == "--seconds") opt.seconds = std::stod(val);
      else if (a == "--trace") opt.trace = std::stoi(val) != 0;
      else if (a == "--out") opt.out_dir = val;
      else if (a == "--git-sha") opt.git_sha = val;
      else if (a == "--src-sha256") opt.src_sha256 = val;
      else usage_error("unknown argument " + a);
    } catch (const std::logic_error&) {
      usage_error("bad value '" + val + "' for " + a);
    }
  }
  const auto& names = workloads();
  if (!want_self_test &&
      std::find(names.begin(), names.end(), opt.workload) == names.end())
    usage_error("unknown workload '" + opt.workload + "'");
  try {
    if (want_self_test) return self_test();
    std::printf("meta %s\n", meta_json(opt).c_str());
    RunResult res = run_workload_bench(opt);
    res.gate.check(metrics_complete(res), "every metric has a value and unit");
    print_result(opt, res);
    return res.gate.failed == 0 ? 0 : 1;
  } catch (const std::exception& e) {
    // An exception is a failed operation; no metrics are reported.
    std::fprintf(stderr, "sldf-perfbench: error: %s\n", e.what());
    std::printf("{\"correct\": false, \"attempted\": 1, \"failed\": 1, "
                "\"metrics\": {}}\n");
    return 1;
  }
}
