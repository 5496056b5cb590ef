// hostbench: runs one benchmark workload (an xp spec file) in-process through
// the public scenario API — xp::ParseSpecFile → xp::Compile →
// CompiledScenario::Run → destroy — and prints one JSON document on stdout
// holding the host cost of each phase and every simulated output, which
// hostbench/run.py compares against the recorded reference.
//
//   hostbench --mode time  --spec F --seed N --seconds S [--setup-reps R]
//       as many whole-scenario repetitions as fit in S wall seconds (at
//       least --min-reps), each preceded by R parse+compile(+destroy)
//       repetitions.
//   hostbench --mode trace --spec F --seed N --spans OUT --run-id ID
//       one repetition with read-only epoch probes and the kernel tracer,
//       then the standalone layer probes; spans are written to OUT.
//   hostbench --mode audit --spec F --seed N
//       one repetition with CompileOptions::audit on. A conservation
//       violation makes the scenario exit the process nonzero.
//
// --extra-clients K adds K clients to the spec's first population: a
// perturbed run that the reference check must reject.
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <memory>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "hostbench/layer_bench.h"
#include "src/httpd/server.h"
#include "src/sim/stats.h"
#include "src/telemetry/json.h"
#include "src/xp/runner.h"
#include "src/xp/scenario.h"
#include "src/xp/spec.h"

namespace {

using Clock = std::chrono::steady_clock;

double Seconds(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

[[noreturn]] void Die(const std::string& msg) {
  std::fprintf(stderr, "hostbench: %s\n", msg.c_str());
  std::exit(2);
}

struct Args {
  std::string mode = "time";
  std::string spec;
  std::string spans;
  std::string run_id = "run";
  std::uint64_t seed = 42;
  double seconds = 10.0;
  int min_reps = 3;
  int setup_reps = 30;
  int extra_clients = 0;
};

Args ParseArgs(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) {
      Die("missing value for " + flag);
    }
    const std::string v = argv[++i];
    if (flag == "--mode") {
      a.mode = v;
    } else if (flag == "--spec") {
      a.spec = v;
    } else if (flag == "--spans") {
      a.spans = v;
    } else if (flag == "--run-id") {
      a.run_id = v;
    } else if (flag == "--seed") {
      a.seed = std::stoull(v);
    } else if (flag == "--seconds") {
      a.seconds = std::stod(v);
    } else if (flag == "--min-reps") {
      a.min_reps = std::stoi(v);
    } else if (flag == "--setup-reps") {
      a.setup_reps = std::stoi(v);
    } else if (flag == "--extra-clients") {
      a.extra_clients = std::stoi(v);
    } else {
      Die("unknown flag " + flag);
    }
  }
  a.min_reps = std::max(a.min_reps, 1);
  if (a.mode != "time" && a.mode != "trace" && a.mode != "audit") {
    Die("--mode must be time, trace or audit");
  }
  if (a.spec.empty()) {
    Die("--spec is required");
  }
  return a;
}

// ---------------------------------------------------------------------------
// JSON output
// ---------------------------------------------------------------------------

// Exact text of a double: %.17g round-trips, so equal text == equal value.
std::string Exact(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string Quote(const std::string& s) { return "\"" + telemetry::EscapeJson(s) + "\""; }

std::string NumList(const std::vector<double>& v) {
  std::string out = "[";
  for (std::size_t i = 0; i < v.size(); ++i) {
    out += (i ? "," : "") + Exact(v[i]);
  }
  return out + "]";
}

// ---------------------------------------------------------------------------
// One repetition
// ---------------------------------------------------------------------------

xp::Spec LoadSpec(const Args& a) {
  xp::SpecParseResult parsed = xp::ParseSpecFile(a.spec);
  if (!parsed.ok()) {
    Die(parsed.error);
  }
  xp::SpecOverlay overlay;
  overlay.seed = a.seed;
  const std::string err = xp::ApplyOverlay(parsed.spec, overlay);
  if (!err.empty()) {
    Die(err);
  }
  if (a.extra_clients != 0) {
    if (parsed.spec.populations.empty()) {
      Die("--extra-clients: spec has no population");
    }
    parsed.spec.populations.front().clients += a.extra_clients;
  }
  return std::move(parsed.spec);
}

std::unique_ptr<xp::CompiledScenario> CompileOrDie(const xp::Spec& spec,
                                                   const xp::CompileOptions& opts) {
  xp::CompileResult c = xp::Compile(spec, opts);
  if (!c.ok()) {
    Die("compile: " + c.error);
  }
  return std::move(c.compiled);
}

double SimSeconds(const xp::Spec& spec) {
  return spec.phases.warmup_s + spec.phases.measure_s;
}

// Registry metrics that depend on the host-side engine or on the observer
// rather than on simulated behaviour: event-core totals and queue depth
// (sim.*, engine.*), live container objects (rc.containers.live, which
// counts containers a binding still holds after their owner is gone), the
// kernel tracer's ring and the auditor's own counters.
bool HostSide(const std::string& name) {
  for (const char* prefix : {"sim.", "engine.", "kernel.trace.", "audit."}) {
    if (name.rfind(prefix, 0) == 0) {
      return true;
    }
  }
  return name == "rc.containers.live";
}

// Every simulated output of a run, as JSON: the timeline digest, the whole
// RunResult metric namespace, the assertion verdicts, and the simulated
// counters — every registry metric that is not host-side, the memory
// broker's stats and each server's stats (the httpd.* registry names cover
// only the first server).
std::string OutputsJson(const xp::RunResult& rr, xp::Scenario& sc) {
  const verify::TimelineDigest* d = sc.digest();
  std::ostringstream os;
  os << "{\"digest\":" << Quote(rr.digest_hex)
     << ",\"digest_events\":" << (d != nullptr ? d->events() : 0) << ",\"metrics\":[";
  for (std::size_t i = 0; i < rr.metrics.size(); ++i) {
    os << (i ? "," : "") << "[" << Quote(rr.metrics[i].first) << ","
       << Quote(Exact(rr.metrics[i].second)) << "]";
  }
  os << "],\"assertions\":[";
  for (std::size_t i = 0; i < rr.assertions.size(); ++i) {
    const xp::AssertionResult& ar = rr.assertions[i];
    os << (i ? "," : "") << "[" << Quote(ar.metric) << "," << Quote(Exact(ar.value)) << ","
       << (ar.passed ? "true" : "false") << "]";
  }
  os << "],\"counters\":[";
  bool first = true;
  auto counter = [&](const std::string& name, double value) {
    os << (first ? "" : ",") << "[" << Quote(name) << "," << Quote(Exact(value)) << "]";
    first = false;
  };
  for (const telemetry::Registry::Row& row : sc.metrics().Snapshot()) {
    if (!HostSide(row.name)) {
      counter(row.name, row.value);
    }
  }
  const kernel::MemoryBroker::Stats& mem = sc.kernel().memory().stats();
  counter("memory_broker.reclaim_invocations", static_cast<double>(mem.reclaim_invocations));
  counter("memory_broker.reclaimed_bytes", static_cast<double>(mem.reclaimed_bytes));
  counter("memory_broker.refusals", static_cast<double>(mem.refusals));
  for (std::size_t i = 0; i < sc.servers().size(); ++i) {
    const httpd::ServerStats& st = sc.servers()[i]->stats();
    const std::string prefix = "server" + std::to_string(i) + ".";
    counter(prefix + "connections_accepted", static_cast<double>(st.connections_accepted));
    counter(prefix + "static_served", static_cast<double>(st.static_served));
    counter(prefix + "cgi_started", static_cast<double>(st.cgi_started));
    counter(prefix + "eof_closed", static_cast<double>(st.eof_closed));
    counter(prefix + "flood_filters_installed", static_cast<double>(st.flood_filters_installed));
  }
  os << "],\"ok\":" << (rr.ok ? "true" : "false") << "}";
  return os.str();
}

// Parse + compile, timed: the set-up a user pays before every run.
struct Built {
  std::unique_ptr<xp::CompiledScenario> cs;
  xp::Spec spec;
  double parse_s = 0;
  double compile_s = 0;
};

Built Build(const Args& a, const xp::CompileOptions& opts) {
  Built b;
  const Clock::time_point t0 = Clock::now();
  b.spec = LoadSpec(a);
  const Clock::time_point t1 = Clock::now();
  b.cs = CompileOrDie(b.spec, opts);
  b.parse_s = Seconds(t0, t1);
  b.compile_s = Seconds(t1, Clock::now());
  return b;
}

struct Rep {
  double parse_s = 0;
  double compile_s = 0;
  double run_s = 0;
  double teardown_s = 0;
  std::string outputs;
};

Rep RunOnce(const Args& a, const xp::CompileOptions& opts) {
  Built b = Build(a, opts);
  const Clock::time_point t0 = Clock::now();
  const xp::RunResult rr = b.cs->Run();
  const Clock::time_point t1 = Clock::now();
  Rep r{b.parse_s, b.compile_s, Seconds(t0, t1), 0, OutputsJson(rr, b.cs->scenario())};
  const Clock::time_point t2 = Clock::now();
  b.cs.reset();
  r.teardown_s = Seconds(t2, Clock::now());
  return r;
}

// The process's resident-set high-water mark. VmHWM belongs to the address
// space made at exec, so unlike getrusage's ru_maxrss it does not inherit
// the RSS of the parent that started this process.
double PeakRssKb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6));
    }
  }
  Die("no VmHWM in /proc/self/status");
}

int TimeMode(const Args& a) {
  xp::CompileOptions opts;
  opts.digest = true;
  std::vector<double> parse_s;
  std::vector<double> compile_s;
  auto setup_reps = [&] {
    for (int i = 0; i < a.setup_reps; ++i) {
      const Built b = Build(a, opts);
      parse_s.push_back(b.parse_s);
      compile_s.push_back(b.compile_s);
    }
  };

  // Whole-scenario repetitions: at least --min-reps, then more while one
  // more (at the mean repetition time so far) still ends inside the window.
  // Set-up repetitions run before each one, so that set-up samples the same
  // stretch of host time as the runs do.
  std::vector<Rep> reps;
  const Clock::time_point start = Clock::now();
  for (;;) {
    const double used = Seconds(start, Clock::now());
    const int n = static_cast<int>(reps.size());
    if (n >= a.min_reps && used + used / n > a.seconds) {
      break;
    }
    setup_reps();
    reps.push_back(RunOnce(a, opts));
  }

  std::vector<double> run_s;
  std::vector<double> teardown_s;
  for (const Rep& r : reps) {
    parse_s.push_back(r.parse_s);
    compile_s.push_back(r.compile_s);
    run_s.push_back(r.run_s);
    teardown_s.push_back(r.teardown_s);
  }
  std::cout << "{\"mode\":\"time\",\"sim_s\":" << Exact(SimSeconds(LoadSpec(a)))
            << ",\"parse_s\":" << NumList(parse_s) << ",\"compile_s\":" << NumList(compile_s)
            << ",\"run_s\":" << NumList(run_s) << ",\"teardown_s\":" << NumList(teardown_s)
            << ",\"peak_rss_kb\":" << Exact(PeakRssKb())
            << ",\"outputs\":[";
  for (std::size_t i = 0; i < reps.size(); ++i) {
    std::cout << (i ? "," : "") << reps[i].outputs;
  }
  std::cout << "]}\n";
  return 0;
}

int AuditMode(const Args& a) {
  xp::CompileOptions opts;
  opts.digest = true;
  opts.audit = true;
  const Rep r = RunOnce(a, opts);
  std::cout << "{\"mode\":\"audit\",\"run_s\":" << Exact(r.run_s)
            << ",\"outputs\":[" << r.outputs << "]}\n";
  return 0;
}

// ---------------------------------------------------------------------------
// Traced run
// ---------------------------------------------------------------------------

// Spans around the benchmark's own calls into each layer, kept in memory
// and written once at the end.
class SpanLog {
 public:
  explicit SpanLog(std::string run_id) : run_id_(std::move(run_id)), origin_(Clock::now()) {}

  int Begin(const char* name, int parent) {
    spans_.push_back({name, Clock::now(), {}, parent});
    return static_cast<int>(spans_.size()) - 1;
  }
  void End(int id) { spans_[static_cast<std::size_t>(id)].end = Clock::now(); }
  void Add(const char* name, int parent, Clock::time_point start, Clock::time_point end) {
    spans_.push_back({name, start, end, parent});
  }
  double Duration(int id) const {
    const Span& s = spans_[static_cast<std::size_t>(id)];
    return Seconds(s.start, s.end);
  }

  void Write(const std::string& path) const {
    std::ofstream out(path);
    if (!out) {
      Die("cannot write spans to " + path);
    }
    out << "{\"run_id\":" << Quote(run_id_) << ",\"spans\":[\n";
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      out << (i ? ",\n" : "") << "{\"id\":" << i << ",\"name\":" << Quote(s.name)
          << ",\"start_ns\":" << Ns(s.start) << ",\"end_ns\":" << Ns(s.end)
          << ",\"parent\":" << s.parent << ",\"run\":" << Quote(run_id_) << "}";
    }
    out << "\n]}\n";
  }

 private:
  struct Span {
    const char* name;
    Clock::time_point start;
    Clock::time_point end;
    int parent;
  };
  long long Ns(Clock::time_point t) const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(t - origin_).count();
  }

  std::string run_id_;
  Clock::time_point origin_;
  std::vector<Span> spans_;
};

// Read-only sampling at the end of every simulated epoch, scheduled through
// the public Simulator::At. It reads the scenario's telemetry registry, the
// container registry and the kernel tracer ring (which it then clears); it
// never writes simulated state.
class EpochProbe {
 public:
  static constexpr int kEpochs = 1000;
  static constexpr std::size_t kTraceRing = std::size_t{1} << 19;

  EpochProbe(xp::Scenario* sc, SpanLog* log, double sim_s)
      : sc_(sc), log_(log), epoch_(static_cast<sim::Duration>(sim_s * 1e6 / kEpochs)) {
    sc_->kernel().tracer().Enable(kTraceRing);
  }

  void Start(int run_span) {
    run_span_ = run_span;
    last_ = Clock::now();
    Arm();
  }

  double probe_s() const { return probe_s_; }
  int fired() const { return fired_; }
  sim::SampleSet& epoch_ms() { return epoch_ms_; }
  double queue_depth_peak() const { return queue_depth_peak_; }
  double live_peak() const { return live_peak_; }
  double pcbs_peak() const { return pcbs_peak_; }
  double disk_depth_peak() const { return disk_depth_peak_; }
  std::size_t siblings_peak() const { return siblings_peak_; }
  std::uint64_t dispatches() const { return dispatches_; }
  bool trace_overflow() const { return trace_overflow_; }

 private:
  void Arm() {
    sc_->simulator().At(static_cast<sim::SimTime>(fired_ + 1) * epoch_, [this] { Fire(); });
  }

  void Fire() {
    const Clock::time_point in = Clock::now();
    log_->Add("sim.epoch", run_span_, last_, in);
    epoch_ms_.Add(Seconds(last_, in) * 1e3);

    const telemetry::Registry& reg = sc_->metrics();
    queue_depth_peak_ = std::max(queue_depth_peak_, reg.Value("engine.queue_depth"));
    live_peak_ = std::max(live_peak_, reg.Value("rc.containers.live"));
    pcbs_peak_ = std::max(pcbs_peak_, reg.Value("net.pcbs"));
    disk_depth_peak_ = std::max(disk_depth_peak_, reg.Value("disk.queue_depth"));

    const rc::ContainerManager& mgr = sc_->kernel().containers();
    for (std::size_t s = 0; s < mgr.slot_capacity(); ++s) {
      if (const rc::ResourceContainer* c = mgr.container_at_slot(s)) {
        siblings_peak_ = std::max(siblings_peak_, c->child_count());
      }
    }

    kernel::Tracer& tracer = sc_->kernel().tracer();
    trace_overflow_ = trace_overflow_ || tracer.dropped() > 0;
    dispatches_ += tracer.CountOf(kernel::TraceKind::kDispatch);
    tracer.Enable(kTraceRing);  // clears the ring for the next epoch

    ++fired_;
    last_ = Clock::now();
    log_->Add("probe", run_span_, in, last_);
    probe_s_ += Seconds(in, last_);
    if (fired_ < kEpochs) {
      Arm();
    }
  }

  xp::Scenario* sc_;
  SpanLog* log_;
  sim::Duration epoch_;
  int run_span_ = -1;
  int fired_ = 0;
  Clock::time_point last_;
  double probe_s_ = 0;
  sim::SampleSet epoch_ms_;
  double queue_depth_peak_ = 0;
  double live_peak_ = 0;
  double pcbs_peak_ = 0;
  double disk_depth_peak_ = 0;
  std::size_t siblings_peak_ = 0;
  std::uint64_t dispatches_ = 0;
  bool trace_overflow_ = false;
};

double Ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

int TraceMode(const Args& a) {
  if (a.spans.empty()) {
    Die("--mode trace needs --spans");
  }
  xp::CompileOptions opts;
  opts.digest = true;
  SpanLog log(a.run_id);

  int span = log.Begin("xp.parse", -1);
  const xp::Spec spec = LoadSpec(a);
  log.End(span);
  span = log.Begin("xp.compile", -1);
  std::unique_ptr<xp::CompiledScenario> cs = CompileOrDie(spec, opts);
  log.End(span);

  xp::Scenario& sc = cs->scenario();
  const double sim_s = SimSeconds(spec);
  EpochProbe probe(&sc, &log, sim_s);
  const std::uint64_t events0 = sc.simulator().events_run();
  const int run_span = log.Begin("xp.run", -1);
  probe.Start(run_span);
  const xp::RunResult rr = cs->Run();
  log.End(run_span);
  if (probe.trace_overflow()) {
    Die("kernel tracer ring overflowed within one epoch; raise EpochProbe::kTraceRing");
  }

  // Whole-run totals, read through the registry after the run and before
  // teardown destroys it.
  struct Layer {
    std::string name;
    double value;
    const char* unit;
  };
  std::vector<Layer> layers;
  const telemetry::Registry& reg = sc.metrics();
  auto per_sim_s = [&](const char* name) { return reg.Value(name) / sim_s; };
  auto frac_of_time = [&](const char* name, double cpus) {
    return reg.Value(name) / (sim_s * 1e6 * cpus);
  };
  const double events =
      static_cast<double>(sc.simulator().events_run() - events0) - probe.fired();
  const double dispatched = reg.Value("engine.events_dispatched") - probe.fired();
  const double canceled = reg.Value("engine.events_canceled");
  const double cpus = spec.machine.cpus;
  const double packets_in = reg.Value("net.packets_in");
  const double drops = reg.Value("net.syn_drops") + reg.Value("net.backlog_drops") +
                       reg.Value("net.accept_drops") + reg.Value("net.mem_reject_drops");
  const double hits = reg.Value("httpd.cache.hits");
  const double misses = reg.Value("httpd.cache.misses");
  // Client counters restart at the end of warm-up: these cover measurement.
  const double completed = reg.Value("clients.completed");
  const double failed = reg.Value("clients.timeouts") + reg.Value("clients.failures");
  const kernel::MemoryBroker::Stats& mem = sc.kernel().memory().stats();
  // Summed over every server: the httpd.* registry names cover only the first.
  double served = 0;
  double accepted = 0;
  for (const std::unique_ptr<httpd::Server>& server : sc.servers()) {
    served += static_cast<double>(server->stats().static_served + server->stats().cgi_started);
    accepted += static_cast<double>(server->stats().connections_accepted);
  }
  layers = {
      {"sim.events_per_sim_s", events / sim_s, "1/s"},
      {"sim.cancel_frac", Ratio(canceled, dispatched + canceled), "fraction"},
      {"sim.queue_depth_peak", probe.queue_depth_peak(), "count"},
      {"sim.epoch_host_ms.p50", probe.epoch_ms().Percentile(50), "ms"},
      {"sim.epoch_host_ms.p99", probe.epoch_ms().Percentile(99), "ms"},
      {"sim.epoch_host_ms.count", static_cast<double>(probe.epoch_ms().count()), "count"},
      {"rc.live_peak", probe.live_peak(), "count"},
      {"rc.live_end", reg.Value("rc.containers.live"), "count"},
      {"sched.siblings_peak", static_cast<double>(probe.siblings_peak()), "count"},
      {"kernel.cpu_busy_frac", frac_of_time("cpu.busy_usec", cpus), "fraction"},
      {"kernel.interrupt_frac", frac_of_time("cpu.interrupt_usec", cpus), "fraction"},
      {"kernel.dispatches_per_sim_s", static_cast<double>(probe.dispatches()) / sim_s, "1/s"},
      {"kernel.steals_per_sim_s", per_sim_s("smp.steals"), "1/s"},
      {"kernel.mem_reclaimed_bytes_per_sim_s", static_cast<double>(mem.reclaimed_bytes) / sim_s,
       "B/s"},
      {"kernel.mem_refusals", static_cast<double>(mem.refusals), "count"},
      {"net.packets_in_per_sim_s", packets_in / sim_s, "1/s"},
      {"net.drop_frac", Ratio(drops, packets_in), "fraction"},
      {"net.pcbs_peak", probe.pcbs_peak(), "count"},
      {"net.link_packets_per_sim_s", per_sim_s("link.packets"), "1/s"},
      {"net.link_busy_frac", frac_of_time("link.busy_usec", 1), "fraction"},
      {"disk.requests_per_sim_s", per_sim_s("disk.requests"), "1/s"},
      {"disk.busy_frac", frac_of_time("disk.busy_usec", 1), "fraction"},
      {"disk.queue_depth_peak", probe.disk_depth_peak(), "count"},
      {"httpd.served_per_sim_s", served / sim_s, "1/s"},
      {"httpd.accepts_per_sim_s", accepted / sim_s, "1/s"},
      {"httpd.cache_hit_frac", Ratio(hits, hits + misses), "fraction"},
      {"load.completed_per_sim_s", completed / spec.phases.measure_s, "1/s"},
      {"load.fail_frac", Ratio(failed, completed + failed), "fraction"},
  };
  const std::string outputs = OutputsJson(rr, sc);

  span = log.Begin("xp.teardown", -1);
  cs.reset();
  log.End(span);

  // The Run span's self time: its duration minus the probe spans inside it.
  const double run_self_s = log.Duration(run_span) - probe.probe_s();
  layers.push_back({"sim.ns_per_event", Ratio(run_self_s * 1e9, events), "ns"});
  span = log.Begin("sim.queue.bench", -1);
  layers.push_back({"sim.queue.schedule_run_ns",
                    hostbench::QueueScheduleRunNs(
                        static_cast<std::size_t>(probe.queue_depth_peak())),
                    "ns"});
  log.End(span);
  span = log.Begin("rc.lifecycle.bench", -1);
  layers.push_back(
      {"rc.create_destroy_ns",
       hostbench::ContainerCreateDestroyNs(static_cast<std::size_t>(probe.live_peak())), "ns"});
  log.End(span);
  span = log.Begin("sched.share_tree.bench", -1);
  layers.push_back({"sched.pick_ns", hostbench::SharePickNs(probe.siblings_peak()), "ns"});
  log.End(span);

  log.Write(a.spans);
  std::cout << "{\"mode\":\"trace\",\"sim_s\":" << Exact(sim_s)
            << ",\"run_s\":" << Exact(log.Duration(run_span))
            << ",\"probe_s\":" << Exact(probe.probe_s()) << ",\"layers\":{";
  for (std::size_t i = 0; i < layers.size(); ++i) {
    std::cout << (i ? "," : "") << Quote(layers[i].name) << ":{\"value\":"
              << Exact(layers[i].value) << ",\"unit\":" << Quote(layers[i].unit) << "}";
  }
  std::cout << "},\"outputs\":[" << outputs << "]}\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const Args a = ParseArgs(argc, argv);
  if (a.mode == "trace") {
    return TraceMode(a);
  }
  if (a.mode == "audit") {
    return AuditMode(a);
  }
  return TimeMode(a);
}
