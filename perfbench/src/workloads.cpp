#include "workloads.hpp"

#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <limits>
#include <memory>
#include <optional>
#include <random>
#include <sstream>
#include <stdexcept>

#include "pstar/adversary/recorder.hpp"
#include "pstar/core/parallel_engine.hpp"
#include "pstar/core/policy_factory.hpp"
#include "pstar/harness/setup.hpp"
#include "pstar/obs/probe.hpp"
#include "pstar/obs/trace.hpp"
#include "pstar/service/serve.hpp"
#include "seams.hpp"

namespace perfbench {

namespace {

using namespace pstar;

/// Every arrival the gate sees is a chance to sample the pending-event
/// set; one in this many is taken.
constexpr std::uint64_t kSampleEvery = 16;

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double ms_since(std::uint64_t start_ns) {
  return static_cast<double>(now_ns() - start_ns) * 1e-6;
}

double rss_mb() {
  long pages = 0;
  long resident = 0;
  if (std::FILE* f = std::fopen("/proc/self/statm", "r")) {
    if (std::fscanf(f, "%ld %ld", &pages, &resident) != 2) resident = 0;
    std::fclose(f);
  }
  return static_cast<double>(resident) *
         static_cast<double>(::sysconf(_SC_PAGESIZE)) / (1024.0 * 1024.0);
}

SimStats stats_of(const net::Metrics& m, std::uint64_t events) {
  SimStats s;
  s.events = events;
  s.transmissions = m.transmissions;
  for (const std::uint64_t d : m.drops_by_class) s.drops += d;
  if (m.lost_receptions > 0) {
    const double delivered = static_cast<double>(m.broadcast_receptions);
    s.delivered_fraction =
        delivered / (delivered + static_cast<double>(m.lost_receptions));
  }
  s.reception_delay_mean = m.reception_delay.mean();
  s.unicast_delay_mean = m.unicast_delay.mean();
  return s;
}

SimStats stats_of(const harness::ExperimentResult& r) {
  SimStats s;
  s.events = r.events_processed;
  s.transmissions = r.transmissions;
  s.drops = r.drops;
  s.delivered_fraction = r.delivered_fraction;
  s.reception_delay_mean = r.reception_delay_mean;
  s.unicast_delay_mean = r.unicast_delay_mean;
  return s;
}

double wait_mean(const net::Metrics& m) {
  double sum = 0.0;
  double count = 0.0;
  for (const stats::RunningStat& w : m.wait_by_class) {
    sum += w.mean() * static_cast<double>(w.count());
    count += static_cast<double>(w.count());
  }
  return count > 0.0 ? sum / count : 0.0;
}

/// The traced run's decorators for one simulation thread (the serial
/// stack, or one shard), interposed in front of whatever the stack has
/// attached to each seam.  Engine and workload hold their addresses.
class Instruments {
 public:
  Instruments(sim::Simulator& sim, net::Engine& engine,
              traffic::Workload& workload, net::Observer* extra_observer,
              Nest& nest)
      : nest_(nest),
        tee_(engine.observer(), extra_observer, &observer_, &nest_),
        gate_(workload.gate(), nest_,
              [this, &sim] {
                pending_.push_back(static_cast<double>(sim.pending()));
              },
              kSampleEvery),
        overload_(engine.overload(), nest_),
        recovery_(engine.recovery(), nest_) {
    engine.set_observer(&tee_);
    workload.set_gate(&gate_);
    engine.set_overload(&overload_);
    engine.set_recovery(&recovery_);
  }
  Instruments(const Instruments&) = delete;
  Instruments& operator=(const Instruments&) = delete;

  const Nest& nest() const { return nest_; }
  const SeamCounter& observer() const { return observer_; }
  const ObserverTee& tee() const { return tee_; }
  const SeamCounter& gate() const { return gate_.counter(); }
  const SeamCounter& overload() const { return overload_.counter(); }
  const SeamCounter& recovery() const { return recovery_.counter(); }
  const std::vector<double>& pending() const { return pending_; }

 private:
  Nest& nest_;
  SeamCounter observer_;
  std::vector<double> pending_;
  ObserverTee tee_;
  TimedGate gate_;
  TimedOverloadHook overload_;
  TimedRecoveryHook recovery_;
};

/// Per-layer values every workload reports, in report order; a layer a
/// workload does not exercise stays 0.
Layers zero_layers() {
  static const char* const kNames[] = {
      "sim.events", "sim.pending_p50", "sim.pending_max", "sim.hold_ns",
      "net.self_ns_per_event", "net.transmissions", "net.utilization_mean",
      "net.wait_mean", "net.drops", "net.inflight_tasks_end",
      "queueing.fifo_ns", "queueing.backlog_mean",
      "routing.on_task_calls", "routing.on_receive_calls",
      "routing.on_receive_ns", "routing.setup_s",
      "topology.setup_s", "harness.setup_s",
      "core.setup_s", "core.rounds", "core.events_per_round",
      "core.shard_imbalance", "core.speedup",
      "traffic.arrivals", "traffic.arrivals_per_event", "traffic.gate_calls",
      "traffic.gate_ns",
      "obs.observer_calls", "obs.observer_ns", "obs.share", "obs.trace_bytes",
      "obs.trace_bytes_per_event",
      "fault.link_failures", "fault.drops",
      "recovery.retransmissions", "recovery.retries_exhausted",
      "recovery.hook_calls", "recovery.hook_ns",
      "overload.shed_copies", "overload.hook_calls", "overload.hook_ns",
      "adversary.denied", "adversary.quarantines", "adversary.honest_delivered",
      "service.save_ms_p50", "service.snapshot_bytes", "service.restore_ms",
      "service.advance_ms_p50", "service.rss_growth_mb",
      "trace_overhead_x",
  };
  Layers l;
  for (const char* n : kNames) l.emplace_back(n, 0.0);
  return l;
}

void set(Layers& l, const std::string& name, double v) { layer(l, name) = v; }

/// Times the set-up calls a stack makes, each on its own, for stacks
/// that make them internally (ParallelEngine, ServeSession).
void standalone_setup(const harness::ExperimentSpec& spec, SpanLog& spans,
                      int parent, Layers& l) {
  int s = spans.begin("topology.setup", parent);
  const topo::Torus torus(spec.shape, spec.wraparound);
  set(l, "topology.setup_s", spans.end(s));
  s = spans.begin("harness.setup", parent);
  const queueing::Rates rates =
      harness::derive_rates(torus, spec, spec.length.mean());
  [[maybe_unused]] const net::EngineConfig ec =
      harness::build_engine_config(spec);
  [[maybe_unused]] const traffic::WorkloadConfig wc =
      harness::build_traffic_config(spec, rates, 0.0);
  set(l, "harness.setup_s", spans.end(s));
  s = spans.begin("routing.setup", parent);
  [[maybe_unused]] const auto policy = core::make_policy(
      torus, spec.scheme, rates.lambda_b, rates.lambda_r);
  [[maybe_unused]] const routing::StarProbabilities probs =
      spec.scheme.probabilities(torus, rates.lambda_b, rates.lambda_r);
  set(l, "routing.setup_s", spans.end(s));
}

/// Layer values every stack reports the same way.
void common_layers(Layers& l, const net::Metrics& m, const SimStats& st,
                   const std::vector<double>& pending,
                   std::uint64_t arrivals, std::size_t links) {
  const double events = static_cast<double>(st.events);
  set(l, "sim.events", events);
  set(l, "sim.pending_p50", median(pending));
  set(l, "sim.pending_max",
      pending.empty() ? 0.0
                      : *std::max_element(pending.begin(), pending.end()));
  set(l, "net.transmissions", static_cast<double>(m.transmissions));
  set(l, "net.utilization_mean", m.mean_utilization());
  set(l, "net.wait_mean", wait_mean(m));
  set(l, "net.drops", static_cast<double>(st.drops));
  set(l, "queueing.backlog_mean",
      m.inflight_copies.mean() / static_cast<double>(links));
  set(l, "traffic.arrivals", static_cast<double>(arrivals));
  set(l, "traffic.arrivals_per_event",
      events > 0.0 ? static_cast<double>(arrivals) / events : 0.0);
  set(l, "fault.link_failures", static_cast<double>(m.link_failures));
  set(l, "fault.drops", static_cast<double>(m.fault_drops));
  std::uint64_t shed = 0;
  for (const std::uint64_t c : m.shed_copies_by_class) shed += c;
  set(l, "overload.shed_copies", static_cast<double>(shed));
}

/// Seam counters summed over the instruments of every thread.
void seam_layers(Layers& l, const std::vector<Instruments*>& ins,
                 double run_s, std::uint64_t events, unsigned threads) {
  SeamCounter obs, gate, ovl, rec;
  std::uint64_t top_ns = 0;
  std::uint64_t tasks = 0;
  std::uint64_t transmissions = 0;
  for (const Instruments* i : ins) {
    for (auto [sum, part] :
         {std::pair{&obs, &i->observer()}, std::pair{&gate, &i->gate()},
          std::pair{&ovl, &i->overload()}, std::pair{&rec, &i->recovery()}}) {
      sum->calls += part->calls;
      sum->ns += part->ns;
      sum->self_ns += part->self_ns;
    }
    top_ns += i->nest().top_ns;
    tasks += i->tee().tasks_created();
    transmissions += i->tee().transmissions();
  }
  set(l, "obs.observer_calls", static_cast<double>(obs.calls));
  set(l, "obs.observer_ns", obs.self_ns_per_call());
  set(l, "obs.share", run_s > 0.0 ? static_cast<double>(obs.ns) * 1e-9 /
                                        (run_s * threads)
                                  : 0.0);
  set(l, "traffic.gate_calls", static_cast<double>(gate.calls));
  set(l, "traffic.gate_ns", gate.self_ns_per_call());
  set(l, "overload.hook_calls", static_cast<double>(ovl.calls));
  set(l, "overload.hook_ns", ovl.self_ns_per_call());
  set(l, "recovery.hook_calls", static_cast<double>(rec.calls));
  set(l, "recovery.hook_ns", rec.self_ns_per_call());
  set(l, "routing.on_task_calls", static_cast<double>(tasks));
  set(l, "routing.on_receive_calls", static_cast<double>(transmissions));
  // Engine time: the run phase on every thread minus the outermost timed
  // seam calls.  On the sharded engine this includes barrier waits.
  const double run_ns = run_s * 1e9 * threads;
  set(l, "net.self_ns_per_event",
      events > 0 ? (run_ns - static_cast<double>(top_ns)) /
                       static_cast<double>(events)
                 : 0.0);
}

// --- bcast16: the serial engine, assembled as harness::run_experiment
// assembles it, so a traced run can decorate the routing policy too.

OpResult run_serial(const WorkloadSpec& w, bool traced, SpanLog& spans) {
  const harness::ExperimentSpec& spec = w.spec;
  OpResult r;
  const int op = spans.begin(traced ? "op.traced" : "op");
  const int setup = spans.begin("setup", op);
  int s = spans.begin("topology.setup", setup);
  const topo::Torus torus(spec.shape, spec.wraparound);
  const double topo_s = spans.end(s);
  sim::Rng rng(spec.seed);
  s = spans.begin("harness.setup", setup);
  harness::validate_windows(spec);
  const double mean_len = spec.length.mean();
  const queueing::Rates rates = harness::derive_rates(torus, spec, mean_len);
  const double harness_s = spans.end(s);
  s = spans.begin("routing.setup", setup);
  auto policy =
      core::make_policy(torus, spec.scheme, rates.lambda_b, rates.lambda_r);
  const double lambda_m =
      harness::estimate_lambda_m(spec, *policy, torus, mean_len);
  // run_experiment solves the probabilities again for its result; the
  // benchmark does the same set-up work.
  [[maybe_unused]] const routing::StarProbabilities probs =
      spec.scheme.probabilities(torus, rates.lambda_b, rates.lambda_r);
  const double routing_s = spans.end(s);

  Nest nest;
  std::optional<TimedPolicy> timed_policy;
  if (traced) timed_policy.emplace(*policy, nest);
  net::RoutingPolicy& engine_policy =
      traced ? static_cast<net::RoutingPolicy&>(*timed_policy) : *policy;

  s = spans.begin("net.setup", setup);
  sim::Simulator sim(spec.scheduler);
  net::Engine engine(sim, torus, engine_policy, rng,
                     harness::build_engine_config(spec));
  const traffic::WorkloadConfig traffic_cfg =
      harness::build_traffic_config(spec, rates, lambda_m);
  traffic::Workload workload(sim, engine, rng, traffic_cfg);
  sim.at(spec.warmup,
         [&engine](sim::Simulator&) { engine.begin_measurement(); });
  sim.at(traffic_cfg.stop_time,
         [&engine](sim::Simulator&) { engine.end_measurement(); });
  spans.end(s);
  std::unique_ptr<Instruments> ins;
  if (traced) {
    ins = std::make_unique<Instruments>(sim, engine, workload, nullptr, nest);
  }
  workload.start();
  r.setup_s = spans.end(setup);

  const int run = spans.begin("run", op);
  sim.run(std::numeric_limits<double>::infinity(), spec.max_events);
  r.run_s = spans.end(run);
  r.stats = stats_of(engine.metrics(), sim.events_executed());
  r.wall_s = spans.end(op);

  if (traced) {
    Layers& l = r.layers = zero_layers();
    common_layers(l, engine.metrics(), r.stats, ins->pending(),
                  workload.generated(),
                  static_cast<std::size_t>(torus.link_count()));
    seam_layers(l, {ins.get()}, r.run_s, r.stats.events, 1);
    set(l, "routing.on_receive_ns",
        timed_policy->on_receive_counter().self_ns_per_call());
    set(l, "routing.on_task_calls",
        static_cast<double>(timed_policy->on_task_counter().calls));
    set(l, "routing.on_receive_calls",
        static_cast<double>(timed_policy->on_receive_counter().calls));
    set(l, "topology.setup_s", topo_s);
    set(l, "harness.setup_s", harness_s);
    set(l, "routing.setup_s", routing_s);
    std::uint64_t inflight = 0;
    for (std::size_t k = 0; k < net::kTaskKinds; ++k) {
      inflight += engine.inflight_tasks(static_cast<net::TaskKind>(k));
    }
    set(l, "net.inflight_tasks_end", static_cast<double>(inflight));
  }
  return r;
}

// --- mix_asym: the sharded engine, assembled as harness::run_experiment
// assembles it for shards >= 1.

OpResult run_sharded(const WorkloadSpec& w, bool traced, SpanLog& spans) {
  const harness::ExperimentSpec& spec = w.spec;
  OpResult r;
  const int op = spans.begin(traced ? "op.traced" : "op");
  const int setup = spans.begin("setup", op);
  harness::validate_windows(spec);
  const topo::Torus torus(spec.shape, spec.wraparound);
  const queueing::Rates rates =
      harness::derive_rates(torus, spec, spec.length.mean());
  // Solved for its result, as in run_experiment.
  [[maybe_unused]] const routing::StarProbabilities probs =
      spec.scheme.probabilities(torus, rates.lambda_b, rates.lambda_r);
  core::ParallelConfig pc;
  pc.shards = spec.shards;
  pc.jobs = spec.shard_jobs;
  pc.seed = spec.seed;
  pc.window = static_cast<double>(spec.length.min());
  pc.max_events = spec.max_events;
  pc.max_inflight = spec.max_inflight;
  const int core_span = spans.begin("core.setup", setup);
  core::ParallelEngine par(torus, spec.scheme, rates.lambda_b, rates.lambda_r,
                           harness::build_engine_config(spec),
                           harness::build_traffic_config(spec, rates, 0.0), pc);
  const double core_s = spans.end(core_span);
  const double stop_time = spec.warmup + spec.measure;
  for (std::uint32_t k = 0; k < par.shards(); ++k) {
    net::Engine* eng = &par.engine(k);
    par.simulator(k).at(spec.warmup, [eng](sim::Simulator&) {
      eng->begin_measurement();
    });
    par.simulator(k).at(stop_time,
                        [eng](sim::Simulator&) { eng->end_measurement(); });
  }
  std::vector<Nest> nests(par.shards());
  std::vector<std::unique_ptr<Instruments>> ins;
  if (traced) {
    for (std::uint32_t k = 0; k < par.shards(); ++k) {
      ins.push_back(std::make_unique<Instruments>(par.simulator(k),
                                                  par.engine(k),
                                                  par.workload(k), nullptr,
                                                  nests[k]));
    }
  }
  r.setup_s = spans.end(setup);
  r.threads = par.jobs();

  const int run = spans.begin("run", op);
  par.run();
  r.run_s = spans.end(run);
  const net::Metrics m = par.merged_metrics();
  r.stats = stats_of(m, par.events_executed());
  r.wall_s = spans.end(op);

  if (traced) {
    Layers& l = r.layers = zero_layers();
    std::vector<double> pending;
    std::uint64_t arrivals = 0;
    std::vector<Instruments*> raw;
    double max_events = 0.0;
    std::uint64_t inflight = 0;
    for (std::uint32_t k = 0; k < par.shards(); ++k) {
      const Instruments& i = *ins[k];
      pending.insert(pending.end(), i.pending().begin(), i.pending().end());
      arrivals += par.workload(k).generated();
      raw.push_back(ins[k].get());
      max_events = std::max(
          max_events, static_cast<double>(par.simulator(k).events_executed()));
      for (std::size_t t = 0; t < net::kTaskKinds; ++t) {
        inflight += par.engine(k).inflight_tasks(static_cast<net::TaskKind>(t));
      }
    }
    common_layers(l, m, r.stats, pending, arrivals,
                  static_cast<std::size_t>(torus.link_count()));
    seam_layers(l, raw, r.run_s, r.stats.events, r.threads);
    set(l, "net.inflight_tasks_end", static_cast<double>(inflight));
    set(l, "core.setup_s", core_s);
    const double rounds = static_cast<double>(par.rounds());
    set(l, "core.rounds", rounds);
    set(l, "core.events_per_round",
        rounds > 0.0 ? static_cast<double>(r.stats.events) / rounds : 0.0);
    const double mean_events =
        static_cast<double>(r.stats.events) / static_cast<double>(par.shards());
    set(l, "core.shard_imbalance",
        mean_events > 0.0 ? max_events / mean_events : 0.0);
    standalone_setup(spec, spans, op, l);
  }
  return r;
}

// --- serve_guarded: a ServeSession with every guard subsystem on, a
// discarding JSONL trace, scripted arrivals, and in-memory snapshots.

std::vector<service::TimedArrival> scripted_arrivals(const WorkloadSpec& w) {
  const harness::ExperimentSpec& spec = w.spec;
  const double horizon = spec.warmup + spec.measure;
  const auto nodes = static_cast<std::uint64_t>(spec.shape.node_count());
  std::mt19937_64 gen(spec.seed ^ 0x5c1e7ed5ca1ab1eULL);
  std::uniform_real_distribution<double> when(0.0, horizon);
  std::uniform_int_distribution<std::uint64_t> node(0, nodes - 1);
  std::bernoulli_distribution broadcast(0.02);
  std::vector<service::TimedArrival> out(
      static_cast<std::size_t>(w.scripted_rate * horizon));
  for (service::TimedArrival& ta : out) {
    ta.time = when(gen);
    ta.arrival.source = static_cast<topo::NodeId>(node(gen));
    if (broadcast(gen)) {
      ta.arrival.kind = net::TaskKind::kBroadcast;
      ta.arrival.dest = ta.arrival.source;
    } else {
      ta.arrival.kind = net::TaskKind::kUnicast;
      do {
        ta.arrival.dest = static_cast<topo::NodeId>(node(gen));
      } while (ta.arrival.dest == ta.arrival.source);
    }
  }
  std::sort(out.begin(), out.end(),
            [](const service::TimedArrival& a, const service::TimedArrival& b) {
              return a.time < b.time;
            });
  return out;
}

service::ServeConfig serve_config(const WorkloadSpec& w) {
  service::ServeConfig cfg;
  cfg.spec = w.spec;
  return cfg;
}

OpResult run_serve(const WorkloadSpec& w, bool traced, SpanLog& spans) {
  const harness::ExperimentSpec& spec = w.spec;
  const service::ServeConfig cfg = serve_config(w);
  const std::vector<service::TimedArrival> scripted = scripted_arrivals(w);
  OpResult r;

  const int op = spans.begin(traced ? "op.traced" : "op");
  const int setup = spans.begin("setup", op);
  service::ServeSession session(cfg);
  session.add_arrivals(scripted);
  CountingBuf trace_bytes;
  std::ostream trace_os(&trace_bytes);
  obs::JsonlTraceSink sink(trace_os);
  obs::EngineProbe trace_probe(nullptr, &sink);
  auto* recorder =
      dynamic_cast<adversary::ClassRecorder*>(session.engine().observer());
  Nest nest;
  std::optional<ObserverTee> tee;
  std::unique_ptr<Instruments> ins;
  if (traced) {
    ins = std::make_unique<Instruments>(session.simulator(), session.engine(),
                                        session.workload(), &trace_probe, nest);
  } else {
    tee.emplace(session.engine().observer(), &trace_probe);
    session.engine().set_observer(&*tee);
  }
  r.setup_s = spans.end(setup);

  const int run = spans.begin("run", op);
  const double horizon = spec.warmup + spec.measure;
  const auto checkpoints =
      static_cast<std::uint32_t>(horizon / w.checkpoint_period);
  std::vector<std::string> held;
  std::vector<double> advance_ms;
  std::vector<double> rss;
  std::string last;
  for (std::uint32_t k = 1; k <= checkpoints; ++k) {
    std::uint64_t t0 = now_ns();
    session.advance(static_cast<double>(k) * w.checkpoint_period);
    advance_ms.push_back(ms_since(t0));
    std::ostringstream snap(std::ios::binary);
    t0 = now_ns();
    session.save_snapshot(snap);
    r.ckpt_ms.push_back(ms_since(t0));
    last = std::move(snap).str();
    if (k % w.hold_every == 0) held.push_back(last);
    if (traced) rss.push_back(rss_mb());
  }
  std::uint64_t t0 = now_ns();
  session.drain();
  advance_ms.push_back(ms_since(t0));
  r.run_s = spans.end(run);
  r.snapshot_bytes = last.size();
  r.stats = stats_of(session.engine().metrics(),
                     session.simulator().events_executed());

  const int restores = spans.begin("restore", op);
  for (const std::string& bytes : held) {
    std::istringstream is(bytes, std::ios::binary);
    t0 = now_ns();
    service::ServeSession restored(cfg, is);
    r.restore_ms.push_back(ms_since(t0));
    std::ostringstream again(std::ios::binary);
    restored.save_snapshot(again);
    if (std::move(again).str() != bytes) r.roundtrip_ok = false;
  }
  spans.end(restores);
  r.wall_s = spans.end(op);

  if (traced) {
    Layers& l = r.layers = zero_layers();
    const net::Metrics& m = session.engine().metrics();
    common_layers(l, m, r.stats, ins->pending(),
                  session.workload().generated() + scripted.size(),
                  static_cast<std::size_t>(
                      topo::Torus(spec.shape, spec.wraparound).link_count()));
    seam_layers(l, {ins.get()}, r.run_s, r.stats.events, 1);
    std::uint64_t inflight = 0;
    for (std::size_t k = 0; k < net::kTaskKinds; ++k) {
      inflight +=
          session.engine().inflight_tasks(static_cast<net::TaskKind>(k));
    }
    set(l, "net.inflight_tasks_end", static_cast<double>(inflight));
    set(l, "obs.trace_bytes", static_cast<double>(trace_bytes.bytes()));
    set(l, "obs.trace_bytes_per_event",
        static_cast<double>(trace_bytes.bytes()) /
            static_cast<double>(r.stats.events));
    if (const recovery::RecoveryManager* rm = session.recovery()) {
      set(l, "recovery.retransmissions",
          static_cast<double>(rm->stats().retransmissions()));
      set(l, "recovery.retries_exhausted",
          static_cast<double>(rm->stats().tasks_exhausted));
    }
    if (const adversary::Policer* p = session.policer()) {
      set(l, "adversary.denied",
          static_cast<double>(p->stats().denied_quarantine +
                              p->stats().denied_ratelimit));
      set(l, "adversary.quarantines",
          static_cast<double>(p->stats().quarantines));
    }
    if (recorder != nullptr) {
      set(l, "adversary.honest_delivered",
          recorder->honest_delivered_fraction());
    }
    set(l, "service.save_ms_p50", median(r.ckpt_ms));
    set(l, "service.snapshot_bytes", static_cast<double>(r.snapshot_bytes));
    set(l, "service.restore_ms", median(r.restore_ms));
    set(l, "service.advance_ms_p50", median(advance_ms));
    set(l, "service.rss_growth_mb",
        rss.empty() ? 0.0 : rss.back() - rss.front());
    standalone_setup(spec, spans, op, l);
  }
  return r;
}

}  // namespace

double& layer(Layers& l, const std::string& name) {
  for (auto& [n, value] : l) {
    if (n == name) return value;
  }
  throw std::logic_error("unknown layer metric " + name);
}

Workload parse_workload(const std::string& name) {
  if (name == "bcast16") return Workload::kBcast16;
  if (name == "mix_asym") return Workload::kMixAsym;
  if (name == "serve_guarded") return Workload::kServeGuarded;
  throw std::invalid_argument("unknown workload '" + name +
                              "' (known: bcast16, mix_asym, serve_guarded)");
}

WorkloadSpec make_spec(Workload kind, std::uint64_t seed, bool tiny) {
  WorkloadSpec w;
  w.kind = kind;
  harness::ExperimentSpec& s = w.spec;
  s.scheme = core::Scheme::priority_star();
  s.seed = seed;
  switch (kind) {
    case Workload::kBcast16:
      s.shape = tiny ? topo::Shape{8, 8} : topo::Shape{16, 16};
      s.rho = 0.9;
      s.broadcast_fraction = 1.0;
      s.warmup = tiny ? 100.0 : 1000.0;
      s.measure = tiny ? 400.0 : 15000.0;
      break;
    case Workload::kMixAsym:
      s.shape = tiny ? topo::Shape{4, 4, 8} : topo::Shape{16, 16, 32};
      s.rho = 0.6;
      s.broadcast_fraction = 0.5;
      s.warmup = tiny ? 20.0 : 50.0;
      s.measure = 100.0;
      // Three shards, not four: at four, each shard's calendar queue
      // holds ~7-8k pending events, right at its 2 x 4096-bucket doubling
      // threshold, so whether a shard resizes mid-run (freeing the
      // capacity drained buckets retain) depends on the seed, and peak
      // RSS varies 314-441 MB across seeds.  One worker thread: the
      // cores a shared host gives a process vary too much for a steady
      // multi-threaded wall time; core.speedup reports threads.
      // perfbench/NOTES.md has the measurements.
      s.shards = 3;
      s.shard_jobs = 1;
      break;
    case Workload::kServeGuarded:
      s.shape = tiny ? topo::Shape{8, 8} : topo::Shape{16, 16};
      s.rho = 0.8;
      s.broadcast_fraction = 0.5;
      s.warmup = tiny ? 100.0 : 500.0;
      s.measure = tiny ? 400.0 : 700.0;
      s.fault_mtbf = 20000.0;
      s.fault_mttr = 20.0;
      s.max_retries = 3;
      s.overload.mode = overload::OverloadMode::kShed;
      // Copies per link average ~1.8 at this load; attack pulses push
      // the mean over the trip level, so the shedder does real work.
      s.overload.sat_high = 2.0;
      s.overload.sat_low = 1.5;
      s.attack.kind = adversary::AttackKind::kPulse;
      s.attack.intensity = 2.0;
      s.policing.enabled = true;
      s.collect_link_metrics = true;
      w.checkpoint_period = (s.warmup + s.measure) / 120.0;
      w.hold_every = 15;
      w.scripted_rate = tiny ? 0.5 : 8.0;
      break;
  }
  return w;
}

OpResult run_op(const WorkloadSpec& w, bool traced, SpanLog& spans) {
  switch (w.kind) {
    case Workload::kBcast16: return run_serial(w, traced, spans);
    case Workload::kMixAsym: return run_sharded(w, traced, spans);
    case Workload::kServeGuarded: return run_serve(w, traced, spans);
  }
  throw std::logic_error("unreachable");
}

SimStats run_reference(const WorkloadSpec& w) {
  switch (w.kind) {
    case Workload::kBcast16: {
      harness::ExperimentSpec spec = w.spec;
      spec.scheduler = sim::SchedulerKind::kHeap;
      return stats_of(harness::run_experiment(spec));
    }
    case Workload::kMixAsym:
      return stats_of(harness::run_experiment(w.spec));
    case Workload::kServeGuarded: {
      service::ServeSession session(serve_config(w));
      session.add_arrivals(scripted_arrivals(w));
      session.drain();
      return stats_of(session.engine().metrics(),
                      session.simulator().events_executed());
    }
  }
  throw std::logic_error("unreachable");
}

}  // namespace perfbench
