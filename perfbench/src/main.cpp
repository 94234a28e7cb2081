// pstar_perfbench: one benchmark operation in one fresh process.
//
//   usage: pstar_perfbench --workload NAME --seed N [--mode MODE]
//                          [--jobs N] [--tiny] [--spans FILE]
//
//   --mode op         one untraced run; prints its simulated statistics,
//                     host timings, peak RSS and the calibration kernel's
//                     time just before and after it (the default)
//   --mode trace      an untraced run, the same run with every seam
//                     decorated, and the micro-benchmarks; prints the
//                     per-layer values and whether both runs agree
//   --mode reference  the reference statistics through the product's
//                     one-call path (see run_reference)
//   --jobs N          worker threads for mix_asym's reference run and
//                     its core.speedup run (operations use one)
//   --tiny            smoke-test sizes
//   --spans FILE      write the span log (JSON) at exit
//
// Prints one JSON object on one line.  perfbench/run.py drives it.

#include <sys/resource.h>

#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "calib.hpp"
#include "micro.hpp"
#include "pstar/topology/torus.hpp"
#include "seams.hpp"
#include "workloads.hpp"

namespace perfbench {

bool SpanLog::write(const std::string& path) const {
  std::ofstream os(path);
  os << "[";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::uint64_t child = 0;
    for (const Span& c : spans_) {
      if (c.parent == static_cast<int>(i)) child += c.end_ns - c.start_ns;
    }
    const std::uint64_t dur = s.end_ns - s.start_ns;
    os << (i == 0 ? "" : ",") << "\n {\"name\":\"" << s.name
       << "\",\"id\":" << i << ",\"parent\":" << s.parent
       << ",\"start_ns\":" << s.start_ns << ",\"dur_ns\":" << dur
       << ",\"self_ns\":" << (dur > child ? dur - child : 0) << "}";
  }
  os << "\n]\n";
  return static_cast<bool>(os);
}

namespace {

/// Peak resident set of this process so far, in MiB.
double peak_rss_mb() {
  rusage ru{};
  ::getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

std::string num(double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string num_list(const std::vector<double>& v) {
  std::string out = "[";
  for (std::size_t i = 0; i < v.size(); ++i) {
    if (i > 0) out += ',';
    out += num(v[i]);
  }
  return out + "]";
}

std::string stats_json(const SimStats& s) {
  std::ostringstream os;
  os << "{\"events\":" << s.events << ",\"transmissions\":" << s.transmissions
     << ",\"drops\":" << s.drops
     << ",\"delivered_fraction\":" << num(s.delivered_fraction)
     << ",\"reception_delay_mean\":" << num(s.reception_delay_mean)
     << ",\"unicast_delay_mean\":" << num(s.unicast_delay_mean) << "}";
  return os.str();
}

std::string op_json(const OpResult& r) {
  std::ostringstream os;
  os << "\"stats\":" << stats_json(r.stats) << ",\"setup_s\":" << num(r.setup_s)
     << ",\"run_s\":" << num(r.run_s) << ",\"wall_s\":" << num(r.wall_s)
     << ",\"threads\":" << r.threads << ",\"ckpt_ms\":" << num_list(r.ckpt_ms)
     << ",\"restore_ms\":" << num_list(r.restore_ms)
     << ",\"snapshot_bytes\":" << r.snapshot_bytes
     << ",\"roundtrip_ok\":" << (r.roundtrip_ok ? "true" : "false");
  return os.str();
}

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  std::string mode = "op";
  unsigned jobs = 0;
  bool tiny = false;
  std::string spans;
};

Args parse(int argc, char** argv) {
  Args a;
  bool have_workload = false;
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) {
        throw std::invalid_argument("missing value after " + flag);
      }
      return argv[++i];
    };
    if (flag == "--workload") {
      a.workload = value();
      have_workload = true;
    } else if (flag == "--seed") {
      a.seed = std::stoull(value());
      have_seed = true;
    } else if (flag == "--mode") {
      a.mode = value();
    } else if (flag == "--jobs") {
      a.jobs = static_cast<unsigned>(std::stoul(value()));
    } else if (flag == "--tiny") {
      a.tiny = true;
    } else if (flag == "--spans") {
      a.spans = value();
    } else {
      throw std::invalid_argument("unknown flag " + flag);
    }
  }
  if (!have_workload || !have_seed) {
    throw std::invalid_argument("--workload and --seed are required");
  }
  if (a.mode != "op" && a.mode != "trace" && a.mode != "reference") {
    throw std::invalid_argument("unknown mode '" + a.mode +
                                "' (known: op, trace, reference)");
  }
  return a;
}

int run(const Args& args) {
  WorkloadSpec w = make_spec(parse_workload(args.workload), args.seed,
                             args.tiny);
  SpanLog spans;
  std::string out;
  if (args.mode == "reference") {
    // Results never depend on the thread count, so the reference runs
    // on more threads than the operations: one more independent check.
    w.spec.shard_jobs = args.jobs;
    out = "{\"stats\":" + stats_json(run_reference(w)) + "}";
  } else if (args.mode == "op") {
    // The calibration kernel brackets the operation.  The process's peak
    // RSS is read before the second pass touches the kernel's pages
    // again; the first pass's pages are released before set-up.
    const double before = calibration_s();
    release_calibration_pages();
    const OpResult r = run_op(w, false, spans);
    const double rss_mb = peak_rss_mb();
    const double after = calibration_s();
    out = "{" + op_json(r) + ",\"peak_rss_mb\":" + num(rss_mb) +
          ",\"calib_s\":" + num_list({before, after}) + "}";
  } else {
    const OpResult plain = run_op(w, false, spans);
    OpResult traced = run_op(w, true, spans);
    bool agree = traced.stats == plain.stats;
    Layers& l = traced.layers;
    const int micro = spans.begin("micro");
    const int hold = spans.begin("sim.hold", micro);
    layer(l, "sim.hold_ns") = scheduler_hold_ns(
        static_cast<std::size_t>(layer(l, "sim.pending_p50")),
        layer(l, "traffic.arrivals_per_event"), args.seed);
    spans.end(hold);
    const int fifo = spans.begin("queueing.fifo", micro);
    const auto links = static_cast<std::size_t>(
        pstar::topo::Torus(w.spec.shape, w.spec.wraparound).link_count());
    constexpr std::size_t kClasses = pstar::net::kPriorityClasses;
    layer(l, "queueing.fifo_ns") =
        fifo_ns(links * kClasses, layer(l, "queueing.backlog_mean") / kClasses,
                args.seed);
    spans.end(fifo);
    spans.end(micro);
    if (w.kind == Workload::kMixAsym) {
      // Same shards on --jobs threads: results are thread-count
      // invariant, so only the host time differs.
      WorkloadSpec threaded = w;
      threaded.spec.shard_jobs = args.jobs;
      const OpResult par = run_op(threaded, false, spans);
      layer(l, "core.speedup") =
          par.run_s > 0.0 ? plain.run_s / par.run_s : 0.0;
      agree = agree && par.stats == plain.stats;
    }
    layer(l, "trace_overhead_x") =
        plain.wall_s > 0.0 ? traced.wall_s / plain.wall_s : 0.0;
    std::ostringstream os;
    os << "{" << op_json(traced)
       << ",\"untraced\":{" << op_json(plain) << "}"
       << ",\"fidelity\":" << (agree ? "true" : "false")
       << ",\"layers\":{";
    for (std::size_t i = 0; i < l.size(); ++i) {
      os << (i == 0 ? "" : ",") << "\"" << l[i].first
         << "\":" << num(l[i].second);
    }
    os << "}}";
    out = os.str();
  }
  if (!args.spans.empty() && !spans.write(args.spans)) {
    std::cerr << "pstar_perfbench: cannot write spans to " << args.spans
              << "\n";
    return 1;
  }
  std::cout << out << std::endl;
  return 0;
}

}  // namespace

}  // namespace perfbench

int main(int argc, char** argv) {
  try {
    return perfbench::run(perfbench::parse(argc, argv));
  } catch (const std::exception& e) {
    std::cerr << "pstar_perfbench: " << e.what() << "\n";
    return 2;
  }
}
