#pragma once

/// \file workloads.hpp
/// The benchmark's three workloads and what one operation (one fresh
/// process running one workload once) measures.

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "pstar/harness/experiment.hpp"

namespace perfbench {

class SpanLog;

enum class Workload { kBcast16, kMixAsym, kServeGuarded };

/// Parses a workload name; throws std::invalid_argument on unknown names.
Workload parse_workload(const std::string& name);

/// `tiny` shrinks every workload to a sub-second smoke-test size.
struct WorkloadSpec {
  Workload kind = Workload::kBcast16;
  pstar::harness::ExperimentSpec spec;
  // serve_guarded only.
  double checkpoint_period = 0.0;  ///< simulated time between snapshots
  std::uint32_t hold_every = 0;    ///< keep every n-th snapshot for restores
  double scripted_rate = 0.0;      ///< scripted arrivals per time unit
};

WorkloadSpec make_spec(Workload kind, std::uint64_t seed, bool tiny);

/// The simulated statistics that gate correctness: a perf change must
/// leave every one of them identical.
struct SimStats {
  std::uint64_t events = 0;
  std::uint64_t transmissions = 0;
  std::uint64_t drops = 0;
  double delivered_fraction = 1.0;
  double reception_delay_mean = 0.0;
  double unicast_delay_mean = 0.0;

  bool operator==(const SimStats&) const = default;
};

/// Named per-layer values in report order.
using Layers = std::vector<std::pair<std::string, double>>;

/// The value named `name`; throws std::logic_error when there is none.
double& layer(Layers& l, const std::string& name);

struct OpResult {
  SimStats stats;
  double setup_s = 0.0;  ///< spec -> first event, no file I/O
  double run_s = 0.0;    ///< host seconds of the run phase
  double wall_s = 0.0;   ///< set-up + run (+ restores for serve_guarded)
  unsigned threads = 1;
  // serve_guarded only.
  std::vector<double> ckpt_ms;     ///< host time of each save_snapshot
  std::vector<double> restore_ms;  ///< host time of each restore
  std::uint64_t snapshot_bytes = 0;
  bool roundtrip_ok = true;
  // Traced runs only.
  Layers layers;
};

/// One operation.  With `traced`, decorators sit on every seam the stack
/// exposes and `layers` is filled; spans go to `spans` either way.
OpResult run_op(const WorkloadSpec& w, bool traced, SpanLog& spans);

/// The reference statistics through the product's one-call path rather
/// than the benchmark's own assembly: bcast16 runs harness::run_experiment
/// on the heap scheduler (heap == calendar), mix_asym runs it as specified
/// (the traced run checks the one-thread run separately), and
/// serve_guarded drains an uninterrupted session with no snapshots and
/// no trace (checkpointing and observers never change a run).
SimStats run_reference(const WorkloadSpec& w);

}  // namespace perfbench
