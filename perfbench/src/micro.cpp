#include "micro.hpp"

#include <algorithm>
#include <cmath>
#include <random>
#include <vector>

#include "pstar/queueing/fifo_slab.hpp"
#include "pstar/sim/event_queue.hpp"
#include "seams.hpp"

namespace perfbench {

namespace {

constexpr std::size_t kOps = 1u << 20;
constexpr int kRounds = 7;

/// Keeps the timed loops' results observable.
volatile std::uint64_t g_sink = 0;

/// Median over rounds of host ns per operation of `round()`, which runs
/// kOps operations.
template <typename F>
double median_ns_per_op(F&& round) {
  std::vector<double> ns;
  for (int r = 0; r < kRounds; ++r) {
    const std::uint64_t t0 = now_ns();
    round();
    ns.push_back(static_cast<double>(now_ns() - t0) /
                 static_cast<double>(kOps));
  }
  std::sort(ns.begin(), ns.end());
  return ns[ns.size() / 2];
}

}  // namespace

double scheduler_hold_ns(std::size_t pending, double offgrid,
                         std::uint64_t seed) {
  std::mt19937_64 gen(seed);
  std::exponential_distribution<double> gap(1.0);
  std::bernoulli_distribution off(std::clamp(offgrid, 0.0, 1.0));
  std::vector<double> step(kOps);
  for (double& s : step) s = off(gen) ? gap(gen) : 1.0;
  auto q = pstar::sim::make_scheduler(pstar::sim::SchedulerKind::kCalendar);
  const auto noop = [](pstar::sim::Simulator&) {};
  for (std::size_t i = 0; i < std::max<std::size_t>(pending, 1); ++i) {
    q->push(off(gen) ? gap(gen) : std::floor(gap(gen) * 4.0) + 1.0, noop);
  }
  std::uint64_t sink = 0;
  const double ns = median_ns_per_op([&] {
    for (std::size_t i = 0; i < kOps; ++i) {
      auto [t, fn] = q->pop();
      sink += q->push(t + step[i], noop);
    }
  });
  g_sink = sink;
  return ns;
}

double fifo_ns(std::size_t lanes, double backlog, std::uint64_t seed) {
  struct Entry {
    std::uint64_t w[4] = {};  // the engine's queued copy is 32 bytes
  };
  lanes = std::max<std::size_t>(lanes, 1);
  std::mt19937_64 gen(seed);
  std::uniform_int_distribution<std::size_t> lane(0, lanes - 1);
  pstar::queueing::FifoSlab<Entry> slab(lanes);
  const auto prefill =
      static_cast<std::size_t>(std::llround(std::max(backlog, 0.0) *
                                            static_cast<double>(lanes)));
  for (std::size_t i = 0; i < prefill; ++i) slab.push_back(lane(gen), Entry{});
  std::vector<std::size_t> order(kOps);
  for (std::size_t& l : order) l = lane(gen);
  std::uint64_t sink = 0;
  const double ns = median_ns_per_op([&] {
    for (std::size_t i = 0; i < kOps; ++i) {
      const std::size_t l = order[i];
      slab.push_back(l, Entry{{i, 0, 0, 0}});
      sink += slab.front(l).w[0];
      slab.pop_front(l);
    }
  });
  g_sink = sink;
  return ns;
}

}  // namespace perfbench
