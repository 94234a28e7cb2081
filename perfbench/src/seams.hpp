#pragma once

/// \file seams.hpp
/// Outside-in instrumentation for the traced run: decorators that sit on
/// the simulator's public seams (RoutingPolicy, Observer, OverloadHook,
/// RecoveryHook, AdmissionGate), count the calls that cross them and time
/// the work behind them, plus an in-memory span log written at exit.
///
/// Every decorator forwards verbatim, so a decorated run must reproduce
/// the undecorated run's simulated statistics bit for bit; the benchmark
/// checks that.  A decorator with no inner object behaves exactly as the
/// engine does when the seam is empty (no shed, launch now, no deferral).

#include <chrono>
#include <cstdint>
#include <functional>
#include <span>
#include <streambuf>
#include <string>
#include <vector>

#include "pstar/net/engine.hpp"
#include "pstar/net/observer.hpp"
#include "pstar/net/overload_hook.hpp"
#include "pstar/net/policy.hpp"
#include "pstar/net/recovery_hook.hpp"
#include "pstar/traffic/workload.hpp"

namespace perfbench {

inline std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// Calls across one seam, host time behind it (`ns`, inclusive) and the
/// part of that time not spent in other timed seams nested inside it
/// (`self_ns`; a routing decision's sends cross the overload and
/// observer seams, for example).
struct SeamCounter {
  std::uint64_t calls = 0;
  std::uint64_t ns = 0;
  std::uint64_t self_ns = 0;

  double self_ns_per_call() const {
    return calls == 0 ? 0.0 : static_cast<double>(self_ns) /
                                  static_cast<double>(calls);
  }
};

/// Nesting state of the timed seams of one simulation thread.
/// `top_ns` is the time spent in outermost seam calls: the run phase's
/// time minus `top_ns` is the engine's own (net layer) time.
struct Nest {
  static constexpr int kMaxDepth = 16;
  int depth = 0;
  std::uint64_t child_ns[kMaxDepth] = {};
  std::uint64_t top_ns = 0;
};

/// Times one forwarded call into `c`, charging it to the enclosing
/// timed call as child time.
class Timed {
 public:
  Timed(SeamCounter& c, Nest& n) : c_(c), n_(n), start_(now_ns()) {
    n_.child_ns[n_.depth++] = 0;
  }
  ~Timed() {
    const std::uint64_t elapsed = now_ns() - start_;
    --n_.depth;
    c_.ns += elapsed;
    c_.self_ns += elapsed - n_.child_ns[n_.depth];
    ++c_.calls;
    if (n_.depth == 0) {
      n_.top_ns += elapsed;
    } else {
      n_.child_ns[n_.depth - 1] += elapsed;
    }
  }
  Timed(const Timed&) = delete;
  Timed& operator=(const Timed&) = delete;

 private:
  SeamCounter& c_;
  Nest& n_;
  std::uint64_t start_;
};

/// Named host-time intervals, kept in memory and written at exit.
class SpanLog {
 public:
  struct Span {
    std::string name;
    int parent = -1;
    std::uint64_t start_ns = 0;
    std::uint64_t end_ns = 0;
  };

  int begin(std::string name, int parent = -1) {
    spans_.push_back(Span{std::move(name), parent, now_ns(), 0});
    return static_cast<int>(spans_.size() - 1);
  }
  /// Closes span `id` and returns its duration in seconds.
  double end(int id) {
    Span& s = spans_[static_cast<std::size_t>(id)];
    s.end_ns = now_ns();
    return static_cast<double>(s.end_ns - s.start_ns) * 1e-9;
  }
  const std::vector<Span>& spans() const { return spans_; }

  /// Writes the spans as a JSON array with each span's self time (its
  /// duration minus the part covered by its direct children).
  bool write(const std::string& path) const;

 private:
  std::vector<Span> spans_;
};

/// Routing decisions: on_task and on_receive are timed separately.
class TimedPolicy final : public pstar::net::RoutingPolicy {
 public:
  TimedPolicy(pstar::net::RoutingPolicy& inner, Nest& nest)
      : inner_(inner), nest_(nest) {}

  void on_task(pstar::net::Engine& e, pstar::net::TaskId task,
               pstar::topo::NodeId source) override {
    Timed t(on_task_, nest_);
    inner_.on_task(e, task, source);
  }
  void on_task_forced(pstar::net::Engine& e, pstar::net::TaskId task,
                      pstar::topo::NodeId source,
                      std::int32_t ending_dim) override {
    Timed t(on_task_, nest_);
    inner_.on_task_forced(e, task, source, ending_dim);
  }
  void on_receive(pstar::net::Engine& e, pstar::topo::NodeId node,
                  const pstar::net::Copy& copy) override {
    Timed t(on_receive_, nest_);
    inner_.on_receive(e, node, copy);
  }
  std::uint64_t dropped_subtree_receptions(
      const pstar::net::Engine& e, const pstar::net::Copy& copy) override {
    return inner_.dropped_subtree_receptions(e, copy);
  }
  std::uint32_t on_multicast(
      pstar::net::Engine& e, pstar::net::TaskId task,
      pstar::topo::NodeId source,
      std::span<const pstar::topo::NodeId> dests) override {
    return inner_.on_multicast(e, task, source, dests);
  }

  const SeamCounter& on_task_counter() const { return on_task_; }
  const SeamCounter& on_receive_counter() const { return on_receive_; }

 private:
  pstar::net::RoutingPolicy& inner_;
  Nest& nest_;
  SeamCounter on_task_;
  SeamCounter on_receive_;
};

/// Forwards every observer callback to up to two inner observers (the
/// stack's own observer and the benchmark's trace probe).  When
/// `counter` is set, each callback is counted and timed against `nest`.
/// Task creations and transmissions are also counted on their own: each
/// is a routing decision (on_task / on_receive) the benchmark cannot time
/// where the policy is built inside the stack.
class ObserverTee final : public pstar::net::Observer {
 public:
  ObserverTee(pstar::net::Observer* first, pstar::net::Observer* second,
              SeamCounter* counter = nullptr, Nest* nest = nullptr)
      : a_(first), b_(second), c_(counter), nest_(nest) {}

  std::uint64_t tasks_created() const { return tasks_created_; }
  std::uint64_t transmissions() const { return transmissions_; }

#define PERFBENCH_FORWARD(call)  \
  do {                           \
    if (c_ == nullptr) {         \
      if (a_) a_->call;          \
      if (b_) b_->call;          \
    } else {                     \
      Timed timed_(*c_, *nest_); \
      if (a_) a_->call;          \
      if (b_) b_->call;          \
    }                            \
  } while (0)

  void on_task_created(pstar::net::TaskId task,
                       const pstar::net::Task& info) override {
    ++tasks_created_;
    PERFBENCH_FORWARD(on_task_created(task, info));
  }
  void on_enqueue(pstar::net::TaskId task, const pstar::net::Copy& copy,
                  pstar::topo::LinkId link, double now) override {
    PERFBENCH_FORWARD(on_enqueue(task, copy, link, now));
  }
  void on_transmission(pstar::net::TaskId task, const pstar::net::Copy& copy,
                       pstar::topo::LinkId link, pstar::topo::NodeId from,
                       pstar::topo::NodeId to, std::int32_t dim,
                       pstar::topo::Dir dir, double enqueued_at, double start,
                       double end) override {
    ++transmissions_;
    PERFBENCH_FORWARD(on_transmission(task, copy, link, from, to, dim, dir,
                                      enqueued_at, start, end));
  }
  void on_drop(pstar::net::TaskId task, const pstar::net::Copy& copy,
               pstar::topo::LinkId link, double now, bool was_queued) override {
    PERFBENCH_FORWARD(on_drop(task, copy, link, now, was_queued));
  }
  void on_task_completed(pstar::net::TaskId task, const pstar::net::Task& info,
                         double time) override {
    PERFBENCH_FORWARD(on_task_completed(task, info, time));
  }
  void on_link_down(pstar::topo::LinkId link, double now) override {
    PERFBENCH_FORWARD(on_link_down(link, now));
  }
  void on_link_up(pstar::topo::LinkId link, double now) override {
    PERFBENCH_FORWARD(on_link_up(link, now));
  }
  void on_retx(pstar::net::TaskId task, std::uint32_t attempt,
               pstar::net::RetxMode mode, pstar::topo::LinkId link,
               double now) override {
    PERFBENCH_FORWARD(on_retx(task, attempt, mode, link, now));
  }
  void on_saturation_on(double now, double level) override {
    PERFBENCH_FORWARD(on_saturation_on(now, level));
  }
  void on_saturation_off(double now, double level) override {
    PERFBENCH_FORWARD(on_saturation_off(now, level));
  }
  void on_shed(pstar::net::TaskId task, const pstar::net::Copy& copy,
               pstar::topo::LinkId link, double now) override {
    PERFBENCH_FORWARD(on_shed(task, copy, link, now));
  }
  void on_throttle(pstar::topo::NodeId source, pstar::net::TaskKind kind,
                   double now) override {
    PERFBENCH_FORWARD(on_throttle(source, kind, now));
  }
  void on_abort(double now, std::uint64_t inflight) override {
    PERFBENCH_FORWARD(on_abort(now, inflight));
  }
  void on_classify(pstar::topo::NodeId source, pstar::net::SourceClass cls,
                   double rate, double share, double now) override {
    PERFBENCH_FORWARD(on_classify(source, cls, rate, share, now));
  }
  void on_quarantine(pstar::topo::NodeId source, double until,
                     double now) override {
    PERFBENCH_FORWARD(on_quarantine(source, until, now));
  }
  void on_probation(pstar::topo::NodeId source, double now) override {
    PERFBENCH_FORWARD(on_probation(source, now));
  }
  void on_deny(pstar::topo::NodeId source, pstar::net::TaskKind kind,
               pstar::net::DenyReason reason, double now) override {
    PERFBENCH_FORWARD(on_deny(source, kind, reason, now));
  }
  void on_resolve(double now, std::uint64_t epoch, double imbalance,
                  double drift, bool applied,
                  const std::vector<double>& x) override {
    PERFBENCH_FORWARD(on_resolve(now, epoch, imbalance, drift, applied, x));
  }

#undef PERFBENCH_FORWARD

 private:
  pstar::net::Observer* a_;
  pstar::net::Observer* b_;
  SeamCounter* c_;
  Nest* nest_;
  std::uint64_t tasks_created_ = 0;
  std::uint64_t transmissions_ = 0;
};

/// Shedding decisions at the link doors.
class TimedOverloadHook final : public pstar::net::OverloadHook {
 public:
  TimedOverloadHook(pstar::net::OverloadHook* inner, Nest& nest)
      : inner_(inner), nest_(nest) {}

  bool should_shed(const pstar::net::Engine& e, const pstar::net::Copy& copy,
                   pstar::topo::LinkId link) override {
    Timed t(counter_, nest_);
    return inner_ != nullptr && inner_->should_shed(e, copy, link);
  }
  const SeamCounter& counter() const { return counter_; }

 private:
  pstar::net::OverloadHook* inner_;
  Nest& nest_;
  SeamCounter counter_;
};

/// Loss and completion decisions of the recovery layer.
class TimedRecoveryHook final : public pstar::net::RecoveryHook {
 public:
  TimedRecoveryHook(pstar::net::RecoveryHook* inner, Nest& nest)
      : inner_(inner), nest_(nest) {}

  void on_broadcast_loss(pstar::net::Engine& e, const pstar::net::Copy& copy,
                         pstar::topo::LinkId link,
                         std::uint64_t orphaned) override {
    Timed t(counter_, nest_);
    if (inner_) inner_->on_broadcast_loss(e, copy, link, orphaned);
  }
  bool on_unicast_loss(pstar::net::Engine& e, const pstar::net::Copy& copy,
                       pstar::topo::LinkId link) override {
    Timed t(counter_, nest_);
    return inner_ != nullptr && inner_->on_unicast_loss(e, copy, link);
  }
  std::uint64_t on_retx_drop(pstar::net::Engine& e,
                             const pstar::net::Copy& copy,
                             pstar::topo::LinkId link) override {
    Timed t(counter_, nest_);
    return inner_ != nullptr ? inner_->on_retx_drop(e, copy, link) : 0;
  }
  bool on_retx_delivery(pstar::net::Engine& e, pstar::net::TaskId task,
                        pstar::topo::NodeId node) override {
    Timed t(counter_, nest_);
    return inner_ == nullptr || inner_->on_retx_delivery(e, task, node);
  }
  bool should_defer_completion(const pstar::net::Engine& e,
                               pstar::net::TaskId task) override {
    Timed t(counter_, nest_);
    return inner_ != nullptr && inner_->should_defer_completion(e, task);
  }
  void on_task_finished(pstar::net::TaskId task) override {
    Timed t(counter_, nest_);
    if (inner_) inner_->on_task_finished(task);
  }
  const SeamCounter& counter() const { return counter_; }

 private:
  pstar::net::RecoveryHook* inner_;
  Nest& nest_;
  SeamCounter counter_;
};

/// Source-side admission.  Every `sample_every`-th call also runs
/// `sampler` (from inside the simulation thread that owns the state it
/// reads), which is how the traced run samples the pending-event set.
class TimedGate final : public pstar::traffic::AdmissionGate {
 public:
  TimedGate(pstar::traffic::AdmissionGate* inner, Nest& nest,
            std::function<void()> sampler, std::uint64_t sample_every)
      : inner_(inner),
        nest_(nest),
        sampler_(std::move(sampler)),
        every_(sample_every) {}

  bool on_arrival(const pstar::traffic::Arrival& arrival) override {
    if (sampler_ && counter_.calls % every_ == 0) sampler_();
    Timed t(counter_, nest_);
    return inner_ == nullptr || inner_->on_arrival(arrival);
  }
  const SeamCounter& counter() const { return counter_; }

 private:
  pstar::traffic::AdmissionGate* inner_;
  Nest& nest_;
  std::function<void()> sampler_;
  std::uint64_t every_;
  SeamCounter counter_;
};

/// Discards everything written to it and counts the bytes: the trace
/// sink's formatting cost without any file I/O.
class CountingBuf final : public std::streambuf {
 public:
  std::uint64_t bytes() const { return bytes_; }

 protected:
  std::streamsize xsputn(const char*, std::streamsize n) override {
    bytes_ += static_cast<std::uint64_t>(n);
    return n;
  }
  int_type overflow(int_type ch) override {
    if (!traits_type::eq_int_type(ch, traits_type::eof())) ++bytes_;
    return traits_type::not_eof(ch);
  }

 private:
  std::uint64_t bytes_ = 0;
};

}  // namespace perfbench
