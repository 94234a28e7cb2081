#pragma once

/// \file micro.hpp
/// Micro-benchmarks of the two hot containers, shaped by what the traced
/// run measured: the pending-event set (sim) and the per-link FIFOs
/// (queueing).

#include <cstddef>
#include <cstdint>

namespace perfbench {

/// Host ns per hold operation (pop the earliest event, push one new
/// event) on the calendar scheduler holding `pending` events.  A share
/// `offgrid` of the pushes land at exponential (off-grid) offsets, the
/// rest one time unit ahead, as service completions do.
double scheduler_hold_ns(std::size_t pending, double offgrid,
                         std::uint64_t seed);

/// Host ns per push_back + pop_front pair on a FifoSlab of `lanes` lanes
/// holding `backlog` entries per lane on average.
double fifo_ns(std::size_t lanes, double backlog, std::uint64_t seed);

}  // namespace perfbench
