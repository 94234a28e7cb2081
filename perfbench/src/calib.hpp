#pragma once

/// \file calib.hpp
/// Host-speed calibration: a fixed kernel owned by the benchmark (no
/// simulator code), timed in each operation's process just before its
/// set-up and just after its run.  The host this benchmark was tuned on
/// changed speed by up to 2x within minutes while reporting no steal
/// time; the kernel's time says how fast the host ran the operation
/// (perfbench/NOTES.md).

namespace perfbench {

/// Host seconds of one pass of the calibration kernel: sorting 256Ki
/// 64-bit keys and chasing a 1Mi-entry random cycle (4 MiB), so it mixes
/// branchy compute with cache misses as the simulator does.  A warm-up
/// pass precedes the timed one.  The buffers are allocated once and never
/// freed, so the allocator's state is as it would be without the kernel.
double calibration_s();

/// Hands the kernel's pages back to the OS, so the operation that follows
/// runs with the process's resident set as it would be without the
/// kernel.
void release_calibration_pages();

}  // namespace perfbench
