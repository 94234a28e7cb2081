#include "calib.hpp"

#include <sys/mman.h>
#include <unistd.h>

#include <algorithm>
#include <cstdint>
#include <random>
#include <vector>

#include "seams.hpp"

namespace perfbench {

namespace {

constexpr std::size_t kKeys = std::size_t{1} << 18;
constexpr std::size_t kCycle = std::size_t{1} << 20;

/// The kernel's buffers: allocated once and never freed, so the
/// allocator's state (its mmap threshold among it) is as it would be
/// without the kernel.
struct Kernel {
  std::vector<std::uint64_t> keys = std::vector<std::uint64_t>(kKeys);
  std::vector<std::uint64_t> sorted = std::vector<std::uint64_t>(kKeys);
  std::vector<std::uint32_t> cycle = std::vector<std::uint32_t>(kCycle);
  bool filled = false;

  /// Regenerates the inputs (their pages may have been released).
  void fill() {
    std::mt19937_64 gen(0x9e3779b97f4a7c15ULL);
    for (std::uint64_t& k : keys) k = gen();
    // One random cycle through every index (Sattolo's algorithm), so the
    // chase visits all 4 MiB.
    for (std::uint32_t i = 0; i < kCycle; ++i) cycle[i] = i;
    for (std::size_t i = kCycle - 1; i > 0; --i) {
      std::uniform_int_distribution<std::size_t> pick(0, i - 1);
      std::swap(cycle[i], cycle[pick(gen)]);
    }
    filled = true;
  }

  std::uint64_t pass() {
    std::copy(keys.begin(), keys.end(), sorted.begin());
    std::sort(sorted.begin(), sorted.end());
    std::uint32_t p = 0;
    for (std::size_t i = 0; i < kCycle; ++i) p = cycle[p];
    return sorted[kKeys / 2] + p;
  }
};

Kernel& kernel() {
  static Kernel k;
  return k;
}

/// Releases the whole pages inside `v` (madvise needs page-aligned
/// ranges; the partial pages at either end stay resident).
template <typename T>
void release(std::vector<T>& v) {
  const auto page = static_cast<std::uintptr_t>(::sysconf(_SC_PAGESIZE));
  const auto begin = reinterpret_cast<std::uintptr_t>(v.data());
  const std::uintptr_t end = begin + v.size() * sizeof(T);
  const std::uintptr_t lo = (begin + page - 1) / page * page;
  const std::uintptr_t hi = end / page * page;
  if (hi > lo) {
    ::madvise(reinterpret_cast<void*>(lo), hi - lo, MADV_DONTNEED);
  }
}

volatile std::uint64_t g_calib_sink = 0;

}  // namespace

double calibration_s() {
  Kernel& k = kernel();
  if (!k.filled) k.fill();
  g_calib_sink = k.pass();  // warm-up: caches, TLB, branch history
  const std::uint64_t t0 = now_ns();
  g_calib_sink = k.pass();
  return static_cast<double>(now_ns() - t0) * 1e-9;
}

void release_calibration_pages() {
  Kernel& k = kernel();
  release(k.keys);
  release(k.sorted);
  release(k.cycle);
  k.filled = false;
}

}  // namespace perfbench
