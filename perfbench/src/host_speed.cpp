#include "host_speed.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <functional>

#include "probes.hpp"
#include "stats.hpp"

namespace hlsperf {
namespace {

/// Kernel size: pending events and hold-model steps, then arithmetic-only
/// steps; on the reference host each part takes about 2.5 ms.
constexpr std::size_t kPending = 512;
constexpr std::size_t kSteps = 30000;
constexpr std::size_t kArithmeticSteps = 200000;

std::uint64_t next(std::uint64_t& s) {
  s ^= s << 13;
  s ^= s >> 7;
  s ^= s << 17;
  return s;
}

double unit(std::uint64_t& s) {
  return (static_cast<double>(next(s) >> 11) + 0.5) * 0x1.0p-53;
}

/// One kernel call: its checksum.
std::uint64_t kernel() {
  std::uint64_t rng = 0x9E3779B97F4A7C15ULL;
  std::vector<double> heap;
  heap.reserve(kPending);
  const auto later = std::greater<double>();
  for (std::size_t i = 0; i < kPending; ++i) {
    heap.push_back(unit(rng));
    std::push_heap(heap.begin(), heap.end(), later);
  }
  for (std::size_t step = 0; step < kSteps; ++step) {
    std::pop_heap(heap.begin(), heap.end(), later);
    heap.back() -= std::log(unit(rng));
    std::push_heap(heap.begin(), heap.end(), later);
  }
  double sum = 0.0;
  for (std::size_t i = 0; i < kArithmeticSteps; ++i) {
    sum += std::log(unit(rng));
  }
  return std::bit_cast<std::uint64_t>(sum) ^ std::bit_cast<std::uint64_t>(heap.front());
}

}  // namespace

int calls_for(double span_s) {
  constexpr double kShare = 0.05;
  return static_cast<int>(std::clamp(std::lround(kShare * span_s / kReferenceKernelS), 1L, 9L));
}

HostSpeed::HostSpeed() : checksum_(kernel()) {}

double HostSpeed::sample(int calls) {
  const Clock::time_point t0 = Clock::now();
  std::vector<double> times;
  for (int i = 0; i < calls; ++i) {
    const Clock::time_point k0 = Clock::now();
    const std::uint64_t checksum = kernel();
    times.push_back(seconds_since(k0));
    consistent_ = consistent_ && checksum == checksum_;
  }
  samples_.push_back(median(std::move(times)) / kReferenceKernelS);
  spent_s_ += seconds_since(t0);
  return samples_.back();
}

}  // namespace hlsperf
