// Host-speed reference: a fixed kernel timed next to the measured work, so
// host timings can be stated at one reference speed.
//
// The host this benchmark runs on is shared. Its speed moves by tens of
// percent within seconds and drifts over minutes as other tenants load it; a
// rate in host seconds moves with it whatever the program does. The
// reference kernel is written here, outside the library: a binary-heap hold
// model over a few hundred pending events, then a run of arithmetic. It
// holds no state between calls, so it leaves the process's peak RSS alone,
// and it does the same work on every call, so its time tracks only the host.
// A timing taken while the kernel ran `slowdown` times its reference time is
// divided by `slowdown` (a rate is multiplied by it). A change to the
// library moves the scaled figures exactly as it moves the raw ones.
#pragma once

#include <cstdint>
#include <vector>

namespace hlsperf {

/// Host seconds of one reference-kernel call at the reference speed (about
/// its median on the 4-vCPU host NOTES.md describes). Only a unit: it does
/// not depend on the program.
inline constexpr double kReferenceKernelS = 0.005;

/// Kernel calls for a sample that scales a span of `span_s` host seconds:
/// enough for the sample to take about 5% of the span, from 1 to 9.
[[nodiscard]] int calls_for(double span_s);

/// Reference-kernel samples of one benchmark invocation.
class HostSpeed {
 public:
  /// Runs the kernel once untimed and keeps its checksum.
  HostSpeed();
  /// Times `calls` kernel calls and returns the median call over
  /// kReferenceKernelS: the host's slowdown now (above 1 = slower than the
  /// reference).
  double sample(int calls);
  /// Host seconds spent inside sample() so far.
  [[nodiscard]] double spent_s() const { return spent_s_; }
  /// False once any call's checksum differed from the first call's.
  [[nodiscard]] bool consistent() const { return consistent_; }
  /// Every sample taken, in order (slowdowns).
  [[nodiscard]] const std::vector<double>& samples() const { return samples_; }

 private:
  std::vector<double> samples_;
  double spent_s_ = 0.0;
  std::uint64_t checksum_ = 0;
  bool consistent_ = true;
};

}  // namespace hlsperf
