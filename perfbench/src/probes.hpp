// Timing instruments the benchmark wraps around the library's public surface.
//
// Everything here lives outside the library: a forwarding RoutingStrategy and
// a forwarding obs::TraceSink time the calls the simulator makes into those
// layers, a span ledger keeps per-layer count / busy / self time in memory,
// and standalone probes time the event queue, a link and a lock manager at
// the sizes a run actually saw. None of it feeds back into the simulation, so
// a traced run executes exactly the events of an untraced one.
#pragma once

#include <array>
#include <chrono>
#include <cstdint>
#include <memory>
#include <string>

#include "hybrid/config.hpp"
#include "obs/sink.hpp"
#include "routing/strategy.hpp"
#include "sim/simulator.hpp"

namespace hlsperf {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Span kinds recorded by the ledger. Window is the measured run_for call;
/// the others nest inside it (Flush follows it).
enum class Layer : std::uint8_t { Window, Decide, OnEvent, Flush, kCount };
inline constexpr int kLayerCount = static_cast<int>(Layer::kCount);

[[nodiscard]] const char* layer_name(Layer layer);

/// Per-layer span totals of one single-threaded simulation run. A layer's
/// self time is its busy time minus the part covered by spans opened inside
/// it.
class Ledger {
 public:
  struct Totals {
    std::uint64_t count = 0;
    double busy_s = 0.0;
    double self_s = 0.0;
  };

  /// Closes its span on destruction.
  class Span {
   public:
    Span(const Span&) = delete;
    Span& operator=(const Span&) = delete;
    ~Span() { ledger_.close(); }

   private:
    friend class Ledger;
    explicit Span(Ledger& ledger) : ledger_(ledger) {}
    Ledger& ledger_;
  };

  [[nodiscard]] Span span(Layer layer) {
    open(layer);
    return Span(*this);
  }

  [[nodiscard]] const Totals& operator[](Layer layer) const {
    return totals_[static_cast<std::size_t>(layer)];
  }
  /// Zeroes the totals (start of the measured window); no span may be open.
  void reset();
  /// Adds another run's totals (batch aggregation).
  void add(const Ledger& other);

 private:
  struct Frame {
    Layer layer = Layer::Window;
    Clock::time_point start;
    double child_s = 0.0;
  };
  void open(Layer layer);
  void close();

  std::array<Totals, kLayerCount> totals_{};
  std::array<Frame, 8> stack_{};
  int depth_ = 0;
};

/// Forwarding strategy that times decide() and samples the pending-event
/// count at every decision. Forwards controller() and tunable_threshold(),
/// so wrapping an `adapt:` spec keeps its controller visible to the system.
class TimedStrategy final : public hls::RoutingStrategy {
 public:
  TimedStrategy(std::unique_ptr<hls::RoutingStrategy> inner, Ledger& ledger)
      : inner_(std::move(inner)), ledger_(ledger) {}

  hls::Route decide(const hls::Transaction& txn,
                    const hls::SystemStateView& view) override;
  [[nodiscard]] std::string name() const override { return inner_->name(); }
  [[nodiscard]] hls::AdaptiveController* controller() override {
    return inner_->controller();
  }
  [[nodiscard]] hls::TunableThreshold* tunable_threshold() override {
    return inner_->tunable_threshold();
  }

  /// Simulator whose queue depth is sampled (set once the system exists).
  void watch(const hls::Simulator* sim) { sim_ = sim; }
  void reset_depth() {
    depth_sum_ = 0;
    depth_samples_ = 0;
  }
  [[nodiscard]] std::uint64_t depth_sum() const { return depth_sum_; }
  [[nodiscard]] std::uint64_t depth_samples() const { return depth_samples_; }

 private:
  std::unique_ptr<hls::RoutingStrategy> inner_;
  Ledger& ledger_;
  const hls::Simulator* sim_ = nullptr;
  std::uint64_t depth_sum_ = 0;
  std::uint64_t depth_samples_ = 0;
};

/// Forwarding trace sink that times on_event().
class TimedSink final : public hls::obs::TraceSink {
 public:
  TimedSink(hls::obs::TraceSink& inner, Ledger& ledger)
      : inner_(inner), ledger_(ledger) {}
  [[nodiscard]] unsigned kind_mask() const override { return inner_.kind_mask(); }
  void on_event(const hls::obs::Event& event) override {
    const Ledger::Span span = ledger_.span(Layer::OnEvent);
    inner_.on_event(event);
  }

 private:
  hls::obs::TraceSink& inner_;
  Ledger& ledger_;
};

/// Nanoseconds per EventQueue push+pop with `depth` events pending, in the
/// hold model a simulation follows: pop the earliest event and schedule its
/// successor a random delay later.
[[nodiscard]] double queue_probe_ns(std::size_t depth, std::uint64_t seed);

/// Nanoseconds per Link::send (including its delivery-event push) on a link
/// with `cfg`'s delay and message chaos, with about `in_flight` messages
/// outstanding.
[[nodiscard]] double link_send_probe_ns(const hls::SystemConfig& cfg,
                                        std::size_t in_flight,
                                        std::uint64_t seed);

/// Nanoseconds per uncontended LockManager request + release_all, with lock
/// ids uniform over `cfg.lockspace` and exclusive mode at
/// `cfg.prob_write_lock`.
[[nodiscard]] double lock_probe_ns(const hls::SystemConfig& cfg,
                                   std::uint64_t seed);

}  // namespace hlsperf
