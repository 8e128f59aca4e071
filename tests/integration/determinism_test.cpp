// Whole-stack determinism: identical seeds must reproduce identical event
// streams, metrics, traces and decisions — the property every regression
// pin and every fixed-trace what-if comparison rests on.
#include <gtest/gtest.h>

#include <sstream>
#include <tuple>

#include "hybrid/hybrid_system.hpp"
#include "model/params.hpp"
#include "obs/csv_sink.hpp"
#include "obs/ring_sink.hpp"
#include "routing/factory.hpp"

namespace hls {
namespace {

struct RunFingerprint {
  std::uint64_t events = 0;
  std::uint64_t completions = 0;
  double rt_sum = 0.0;
  std::string trace;

  bool operator==(const RunFingerprint& other) const {
    return events == other.events && completions == other.completions &&
           rt_sum == other.rt_sum && trace == other.trace;
  }
};

RunFingerprint fingerprint(std::uint64_t seed, StrategyKind kind) {
  SystemConfig cfg;
  cfg.arrival_rate_per_site = 2.0;
  cfg.seed = seed;
  HybridSystem sys(cfg,
                   make_strategy({kind, 0.0}, ModelParams::from_config(cfg), seed));
  std::ostringstream trace_out;
  obs::CsvSink trace(trace_out, obs::kind_bit(obs::EventKind::Completion));
  sys.add_trace_sink(&trace);
  sys.enable_arrivals();
  sys.run_for(100.0);
  sys.stop_arrivals();
  sys.drain();
  trace.flush();
  RunFingerprint fp;
  fp.events = sys.simulator().executed_events();
  fp.completions = sys.metrics().completions;
  fp.rt_sum = sys.metrics().rt_all.sum();
  fp.trace = trace_out.str();
  return fp;
}

class DeterminismTest : public ::testing::TestWithParam<StrategyKind> {};

TEST_P(DeterminismTest, IdenticalSeedsReproduceEventForEvent) {
  const RunFingerprint a = fingerprint(7, GetParam());
  const RunFingerprint b = fingerprint(7, GetParam());
  EXPECT_TRUE(a == b);
  EXPECT_GT(a.completions, 50u);
}

TEST_P(DeterminismTest, DifferentSeedsDiverge) {
  const RunFingerprint a = fingerprint(7, GetParam());
  const RunFingerprint b = fingerprint(8, GetParam());
  EXPECT_NE(a.trace, b.trace);
}

INSTANTIATE_TEST_SUITE_P(Strategies, DeterminismTest,
                         ::testing::Values(StrategyKind::NoLoadSharing,
                                           StrategyKind::StaticProbability,
                                           StrategyKind::QueueLength,
                                           StrategyKind::MinAverageNsys));

TEST(DeterminismTest, BatchingModePreservesDeterminism) {
  auto run = [] {
    SystemConfig cfg;
    cfg.arrival_rate_per_site = 2.0;
    cfg.async_batch_window = 0.2;
    cfg.seed = 3;
    HybridSystem sys(cfg, make_strategy({StrategyKind::StaticProbability, 0.5},
                                        ModelParams::from_config(cfg), 3));
    sys.enable_arrivals();
    sys.run_for(80.0);
    sys.stop_arrivals();
    sys.drain();
    return std::make_pair(sys.simulator().executed_events(),
                          sys.metrics().rt_all.sum());
  };
  EXPECT_EQ(run(), run());
}

TEST(DeterminismTest, TraceSinksDoNotPerturbTheSimulation) {
  // Observation must be free: registering sinks (even the full CSV sink
  // subscribed to every event kind) schedules no events, forks no RNG
  // streams, and leaves every metric of a same-seed run bit-identical.
  auto run = [](bool with_sinks) {
    SystemConfig cfg;
    cfg.arrival_rate_per_site = 2.0;
    cfg.seed = 9;
    cfg.ship_timeout = 2.0;
    cfg.faults.windows.push_back(
        {FaultKind::CentralOutage, -1, 20.0, 6.0, 1.0, 0.0});
    HybridSystem sys(cfg, make_strategy({StrategyKind::MinAverageNsys, 0.0},
                                        ModelParams::from_config(cfg), 9));
    std::ostringstream csv;
    obs::CsvSink full(csv);
    obs::RingSink ring(64, obs::kind_bit(obs::EventKind::Fault));
    if (with_sinks) {
      sys.add_trace_sink(&full);
      sys.add_trace_sink(&ring);
    }
    sys.enable_arrivals();
    sys.run_for(60.0);
    sys.stop_arrivals();
    sys.drain();
    if (with_sinks) {
      EXPECT_GT(full.rows_written(), 0u);
      EXPECT_EQ(ring.total_seen(), 2u);  // crash + recovery
    }
    return std::make_tuple(sys.simulator().executed_events(),
                           sys.metrics().completions,
                           sys.metrics().rt_all.sum(),
                           sys.metrics().ship_timeouts);
  };
  EXPECT_EQ(run(false), run(true));
}

TEST(DeterminismTest, SamplerDoesNotPerturbMetrics) {
  // The sampler does schedule events (so executed_events differs) but its
  // callbacks only read: every transaction-visible observable of a
  // same-seed run is unchanged, and the completion trace is byte-identical.
  auto run = [](double interval) {
    SystemConfig cfg;
    cfg.arrival_rate_per_site = 2.0;
    cfg.seed = 10;
    cfg.obs_sample_interval = interval;
    HybridSystem sys(cfg, make_strategy({StrategyKind::MinAverageNsys, 0.0},
                                        ModelParams::from_config(cfg), 10));
    std::ostringstream trace_out;
    obs::CsvSink trace(trace_out, obs::kind_bit(obs::EventKind::Completion));
    sys.add_trace_sink(&trace);
    sys.enable_arrivals();
    sys.run_for(60.0);
    sys.stop_arrivals();
    sys.drain();
    trace.flush();
    return std::make_tuple(sys.metrics().completions,
                           sys.metrics().rt_all.sum(),
                           sys.metrics().aborts_total(), trace_out.str());
  };
  const auto off = run(0.0);
  const auto on = run(0.5);
  EXPECT_EQ(off, on);
}

TEST(DeterminismTest, SamplerDisabledByDefaultSchedulesNothing) {
  // Byte-parity contract: obs_sample_interval = 0 must leave the executed
  // event count identical to a build that never had a sampler. Pinning
  // "sampler on => strictly more events, sampler off => same count as the
  // baseline" guards against a stray schedule in the constructor.
  auto events_with = [](double interval) {
    SystemConfig cfg;
    cfg.arrival_rate_per_site = 1.0;
    cfg.seed = 11;
    cfg.obs_sample_interval = interval;
    HybridSystem sys(cfg, make_strategy({StrategyKind::NoLoadSharing, 0.0},
                                        ModelParams::from_config(cfg), 11));
    sys.enable_arrivals();
    sys.run_for(30.0);
    sys.stop_arrivals();
    sys.drain();
    return sys.simulator().executed_events();
  };
  const std::uint64_t base = events_with(0.0);
  const std::uint64_t sampled = events_with(1.0);
  EXPECT_EQ(events_with(0.0), base);
  EXPECT_GT(sampled, base);
}

TEST(DeterminismTest, RfcModePreservesDeterminism) {
  auto run = [] {
    SystemConfig cfg;
    cfg.arrival_rate_per_site = 0.6;
    cfg.class_b_mode = ClassBMode::RemoteCalls;
    cfg.seed = 4;
    HybridSystem sys(cfg, make_strategy({StrategyKind::QueueLength, 0.0},
                                        ModelParams::from_config(cfg), 4));
    sys.enable_arrivals();
    sys.run_for(80.0);
    sys.stop_arrivals();
    sys.drain();
    return std::make_pair(sys.simulator().executed_events(),
                          sys.metrics().rt_all.sum());
  };
  EXPECT_EQ(run(), run());
}

}  // namespace
}  // namespace hls
