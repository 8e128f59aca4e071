// Exact phase attribution: single transactions in an idle system have fully
// deterministic schedules, so every bucket of the phase timeline — not just
// the response-time total — can be asserted to 1e-9 from the configuration
// constants. Each test also checks the phase-sum identity explicitly.
#include <gtest/gtest.h>

#include <array>
#include <memory>
#include <vector>

#include "hybrid/hybrid_system.hpp"
#include "obs/phase.hpp"
#include "obs/ring_sink.hpp"
#include "routing/basic_strategies.hpp"

namespace hls {
namespace {

using obs::Phase;

SystemConfig quiet_config() {
  SystemConfig cfg;
  cfg.arrival_rate_per_site = 0.0;  // only injected transactions
  return cfg;
}

Transaction custom_txn(TxnId id, TxnClass cls, int site,
                       std::vector<LockNeed> locks, bool io_per_call = true) {
  Transaction txn;
  txn.id = id;
  txn.cls = cls;
  txn.home_site = site;
  txn.locks = std::move(locks);
  txn.call_io.assign(txn.locks.size(), io_per_call);
  return txn;
}

/// Asserts every phase mean of `m` against `expected` (seconds per phase,
/// indexed by obs::Phase) and the sum against the response-time mean.
void expect_phases(const Metrics& m,
                   const std::array<double, obs::kPhaseCount>& expected) {
  double sum = 0.0;
  for (int p = 0; p < obs::kPhaseCount; ++p) {
    EXPECT_NEAR(m.phase_mean(static_cast<Phase>(p)),
                expected[static_cast<std::size_t>(p)], 1e-9)
        << "phase " << obs::phase_name(static_cast<Phase>(p));
    sum += expected[static_cast<std::size_t>(p)];
  }
  EXPECT_NEAR(sum, m.rt_all.mean(), 1e-9);
}

std::array<double, obs::kPhaseCount> phases(double ready_queue,
                                            double cpu_service, double io,
                                            double network, double lock_wait,
                                            double auth, double commit,
                                            double stall) {
  return {ready_queue, cpu_service, io, network, lock_wait, auth, commit, stall};
}

TEST(PhaseBreakdown, LocalClassAExact) {
  const SystemConfig cfg = quiet_config();
  HybridSystem sys(cfg, std::make_unique<AlwaysLocalStrategy>());
  sys.inject_transaction(
      custom_txn(1, TxnClass::A, 0, {{5, LockMode::Exclusive}}));
  sys.simulator().run();

  ASSERT_EQ(sys.metrics().completions, 1u);
  // init 0.075 + call 0.030 CPU; setup 0.035 + call 0.025 I/O; commit 0.080.
  // An idle system has no queueing, no lock contention, and a local commit
  // needs no network leg.
  expect_phases(sys.metrics(),
                phases(0.0, 0.105, 0.060, 0.0, 0.0, 0.0, 0.080, 0.0));
}

TEST(PhaseBreakdown, LocalRerunProfileSkipsIo) {
  const SystemConfig cfg = quiet_config();
  HybridSystem sys(cfg, std::make_unique<AlwaysLocalStrategy>());
  sys.inject_transaction(custom_txn(1, TxnClass::A, 0,
                                    {{5, LockMode::Shared}},
                                    /*io_per_call=*/false));
  sys.simulator().run();
  // Read-only and I/O-free: commit drops the 5K async send (0.075) and the
  // only I/O is the setup read.
  expect_phases(sys.metrics(),
                phases(0.0, 0.105, 0.035, 0.0, 0.0, 0.0, 0.075, 0.0));
}

TEST(PhaseBreakdown, ShippedClassAExact) {
  const SystemConfig cfg = quiet_config();
  HybridSystem sys(cfg, std::make_unique<AlwaysCentralStrategy>());
  sys.inject_transaction(
      custom_txn(1, TxnClass::A, 0, {{5, LockMode::Exclusive}}));
  sys.simulator().run();

  ASSERT_EQ(sys.metrics().completions_shipped_a, 1u);
  // CPU: forward 0.015 + central init 0.005 + call 0.002. Network: ship up
  // 0.2 + response leg 0.2. I/O: setup 0.035 + call 0.025. Auth: down 0.2 +
  // home-site check 0.010 + up 0.2. Commit: 0.005 at central MIPS.
  expect_phases(sys.metrics(),
                phases(0.0, 0.022, 0.060, 0.400, 0.0, 0.410, 0.005, 0.0));
}

TEST(PhaseBreakdown, ClassBExactMatchesShippedShape) {
  const SystemConfig cfg = quiet_config();
  HybridSystem sys(cfg, std::make_unique<AlwaysLocalStrategy>());
  sys.inject_transaction(
      custom_txn(1, TxnClass::B, 3, {{5, LockMode::Exclusive}}));
  sys.simulator().run();
  ASSERT_EQ(sys.metrics().completions_class_b, 1u);
  expect_phases(sys.metrics(),
                phases(0.0, 0.022, 0.060, 0.400, 0.0, 0.410, 0.005, 0.0));
}

TEST(PhaseBreakdown, RemoteCallClassBExact) {
  SystemConfig cfg = quiet_config();
  cfg.class_b_mode = ClassBMode::RemoteCalls;
  HybridSystem sys(cfg, std::make_unique<AlwaysLocalStrategy>());
  sys.inject_transaction(
      custom_txn(1, TxnClass::B, 3, {{5, LockMode::Exclusive}}));
  sys.simulator().run();
  ASSERT_EQ(sys.metrics().completions_class_b, 1u);
  // CPU: home init 0.075 + call 0.030 + central serve 0.001 + home reply
  // 0.002. I/O: home setup 0.035 + call at the central copy 0.025. Network:
  // call up + reply down + commit request up + response leg, 0.2 each.
  // Auth: down 0.2 + master-site check 0.010 + up 0.2. Commit: home 0.075 +
  // central 0.005.
  expect_phases(sys.metrics(),
                phases(0.0, 0.108, 0.060, 0.800, 0.0, 0.410, 0.080, 0.0));
}

TEST(PhaseBreakdown, LockWaitAndReadyQueueUnderLocalContention) {
  // Two local transactions race for the same CPU and the same exclusive
  // lock; the second one's timeline shows both queueing effects.
  const SystemConfig cfg = quiet_config();
  HybridSystem sys(cfg, std::make_unique<AlwaysLocalStrategy>());
  obs::RingSink ring(8);
  sys.add_trace_sink(&ring);
  sys.inject_transaction(
      custom_txn(1, TxnClass::A, 0, {{5, LockMode::Exclusive}}));
  sys.inject_transaction(custom_txn(2, TxnClass::A, 0,
                                    {{5, LockMode::Exclusive}},
                                    /*io_per_call=*/false));
  sys.simulator().run();

  ASSERT_EQ(sys.metrics().completions, 2u);
  const std::vector<obs::Event> events = ring.events();
  ASSERT_EQ(events.size(), 2u);

  // txn 1 wins the CPU at t=0 but still queues twice behind txn 2's bursts:
  // its call waits 0.040 behind txn 2's init (done 0.150) and its commit
  // waits 0.010 behind txn 2's call (done 0.215). Lock held 0.180 - 0.295.
  const obs::Event& first = events[0];
  EXPECT_EQ(first.txn, 1u);
  EXPECT_NEAR(first.response_time, 0.295, 1e-9);
  EXPECT_NEAR(first.phase[static_cast<int>(Phase::ReadyQueue)], 0.050, 1e-9);
  EXPECT_NEAR(first.phase[static_cast<int>(Phase::LockWait)], 0.0, 1e-9);

  // txn 2: init queues behind txn 1's init (0.075 in ReadyQueue), pays the
  // setup I/O (io_per_call only skips the per-call I/O), finishes its call
  // at 0.215 and then blocks on the lock until txn 1's commit completes at
  // 0.295; its own commit 0.080 follows on the now-idle CPU.
  const obs::Event& second = events[1];
  EXPECT_EQ(second.txn, 2u);
  EXPECT_NEAR(second.phase[static_cast<int>(Phase::ReadyQueue)], 0.075, 1e-9);
  EXPECT_NEAR(second.phase[static_cast<int>(Phase::CpuService)], 0.105, 1e-9);
  EXPECT_NEAR(second.phase[static_cast<int>(Phase::LockWait)], 0.080, 1e-9);
  EXPECT_NEAR(second.phase[static_cast<int>(Phase::Commit)], 0.080, 1e-9);
  EXPECT_NEAR(second.phase[static_cast<int>(Phase::Io)], 0.035, 1e-9);
  EXPECT_NEAR(second.response_time, 0.375, 1e-9);

  double sum = 0.0;
  for (double p : second.phase) {
    sum += p;
  }
  EXPECT_NEAR(sum, second.response_time, 1e-9);
  sys.remove_trace_sink(&ring);
}

TEST(PhaseBreakdown, ShipTimeoutLadderExact) {
  SystemConfig cfg = quiet_config();
  cfg.ship_timeout = 1.0;
  cfg.ship_backoff = 2.0;
  cfg.ship_max_retries = 2;
  cfg.faults.windows.push_back(
      {FaultKind::CentralOutage, -1, 0.0, 100.0, 1.0, 0.0});
  HybridSystem sys(cfg, std::make_unique<AlwaysCentralStrategy>());
  obs::RingSink ring(16);
  sys.add_trace_sink(&ring);
  sys.inject_transaction(
      custom_txn(1, TxnClass::A, 0, {{5, LockMode::Exclusive}}));
  sys.simulator().run();

  ASSERT_EQ(sys.metrics().completions, 1u);
  // Stall: the three timeout waits net of work already done — (1 - 0.015) +
  // (3 - 1.020) + (7 - 3.020). ReadyQueue: each reclaim queues the 0.005
  // failure-detector burst ahead of the next forward / the fallback's init.
  // CPU: three forwards (0.045) plus the fallback's full local run (0.105).
  expect_phases(sys.metrics(),
                phases(0.015, 0.150, 0.060, 0.0, 0.0, 0.0, 0.080, 6.945));

  // The sink saw the whole story: three ShipTimeout aborts, the crash at
  // t=0 and the recovery at t=100, and one completion.
  int aborts = 0;
  int faults = 0;
  int completions = 0;
  for (const obs::Event& e : ring.events()) {
    switch (e.kind) {
      case obs::EventKind::Abort:
        EXPECT_EQ(e.cause, AbortCause::ShipTimeout);
        ++aborts;
        break;
      case obs::EventKind::Fault:
        EXPECT_EQ(e.site, -1);
        ++faults;
        break;
      case obs::EventKind::Completion:
        ++completions;
        break;
      default:
        break;
    }
  }
  EXPECT_EQ(aborts, 3);
  EXPECT_EQ(faults, 2);
  EXPECT_EQ(completions, 1);
}

TEST(PhaseBreakdown, PhaseQuantilesAreDeterministic) {
  SystemConfig cfg;
  cfg.seed = 11;
  cfg.arrival_rate_per_site = 1.5;
  HybridSystem sys(cfg, std::make_unique<AlwaysLocalStrategy>());
  sys.enable_arrivals();
  sys.run_for(50.0);
  sys.stop_arrivals();
  sys.drain();

  const Metrics& m = sys.metrics();
  ASSERT_GT(m.completions, 0u);
  // Quantiles come from fixed-bin histograms: monotone in q and bounded by
  // the response-time quantile of the same run.
  const double p50 = m.phase_quantile(Phase::CpuService, 0.50);
  const double p95 = m.phase_quantile(Phase::CpuService, 0.95);
  const double p99 = m.phase_quantile(Phase::CpuService, 0.99);
  EXPECT_LE(p50, p95);
  EXPECT_LE(p95, p99);
  EXPECT_LE(p99, m.rt_histogram.quantile(0.99) + 1e-12);
}

}  // namespace
}  // namespace hls
