// Class B via remote function calls (ClassBMode::RemoteCalls) — the §3
// alternative the paper mentions but does not analyze.
#include <gtest/gtest.h>

#include "hybrid/hybrid_system.hpp"
#include "routing/basic_strategies.hpp"

namespace hls {
namespace {

SystemConfig rfc_config() {
  SystemConfig cfg;
  cfg.arrival_rate_per_site = 0.0;
  cfg.class_b_mode = ClassBMode::RemoteCalls;
  return cfg;
}

Transaction class_b(TxnId id, int site, std::vector<LockNeed> locks) {
  Transaction txn;
  txn.id = id;
  txn.cls = TxnClass::B;
  txn.home_site = site;
  txn.locks = std::move(locks);
  txn.call_io.assign(txn.locks.size(), true);
  return txn;
}

TEST(RfcMode, SingleCallExactResponseTime) {
  HybridSystem sys(rfc_config(), std::make_unique<AlwaysLocalStrategy>());
  sys.inject_transaction(class_b(1, 0, {{5, LockMode::Exclusive}}));
  sys.simulator().run();
  // home init 0.075 + setup 0.035 + call cpu 0.03
  // + D 0.2 + remote serve 0.001 + io 0.025 + D 0.2 + reply cpu 0.002
  // + commit cpu 0.075 + D 0.2 + central commit 0.005
  // + auth (0.2 + 0.01 + 0.2) + response leg 0.2.
  const double expected = 0.075 + 0.035 + 0.03 + 0.2 + 0.001 + 0.025 + 0.2 +
                          0.002 + 0.075 + 0.2 + 0.005 + (0.2 + 0.01 + 0.2) +
                          0.2;
  ASSERT_EQ(sys.metrics().completions_class_b, 1u);
  EXPECT_NEAR(sys.metrics().rt_class_b.mean(), expected, 1e-9);
  EXPECT_EQ(sys.live_transactions(), 0);
  EXPECT_EQ(sys.central_locks().locks_held(), 0u);
}

TEST(RfcMode, EachCallPaysARoundTrip) {
  HybridSystem sys(rfc_config(), std::make_unique<AlwaysLocalStrategy>());
  sys.inject_transaction(class_b(1, 0,
                                 {{5, LockMode::Shared},
                                  {3300, LockMode::Shared},
                                  {6600, LockMode::Shared}}));
  HybridSystem one_call(rfc_config(), std::make_unique<AlwaysLocalStrategy>());
  one_call.inject_transaction(class_b(1, 0, {{5, LockMode::Shared}}));
  sys.simulator().run();
  one_call.simulator().run();
  const double delta =
      sys.metrics().rt_class_b.mean() - one_call.metrics().rt_class_b.mean();
  // Two extra calls at >= 0.4 s round trip each.
  EXPECT_GT(delta, 0.8);
}

TEST(RfcMode, ShippingBeatsRemoteCallsForClassB) {
  // The quantitative reason the paper ships class B instead.
  SystemConfig ship_cfg = rfc_config();
  ship_cfg.class_b_mode = ClassBMode::Ship;
  HybridSystem shipped(ship_cfg, std::make_unique<AlwaysLocalStrategy>());
  shipped.inject(TxnClass::B, 0);
  shipped.simulator().run();

  HybridSystem rfc(rfc_config(), std::make_unique<AlwaysLocalStrategy>());
  rfc.inject(TxnClass::B, 0);
  rfc.simulator().run();

  EXPECT_LT(shipped.metrics().rt_class_b.mean(),
            rfc.metrics().rt_class_b.mean() / 3.0);
}

TEST(RfcMode, InvalidationForcesRerunFromHome) {
  SystemConfig cfg = rfc_config();
  cfg.call_io_time = 0.5;  // slow calls: wide invalidation window
  HybridSystem sys(cfg, std::make_unique<AlwaysLocalStrategy>());
  sys.inject_transaction(class_b(2, 5,
                                 {{5, LockMode::Exclusive},
                                  {3300, LockMode::Exclusive},
                                  {6600, LockMode::Exclusive}}));
  // A local class A transaction updates entity 5 while the remote-call
  // transaction is mid-flight.
  Transaction local;
  local.id = 1;
  local.cls = TxnClass::A;
  local.home_site = 0;
  local.locks = {{5, LockMode::Exclusive}};
  local.call_io = {true};
  sys.inject_transaction(local);
  sys.simulator().run();
  const Metrics& m = sys.metrics();
  EXPECT_EQ(m.completions, 2u);
  EXPECT_GE(m.aborts[static_cast<int>(AbortCause::CentralInvalidated)], 1u);
  EXPECT_EQ(sys.central_locks().locks_held(), 0u);
  sys.check_invariants();
}

TEST(RfcMode, StochasticLoadDrainsCleanly) {
  SystemConfig cfg = rfc_config();
  cfg.arrival_rate_per_site = 0.8;  // remote calls are slow; keep load modest
  cfg.seed = 61;
  HybridSystem sys(cfg, std::make_unique<StaticProbabilisticStrategy>(0.3, 61));
  sys.enable_arrivals();
  sys.run_for(120.0);
  sys.stop_arrivals();
  sys.drain();
  EXPECT_EQ(sys.live_transactions(), 0);
  EXPECT_EQ(sys.metrics().completions,
            sys.metrics().arrivals_class_a + sys.metrics().arrivals_class_b);
  EXPECT_EQ(sys.central_resident(), 0);
  sys.check_invariants();
}

// Two remote-call transactions deadlock at the central copy. The older one
// (id 1, site 0, t=0) locks 5 then 6 with call I/O; the younger one (id 2,
// site 1, t=0.01) locks 6 then 5 without call I/O, so it runs ahead:
//   old:   lock 5 at 0.341, second request (for 6) served at 0.799;
//   young: lock 6 at 0.351, waits on 5 from 0.784.
// The old transaction's request at 0.799 closes the cycle; the victim
// policy decides who reruns. A remote-call rerun restarts at home after the
// abort outcome travels down (comm_delay), as a memory-resident run.
struct RfcDeadlockRun {
  Metrics metrics;
  double rt_old = 0.0;
  double rt_young = 0.0;
  std::uint64_t deadlocks_at_central = 0;
};

RfcDeadlockRun run_rfc_deadlock(DeadlockVictim policy) {
  SystemConfig cfg = rfc_config();
  cfg.deadlock_victim = policy;
  HybridSystem sys(cfg, std::make_unique<AlwaysLocalStrategy>());
  RfcDeadlockRun out;
  sys.set_completion_hook([&out](const TxnCompletionRecord& r) {
    (r.id == 1 ? out.rt_old : out.rt_young) = r.response_time;
  });
  sys.inject_transaction(
      class_b(1, 0, {{5, LockMode::Exclusive}, {6, LockMode::Exclusive}}));
  Transaction young =
      class_b(2, 1, {{6, LockMode::Exclusive}, {5, LockMode::Exclusive}});
  young.call_io = {false, false};
  HybridSystem* raw = &sys;
  sys.simulator().schedule_at(
      0.01, [raw, young] { raw->inject_transaction(young); });
  sys.simulator().run();
  sys.check_invariants();
  EXPECT_EQ(sys.live_transactions(), 0);
  EXPECT_EQ(sys.central_locks().locks_held(), 0u);
  out.deadlocks_at_central = sys.central_locks().deadlocks_detected();
  out.metrics = sys.metrics();
  return out;
}

TEST(RfcMode, DeadlockAtCentralRequesterPolicyExact) {
  const RfcDeadlockRun run = run_rfc_deadlock(DeadlockVictim::Requester);
  // The old requester aborts at 0.799, releasing 5 to the young waiter.
  // Young: reply home 0.999 (+0.002), commit 0.075, up 0.2, central commit
  // 0.005 -> 1.281, auth at site 0 (0.2 + 0.01 + 0.2) -> 1.691, response
  // 0.2 -> 1.891, minus arrival 0.01.
  // Old: rerun from home at 0.999 (init 0.075, call 0.03, up 0.2, serve
  // 0.001), waits on 5 until 1.691, reply home 1.891 queued behind the
  // young's 0.005 grant release at site 0 -> 1.898, call 2 round trip
  // (0.03 + 0.2 + 0.001 + 0.2 + 0.002) -> 2.331, commit 0.075 + 0.2 +
  // 0.005 -> 2.611, auth 0.41 -> 3.021, response -> 3.221.
  EXPECT_NEAR(run.rt_young, 1.881, 1e-9);
  EXPECT_NEAR(run.rt_old, 3.221, 1e-9);
  const Metrics& m = run.metrics;
  EXPECT_EQ(m.completions_class_b, 2u);
  EXPECT_EQ(m.aborts[static_cast<int>(AbortCause::Deadlock)], 1u);
  EXPECT_EQ(m.aborts_total(), 1u);
  EXPECT_EQ(run.deadlocks_at_central, 1u);
  EXPECT_EQ(m.rt_first_try.count(), 1u);
  EXPECT_EQ(m.rt_rerun.count(), 1u);
}

TEST(RfcMode, DeadlockAtCentralYoungestPolicyExact) {
  const RfcDeadlockRun run = run_rfc_deadlock(DeadlockVictim::Youngest);
  // The young waiter is force-aborted at 0.799 and the old request is
  // re-issued and granted at once.
  // Old: io 0.025, reply home 0.2 + 0.002, commit 0.075 + 0.2 + 0.005 ->
  // 1.306, auth 0.41 -> 1.716, response -> 1.916.
  // Young: rerun from home at 0.999, its call reaches central at 1.304 and
  // is served behind the old commit (1.306-1.307), waits on 6 until 1.716,
  // reply home 1.918, call 2 round trip -> 2.351, commit -> 2.631, auth ->
  // 3.041, response -> 3.241, minus arrival 0.01.
  EXPECT_NEAR(run.rt_old, 1.916, 1e-9);
  EXPECT_NEAR(run.rt_young, 3.231, 1e-9);
  const Metrics& m = run.metrics;
  EXPECT_EQ(m.completions_class_b, 2u);
  EXPECT_EQ(m.aborts[static_cast<int>(AbortCause::Deadlock)], 1u);
  EXPECT_EQ(m.aborts_total(), 1u);
  EXPECT_EQ(run.deadlocks_at_central, 1u);
  EXPECT_EQ(m.rt_first_try.count(), 1u);
  EXPECT_EQ(m.rt_rerun.count(), 1u);
}

TEST(RfcMode, ClassAUnaffectedByMode) {
  HybridSystem sys(rfc_config(), std::make_unique<AlwaysLocalStrategy>());
  Transaction txn;
  txn.id = 1;
  txn.cls = TxnClass::A;
  txn.home_site = 0;
  txn.locks = {{5, LockMode::Exclusive}};
  txn.call_io = {true};
  sys.inject_transaction(txn);
  sys.simulator().run();
  const double expected = 0.075 + 0.035 + 0.055 + 0.080;  // as in Ship mode
  EXPECT_NEAR(sys.metrics().rt_local_a.mean(), expected, 1e-9);
}

}  // namespace
}  // namespace hls
