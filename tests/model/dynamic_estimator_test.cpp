#include "model/dynamic_estimator.hpp"

#include <gtest/gtest.h>

#include <cstring>
#include <utility>
#include <vector>

namespace hls {
namespace {

SystemConfig base_config() {
  SystemConfig cfg;
  return cfg;
}

SystemStateView make_view(const SystemConfig& cfg, int ql, int qc, int nl, int nc,
                          int locks_l, int locks_c) {
  SystemStateView v;
  v.config = &cfg;
  v.site = 0;
  v.local_cpu_queue = ql;
  v.central_cpu_queue = qc;
  v.local_num_txns = nl;
  v.central_num_txns = nc;
  v.local_locks_held = locks_l;
  v.central_locks_held = locks_c;
  return v;
}

class EstimatorTest : public ::testing::TestWithParam<UtilSource> {
 protected:
  SystemConfig cfg = base_config();
  ModelParams params = ModelParams::from_config(cfg);
};

TEST_P(EstimatorTest, EstimatesAreFiniteAndPositive) {
  DynamicEstimator est(params, GetParam());
  const auto r = est.estimate(make_view(cfg, 3, 5, 4, 20, 30, 100));
  EXPECT_GT(r.r_incoming_local, 0.0);
  EXPECT_GT(r.r_incoming_ship, 0.0);
  EXPECT_GT(r.r_avg_if_local, 0.0);
  EXPECT_GT(r.r_avg_if_ship, 0.0);
  EXPECT_LT(r.r_incoming_local, 1e3);
  EXPECT_LT(r.r_incoming_ship, 1e3);
}

TEST_P(EstimatorTest, EmptySystemPrefersLocal) {
  // With everything idle, shipping still pays the communication legs, so
  // the incoming transaction's local estimate must win.
  DynamicEstimator est(params, GetParam());
  const auto r = est.estimate(make_view(cfg, 0, 0, 0, 0, 0, 0));
  EXPECT_LT(r.r_incoming_local, r.r_incoming_ship);
  EXPECT_LT(r.r_avg_if_local, r.r_avg_if_ship);
}

TEST_P(EstimatorTest, OverloadedLocalSitePrefersShipping) {
  DynamicEstimator est(params, GetParam());
  const auto r = est.estimate(make_view(cfg, 40, 0, 50, 0, 120, 0));
  EXPECT_GT(r.r_incoming_local, r.r_incoming_ship);
  EXPECT_GT(r.r_avg_if_local, r.r_avg_if_ship);
}

TEST_P(EstimatorTest, LocalEstimateMonotoneInLocalBacklog) {
  DynamicEstimator est(params, GetParam());
  double prev = 0.0;
  for (int backlog = 0; backlog <= 40; backlog += 10) {
    const auto r = est.estimate(make_view(cfg, backlog, 2, backlog, 5, 20, 40));
    EXPECT_GE(r.r_incoming_local, prev);
    prev = r.r_incoming_local;
  }
}

TEST_P(EstimatorTest, ShipEstimateMonotoneInCentralBacklog) {
  DynamicEstimator est(params, GetParam());
  double prev = 0.0;
  for (int backlog = 0; backlog <= 60; backlog += 15) {
    const auto r = est.estimate(make_view(cfg, 2, backlog, 3, backlog, 20, 40));
    EXPECT_GE(r.r_incoming_ship, prev);
    prev = r.r_incoming_ship;
  }
}

TEST_P(EstimatorTest, UtilizationsGrowWithState) {
  DynamicEstimator est(params, GetParam());
  const auto idle = est.utilizations(make_view(cfg, 0, 0, 0, 0, 0, 0));
  const auto busy = est.utilizations(make_view(cfg, 8, 30, 10, 40, 0, 0));
  EXPECT_DOUBLE_EQ(idle.first, 0.0);
  EXPECT_DOUBLE_EQ(idle.second, 0.0);
  EXPECT_GT(busy.first, 0.5);
  EXPECT_GT(busy.second, 0.3);
  EXPECT_LE(busy.first, 0.99);
  EXPECT_LE(busy.second, 0.99);
}

TEST_P(EstimatorTest, ContentionRaisesLocalEstimate) {
  DynamicEstimator est(params, GetParam());
  const auto quiet = est.estimate(make_view(cfg, 3, 3, 4, 10, 0, 0));
  const auto contended = est.estimate(make_view(cfg, 3, 3, 4, 10, 800, 3000));
  EXPECT_GT(contended.r_incoming_local, quiet.r_incoming_local);
  EXPECT_GT(contended.r_incoming_ship, quiet.r_incoming_ship);
}

INSTANTIATE_TEST_SUITE_P(Sources, EstimatorTest,
                         ::testing::Values(UtilSource::CpuQueue,
                                           UtilSource::NumInSystem));

TEST(EstimatorHeterogeneity, SlowSiteRaisesLocalEstimateOnly) {
  SystemConfig cfg;
  cfg.num_sites = 2;
  cfg.local_mips_per_site = {0.25, 4.0};  // site 0 slow, site 1 fast
  const ModelParams p = ModelParams::from_config(cfg);
  DynamicEstimator est(p, UtilSource::NumInSystem);
  SystemStateView slow = make_view(cfg, 2, 2, 2, 4, 10, 20);
  slow.site = 0;
  SystemStateView fast = slow;
  fast.site = 1;
  const auto r_slow = est.estimate(slow);
  const auto r_fast = est.estimate(fast);
  // Local CPU terms quadruple on the slow site and quarter on the fast one;
  // the ship estimate differs only by the forwarding burst.
  EXPECT_GT(r_slow.r_incoming_local, 2.0 * r_fast.r_incoming_local);
  EXPECT_NEAR(r_slow.r_incoming_ship, r_fast.r_incoming_ship,
              0.25 * r_fast.r_incoming_ship);
}

TEST(EstimatorHeterogeneity, SpeedFactorDefaultsToOne) {
  SystemConfig cfg;
  SystemStateView v = make_view(cfg, 0, 0, 0, 0, 0, 0);
  EXPECT_DOUBLE_EQ(DynamicEstimator::local_speed_factor(v), 1.0);
  v.config = nullptr;
  EXPECT_DOUBLE_EQ(DynamicEstimator::local_speed_factor(v), 1.0);
}

TEST(EstimatorInversion, QueueInversionMatchesMm1) {
  // rho = q/(q+1): spot checks.
  const SystemConfig cfg = base_config();
  DynamicEstimator est(ModelParams::from_config(cfg), UtilSource::CpuQueue);
  const auto u0 = est.utilizations(make_view(cfg, 1, 3, 0, 0, 0, 0));
  EXPECT_NEAR(u0.first, 0.5, 1e-12);
  EXPECT_NEAR(u0.second, 0.75, 1e-12);
}

TEST(EstimatorInversion, CountInversionRecoversUtilizationRoundTrip) {
  // Forward: a station with utilization rho holds rho/(1-rho) jobs at the
  // CPU and (rho/s)*d_nc elsewhere; the inversion must recover rho.
  const SystemConfig cfg = base_config();
  const ModelParams p = ModelParams::from_config(cfg);
  DynamicEstimator est(p, UtilSource::NumInSystem);
  const double s = p.local_cpu(p.instr_msg_init) +
                   p.n_calls * p.local_cpu(p.instr_per_call) +
                   p.local_cpu(p.instr_msg_commit);
  const double d_nc = p.setup_io + p.n_calls * p.call_io;
  // Only higher utilizations round-trip tightly: the view carries integer
  // transaction counts, so small populations quantize coarsely.
  for (double rho : {0.8, 0.9, 0.95}) {
    const double n = rho / (1.0 - rho) + rho / s * d_nc;
    const auto u = est.utilizations(
        make_view(cfg, 0, 0, static_cast<int>(n + 0.5), 0, 0, 0));
    EXPECT_NEAR(u.first, rho, 0.05);
  }
}


// ---- the memoized number-in-system inversion ----

bool same_bits(const RouteEstimate& x, const RouteEstimate& y) {
  return std::memcmp(&x, &y, sizeof(RouteEstimate)) == 0;
}

bool same_bits(const std::pair<double, double>& x,
               const std::pair<double, double>& y) {
  return std::memcmp(&x.first, &y.first, sizeof(double)) == 0 &&
         std::memcmp(&x.second, &y.second, sizeof(double)) == 0;
}

class EstimatorMemoTest : public ::testing::TestWithParam<UtilSource> {};

TEST_P(EstimatorMemoTest, WarmEstimatorMatchesFreshOneBitForBit) {
  SystemConfig homogeneous;
  homogeneous.num_sites = 3;
  SystemConfig mixed = homogeneous;
  // Site 0 runs at the configured speed (factor exactly 1), the others not.
  mixed.local_mips_per_site = {mixed.local_mips, 0.25, 4.0};
  for (const SystemConfig* cfg : {&homogeneous, &mixed}) {
    const ModelParams p = ModelParams::from_config(*cfg);
    std::vector<SystemStateView> views;
    for (int site = 0; site < cfg->num_sites; ++site) {
      for (const int nl : {-3, -1, 0, 1, 2, 5, 17, 40}) {
        for (const int nc : {-2, 0, 1, 9, 33, 120}) {
          SystemStateView v =
              make_view(*cfg, nl, nc / 3, nl, nc, 3 * nl, 5 * nc);
          v.site = site;
          views.push_back(v);
        }
      }
    }
    // Warm one estimator over the grid in reverse, so later lookups hit
    // entries filled by other sites and counts.
    DynamicEstimator warm(p, GetParam());
    for (auto it = views.rbegin(); it != views.rend(); ++it) {
      (void)warm.estimate(*it);
    }
    for (const SystemStateView& v : views) {
      const RouteEstimate hot = warm.estimate(v);
      const RouteEstimate again = warm.estimate(v);
      const RouteEstimate cold = DynamicEstimator(p, GetParam()).estimate(v);
      EXPECT_TRUE(same_bits(hot, cold))
          << "site " << v.site << " n_l " << v.local_num_txns << " n_c "
          << v.central_num_txns;
      EXPECT_TRUE(same_bits(hot, again)) << "site " << v.site;
      EXPECT_TRUE(same_bits(warm.utilizations(v),
                            DynamicEstimator(p, GetParam()).utilizations(v)));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Sources, EstimatorMemoTest,
                         ::testing::Values(UtilSource::CpuQueue,
                                           UtilSource::NumInSystem));

}  // namespace
}  // namespace hls
