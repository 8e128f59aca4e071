// State-based response-time estimation for the dynamic strategies (§3.2).
//
// Where the static model works from arrival rates, the dynamic estimator
// works from the observed system state at decision time:
//
//   * utilization is inverted from the CPU queue length
//     (rho = (q+a)/(q+1+a), the M/M/1 inversion with the incoming
//     transaction's contribution `a` added on the side it would be routed
//     to), or from the number of transactions in system
//     (rho = alpha * (n+a), alpha being the fraction of its residence a
//     transaction spends at the CPU) — the paper's two variants §3.2.1(a)
//     and (b);
//   * contention probabilities come from the observed lock counts
//     (e.g. P = n_lock / lockspace) rather than rate * hold-time products;
//   * abort probabilities reuse the residual-time split of the static model.
//
// The estimator returns both the incoming transaction's estimated response
// time for each routing option (§3.2.1) and the estimated average response
// time over all currently running transactions (§3.2.2).
#pragma once

#include <array>
#include <vector>

#include "model/params.hpp"
#include "routing/strategy.hpp"

namespace hls {

enum class UtilSource {
  CpuQueue,     ///< utilization from CPU queue lengths (§3.2.1a)
  NumInSystem,  ///< utilization from transactions-in-system counts (§3.2.1b)
};

struct RouteEstimate {
  // Estimated response time of the incoming transaction.
  double r_incoming_local = 0.0;
  double r_incoming_ship = 0.0;
  // Estimated average response time over all running transactions for each
  // routing option (the §3.2.2 objective).
  double r_avg_if_local = 0.0;
  double r_avg_if_ship = 0.0;
  // Utilization estimates excluding the incoming transaction (also used by
  // the tuned threshold heuristic §3.2.4).
  double rho_local = 0.0;
  double rho_central = 0.0;
};

/// estimate() and utilizations() memoize the number-in-system inversion in
/// the estimator, so one estimator must not be called from two threads at
/// once. Each run builds its own strategy and with it its own estimator, so
/// parallel sweep workers never share one.
class DynamicEstimator {
 public:
  DynamicEstimator(ModelParams base, UtilSource source);

  [[nodiscard]] RouteEstimate estimate(const SystemStateView& view) const;

  /// Utilization pair (local, central) inverted from the observed state,
  /// without any incoming-transaction correction.
  [[nodiscard]] std::pair<double, double> utilizations(
      const SystemStateView& view) const;

  [[nodiscard]] UtilSource source() const { return source_; }

  /// Local-CPU scale factor for the arriving site (per-site MIPS override;
  /// 1 when the configuration is homogeneous or absent).
  [[nodiscard]] static double local_speed_factor(const SystemStateView& view);

 private:
  struct Rts {
    double r_local = 0.0;    ///< class A run locally
    double r_shipped = 0.0;  ///< class A shipped (incl. both comm legs)
    double r_central = 0.0;  ///< a central-resident transaction (no ship leg)
  };
  /// Response times under given utilizations and observed lock counts.
  /// `speed` scales local CPU times for heterogeneous sites (1 = the
  /// configured default local_mips; 0.5 = a site twice as fast).
  [[nodiscard]] Rts response_times(double rho_l, double rho_c, double speed,
                                   const SystemStateView& view) const;

  [[nodiscard]] double rho_from_queue(int queue, double extra) const;
  /// Inverts "transactions in system" to utilization by Little's law:
  /// n = rho/(1-rho) + rho * d_nc / s, where s is the CPU demand per
  /// transaction and d_nc its non-CPU residence (I/O, lock-free delays).
  [[nodiscard]] static double rho_from_count(double n, double s, double d_nc);

  enum class Tier { Local, Central };
  /// rho_from_count for n = max(0, count) + extra transactions at `tier`,
  /// with the local CPU demand scaled by `speed`. Memoized per (tier, n):
  /// for a fixed estimator the result depends on nothing else unless the
  /// local speed differs from 1, which bypasses the memo.
  [[nodiscard]] double rho_count(Tier tier, int count, int extra,
                                 double speed) const;

  ModelParams base_;
  UtilSource source_;
  double s_local_;     ///< CPU seconds per local transaction
  double dnc_local_;   ///< non-CPU residence of a local transaction
  double s_central_;   ///< CPU seconds per central transaction
  double dnc_central_; ///< non-CPU residence of a central transaction
  /// rho_count results indexed [local, central][n]; NaN = not computed yet.
  mutable std::array<std::vector<double>, 2> rho_cache_;
};

}  // namespace hls
