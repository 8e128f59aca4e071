// Measurement container for one simulation run.
//
// Collected by HybridSystem during the measurement window (after warmup is
// discarded) and summarized by the experiment harness. Categories follow the
// paper's six transaction kinds: local / shipped / central, first-run /
// rerun, plus abort causes.
#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "hybrid/transaction.hpp"
#include "obs/phase.hpp"
#include "util/stats.hpp"

namespace hls {

/// One SampleStat per obs::Phase (indexable by the enum).
using PhaseStats = std::array<SampleStat, obs::kPhaseCount>;

/// Phase-time histograms matching Metrics::rt_histogram's binning
/// (Histogram has no default constructor, hence the vector + factory).
[[nodiscard]] inline std::vector<Histogram> make_phase_histograms() {
  return std::vector<Histogram>(obs::kPhaseCount, Histogram{0.1, 400});
}

/// Immutable record emitted for every transaction completion; the raw
/// material for custom analyses (HybridSystem::set_completion_hook). A CSV
/// completion trace is obs::CsvSink with a Completion-only mask.
struct TxnCompletionRecord {
  TxnId id = kInvalidTxn;
  TxnClass cls = TxnClass::A;
  Route route = Route::Local;
  int home_site = 0;
  double arrival_time = 0.0;
  double completion_time = 0.0;
  double response_time = 0.0;
  int runs = 1;  ///< total executions (1 = committed first try)
  int aborts[static_cast<int>(AbortCause::kCount)] = {};
  /// Where the response time went (seconds per obs::Phase; sums to
  /// response_time — the phase-sum identity, checked at completion).
  double phase[obs::kPhaseCount] = {};
  /// Time burned by this transaction's aborted attempts (subset of the
  /// phase[] totals above; zero when runs == 1).
  double wasted_cpu = 0.0;
  double wasted_io = 0.0;
  double wasted_total = 0.0;
};

/// Per-site breakdown, maintained alongside the global Metrics.
struct SiteMetrics {
  SampleStat rt_local_a;    ///< class A from this site run locally
  SampleStat rt_shipped_a;  ///< class A from this site shipped to central
  PhaseStats rt_phase;      ///< phase breakdown of completions homed here
  std::uint64_t arrivals_class_a = 0;
  std::uint64_t shipped_class_a = 0;

  // ---- fault handling, attributed to the home site ----
  // The global Metrics counters are maintained alongside these; the system's
  // check_invariants() asserts global == sum over sites for all three.
  std::uint64_t ship_timeouts = 0;
  std::uint64_t ship_retries = 0;
  std::uint64_t ship_fallbacks = 0;

  // ---- message-level chaos defenses, attributed to the link's site ----
  // Same double-entry rule: check_invariants() asserts global == sum over
  // sites for both.
  std::uint64_t dup_msgs_dropped = 0;  ///< duplicate deliveries rejected
  std::uint64_t msgs_resequenced = 0;  ///< out-of-order deliveries buffered

  // ---- abort provenance, attributed to the victim's home site ----
  // check_invariants() asserts the per-cause sums over sites equal the
  // global Metrics::aborts array entry for entry.
  std::uint64_t aborts[static_cast<int>(AbortCause::kCount)] = {};
  double wasted_cpu = 0.0;  ///< aborted-attempt CPU of victims homed here
  double wasted_io = 0.0;   ///< aborted-attempt I/O of victims homed here

  [[nodiscard]] std::uint64_t aborts_total() const {
    std::uint64_t sum = 0;
    for (std::uint64_t a : aborts) {
      sum += a;
    }
    return sum;
  }

  [[nodiscard]] double ship_fraction() const {
    return arrivals_class_a > 0
               ? static_cast<double>(shipped_class_a) /
                     static_cast<double>(arrivals_class_a)
               : 0.0;
  }
};

struct Metrics {
  // ---- response times (seconds) ----
  SampleStat rt_all;        ///< the paper's headline: class A and B combined
  SampleStat rt_local_a;    ///< class A run at the home site
  SampleStat rt_shipped_a;  ///< class A shipped to the central site
  SampleStat rt_class_b;
  SampleStat rt_first_try;  ///< transactions that never aborted
  SampleStat rt_rerun;      ///< transactions that aborted at least once
  Histogram rt_histogram{0.1, 400};  ///< 0.1 s bins up to 40 s

  // ---- phase-level breakdown (obs/phase.hpp taxonomy) ----
  // One sample per completion and phase, even when the phase contributed
  // zero seconds, so phase means compose: sum of means == mean of rt_all.
  PhaseStats rt_phase;
  std::vector<Histogram> rt_phase_hist = make_phase_histograms();

  /// Mean seconds a completed transaction spent in `p`.
  [[nodiscard]] double phase_mean(obs::Phase p) const {
    return rt_phase[static_cast<std::size_t>(p)].mean();
  }

  /// Deterministic quantile of the per-phase distribution (e.g. 0.95).
  [[nodiscard]] double phase_quantile(obs::Phase p, double q) const {
    return rt_phase_hist[static_cast<std::size_t>(p)].quantile(q);
  }

  // ---- counts over the measurement window ----
  std::uint64_t arrivals_class_a = 0;
  std::uint64_t arrivals_class_b = 0;
  std::uint64_t shipped_class_a = 0;  ///< class A arrivals routed to central
  std::uint64_t completions = 0;
  std::uint64_t completions_local_a = 0;
  std::uint64_t completions_shipped_a = 0;
  std::uint64_t completions_class_b = 0;
  std::uint64_t aborts[static_cast<int>(AbortCause::kCount)] = {};
  std::uint64_t reruns = 0;  ///< total re-executions (= sum of aborts)

  // ---- abort provenance ----
  /// Aborts for which a specific winning transaction was identified
  /// (async-update invalidation, auth preemption, auth refusal by a named
  /// holder, deadlock). Crash/timeout aborts have no winner.
  std::uint64_t aborts_with_winner = 0;
  /// Aborted-attempt time, split by the cause that threw it away.
  double wasted_cpu_by_cause[static_cast<int>(AbortCause::kCount)] = {};
  double wasted_io_by_cause[static_cast<int>(AbortCause::kCount)] = {};
  /// One sample per completion: that transaction's total wasted time
  /// (zero for first-try commits, so the mean composes over completions).
  SampleStat wasted_per_txn;

  /// victim-home-site × winner-home-site abort counts, flattened row-major;
  /// the extra last column counts aborts with no winning transaction
  /// (crash sweeps, ship timeouts, coherence-in-flight refusals). Sized by
  /// init_conflict_matrix — Metrics::reset() clears it, so the system
  /// re-initializes it when a measurement window opens.
  std::vector<std::uint64_t> conflict_matrix;
  int conflict_sites = 0;

  void init_conflict_matrix(int n_sites) {
    conflict_sites = n_sites;
    conflict_matrix.assign(
        static_cast<std::size_t>(n_sites) *
            static_cast<std::size_t>(n_sites + 1),
        0);
  }

  void record_conflict(int victim_site, int winner_site) {
    if (conflict_sites == 0) return;  // outside a measurement window
    const int col = winner_site >= 0 ? winner_site : conflict_sites;
    conflict_matrix[static_cast<std::size_t>(victim_site) *
                        static_cast<std::size_t>(conflict_sites + 1) +
                    static_cast<std::size_t>(col)] += 1;
  }

  /// Entry (victim site row, winner site column; column n_sites = none).
  [[nodiscard]] std::uint64_t conflict(int victim_site, int winner_col) const {
    return conflict_matrix[static_cast<std::size_t>(victim_site) *
                               static_cast<std::size_t>(conflict_sites + 1) +
                           static_cast<std::size_t>(winner_col)];
  }

  [[nodiscard]] std::uint64_t conflict_matrix_total() const {
    std::uint64_t sum = 0;
    for (std::uint64_t c : conflict_matrix) {
      sum += c;
    }
    return sum;
  }

  [[nodiscard]] double wasted_cpu_total() const {
    double s = 0.0;
    for (double w : wasted_cpu_by_cause) {
      s += w;
    }
    return s;
  }

  [[nodiscard]] double wasted_io_total() const {
    double s = 0.0;
    for (double w : wasted_io_by_cause) {
      s += w;
    }
    return s;
  }
  std::uint64_t async_updates_sent = 0;
  std::uint64_t auth_rounds = 0;
  std::uint64_t auth_negative_acks = 0;
  int max_reruns_seen = 0;

  // ---- fault handling (all zero without fault injection) ----
  std::uint64_t ship_timeouts = 0;    ///< shipped-txn timeout expiries
  std::uint64_t ship_retries = 0;     ///< reships after a timeout
  std::uint64_t ship_fallbacks = 0;   ///< retry budget exhausted; ran locally
  std::uint64_t central_crashes = 0;
  std::uint64_t central_recoveries = 0;
  std::uint64_t site_crashes = 0;
  std::uint64_t site_recoveries = 0;
  std::uint64_t backlog_replayed = 0;   ///< messages replayed at recovery
  std::uint64_t arrivals_rejected = 0;  ///< arrivals at a crashed site

  // ---- message-level chaos defenses (zero without message faults) ----
  /// Deliveries whose per-link sequence number was already processed or
  /// already buffered (duplicate-delivery chaos); the handler never ran.
  std::uint64_t dup_msgs_dropped = 0;
  /// Deliveries that arrived ahead of a sequence gap (reordering chaos) and
  /// were buffered until the gap filled; handlers ran in sequence order.
  std::uint64_t msgs_resequenced = 0;

  // ---- window ----
  double measure_start = 0.0;
  double measure_end = 0.0;

  // ---- utilization (filled in by the driver at window end) ----
  double central_utilization = 0.0;
  double mean_local_utilization = 0.0;
  double central_avg_queue = 0.0;
  double mean_local_avg_queue = 0.0;

  [[nodiscard]] double window_seconds() const { return measure_end - measure_start; }

  /// Completed transactions per second over the measurement window.
  [[nodiscard]] double throughput() const {
    const double w = window_seconds();
    return w > 0 ? static_cast<double>(completions) / w : 0.0;
  }

  /// Fraction of class A arrivals that were shipped to the central site.
  [[nodiscard]] double ship_fraction() const {
    return arrivals_class_a > 0
               ? static_cast<double>(shipped_class_a) /
                     static_cast<double>(arrivals_class_a)
               : 0.0;
  }

  [[nodiscard]] std::uint64_t aborts_total() const {
    std::uint64_t sum = 0;
    for (std::uint64_t a : aborts) {
      sum += a;
    }
    return sum;
  }

  /// Average number of runs per completed transaction (1 = no aborts).
  [[nodiscard]] double runs_per_txn() const {
    return completions > 0
               ? 1.0 + static_cast<double>(reruns) / static_cast<double>(completions)
               : 1.0;
  }

  void reset(double now) {
    *this = Metrics{};
    measure_start = now;
    measure_end = now;
  }
};

}  // namespace hls
