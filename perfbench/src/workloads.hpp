// The benchmark's workloads and the instrumented run that measures them.
//
// A workload is built as a library user builds a study: a SystemConfig and a
// strategy spec, driven through HybridSystem (one run) or ExperimentRunner
// (the figure 4.1 sweep). run_job() mirrors the library's run_simulation —
// same strategy seed, warmup, begin_measurement, window, end_measurement —
// and adds what a benchmark needs around it: host timings, a completion hook,
// optional timing decorators, and correctness checks after the timed part.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "host_speed.hpp"
#include "hybrid/config.hpp"
#include "hybrid/metrics.hpp"
#include "probes.hpp"
#include "routing/factory.hpp"

namespace hlsperf {

/// One simulation run: a configuration, a strategy and its windows.
struct Job {
  hls::SystemConfig config;
  hls::StrategySpec spec;
  double warmup_s = 0.0;  ///< simulated seconds
  double window_s = 0.0;  ///< simulated seconds
  /// Attach a CsvSink over all scalar event kinds writing into a discarding
  /// stream (the observability-present workload).
  bool csv_sink = false;
  /// Sized below saturation: the window must end without a growing backlog.
  bool below_saturation = true;
};

/// A named workload; BENCHMARK.json and NOTES.md say why each exists.
struct Workload {
  std::string name;
  /// Single-run workloads have one job; the sweep has one per design point.
  std::vector<Job> jobs;
  /// True for the ExperimentRunner batch (fig41-sweep).
  bool sweep = false;
  /// Jobs whose modelled response times the workload reports.
  std::vector<std::size_t> rt_jobs;
};

[[nodiscard]] const std::vector<std::string>& workload_names();
[[nodiscard]] std::optional<Workload> make_workload(const std::string& name,
                                                    std::uint64_t seed);

/// Strategy specs and labels of figure 4.1, in ExperimentRunner order.
[[nodiscard]] std::vector<hls::StrategySpec> fig41_specs();
[[nodiscard]] std::vector<std::string> fig41_labels();
/// The measured window runs in this many timed slices (more samples of the
/// host's rate per run).
inline constexpr int kWindowChunks = 20;

/// Windows of the figure benches at HLS_TIME_SCALE=1.
inline constexpr double kFigWarmup = 150.0;
inline constexpr double kFigWindow = 800.0;

/// Simulated-run summary that must be bit-identical between any two runs of
/// the same job: traced or not, in a batch or alone.
struct Fingerprint {
  std::uint64_t events = 0;       ///< executed by window end (warmup included)
  std::uint64_t arrivals = 0;     ///< window, both classes
  std::uint64_t completions = 0;  ///< window
  std::uint64_t reruns = 0;       ///< window
  std::uint64_t deadlocks = 0;    ///< all lock managers, by window end
  std::uint64_t link_msgs = 0;    ///< both directions of every link, by window end
  std::uint64_t rt_sum_bits = 0;  ///< bit pattern of the window RT sum
  bool operator==(const Fingerprint&) const = default;
};

struct JobResult {
  // ---- host time ----
  double setup_s = 0.0;   ///< config -> first simulated event
  double wall_s = 0.0;    ///< setup + warmup + window
  double window_host_s = 0.0;
  /// Events and completions per host second of each timed window slice.
  std::vector<double> chunk_event_rates;
  std::vector<double> chunk_txn_rates;
  /// Runs given a HostSpeed: the host's slowdown over each slice (the mean
  /// of the reference samples on either side of it). wall_s and
  /// window_host_s exclude the samples' time.
  std::vector<double> chunk_slowdown;
  /// setup_s and wall_s with each part divided by the slowdown measured next
  /// to it: setup and warmup by the sample taken before the window, each
  /// slice by its own. Equal to the raw figures on a run without HostSpeed.
  double scaled_setup_s = 0.0;
  double scaled_wall_s = 0.0;
  double task_s = 0.0;    ///< everything, checks included
  // ---- simulated outcome ----
  Fingerprint fp;
  hls::Metrics metrics;  ///< measurement window
  std::vector<double> window_rts;  ///< RT of every completion in the window
  std::uint64_t window_events = 0;
  std::uint64_t window_msgs = 0;
  std::uint64_t window_deadlocks = 0;
  std::uint64_t cpu_bursts = 0;  ///< window, central + sites
  double mean_in_flight = 0.0;   ///< messages on the wire, window average
  // ---- correctness ----
  std::vector<std::string> failures;
  // ---- traced runs only ----
  Ledger ledger;                 ///< measured window (and the final flush)
  std::uint64_t depth_sum = 0;   ///< pending events summed over decisions
};

/// Runs one job. With `traced`, the strategy and the CSV sink are wrapped in
/// the timing decorators; with `speed`, the reference kernel is sampled
/// before the window and after each slice, outside the timers. The simulated
/// run is identical either way.
[[nodiscard]] JobResult run_job(const Job& job, bool traced,
                                HostSpeed* speed = nullptr);

/// Host seconds of the job's setup alone (strategy, system, arrivals).
[[nodiscard]] double setup_only(const Job& job);

/// A set of jobs run over a TaskPool of `workers`.
struct Pass {
  std::vector<JobResult> jobs;
  double wall_s = 0.0;
  unsigned workers = 1;
  /// Sum of task times over workers x pass wall; at most 1 because at most
  /// `workers` tasks run at once inside the pass.
  [[nodiscard]] double parallel_eff() const;
};
[[nodiscard]] Pass run_pass(const std::vector<Job>& jobs, unsigned workers,
                            bool traced);

}  // namespace hlsperf
