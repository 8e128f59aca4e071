// hlsperf: runs one benchmark workload for a host-time budget and prints its
// metrics.
//
//   hlsperf --workload NAME --seed N --seconds S --trace 0|1 [--out FILE]
//           [--git-sha SHA]
//
// --trace 0 reports the end-to-end metrics from untraced runs; --trace 1
// alternates untraced and traced runs of the same workload and reports the
// per-layer metrics, the tracing overhead and the ledger residual. A human
// table goes to stderr; the last stdout line is one JSON object
// {"correct", "attempted", "failed", "metrics"}. --out also writes the
// result split into exact keys (bit-reproducible for a seed) and timing keys,
// each stamped with the host _meta.
#include <sys/resource.h>

#include <algorithm>
#include <bit>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/experiment.hpp"
#include "host_speed.hpp"
#include "model/params.hpp"
#include "model/static_optimizer.hpp"
#include "probes.hpp"
#include "stats.hpp"
#include "workloads.hpp"

namespace {

using namespace hlsperf;

/// Sweep fan-out: a fixed count, capped by the host's cores.
constexpr unsigned kSweepWorkers = 4;
/// Setup-time samples, spread over the run because the host's speed for
/// setup flips between two states for seconds at a time: single-run
/// workloads take a burst of setup-only samples after every repetition, for
/// this share of its wall time (at least one sample); the sweep takes one
/// setup pass over all its jobs after every batch, and at least this many
/// passes. setup_s is the median of the samples or passes.
constexpr double kSetupShare = 0.02;
constexpr std::size_t kMinSweepSetupPasses = 3;
constexpr double kPercentile = 0.999;

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  int trace = -1;
  std::string out;
  std::string git_sha = "unknown";
};

bool parse_args(int argc, char** argv, Args& a) {
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    if (i + 1 >= argc) {
      return false;
    }
    const std::string val = argv[++i];
    char* end = nullptr;
    if (key == "--workload") {
      a.workload = val;
    } else if (key == "--seed") {
      a.seed = std::strtoull(val.c_str(), &end, 10);
      have_seed = end != val.c_str() && *end == '\0';
    } else if (key == "--seconds") {
      a.seconds = std::strtod(val.c_str(), &end);
      if (end == val.c_str() || *end != '\0') {
        return false;
      }
    } else if (key == "--trace") {
      a.trace = val == "0" ? 0 : val == "1" ? 1 : -1;
    } else if (key == "--out") {
      a.out = val;
    } else if (key == "--git-sha") {
      a.git_sha = val;
    } else {
      return false;
    }
  }
  return !a.workload.empty() && have_seed && a.seconds > 0.0 && a.trace >= 0;
}

/// Host-time budget of one invocation.
class Budget {
 public:
  explicit Budget(double seconds) : start_(Clock::now()), seconds_(seconds) {}
  /// True when another step expected to take `next_s` still fits.
  [[nodiscard]] bool room_for(double next_s) const {
    return seconds_since(start_) + next_s <= seconds_;
  }

 private:
  Clock::time_point start_;
  double seconds_;
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  bool exact = false;  ///< bit-reproducible for a given seed
};

/// Everything one invocation reports.
struct Outcome {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> failures;
  std::vector<Metric> metrics;      ///< the metrics named in BENCHMARK.json
  std::vector<Metric> extra;        ///< further keys for --out (exact and timing)
  bool traced = false;
  Ledger ledger;  ///< traced runs: the first traced repetition (all its jobs)
};

void add(std::vector<Metric>& v, std::string name, double value,
         std::string unit, bool exact) {
  v.push_back(Metric{std::move(name), value, std::move(unit), exact});
}

/// Records one simulation run's check results against the outcome.
void tally(Outcome& out, const JobResult& r, const std::string& label) {
  ++out.attempted;
  if (!r.failures.empty()) {
    ++out.failed;
    for (const std::string& f : r.failures) {
      out.failures.push_back(label + ": " + f);
    }
  }
}

/// Every host timing of a single-run workload is scaled by the reference
/// samples; if the kernel computed a different checksum on any call, every
/// run fails.
void check_speed(Outcome& out, const HostSpeed& speed) {
  if (!speed.consistent()) {
    out.failures.push_back("reference kernel checksum changed between calls");
    out.failed = out.attempted;
  }
}

/// Raw host figures next to the scaled ones, for the result file.
void add_raw(Outcome& out, const HostSpeed& speed, double events_per_s,
             double txns_per_s, double wall_s, double setup_s) {
  add(out.extra, "host.slowdown", median(speed.samples()), "ratio", false);
  add(out.extra, "raw.events_per_s", events_per_s, "ev/s", false);
  add(out.extra, "raw.txns_per_s", txns_per_s, "txn/s", false);
  add(out.extra, "raw.wall_s", wall_s, "s", false);
  add(out.extra, "raw.setup_s", setup_s, "s", false);
}

/// A run whose fingerprint differs from its reference fails.
void expect_fp(JobResult& r, const Fingerprint& ref, const std::string& what) {
  if (!(r.fp == ref)) {
    r.failures.push_back("fingerprint differs from " + what);
  }
}

/// Peak resident set of this process image so far (VmHWM; unlike
/// getrusage's ru_maxrss it does not inherit the peak of the process that
/// spawned it). Read after the first run (single-run workloads) or the first
/// pass (the sweep), so it does not depend on how many repetitions the host's
/// speed allowed.
double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB
    }
  }
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // kB on Linux
}

template <typename F>
std::vector<double> collect(const std::vector<JobResult>& rs, F f) {
  std::vector<double> v;
  for (const JobResult& r : rs) {
    v.push_back(f(r));
  }
  return v;
}

// ---------------------------------------------------------------------------
// Modelled metrics (exact for a seed)

struct Modelled {
  double rt_mean = 0.0;
  double rt_p999 = 0.0;
  std::uint64_t samples = 0;
  std::uint64_t beyond = 0;
  double runs_per_txn = 0.0;
};

Modelled modelled(const std::vector<const JobResult*>& rs) {
  Modelled m;
  double rt_sum = 0.0;
  std::uint64_t completions = 0;
  std::uint64_t reruns = 0;
  std::vector<double> rts;
  for (const JobResult* r : rs) {
    rt_sum += r->metrics.rt_all.sum();
    completions += r->metrics.completions;
    reruns += r->metrics.reruns;
    rts.insert(rts.end(), r->window_rts.begin(), r->window_rts.end());
  }
  m.rt_mean = completions > 0 ? rt_sum / static_cast<double>(completions) : 0.0;
  m.rt_p999 = percentile(rts, kPercentile);
  m.samples = rts.size();
  m.beyond = count_above(rts, m.rt_p999);
  m.runs_per_txn = completions > 0 ? 1.0 + static_cast<double>(reruns) /
                                               static_cast<double>(completions)
                                   : 1.0;
  return m;
}

void add_modelled(Outcome& out, const Modelled& m) {
  add(out.metrics, "rt_mean_sim_s", m.rt_mean, "s", true);
  add(out.metrics, "rt_p999_sim_s", m.rt_p999, "s", true);
  add(out.metrics, "runs_per_txn", m.runs_per_txn, "runs", true);
  add(out.extra, "rt_p999_samples", static_cast<double>(m.samples), "count", true);
  add(out.extra, "rt_p999_beyond", static_cast<double>(m.beyond), "count", true);
}

void add_fingerprint(Outcome& out, const std::string& prefix, const Fingerprint& fp) {
  const auto u = [](std::uint64_t x) { return static_cast<double>(x); };
  add(out.extra, prefix + "events", u(fp.events), "count", true);
  add(out.extra, prefix + "arrivals", u(fp.arrivals), "count", true);
  add(out.extra, prefix + "completions", u(fp.completions), "count", true);
  add(out.extra, prefix + "reruns", u(fp.reruns), "count", true);
  add(out.extra, prefix + "deadlocks", u(fp.deadlocks), "count", true);
  add(out.extra, prefix + "link_msgs", u(fp.link_msgs), "count", true);
  // The RT-sum bits as a hex string would be exact too; its value as a
  // double is the same information and stays a JSON number.
  add(out.extra, prefix + "rt_sum_sim_s",
      std::bit_cast<double>(fp.rt_sum_bits), "s", true);
}

// ---------------------------------------------------------------------------
// Per-layer metrics of one traced repetition (one run, or one sweep pass)

struct ProbeNs {
  double queue = 0.0;
  double link = 0.0;
  double lock = 0.0;
};

ProbeNs run_probes(const std::vector<JobResult>& rs, const hls::SystemConfig& cfg,
                   std::uint64_t seed) {
  std::uint64_t depth_sum = 0;
  std::uint64_t decisions = 0;
  double in_flight = 0.0;
  for (const JobResult& r : rs) {
    depth_sum += r.depth_sum;
    decisions += r.ledger[Layer::Decide].count;
    in_flight += r.mean_in_flight / static_cast<double>(rs.size());
  }
  const std::size_t depth =
      decisions > 0 ? static_cast<std::size_t>(std::llround(
                          static_cast<double>(depth_sum) / static_cast<double>(decisions)))
                    : 64;
  ProbeNs p;
  p.queue = queue_probe_ns(depth, seed);
  p.link = link_send_probe_ns(cfg, static_cast<std::size_t>(std::llround(std::max(in_flight, 1.0))),
                              seed);
  p.lock = lock_probe_ns(cfg, seed);
  return p;
}

/// Per-layer values of one traced repetition over its runs `rs`.
std::vector<Metric> layer_metrics(const std::vector<JobResult>& rs,
                                  const ProbeNs& probe) {
  Ledger ledger;
  double window_s = 0.0;
  std::uint64_t events = 0, msgs = 0, deadlocks = 0, depth_sum = 0, bursts = 0,
                arrivals = 0, arrivals_a = 0, shipped = 0, reruns = 0,
                auth_rounds = 0, dup = 0, reseq = 0, completions = 0;
  double lock_wait = 0.0, network = 0.0, ready = 0.0, util = 0.0;
  for (const JobResult& r : rs) {
    const hls::Metrics& m = r.metrics;
    ledger.add(r.ledger);
    window_s += r.window_host_s;
    events += r.window_events;
    msgs += r.window_msgs;
    deadlocks += r.window_deadlocks;
    depth_sum += r.depth_sum;
    bursts += r.cpu_bursts;
    arrivals += r.fp.arrivals;
    arrivals_a += m.arrivals_class_a;
    shipped += m.shipped_class_a;
    reruns += m.reruns;
    auth_rounds += m.auth_rounds;
    dup += m.dup_msgs_dropped;
    reseq += m.msgs_resequenced;
    completions += m.completions;
    const auto phase_sum = [&](hls::obs::Phase p) {
      return m.rt_phase[static_cast<std::size_t>(p)].sum();
    };
    lock_wait += phase_sum(hls::obs::Phase::LockWait);
    network += phase_sum(hls::obs::Phase::Network);
    ready += phase_sum(hls::obs::Phase::ReadyQueue);
    util += m.central_utilization / static_cast<double>(rs.size());
  }
  const auto per = [](double num, double den) { return den > 0.0 ? num / den : 0.0; };
  const auto d = [](std::uint64_t x) { return static_cast<double>(x); };
  const Ledger::Totals& decide = ledger[Layer::Decide];
  const Ledger::Totals& sink = ledger[Layer::OnEvent];
  const Ledger::Totals& flush = ledger[Layer::Flush];

  // Ledger: what the timed layers and the probed kernels account for; the
  // rest of the window is protocol (hybrid) work. Printed signed.
  const double residual_s = window_s - decide.self_s - sink.busy_s -
                            probe.queue * 1e-9 * d(events) -
                            probe.link * 1e-9 * d(msgs);

  std::vector<Metric> v;
  add(v, "sim.events", d(events), "count", true);
  add(v, "sim.queue_depth", per(d(depth_sum), d(decide.count)), "events", true);
  add(v, "sim.ns_per_event", per(window_s * 1e9, d(events)), "ns", false);
  add(v, "sim.queue_probe_ns", probe.queue, "ns", false);
  add(v, "routing.decisions", d(decide.count), "count", true);
  add(v, "routing.decide_ns", per(decide.busy_s * 1e9, d(decide.count)), "ns", false);
  add(v, "routing.share", per(decide.busy_s, window_s), "ratio", false);
  add(v, "routing.ship_frac", per(d(shipped), d(arrivals_a)), "ratio", true);
  add(v, "obs.sink_events", d(sink.count), "count", true);
  add(v, "obs.sink_ns", per(sink.busy_s * 1e9, d(sink.count)), "ns", false);
  add(v, "obs.flush_ms", flush.busy_s * 1e3, "ms", false);
  add(v, "obs.share", per(sink.busy_s, window_s), "ratio", false);
  add(v, "db.deadlocks", d(deadlocks), "count", true);
  add(v, "db.lock_wait_sim_s", per(lock_wait, d(completions)), "s", true);
  add(v, "db.lock_probe_ns", probe.lock, "ns", false);
  add(v, "net.msgs", d(msgs), "count", true);
  add(v, "net.dup_dropped", d(dup), "count", true);
  add(v, "net.resequenced", d(reseq), "count", true);
  add(v, "net.network_sim_s", per(network, d(completions)), "s", true);
  add(v, "net.send_probe_ns", probe.link, "ns", false);
  add(v, "hybrid.cpu_bursts", d(bursts), "count", true);
  add(v, "hybrid.reruns", d(reruns), "count", true);
  add(v, "hybrid.auth_rounds", d(auth_rounds), "count", true);
  add(v, "hybrid.central_cpu_util", util, "ratio", true);
  add(v, "hybrid.ready_queue_sim_s", per(ready, d(completions)), "s", true);
  add(v, "hybrid.residual_ns_per_event", per(residual_s * 1e9, d(events)), "ns", false);
  add(v, "workload.arrivals", d(arrivals), "count", true);
  return v;
}

/// Element-wise median of several repetitions' metric lists (same order).
std::vector<Metric> median_of(const std::vector<std::vector<Metric>>& reps) {
  std::vector<Metric> out = reps.front();
  for (std::size_t i = 0; i < out.size(); ++i) {
    std::vector<double> vals;
    for (const std::vector<Metric>& r : reps) {
      vals.push_back(r[i].value);
    }
    out[i].value = median(std::move(vals));
  }
  return out;
}

// ---------------------------------------------------------------------------
// Single-run workloads

Outcome single_e2e(const Workload& w, const Budget& budget) {
  const Job& job = w.jobs.front();
  Outcome out;
  HostSpeed speed;
  std::vector<JobResult> reps;
  double rss_mb = 0.0;
  std::vector<double> setups, scaled_setups;
  do {
    reps.push_back(run_job(job, false, &speed));
    const JobResult& r = reps.back();
    if (reps.size() == 1) {
      rss_mb = peak_rss_mb();
    }
    expect_fp(reps.back(), reps.front().fp, "the first run of this seed");
    tally(out, r, "run " + std::to_string(reps.size()));
    // The run's own setup, then a burst of setup-only samples scaled by the
    // mean of the reference samples on either side of it (the first is the
    // one the run took after its last slice).
    setups.push_back(r.setup_s);
    scaled_setups.push_back(r.scaled_setup_s);
    const double before = speed.samples().back();
    const std::size_t burst = setups.size();
    const Clock::time_point b0 = Clock::now();
    do {
      setups.push_back(setup_only(job));
    } while (seconds_since(b0) < kSetupShare * r.wall_s);
    const double slowdown = 0.5 * (before + speed.sample(calls_for(seconds_since(b0))));
    for (std::size_t i = burst; i < setups.size(); ++i) {
      scaled_setups.push_back(setups[i] / slowdown);
    }
  } while (budget.room_for(median(collect(reps, [](const JobResult& r) { return r.task_s; }))));

  std::vector<double> ev_rates, txn_rates, raw_ev_rates, raw_txn_rates;
  for (const JobResult& r : reps) {
    for (std::size_t k = 0; k < r.chunk_slowdown.size(); ++k) {
      ev_rates.push_back(r.chunk_event_rates[k] * r.chunk_slowdown[k]);
      txn_rates.push_back(r.chunk_txn_rates[k] * r.chunk_slowdown[k]);
    }
    raw_ev_rates.insert(raw_ev_rates.end(), r.chunk_event_rates.begin(),
                        r.chunk_event_rates.end());
    raw_txn_rates.insert(raw_txn_rates.end(), r.chunk_txn_rates.begin(),
                         r.chunk_txn_rates.end());
  }
  add(out.metrics, "events_per_s", median(ev_rates), "ev/s", false);
  add(out.metrics, "txns_per_s", median(txn_rates), "txn/s", false);
  add(out.metrics, "wall_s",
      median(collect(reps, [](const JobResult& r) { return r.scaled_wall_s; })), "s", false);
  add(out.metrics, "setup_s", median(scaled_setups), "s", false);
  add(out.metrics, "peak_rss_mb", rss_mb, "MB", false);
  add_raw(out, speed, median(raw_ev_rates), median(raw_txn_rates),
          median(collect(reps, [](const JobResult& r) { return r.wall_s; })), median(setups));
  check_speed(out, speed);
  add_modelled(out, modelled({&reps.front()}));
  add_fingerprint(out, "fp.", reps.front().fp);
  return out;
}

void add_layer_tail(Outcome& out, double static_opt_ms, std::size_t jobs,
                    double job_wall_sum, double parallel_eff, double overhead) {
  add(out.metrics, "model.static_opt_ms", static_opt_ms, "ms", false);
  add(out.metrics, "core.jobs", static_cast<double>(jobs), "count", true);
  add(out.metrics, "core.job_wall_s_sum", job_wall_sum, "s", false);
  add(out.metrics, "core.parallel_eff", parallel_eff, "ratio", false);
  add(out.metrics, "trace.overhead_frac", overhead, "ratio", false);
}

Outcome single_traced(const Workload& w, const Budget& budget, std::uint64_t seed) {
  const Job& job = w.jobs.front();
  Outcome out;
  out.traced = true;
  std::vector<JobResult> plain;
  std::vector<JobResult> traced;
  do {
    plain.push_back(run_job(job, false));
    traced.push_back(run_job(job, true));
    expect_fp(plain.back(), plain.front().fp, "the first untraced run");
    expect_fp(traced.back(), plain.front().fp, "the untraced run");
    tally(out, plain.back(), "untraced run " + std::to_string(plain.size()));
    tally(out, traced.back(), "traced run " + std::to_string(traced.size()));
  } while (budget.room_for(2.0 * median(collect(plain, [](const JobResult& r) {
                                  return r.task_s;
                                }))));

  const ProbeNs probe = run_probes(traced, job.config, seed);
  std::vector<std::vector<Metric>> reps;
  for (const JobResult& r : traced) {
    reps.push_back(layer_metrics({r}, probe));
  }
  out.metrics = median_of(reps);
  const double overhead =
      median(collect(traced, [](const JobResult& r) { return r.wall_s; })) /
          median(collect(plain, [](const JobResult& r) { return r.wall_s; })) -
      1.0;
  add_layer_tail(out, 0.0, 0, 0.0, 0.0, overhead);
  out.ledger = traced.front().ledger;
  return out;
}

// ---------------------------------------------------------------------------
// The figure 4.1 sweep

unsigned sweep_workers() {
  return std::max(1u, std::min(kSweepWorkers, std::thread::hardware_concurrency()));
}

Outcome sweep_e2e(const Workload& w, const Budget& budget) {
  Outcome out;
  const unsigned workers = sweep_workers();
  // One checked pass supplies what ExperimentRunner's results do not carry:
  // event counts, every completion record, drain and conservation checks.
  const Pass checked = run_pass(w.jobs, workers, false);
  const double rss_mb = peak_rss_mb();
  for (std::size_t i = 0; i < checked.jobs.size(); ++i) {
    tally(out, checked.jobs[i], "job " + std::to_string(i));
  }
  // The sweep's timings stay raw: the reference kernel, run on one thread,
  // does not follow the host as four busy workers see it (NOTES.md).
  std::vector<double> setups;
  const auto setup_pass = [&]() {
    double sum = 0.0;
    for (const Job& job : w.jobs) {
      sum += setup_only(job);
    }
    setups.push_back(sum);
  };

  hls::RunOptions opts;
  opts.warmup_seconds = kFigWarmup;
  opts.measure_seconds = kFigWindow;
  hls::ExperimentRunner runner(w.jobs.front().config, opts);
  runner.set_jobs(workers);
  std::vector<double> walls;
  do {
    const Clock::time_point t0 = Clock::now();
    const std::vector<hls::Series> series =
        runner.sweep_all(fig41_specs(), fig41_labels(), hls::default_rate_grid());
    walls.push_back(seconds_since(t0));
    std::size_t i = 0;
    for (const hls::Series& s : series) {
      for (const hls::SweepPoint& pt : s.points) {
        const hls::Metrics& m = pt.result.metrics;
        const JobResult& ref = checked.jobs[i];
        ++out.attempted;
        if (m.completions != ref.fp.completions || m.reruns != ref.fp.reruns ||
            m.arrivals_class_a + m.arrivals_class_b != ref.fp.arrivals ||
            std::bit_cast<std::uint64_t>(m.rt_all.sum()) != ref.fp.rt_sum_bits) {
          ++out.failed;
          out.failures.push_back("ExperimentRunner job " + std::to_string(i) +
                                 " differs from the same run made directly");
        }
        ++i;
      }
    }
    setup_pass();
  } while (budget.room_for(median(walls) + median(setups)));
  while (setups.size() < kMinSweepSetupPasses) {
    setup_pass();
  }

  std::uint64_t events = 0;
  std::uint64_t completions = 0;
  for (const JobResult& r : checked.jobs) {
    events += r.fp.events;
    completions += r.metrics.completions;
  }
  const auto d = [](std::uint64_t x) { return static_cast<double>(x); };
  add(out.metrics, "events_per_s", d(events) / median(walls), "ev/s", false);
  add(out.metrics, "txns_per_s", d(completions) / median(walls), "txn/s", false);
  add(out.metrics, "wall_s", median(walls), "s", false);
  add(out.metrics, "setup_s", median(setups), "s", false);
  add(out.metrics, "peak_rss_mb", rss_mb, "MB", false);
  std::vector<const JobResult*> rt_runs;
  for (std::size_t i : w.rt_jobs) {
    rt_runs.push_back(&checked.jobs[i]);
  }
  add_modelled(out, modelled(rt_runs));
  add(out.extra, "sweep.workers", workers, "count", true);
  for (std::size_t i = 0; i < checked.jobs.size(); ++i) {
    add_fingerprint(out, "fp." + std::to_string(i) + ".", checked.jobs[i].fp);
  }
  return out;
}

Outcome sweep_traced(const Workload& w, const Budget& budget, std::uint64_t seed) {
  Outcome out;
  out.traced = true;
  const unsigned workers = sweep_workers();
  std::vector<Pass> plain;
  std::vector<Pass> traced;
  // Tracing overhead compares the jobs' own wall times, which exclude the
  // post-run checks that a pass also contains.
  const auto jobs_wall = [](const Pass& p) {
    double s = 0.0;
    for (const JobResult& r : p.jobs) {
      s += r.wall_s;
    }
    return s;
  };
  do {
    plain.push_back(run_pass(w.jobs, workers, false));
    traced.push_back(run_pass(w.jobs, workers, true));
    for (Pass* p : {&plain.back(), &traced.back()}) {
      for (std::size_t i = 0; i < p->jobs.size(); ++i) {
        expect_fp(p->jobs[i], plain.front().jobs[i].fp, "the first untraced pass");
        tally(out, p->jobs[i], "job " + std::to_string(i));
      }
    }
  } while (budget.room_for(plain.back().wall_s + traced.back().wall_s));

  std::vector<double> opt_ms;
  for (const Job& job : w.jobs) {
    if (job.spec.kind == hls::StrategyKind::StaticOptimal) {
      const Clock::time_point t0 = Clock::now();
      const hls::StaticOptimum opt =
          hls::StaticOptimizer().optimize(hls::ModelParams::from_config(job.config));
      opt_ms.push_back(seconds_since(t0) * 1e3);
      add(out.extra, "model.static_p_ship." + std::to_string(opt_ms.size()),
          opt.p_ship, "ratio", true);
    }
  }

  const ProbeNs probe = run_probes(traced.front().jobs, w.jobs.front().config, seed);
  std::vector<std::vector<Metric>> reps;
  std::vector<double> task_sums, effs, traced_walls, plain_walls;
  for (const Pass& p : traced) {
    reps.push_back(layer_metrics(p.jobs, probe));
    double task_sum = 0.0;
    for (const JobResult& r : p.jobs) {
      task_sum += r.task_s;
    }
    task_sums.push_back(task_sum);
    effs.push_back(p.parallel_eff());
    traced_walls.push_back(jobs_wall(p));
  }
  for (const Pass& p : plain) {
    plain_walls.push_back(jobs_wall(p));
  }
  out.metrics = median_of(reps);
  add_layer_tail(out, median(opt_ms), w.jobs.size(), median(task_sums), median(effs),
                 median(traced_walls) / median(plain_walls) - 1.0);
  for (const JobResult& r : traced.front().jobs) {
    out.ledger.add(r.ledger);
  }
  add(out.extra, "sweep.workers", workers, "count", true);
  return out;
}

// ---------------------------------------------------------------------------
// Output

std::string num(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string quoted(const std::string& s) {
  std::string q = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      q += '\\';
    }
    q += c;
  }
  return q + "\"";
}

std::string meta_json(const Args& a, const Workload& w) {
  std::ostringstream o;
  o << "{\"nproc\": " << std::thread::hardware_concurrency()
    << ", \"compiler\": " << quoted(HLSPERF_COMPILER)
    << ", \"build_type\": " << quoted(HLSPERF_BUILD_TYPE)
    << ", \"git_sha\": " << quoted(a.git_sha) << ", \"seed\": " << a.seed
    << ", \"workers\": " << (w.sweep ? sweep_workers() : 1u)
    << ", \"workload\": " << quoted(w.name) << ", \"trace\": " << a.trace
    << ", \"seconds\": " << num(a.seconds) << "}";
  return o.str();
}

void write_result_file(const Args& a, const Workload& w, const Outcome& out) {
  std::ofstream f(a.out);
  if (!f) {
    std::fprintf(stderr, "hlsperf: cannot write %s\n", a.out.c_str());
    return;
  }
  const auto section = [&](bool exact) {
    f << "  " << quoted(exact ? "exact" : "timing") << ": {\n    \"_meta\": "
      << meta_json(a, w);
    for (const std::vector<Metric>* list : {&out.metrics, &out.extra}) {
      for (const Metric& m : *list) {
        if (m.exact == exact) {
          f << ",\n    " << quoted(m.name) << ": {\"value\": " << num(m.value)
            << ", \"unit\": " << quoted(m.unit) << "}";
        }
      }
    }
    f << "\n  }";
  };
  f << "{\n";
  section(true);
  f << ",\n";
  section(false);
  f << ",\n  \"ledger\": {";
  for (int l = 0; out.traced && l < kLayerCount; ++l) {
    const Ledger::Totals& t = out.ledger[static_cast<Layer>(l)];
    f << (l == 0 ? "\n    " : ",\n    ") << quoted(layer_name(static_cast<Layer>(l)))
      << ": {\"count\": " << t.count << ", \"busy_s\": " << num(t.busy_s)
      << ", \"self_s\": " << num(t.self_s) << "}";
  }
  f << "\n  }\n}\n";
}

void print_table(const Workload& w, const Outcome& out) {
  std::fprintf(stderr, "\n== %s (%s) ==\n", w.name.c_str(),
               out.traced ? "traced: per-layer" : "untraced: end-to-end");
  for (const Metric& m : out.metrics) {
    std::fprintf(stderr, "  %-30s %18.6g %-6s %s\n", m.name.c_str(), m.value,
                 m.unit.c_str(), m.exact ? "exact" : "host");
  }
  for (const Metric& m : out.extra) {
    if (m.name.rfind("fp.", 0) != 0) {
      std::fprintf(stderr, "  %-30s %18.6g %-6s %s\n", m.name.c_str(), m.value,
                   m.unit.c_str(), m.exact ? "exact" : "host");
    }
  }
  if (out.traced) {
    std::fprintf(stderr, "  ledger (%s):  %-16s %10s %12s %12s\n",
                 w.sweep ? "all jobs" : "run", "layer", "count", "busy_s", "self_s");
    for (int l = 0; l < kLayerCount; ++l) {
      const Ledger::Totals& t = out.ledger[static_cast<Layer>(l)];
      std::fprintf(stderr, "  %*s%-16s %10" PRIu64 " %12.6f %12.6f\n", w.sweep ? 22 : 17, "",
                   layer_name(static_cast<Layer>(l)), t.count, t.busy_s, t.self_s);
    }
    for (const Metric& m : out.metrics) {
      if (m.name == "hybrid.residual_ns_per_event") {
        std::fprintf(stderr, "  residual: %+.1f ns per event (window - routing - obs - "
                             "queue probe x events - link probe x msgs)\n", m.value);
      }
    }
  }
  std::fprintf(stderr, "  runs attempted %" PRIu64 ", failed %" PRIu64
                       ", failed_frac %.6g\n",
               out.attempted, out.failed,
               static_cast<double>(out.failed) / static_cast<double>(out.attempted));
  for (const std::string& f : out.failures) {
    std::fprintf(stderr, "  FAILED: %s\n", f.c_str());
  }
}

void print_json_line(const Outcome& out) {
  std::ostringstream o;
  o << "{\"correct\": " << (out.failed == 0 ? "true" : "false")
    << ", \"attempted\": " << out.attempted << ", \"failed\": " << out.failed
    << ", \"metrics\": {";
  bool first = true;
  for (const Metric& m : out.metrics) {
    o << (first ? "" : ", ") << quoted(m.name) << ": {\"value\": " << num(m.value)
      << ", \"unit\": " << quoted(m.unit) << "}";
    first = false;
  }
  o << "}}";
  std::printf("%s\n", o.str().c_str());
  std::fflush(stdout);
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!parse_args(argc, argv, args)) {
    std::fprintf(stderr,
                 "usage: hlsperf --workload NAME --seed N --seconds S --trace 0|1 "
                 "[--out FILE] [--git-sha SHA]\n");
    return 2;
  }
  const std::optional<Workload> w = make_workload(args.workload, args.seed);
  if (!w) {
    std::fprintf(stderr, "hlsperf: unknown workload '%s'; known:", args.workload.c_str());
    for (const std::string& n : workload_names()) {
      std::fprintf(stderr, " %s", n.c_str());
    }
    std::fprintf(stderr, "\n");
    return 2;
  }
  const Budget budget(args.seconds);
  const Outcome out = w->sweep ? (args.trace == 1 ? sweep_traced(*w, budget, args.seed)
                                                  : sweep_e2e(*w, budget))
                               : (args.trace == 1 ? single_traced(*w, budget, args.seed)
                                                  : single_e2e(*w, budget));
  print_table(*w, out);
  if (!args.out.empty()) {
    write_result_file(args, *w, out);
  }
  print_json_line(out);
  return 0;
}
