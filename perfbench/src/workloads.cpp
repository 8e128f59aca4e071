#include "workloads.hpp"

#include <bit>
#include <cmath>
#include <ostream>
#include <streambuf>
#include <string_view>

#include "core/experiment.hpp"
#include "hybrid/hybrid_system.hpp"
#include "model/params.hpp"
#include "obs/csv_sink.hpp"
#include "obs/registry.hpp"
#include "util/task_pool.hpp"

namespace hlsperf {

namespace {

/// Stream that accepts and discards everything (the CSV sink's target: the
/// benchmark measures formatting, not disk).
class DiscardBuf final : public std::streambuf {
 protected:
  int overflow(int c) override { return traits_type::not_eof(c); }
  std::streamsize xsputn(const char*, std::streamsize n) override { return n; }
};

/// Seed derivation of the library's run_simulation, so a job here and the
/// same design point inside ExperimentRunner run identical simulations.
constexpr std::uint64_t kStrategySeedSalt = 0x51CA5EEDULL;

/// Largest share of window arrivals that may still be in the system at
/// window end on a workload sized below saturation.
constexpr double kBacklogTolerance = 0.01;
constexpr double kPhaseSumTolerance = 1e-9;

std::unique_ptr<hls::RoutingStrategy> build_strategy(const Job& job) {
  return hls::make_strategy(job.spec,
                            hls::ModelParams::from_config(job.config),
                            job.config.seed ^ kStrategySeedSalt);
}

bool ends_with(std::string_view s, std::string_view suffix) {
  return s.size() >= suffix.size() &&
         s.substr(s.size() - suffix.size()) == suffix;
}

/// Whole-system sums read from the metric registry.
struct Counts {
  std::uint64_t link_msgs = 0;
  std::uint64_t deadlocks = 0;
  std::uint64_t cpu_bursts = 0;
};

Counts read_counts(const hls::HybridSystem& sys) {
  hls::obs::Registry reg;
  sys.export_registry(reg);
  Counts c;
  for (const hls::obs::MetricEntry& e : reg.entries()) {
    if (ends_with(e.name, ".link.up.sent") || ends_with(e.name, ".link.down.sent")) {
      c.link_msgs += e.count;
    } else if (ends_with(e.name, "locks.deadlocks")) {
      c.deadlocks += e.count;
    } else if (ends_with(e.name, "cpu.bursts")) {
      c.cpu_bursts += e.count;
    }
  }
  return c;
}

std::uint64_t arrivals_of(const hls::Metrics& m) {
  return m.arrivals_class_a + m.arrivals_class_b;
}

Job make_job(hls::SystemConfig cfg, const std::string& spec, double warmup,
             double window) {
  Job job;
  job.config = std::move(cfg);
  job.spec = hls::parse_strategy_spec(spec);
  job.warmup_s = warmup;
  job.window_s = window;
  return job;
}

}  // namespace

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names{"paper-dynamic", "scale-1000",
                                              "contention-obs", "fig41-sweep"};
  return names;
}

std::vector<hls::StrategySpec> fig41_specs() {
  return {{hls::StrategyKind::NoLoadSharing, 0.0},
          {hls::StrategyKind::StaticOptimal, 0.0},
          {hls::StrategyKind::MinAverageNsys, 0.0}};
}

std::vector<std::string> fig41_labels() {
  return {"no-LS", "static", "best-dynamic"};
}

std::optional<Workload> make_workload(const std::string& name,
                                      std::uint64_t seed) {
  hls::SystemConfig cfg;  // the paper's §4.1 parameters
  cfg.seed = seed;
  Workload w;
  w.name = name;
  // Single-run windows hold about 96k completions, so a p99.9 has about 95
  // samples beyond it. scale-1000 runs twice that: its tail follows bursts
  // at the shared central complex, and at 96k completions its p99.9 moved
  // 11% (interquartile) from seed to seed.
  if (name == "paper-dynamic") {
    cfg.arrival_rate_per_site = 3.2;
    w.jobs.push_back(make_job(cfg, "min-average-nsys", 150.0, 3000.0));
  } else if (name == "scale-1000") {
    cfg.num_sites = 1000;
    cfg.arrival_rate_per_site = 2.4;
    cfg.central_mips = 1500.0;
    cfg.lockspace = 3276000;
    w.jobs.push_back(make_job(cfg, "static:0.5", 10.0, 80.0));
  } else if (name == "contention-obs") {
    cfg.arrival_rate_per_site = 2.0;
    cfg.lockspace = 2048;
    cfg.prob_write_lock = 0.5;
    cfg.faults.dup_prob = 0.05;
    cfg.faults.dup_extra = 0.05;
    cfg.faults.reorder_prob = 0.05;
    cfg.obs_resource_telemetry = true;
    cfg.obs_sample_interval = 1.0;
    // No `adapt:` controller: with it this configuration diverges (see
    // NOTES.md), and a run that diverges cannot be timed.
    Job job = make_job(cfg, "util-threshold:0", 150.0, 4800.0);
    job.csv_sink = true;
    w.jobs.push_back(std::move(job));
  } else if (name == "fig41-sweep") {
    w.sweep = true;
    cfg.comm_delay = 0.2;
    const std::vector<hls::StrategySpec> specs = fig41_specs();
    for (std::size_t s = 0; s < specs.size(); ++s) {
      for (double rate : hls::default_rate_grid()) {  // ExperimentRunner order
        Job job;
        job.config = cfg;
        job.config.arrival_rate_per_site = rate / cfg.num_sites;
        job.spec = specs[s];
        job.warmup_s = kFigWarmup;
        job.window_s = kFigWindow;
        job.below_saturation = false;  // no-LS saturates near 20 tps by design
        // Modelled RTs come from the best-dynamic curve: no-LS saturates by
        // design (RT 71-87 s), and the optimal static curve's tail near its
        // own saturation moved 12% (interquartile) from seed to seed.
        if (specs[s].kind == hls::StrategyKind::MinAverageNsys) {
          w.rt_jobs.push_back(w.jobs.size());
        }
        w.jobs.push_back(std::move(job));
      }
    }
    return w;
  } else {
    return std::nullopt;
  }
  w.rt_jobs = {0};
  return w;
}

double setup_only(const Job& job) {
  const Clock::time_point t0 = Clock::now();
  hls::HybridSystem sys(job.config, build_strategy(job));
  sys.enable_arrivals();
  return seconds_since(t0);
}

JobResult run_job(const Job& job, bool traced, HostSpeed* speed) {
  JobResult r;
  const Clock::time_point t0 = Clock::now();

  std::unique_ptr<hls::RoutingStrategy> strategy = build_strategy(job);
  TimedStrategy* timed = nullptr;
  if (traced) {
    auto wrapper = std::make_unique<TimedStrategy>(std::move(strategy), r.ledger);
    timed = wrapper.get();
    strategy = std::move(wrapper);
  }
  hls::HybridSystem sys(job.config, std::move(strategy));
  if (timed != nullptr) {
    timed->watch(&sys.simulator());
  }
  DiscardBuf discard;
  std::ostream discard_out(&discard);
  std::unique_ptr<hls::obs::CsvSink> csv;
  std::unique_ptr<TimedSink> timed_sink;
  if (job.csv_sink) {
    csv = std::make_unique<hls::obs::CsvSink>(discard_out);
    if (traced) {
      timed_sink = std::make_unique<TimedSink>(*csv, r.ledger);
      sys.add_trace_sink(timed_sink.get());
    } else {
      sys.add_trace_sink(csv.get());
    }
  }
  bool in_window = false;
  std::uint64_t hook_completions = 0;
  std::uint64_t phase_violations = 0;
  sys.set_completion_hook([&](const hls::TxnCompletionRecord& rec) {
    ++hook_completions;
    double sum = 0.0;
    for (double p : rec.phase) {
      sum += p;
    }
    if (std::abs(sum - rec.response_time) > kPhaseSumTolerance) {
      ++phase_violations;
    }
    if (in_window) {
      r.window_rts.push_back(rec.response_time);
    }
  });
  sys.enable_arrivals();
  r.setup_s = seconds_since(t0);

  sys.run_for(job.warmup_s);
  const hls::Metrics warm = sys.metrics();
  sys.begin_measurement();
  const Counts c0 = read_counts(sys);
  const std::uint64_t events0 = sys.simulator().executed_events();
  const std::uint64_t live0 = static_cast<std::uint64_t>(sys.live_transactions());
  r.ledger.reset();
  if (timed != nullptr) {
    timed->reset_depth();
  }

  // The slices end at the same simulated instants in every run, the last
  // exactly where run_for(window_s) would stop; slicing never changes which
  // events execute.
  in_window = true;
  const double before_window_s = seconds_since(t0);
  const double spent0 = speed != nullptr ? speed->spent_s() : 0.0;
  double prev =
      speed != nullptr ? speed->sample(calls_for(before_window_s / kWindowChunks)) : 1.0;
  r.scaled_setup_s = r.setup_s / prev;
  r.scaled_wall_s = before_window_s / prev;
  const double start = sys.simulator().now();
  const Clock::time_point w0 = Clock::now();
  for (int k = 1; k <= kWindowChunks; ++k) {
    const std::uint64_t ev = sys.simulator().executed_events();
    const std::size_t done = r.window_rts.size();
    const Clock::time_point slice0 = Clock::now();
    {
      const Ledger::Span span = r.ledger.span(Layer::Window);
      sys.simulator().run_until(start + job.window_s * (static_cast<double>(k) / kWindowChunks));
    }
    const double host = seconds_since(slice0);
    r.chunk_event_rates.push_back(static_cast<double>(sys.simulator().executed_events() - ev) / host);
    r.chunk_txn_rates.push_back(static_cast<double>(r.window_rts.size() - done) / host);
    double slowdown = 1.0;
    if (speed != nullptr) {
      const double now = speed->sample(calls_for(host));
      slowdown = 0.5 * (prev + now);
      prev = now;
      r.chunk_slowdown.push_back(slowdown);
    }
    r.scaled_wall_s += host / slowdown;
  }
  const double sampling_s = speed != nullptr ? speed->spent_s() - spent0 : 0.0;
  r.window_host_s = seconds_since(w0) - sampling_s;
  r.wall_s = seconds_since(t0) - sampling_s;
  if (speed == nullptr) {
    r.scaled_wall_s = r.wall_s;
  }
  in_window = false;
  sys.end_measurement();
  if (csv != nullptr) {
    const Ledger::Span span = r.ledger.span(Layer::Flush);
    csv->flush();
  }

  // ---- outcome (nothing below is timed) ----
  r.metrics = sys.metrics();
  const Counts c1 = read_counts(sys);
  const hls::Metrics& m = r.metrics;
  r.fp.events = sys.simulator().executed_events();
  r.fp.arrivals = arrivals_of(m);
  r.fp.completions = m.completions;
  r.fp.reruns = m.reruns;
  r.fp.deadlocks = c1.deadlocks;
  r.fp.link_msgs = c1.link_msgs;
  r.fp.rt_sum_bits = std::bit_cast<std::uint64_t>(m.rt_all.sum());
  r.window_events = r.fp.events - events0;
  r.window_msgs = c1.link_msgs - c0.link_msgs;
  r.window_deadlocks = c1.deadlocks - c0.deadlocks;
  r.cpu_bursts = c1.cpu_bursts;
  r.mean_in_flight = static_cast<double>(r.window_msgs) * job.config.comm_delay /
                     job.window_s / (2.0 * job.config.num_sites);
  if (timed != nullptr) {
    r.depth_sum = timed->depth_sum();
  }

  // ---- correctness checks ----
  // A run sized below saturation must end its window without a growing
  // backlog and is then drained; a saturating one (the sweep's no-LS curve
  // holds thousands of transactions, and draining them costs more host time
  // than the whole sweep) is checked where it stands.
  const auto live1 = static_cast<std::uint64_t>(sys.live_transactions());
  if (job.below_saturation) {
    if (static_cast<double>(live1) >
        static_cast<double>(live0) + kBacklogTolerance * static_cast<double>(r.fp.arrivals)) {
      r.failures.push_back("growing backlog: " + std::to_string(live0) + " -> " +
                           std::to_string(live1) + " live transactions over the window");
    }
    sys.stop_arrivals();
    sys.drain();
  }
  sys.check_invariants();  // aborts the process on violation
  const hls::Metrics& fin = sys.metrics();
  const std::uint64_t arrived = arrivals_of(warm) + arrivals_of(fin);
  const std::uint64_t completed = warm.completions + fin.completions;
  const std::uint64_t rejected = warm.arrivals_rejected + fin.arrivals_rejected;
  const auto live = static_cast<std::uint64_t>(sys.live_transactions());
  if (arrived != completed + rejected + live || hook_completions != completed ||
      (job.below_saturation && live != 0)) {
    r.failures.push_back(
        "conservation: arrivals " + std::to_string(arrived) + " != completions " +
        std::to_string(completed) + " + rejected " + std::to_string(rejected) +
        " + live " + std::to_string(live) + " (hook saw " +
        std::to_string(hook_completions) + ")");
  }
  if (phase_violations > 0) {
    r.failures.push_back("phase-sum identity broken on " +
                         std::to_string(phase_violations) + " completions");
  }
  r.task_s = seconds_since(t0);
  return r;
}

double Pass::parallel_eff() const {
  double task_sum = 0.0;
  for (const JobResult& j : jobs) {
    task_sum += j.task_s;
  }
  return wall_s > 0.0 ? task_sum / (workers * wall_s) : 0.0;
}

Pass run_pass(const std::vector<Job>& jobs, unsigned workers, bool traced) {
  Pass pass;
  pass.workers = workers;
  pass.jobs.resize(jobs.size());
  hls::TaskPool pool(workers);
  const Clock::time_point t0 = Clock::now();
  pool.parallel_for_indexed(jobs.size(), [&](std::size_t i) {
    pass.jobs[i] = run_job(jobs[i], traced);
  });
  pass.wall_s = seconds_since(t0);
  return pass;
}

}  // namespace hlsperf
