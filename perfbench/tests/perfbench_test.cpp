// Tests of the benchmark's own code: the timing decorators must not change
// what they wrap, and the statistics it reports must mean what they say.
#include <gtest/gtest.h>

#include <memory>

#include "host_speed.hpp"
#include "hybrid/hybrid_system.hpp"
#include "model/params.hpp"
#include "probes.hpp"
#include "stats.hpp"
#include "workloads.hpp"

namespace hlsperf {
namespace {

Job small_job(const std::string& spec) {
  Job job;
  job.config.arrival_rate_per_site = 2.0;
  job.config.seed = 11;
  job.spec = hls::parse_strategy_spec(spec);
  job.warmup_s = 20.0;
  job.window_s = 200.0;
  return job;
}

TEST(TimedStrategy, ForwardsTheAdaptiveController) {
  const Job job = small_job("adapt@5:util-threshold:0");
  Ledger ledger;
  auto timed = std::make_unique<TimedStrategy>(
      hls::make_strategy(job.spec, hls::ModelParams::from_config(job.config), 1),
      ledger);
  EXPECT_NE(timed->controller(), nullptr);
  EXPECT_NE(timed->tunable_threshold(), nullptr);

  hls::HybridSystem sys(job.config, std::move(timed));
  ASSERT_NE(sys.controller(), nullptr);
  sys.enable_arrivals();
  sys.run_for(60.0);
  EXPECT_FALSE(sys.controller()->decisions().empty());
  EXPECT_GT(ledger[Layer::Decide].count, 0u);
}

TEST(TimedStrategy, TracedRunMatchesUntracedBitForBit) {
  const Job job = small_job("adapt@5:util-threshold:0");
  const JobResult plain = run_job(job, false);
  const JobResult traced = run_job(job, true);
  EXPECT_TRUE(plain.failures.empty());
  EXPECT_TRUE(traced.failures.empty());
  EXPECT_GT(plain.fp.completions, 0u);
  EXPECT_EQ(plain.fp, traced.fp);
  EXPECT_EQ(plain.window_rts, traced.window_rts);
  EXPECT_EQ(traced.ledger[Layer::Window].count,
            static_cast<std::uint64_t>(kWindowChunks));
  EXPECT_GT(traced.ledger[Layer::Decide].count, 0u);
  EXPECT_EQ(plain.ledger[Layer::Decide].count, 0u);
}

TEST(TimedSink, TracedCsvRunMatchesUntraced) {
  Job job = small_job("util-threshold:0");
  job.csv_sink = true;
  const JobResult plain = run_job(job, false);
  const JobResult traced = run_job(job, true);
  EXPECT_EQ(plain.fp, traced.fp);
  EXPECT_GT(traced.ledger[Layer::OnEvent].count, 0u);
  EXPECT_EQ(traced.ledger[Layer::Flush].count, 1u);
}

TEST(Ledger, SelfTimeExcludesNestedSpans) {
  Ledger ledger;
  {
    const Ledger::Span outer = ledger.span(Layer::Window);
    const Ledger::Span inner = ledger.span(Layer::Decide);
  }
  const Ledger::Totals& w = ledger[Layer::Window];
  const Ledger::Totals& d = ledger[Layer::Decide];
  EXPECT_EQ(w.count, 1u);
  EXPECT_EQ(d.count, 1u);
  EXPECT_DOUBLE_EQ(d.self_s, d.busy_s);
  EXPECT_NEAR(w.self_s, w.busy_s - d.busy_s, 1e-12);
}

TEST(Stats, PercentileIsNearestRank) {
  std::vector<double> v;
  for (int i = 1000; i >= 1; --i) {
    v.push_back(i);
  }
  EXPECT_EQ(percentile(v, 0.999), 999.0);
  EXPECT_EQ(count_above(v, percentile(v, 0.999)), 1u);
  EXPECT_EQ(percentile(v, 0.5), 500.0);
  EXPECT_EQ(percentile(v, 1.0), 1000.0);
  EXPECT_EQ(percentile(v, 0.0), 1.0);
  EXPECT_EQ(percentile({3.0, 1.0, 2.0}, 0.5), 2.0);
  EXPECT_EQ(percentile({7.0}, 0.999), 7.0);
  EXPECT_EQ(percentile({}, 0.5), 0.0);
}

TEST(Stats, MedianAveragesTheMiddlePair) {
  EXPECT_EQ(median({4.0, 1.0, 3.0, 2.0}), 2.5);
  EXPECT_EQ(median({5.0, 1.0, 3.0}), 3.0);
  EXPECT_EQ(median({}), 0.0);
}

TEST(HostSpeed, SamplesTheSameKernelEveryTime) {
  HostSpeed speed;
  EXPECT_GT(speed.sample(3), 0.0);
  EXPECT_GT(speed.sample(1), 0.0);
  EXPECT_EQ(speed.samples().size(), 2u);
  EXPECT_TRUE(speed.consistent());
  EXPECT_GT(speed.spent_s(), 0.0);
}

TEST(HostSpeed, SampleCostFollowsTheSpan) {
  EXPECT_EQ(calls_for(0.0), 1);
  EXPECT_EQ(calls_for(0.5), 5);
  EXPECT_EQ(calls_for(100.0), 9);
}

TEST(HostSpeed, SampledRunMatchesUnsampledAndScalesEverySlice) {
  const Job job = small_job("min-average-nsys");
  HostSpeed speed;
  const JobResult plain = run_job(job, false);
  const JobResult sampled = run_job(job, false, &speed);
  EXPECT_EQ(plain.fp, sampled.fp);
  EXPECT_TRUE(plain.chunk_slowdown.empty());
  EXPECT_EQ(plain.scaled_wall_s, plain.wall_s);
  EXPECT_EQ(plain.scaled_setup_s, plain.setup_s);
  ASSERT_EQ(sampled.chunk_slowdown.size(), static_cast<std::size_t>(kWindowChunks));
  EXPECT_EQ(speed.samples().size(), static_cast<std::size_t>(kWindowChunks) + 1);
  for (double s : sampled.chunk_slowdown) {
    EXPECT_GT(s, 0.0);
  }
  EXPECT_GT(sampled.scaled_wall_s, 0.0);
  EXPECT_GT(sampled.scaled_setup_s, 0.0);
  // The samples' own time is left out of the run's timings.
  EXPECT_LT(sampled.window_host_s + speed.spent_s(), sampled.task_s);
}

TEST(Pass, ParallelEfficiencyIsAtMostOne) {
  std::vector<Job> jobs;
  for (double rate : {1.0, 1.5, 2.0, 2.5, 3.0}) {
    Job job = small_job("min-average-nsys");
    job.config.arrival_rate_per_site = rate;
    jobs.push_back(job);
  }
  const Pass pass = run_pass(jobs, 2, false);
  EXPECT_EQ(pass.jobs.size(), jobs.size());
  EXPECT_GT(pass.parallel_eff(), 0.0);
  EXPECT_LE(pass.parallel_eff(), 1.0);
}

}  // namespace
}  // namespace hlsperf
