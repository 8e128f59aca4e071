// Per-transaction completion output: the completion hook and a CSV trace
// subscribed to completion events only.
#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "hybrid/hybrid_system.hpp"
#include "obs/csv_sink.hpp"
#include "routing/basic_strategies.hpp"

namespace hls {
namespace {

TEST(CompletionTrace, HookRecordsMatchMetrics) {
  SystemConfig cfg;
  cfg.arrival_rate_per_site = 2.0;
  cfg.seed = 3;
  HybridSystem sys(cfg, std::make_unique<StaticProbabilisticStrategy>(0.5, 3));
  double rt_sum = 0.0;
  std::uint64_t n = 0;
  sys.set_completion_hook([&](const TxnCompletionRecord& r) {
    rt_sum += r.response_time;
    ++n;
    EXPECT_GE(r.response_time, 0.0);
    EXPECT_NEAR(r.completion_time - r.arrival_time, r.response_time, 1e-9);
    EXPECT_GE(r.runs, 1);
  });
  sys.enable_arrivals();
  sys.run_for(60.0);
  sys.stop_arrivals();
  sys.drain();
  EXPECT_EQ(n, sys.metrics().completions);
  EXPECT_NEAR(rt_sum / static_cast<double>(n), sys.metrics().rt_all.mean(),
              1e-9);
}

TEST(CompletionTrace, ClearingHookStopsRecords) {
  SystemConfig cfg;
  cfg.arrival_rate_per_site = 0.0;
  HybridSystem sys(cfg, std::make_unique<AlwaysLocalStrategy>());
  int called = 0;
  sys.set_completion_hook([&](const TxnCompletionRecord&) { ++called; });
  sys.inject(TxnClass::A, 0);
  sys.simulator().run();
  EXPECT_EQ(called, 1);
  sys.set_completion_hook(nullptr);
  sys.inject(TxnClass::A, 0);
  sys.simulator().run();
  EXPECT_EQ(called, 1);
}

TEST(CompletionTrace, CsvSinkWritesOneRowPerCompletion) {
  SystemConfig cfg;
  cfg.arrival_rate_per_site = 1.0;
  cfg.seed = 2;
  HybridSystem sys(cfg, std::make_unique<AlwaysLocalStrategy>());
  std::ostringstream out;
  obs::CsvSink trace(out, obs::kind_bit(obs::EventKind::Completion));
  sys.add_trace_sink(&trace);
  sys.enable_arrivals();
  sys.run_for(50.0);
  sys.stop_arrivals();
  sys.drain();
  trace.flush();
  EXPECT_EQ(trace.rows_written(), sys.metrics().completions);
  // header + one completion line per row
  std::size_t lines = 0;
  std::istringstream in(out.str());
  std::string line;
  while (std::getline(in, line)) {
    if (lines > 0) {
      EXPECT_EQ(line.rfind("completion,", 0), 0u) << line;
    }
    ++lines;
  }
  EXPECT_EQ(lines, trace.rows_written() + 1);
}

}  // namespace
}  // namespace hls
