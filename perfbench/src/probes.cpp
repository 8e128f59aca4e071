#include "probes.hpp"

#include <cmath>
#include <cstdlib>
#include <vector>

#include "db/lock_manager.hpp"
#include "net/link.hpp"
#include "sim/event_queue.hpp"
#include "stats.hpp"
#include "util/random.hpp"

namespace hlsperf {

const char* layer_name(Layer layer) {
  switch (layer) {
    case Layer::Window: return "window";
    case Layer::Decide: return "routing.decide";
    case Layer::OnEvent: return "obs.on_event";
    case Layer::Flush: return "obs.flush";
    case Layer::kCount: break;
  }
  return "?";
}

void Ledger::open(Layer layer) {
  // Spans nest at most Window > Decide > OnEvent; a deeper stack is a bug.
  if (depth_ == static_cast<int>(stack_.size())) {
    std::abort();
  }
  stack_[static_cast<std::size_t>(depth_++)] = Frame{layer, Clock::now(), 0.0};
}

void Ledger::close() {
  const Frame& frame = stack_[static_cast<std::size_t>(--depth_)];
  const double busy = seconds_since(frame.start);
  Totals& t = totals_[static_cast<std::size_t>(frame.layer)];
  t.count += 1;
  t.busy_s += busy;
  t.self_s += busy - frame.child_s;
  if (depth_ > 0) {
    stack_[static_cast<std::size_t>(depth_ - 1)].child_s += busy;
  }
}

void Ledger::reset() { totals_ = {}; }

void Ledger::add(const Ledger& other) {
  for (std::size_t i = 0; i < totals_.size(); ++i) {
    totals_[i].count += other.totals_[i].count;
    totals_[i].busy_s += other.totals_[i].busy_s;
    totals_[i].self_s += other.totals_[i].self_s;
  }
}

hls::Route TimedStrategy::decide(const hls::Transaction& txn,
                                 const hls::SystemStateView& view) {
  if (sim_ != nullptr) {
    depth_sum_ += sim_->pending_events();
    ++depth_samples_;
  }
  const Ledger::Span span = ledger_.span(Layer::Decide);
  return inner_->decide(txn, view);
}

namespace {

constexpr int kProbeBatches = 7;  // median of this many timed batches
constexpr std::size_t kProbeOps = 100000;

double exp_draw(hls::Rng& rng, double mean) {
  return -std::log(1.0 - rng.next_double()) * mean;
}

/// Median over kProbeBatches of the per-op time of `batch(kProbeOps)`.
template <typename Batch>
double median_ns_per_op(Batch&& batch) {
  std::vector<double> ns;
  for (int b = 0; b < kProbeBatches; ++b) {
    const Clock::time_point t0 = Clock::now();
    batch(kProbeOps);
    ns.push_back(seconds_since(t0) * 1e9 / static_cast<double>(kProbeOps));
  }
  return median(std::move(ns));
}

}  // namespace

double queue_probe_ns(std::size_t depth, std::uint64_t seed) {
  hls::Rng rng(seed);
  hls::EventQueue q;
  // Mean spacing 1 s per pending event keeps the hold model's population at
  // `depth` (one pop, one push per op).
  const double mean_delay = static_cast<double>(std::max<std::size_t>(depth, 1));
  for (std::size_t i = 0; i < std::max<std::size_t>(depth, 1); ++i) {
    q.push(exp_draw(rng, mean_delay), [] {});
  }
  return median_ns_per_op([&](std::size_t ops) {
    for (std::size_t i = 0; i < ops; ++i) {
      const hls::SimTime now = q.pop().time;
      q.push(now + exp_draw(rng, mean_delay), [] {});
    }
  });
}

double link_send_probe_ns(const hls::SystemConfig& cfg, std::size_t in_flight,
                          std::uint64_t seed) {
  hls::Simulator sim;
  hls::Link link(sim, cfg.comm_delay, "probe");
  const hls::FaultScheduleConfig& f = cfg.faults;
  link.set_fault_rng(hls::Rng(seed));
  link.set_dup(f.dup_prob, f.dup_extra);
  link.set_reorder(f.reorder_prob,
                   f.reorder_window > 0.0 ? f.reorder_window : cfg.comm_delay);
  hls::Rng rng(seed + 1);
  // Sends arrive as a Poisson stream whose rate keeps `in_flight` messages
  // on the wire; each op sends one message and runs the simulator to the
  // next send time.
  const double gap = cfg.comm_delay / static_cast<double>(std::max<std::size_t>(in_flight, 1));
  double t = 0.0;
  const auto run_ops = [&](std::size_t ops) {
    for (std::size_t i = 0; i < ops; ++i) {
      link.send([] {});
      t += exp_draw(rng, gap);
      sim.run_until(t);
    }
  };
  run_ops(kProbeOps);  // reach the steady in-flight population
  const std::uint64_t events0 = sim.executed_events();
  const std::uint64_t sent0 = link.messages_sent();
  const double loop_ns = median_ns_per_op(run_ops);
  const double events_per_msg =
      static_cast<double>(sim.executed_events() - events0) /
      static_cast<double>(link.messages_sent() - sent0);
  // The ledger charges delivery events to the event-queue term; keep only
  // the link's own share here.
  return loop_ns - events_per_msg * queue_probe_ns(in_flight, seed + 2);
}

double lock_probe_ns(const hls::SystemConfig& cfg, std::uint64_t seed) {
  hls::Simulator sim;
  hls::LockManager lm(sim, "probe");
  hls::Rng rng(seed);
  hls::TxnId txn = 1;
  return median_ns_per_op([&](std::size_t ops) {
    for (std::size_t i = 0; i < ops; ++i) {
      const auto lock = static_cast<hls::LockId>(rng.next_below(cfg.lockspace));
      const hls::LockMode mode = rng.next_double() < cfg.prob_write_lock
                                     ? hls::LockMode::Exclusive
                                     : hls::LockMode::Shared;
      lm.request(txn, lock, mode, nullptr);
      lm.release_all(txn);
      ++txn;
    }
  });
}

}  // namespace hlsperf
