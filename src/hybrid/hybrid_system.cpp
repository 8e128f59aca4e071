#include "hybrid/hybrid_system.hpp"

#include <algorithm>
#include <cmath>
#include <utility>

#include "obs/registry.hpp"
#include "util/assert.hpp"
#include "util/logging.hpp"

namespace hls {

HybridSystem::HybridSystem(SystemConfig cfg, std::unique_ptr<RoutingStrategy> strategy)
    : cfg_(cfg),
      strategy_(std::move(strategy)),
      factory_(cfg_, Rng(cfg.seed)),
      rng_(cfg.seed ^ 0xA5A5A5A5A5A5A5A5ULL) {
  cfg_.validate();
  HLS_ASSERT(strategy_ != nullptr, "HybridSystem requires a routing strategy");

  central_.cpu = std::make_unique<FcfsResource>(sim_, "central-cpu");
  central_.locks = std::make_unique<LockManager>(sim_, "central-locks");

  sites_.resize(cfg_.num_sites);
  site_metrics_.resize(cfg_.num_sites);
  for (int s = 0; s < cfg_.num_sites; ++s) {
    SiteState& site = sites_[s];
    site.index = s;
    const std::string tag = "site" + std::to_string(s);
    site.cpu = std::make_unique<FcfsResource>(sim_, tag + "-cpu");
    site.locks = std::make_unique<LockManager>(sim_, tag + "-locks");
    site.up = std::make_unique<Link>(sim_, cfg_.comm_delay, tag + "-up");
    site.down = std::make_unique<Link>(sim_, cfg_.comm_delay, tag + "-down");
    site.arrivals = std::make_unique<ArrivalProcess>(
        sim_, rng_.fork("hybrid.site-arrivals"), cfg_.arrival_rate_per_site);
  }

  metrics_.init_conflict_matrix(cfg_.num_sites);

  // Fault injection is armed only for a non-empty schedule so that fault-free
  // configurations fork no extra RNG streams and schedule no extra events —
  // their event sequence is bit-identical to a build without this feature.
  if (!cfg_.faults.empty()) {
    schedule_fault_transitions();
  }

  // The ship-jitter stream follows the same rule: forked only when enabled.
  // Fork order off rng_ is part of the determinism contract (tests
  // reconstruct it): num_sites arrival forks above, the fault-schedule forks
  // when armed, then this.
  if (cfg_.ship_jitter > 0.0) {
    ship_jitter_rng_ = rng_.fork("hybrid.ship-jitter");
  }

  // The time-series sampler follows the same byte-parity rule: with the
  // default interval of 0 no event is ever scheduled. Sampler callbacks only
  // read state, so enabling it never changes Metrics for a given seed.
  if (cfg_.obs_sample_interval > 0.0) {
    sim_.schedule_at(cfg_.obs_sample_interval, [this] { take_sample(); });
  }

  // Per-resource telemetry and lock-access heat counters are pure state
  // writes on paths that already run — no events, no RNG forks — so arming
  // them keeps the event sequence and Metrics bit-identical; leaving them
  // off (the default) keeps even the state writes absent.
  resource_telemetry_ = cfg_.obs_resource_telemetry;
  if (resource_telemetry_) {
    const double now = sim_.now();
    central_.locks->enable_wait_telemetry(now);
    central_.io_tw.set(now, 0.0);
    for (SiteState& site : sites_) {
      site.locks->enable_wait_telemetry(now);
      site.up->enable_flight_telemetry(now);
      site.down->enable_flight_telemetry(now);
      site.io_tw.set(now, 0.0);
    }
  }
  if (cfg_.obs_heat_buckets > 0) {
    central_.locks->enable_heat(cfg_.obs_heat_buckets, cfg_.lockspace);
    for (SiteState& site : sites_) {
      site.locks->enable_heat(cfg_.obs_heat_buckets, cfg_.lockspace);
    }
  }

  // The adaptive-routing controller follows the same byte-parity rule: it
  // exists only when the installed strategy carries one (an `adapt:` spec),
  // and its review chain is scheduled only for a positive cadence — spec
  // override first, config key otherwise. With the default adapt_interval
  // of 0 no review event is scheduled, no controller state is rebound, and
  // collision_policy() reads the strategy's standing per-site policies (all
  // optimistic-abort unless a test pre-flipped them), so default runs stay
  // bit-identical to a build without the controller.
  controller_ = strategy_->controller();
  if (controller_ != nullptr) {
    adapt_interval_ = controller_->interval_override() > 0.0
                          ? controller_->interval_override()
                          : cfg_.adapt_interval;
    if (adapt_interval_ > 0.0) {
      ControllerParams params;
      params.threshold_step = cfg_.adapt_threshold_step;
      params.refusal_frac = cfg_.adapt_refusal_frac;
      params.hot_conflicts = static_cast<std::uint64_t>(cfg_.adapt_hot_conflicts);
      controller_->bind(cfg_.num_sites, params);
      sim_.schedule_at(adapt_interval_, [this] { controller_review(); });
    }
  }
}

HybridSystem::~HybridSystem() = default;

// --------------------------------------------------------------------------
// experiment control

void HybridSystem::enable_arrivals() {
  HLS_ASSERT(!arrivals_enabled_, "arrivals already enabled");
  arrivals_enabled_ = true;
  for (SiteState& site : sites_) {
    site.arrivals->start([this, s = site.index] { on_arrival(s); });
  }
}

void HybridSystem::set_arrival_rate_function(int site, RateFunction rate,
                                             double max_rate) {
  HLS_ASSERT(!arrivals_enabled_, "cannot replace a running arrival process");
  HLS_ASSERT(site >= 0 && site < cfg_.num_sites, "site index out of range");
  sites_[site].arrivals =
      std::make_unique<ArrivalProcess>(
      sim_, rng_.fork("hybrid.arrival-rate-fn"), std::move(rate), max_rate);
}

void HybridSystem::stop_arrivals() {
  // Clearing the flag also lets the sampler chain wind down once the last
  // in-flight transaction completes, so drain() still terminates.
  arrivals_enabled_ = false;
  for (SiteState& site : sites_) {
    site.arrivals->stop();
  }
}

void HybridSystem::drain() { sim_.run(); }

void HybridSystem::run_for(double seconds) { sim_.run_until(sim_.now() + seconds); }

void HybridSystem::flush_phase_batch() const {
  PhaseBatch& batch = phase_batch_;
  if (batch.n == 0) {
    return;
  }
  // Logically const: the staged samples already belong to the accumulators
  // below; this just materializes them.
  auto* self = const_cast<HybridSystem*>(this);
  for (int p = 0; p < obs::kPhaseCount; ++p) {
    SampleStat& stat = self->metrics_.rt_phase[static_cast<std::size_t>(p)];
    for (int i = 0; i < batch.n; ++i) {
      stat.add(batch.value[p][i]);
    }
    Histogram& hist = self->metrics_.rt_phase_hist[static_cast<std::size_t>(p)];
    for (int i = 0; i < batch.n; ++i) {
      hist.add(batch.value[p][i]);
    }
  }
  for (int i = 0; i < batch.n; ++i) {
    SiteMetrics& sm = self->site_metrics_[batch.home_site[i]];
    for (int p = 0; p < obs::kPhaseCount; ++p) {
      sm.rt_phase[static_cast<std::size_t>(p)].add(batch.value[p][i]);
    }
  }
  batch.n = 0;
}

void HybridSystem::begin_measurement() {
  phase_batch_.n = 0;  // staged pre-window completions are out of scope
  metrics_.reset(sim_.now());
  metrics_.init_conflict_matrix(cfg_.num_sites);  // reset() wiped the sizing
  central_.cpu->reset_stats();
  for (SiteState& site : sites_) {
    site.cpu->reset_stats();
  }
  for (SiteMetrics& sm : site_metrics_) {
    sm = SiteMetrics{};
  }
  series_.clear();  // the time series covers the measurement window only
  if (resource_telemetry_ || cfg_.obs_heat_buckets > 0) {
    const double now = sim_.now();
    central_.locks->reset_telemetry(now);
    central_.io_tw.reset(now);
    for (SiteState& site : sites_) {
      site.locks->reset_telemetry(now);
      site.up->reset_telemetry(now);
      site.down->reset_telemetry(now);
      site.io_tw.reset(now);
    }
  }
}

void HybridSystem::end_measurement() {
  flush_phase_batch();
  metrics_.measure_end = sim_.now();
  metrics_.central_utilization = central_.cpu->utilization();
  metrics_.central_avg_queue = central_.cpu->average_queue_length();
  double util_sum = 0.0;
  double queue_sum = 0.0;
  for (const SiteState& site : sites_) {
    util_sum += site.cpu->utilization();
    queue_sum += site.cpu->average_queue_length();
  }
  metrics_.mean_local_utilization = util_sum / static_cast<double>(cfg_.num_sites);
  metrics_.mean_local_avg_queue = queue_sum / static_cast<double>(cfg_.num_sites);
}

TxnId HybridSystem::inject(TxnClass cls, int site) {
  Transaction* t = arena_.checkout();
  factory_.fill_of_class(*t, cls, site, sim_.now());
  arena_.commit(t);
  admit(t);
  return t->id;
}

TxnId HybridSystem::inject_transaction(Transaction txn) {
  HLS_ASSERT(txn.id != kInvalidTxn, "transaction must have a valid id");
  HLS_ASSERT(txn.home_site >= 0 && txn.home_site < cfg_.num_sites,
             "home site out of range");
  const TxnId id = txn.id;
  txn.arrival_time = sim_.now();
  Transaction* t = arena_.checkout();
  *t = std::move(txn);
  arena_.commit(t);
  admit(t);
  return id;
}

// --------------------------------------------------------------------------
// plumbing

Transaction* HybridSystem::find(TxnId id, std::uint64_t epoch) {
  Transaction* txn = arena_.lookup(id);
  if (txn == nullptr || txn->epoch != epoch) {
    return nullptr;  // completed, or aborted+rerun since the event was armed
  }
  return txn;
}

void HybridSystem::cpu_burst(Transaction* txn, int track, double instructions,
                             obs::Phase service_phase, Step next) {
  const double seconds = track == obs::kCentralTrack
                             ? cfg_.central_cpu_seconds(instructions)
                             : cfg_.site_cpu_seconds(track, instructions);
  txn->phases.pending = obs::Phase::ReadyQueue;
  node(track).cpu->submit(seconds, [this, seconds, service_phase, track,
                                    id = txn->id, epoch = txn->epoch, next] {
    if (Transaction* t = find(id, epoch)) {
      span_burst(t, service_phase, seconds, track);
      (this->*next)(t);
    }
  });
}

void HybridSystem::wait(double seconds, Transaction* txn, obs::Phase phase,
                        int track, Step next) {
  txn->phases.pending = phase;
  // IO-occupancy gauge: increment at schedule, decrement unconditionally in
  // the callback (before the epoch check, so the pairing is exact even when
  // the transaction aborted or completed while the IO was in flight).
  const bool io_gauge = resource_telemetry_ && phase == obs::Phase::Io;
  if (io_gauge) {
    note_io(track, +1);
  }
  sim_.schedule_after(seconds, [this, phase, track, id = txn->id,
                                epoch = txn->epoch, next, io_gauge] {
    if (io_gauge) {
      note_io(track, -1);
    }
    if (Transaction* t = find(id, epoch)) {
      span_settle(t, phase, sim_.now(), track);
      (this->*next)(t);
    }
  });
}

void HybridSystem::note_io(int track, int delta) {
  Node& n = node(track);
  n.io_in_flight += delta;
  HLS_ASSERT(n.io_in_flight >= 0, "IO-occupancy gauge went negative");
  n.io_tw.set(sim_.now(), static_cast<double>(n.io_in_flight));
}

int HybridSystem::io_in_flight(int track) const {
  HLS_ASSERT(track == obs::kCentralTrack || (track >= 0 && track < cfg_.num_sites),
             "track out of range");
  return node(track).io_in_flight;
}

// --------------------------------------------------------------------------
// span tracer
//
// Every settle point on the phase timeline doubles as a span emission point:
// the segment [phases.mark, t] that settle() charges to one phase IS the
// span, so the span stream inherits the phase-sum identity (spans of one run
// tile its response time exactly). With no sink subscribed to Span/Edge the
// helpers reduce to the plain settle calls plus one predictable branch —
// the "observation is free or absent" rule extends to the tracer.

void HybridSystem::span_note(const Transaction& txn, obs::Phase p, double begin,
                             double end, int track) {
  if (!obs_wants(obs::EventKind::Span) || end <= begin) {
    return;  // zero-length segments carry no information; skip them
  }
  obs::Event event;
  event.kind = obs::EventKind::Span;
  event.time = end;
  event.txn = txn.id;
  event.cls = txn.cls;
  event.route = txn.route;
  event.home_site = txn.home_site;
  event.runs = txn.run_count + 1;
  event.arrival_time = txn.arrival_time;
  event.span_phase = p;
  event.span_begin = begin;
  event.track = track;
  emit_event(event);
}

void HybridSystem::span_settle(Transaction* txn, obs::Phase p, double t,
                               int track) {
  const double begin = txn->phases.mark;
  txn->phases.settle(p, t);
  span_note(*txn, p, begin, t, track);
}

void HybridSystem::span_burst(Transaction* txn, obs::Phase service_phase,
                              double service, int track) {
  const double begin = txn->phases.mark;
  const double t = sim_.now();
  txn->phases.settle_burst(service_phase, service, t);
  span_note(*txn, obs::Phase::ReadyQueue, begin, t - service, track);
  span_note(*txn, service_phase, t - service, t, track);
}

void HybridSystem::span_interrupt(Transaction* txn, int track) {
  const double begin = txn->phases.mark;
  const obs::Phase p = txn->phases.pending;
  txn->phases.interrupt(sim_.now());
  span_note(*txn, p, begin, sim_.now(), track);
}

void HybridSystem::edge_note(obs::EdgeKind kind, TxnId txn, double src_time,
                             int src_track, double dst_time, int dst_track,
                             TxnId winner) {
  if (!obs_wants(obs::EventKind::Edge)) {
    return;
  }
  obs::Event event;
  event.kind = obs::EventKind::Edge;
  event.edge = kind;
  event.txn = txn;
  event.winner = winner;
  event.src_time = src_time;
  event.src_track = src_track;
  event.time = dst_time;
  event.track = dst_track;
  emit_event(event);
}

void HybridSystem::consume_retry_edge(Transaction* txn, int track) {
  if (txn->retry_edge_from >= 0.0) {
    edge_note(obs::EdgeKind::Retry, txn->id, txn->retry_edge_from,
              txn->retry_edge_track, sim_.now(), track);
    txn->retry_edge_from = -1.0;
  }
}

void HybridSystem::set_deadlock_winner(Transaction* requester,
                                       const std::vector<TxnId>& cycle) {
  // The cycle walk is deterministic (lock-manager wait queues are FIFO), so
  // "first other live member" is a reproducible choice of winner.
  for (TxnId id : cycle) {
    if (id == requester->id) {
      continue;
    }
    if (const Transaction* winner = arena_.lookup(id)) {
      requester->marked_by = id;
      requester->marked_by_site = winner->home_site;
      return;
    }
  }
}

void HybridSystem::send_up(int site, UniqueFunction<void()> deliver) {
  // Transport always completes; if the central complex is down when the
  // message arrives, it queues in the recovery backlog (preserving arrival
  // order) instead of being processed. No message is ever truly lost.
  // The captured sequence number makes processing exactly-once-in-order even
  // under message-level chaos: deliver_in_order drops duplicates and buffers
  // early arrivals before the alive check runs, so the backlog too holds
  // messages in origination order.
  const std::uint64_t seq = sites_[site].up_seq.next_send++;
  sites_[site].up->send([this, site, seq, cb = std::move(deliver)]() mutable {
    deliver_in_order(sites_[site].up_seq, site, seq,
                     [this, cb2 = std::move(cb)]() mutable {
                       if (!central_.alive) {
                         central_.backlog.push_back(std::move(cb2));
                         return;
                       }
                       cb2();
                     });
  });
}

void HybridSystem::send_down(int site, UniqueFunction<void()> deliver) {
  // Every central->site message piggybacks the central state as of send
  // time; this is the (delayed) information the dynamic strategies see.
  CentralSnapshot snap;
  snap.taken_at = sim_.now();
  snap.cpu_queue = static_cast<int>(central_.cpu->queue_length());
  snap.num_txns = central_.resident_txns;
  snap.locks_held = static_cast<int>(central_.locks->locks_held());
  const std::uint64_t seq = sites_[site].down_seq.next_send++;
  sites_[site].down->send(
      [this, site, seq, snap, cb = std::move(deliver)]() mutable {
        deliver_in_order(
            sites_[site].down_seq, site, seq,
            [this, site, snap, cb2 = std::move(cb)]() mutable {
              if (!sites_[site].alive) {
                // Delivered into a crashed site: defer processing (and the
                // snapshot update) until recovery, in arrival order.
                sites_[site].backlog.push_back(
                    [this, site, snap, cb3 = std::move(cb2)]() mutable {
                      sites_[site].central_view = snap;
                      cb3();
                    });
                return;
              }
              sites_[site].central_view = snap;
              cb2();
            });
      });
}

void HybridSystem::deliver_in_order(MsgSequencer& q, int site,
                                    std::uint64_t seq,
                                    UniqueFunction<void()> process) {
  if (seq < q.next_deliver) {
    // Already processed: a duplicate delivery. The handler never runs, so
    // every protocol step behind a sequence number is exactly-once.
    ++metrics_.dup_msgs_dropped;
    ++site_metrics_[site].dup_msgs_dropped;
    return;
  }
  if (seq > q.next_deliver) {
    // Ahead of a gap: some straggler with a lower sequence number is still
    // in flight. First arrivals are buffered in sequence order until the
    // gap fills; duplicates of an already-buffered message are dropped.
    auto it = std::lower_bound(
        q.held.begin(), q.held.end(), seq,
        [](const auto& entry, std::uint64_t s) { return entry.first < s; });
    if (it != q.held.end() && it->first == seq) {
      ++metrics_.dup_msgs_dropped;
      ++site_metrics_[site].dup_msgs_dropped;
      return;
    }
    ++metrics_.msgs_resequenced;
    ++site_metrics_[site].msgs_resequenced;
    q.held.emplace(it, seq, std::move(process));
    return;
  }
  ++q.next_deliver;
  process();
  // The gap just filled: release buffered successors in sequence order. A
  // released handler may send new messages but never synchronously delivers
  // on this same link (deliveries only come from scheduled link events), so
  // the loop cannot re-enter.
  while (!q.held.empty() && q.held.front().first == q.next_deliver) {
    UniqueFunction<void()> next = std::move(q.held.front().second);
    q.held.erase(q.held.begin());
    ++q.next_deliver;
    next();
  }
}

void HybridSystem::complete(Transaction* txn, SimTime completion_time) {
  // The last protocol step before completion is the response message back to
  // the user's region (zero-length for local commits, where completion_time
  // == now); settling it closes the timeline so phase times sum to rt.
  span_settle(txn, obs::Phase::Network, completion_time, txn->home_site);
  if (completion_time > sim_.now()) {
    // Central commit: the response leg is a cross-track hop worth a flow
    // arrow from the central track back home.
    edge_note(obs::EdgeKind::Response, txn->id, sim_.now(), obs::kCentralTrack,
              completion_time, txn->home_site);
  }
  const double rt = completion_time - txn->arrival_time;
  HLS_ASSERT(rt >= 0.0, "negative response time");
  HLS_ASSERT(std::abs(txn->phases.sum() - rt) <= 1e-7 * (1.0 + rt),
             "phase-sum identity violated: a protocol segment escaped the "
             "phase timeline");
  metrics_.rt_all.add(rt);
  metrics_.rt_histogram.add(rt);
  ++metrics_.completions;
  if (txn->run_count == 0) {
    metrics_.rt_first_try.add(rt);
  } else {
    metrics_.rt_rerun.add(rt);
  }
  metrics_.max_reruns_seen = std::max(metrics_.max_reruns_seen, txn->run_count);

  SiteState& home = sites_[txn->home_site];
  SiteMetrics& home_metrics = site_metrics_[txn->home_site];
  if (txn->cls == TxnClass::B) {
    metrics_.rt_class_b.add(rt);
    ++metrics_.completions_class_b;
    --central_.resident_txns;
  } else if (txn->route == Route::Central) {
    metrics_.rt_shipped_a.add(rt);
    ++metrics_.completions_shipped_a;
    --central_.resident_txns;
    --home.shipped_in_flight;
    home.last_shipped_rt = rt;
    home_metrics.rt_shipped_a.add(rt);
  } else {
    metrics_.rt_local_a.add(rt);
    ++metrics_.completions_local_a;
    --home.resident_txns;
    home.last_local_rt = rt;
    home_metrics.rt_local_a.add(rt);
  }
  HLS_ASSERT(central_.resident_txns >= 0, "central residency underflow");
  HLS_ASSERT(home.resident_txns >= 0 && home.shipped_in_flight >= 0,
             "site residency underflow");

  for (int p = 0; p < obs::kPhaseCount; ++p) {
    phase_batch_.value[p][phase_batch_.n] = txn->phases.acc[p];
  }
  phase_batch_.home_site[phase_batch_.n] = txn->home_site;
  if (++phase_batch_.n == PhaseBatch::kCapacity) {
    flush_phase_batch();
  }
  metrics_.wasted_per_txn.add(txn->wasted_total());

  if (completion_hook_) {
    TxnCompletionRecord record;
    record.id = txn->id;
    record.cls = txn->cls;
    record.route = txn->route;
    record.home_site = txn->home_site;
    record.arrival_time = txn->arrival_time;
    record.completion_time = completion_time;
    record.response_time = rt;
    record.runs = txn->run_count + 1;
    for (int i = 0; i < static_cast<int>(AbortCause::kCount); ++i) {
      record.aborts[i] = txn->aborts[i];
    }
    for (int p = 0; p < obs::kPhaseCount; ++p) {
      record.phase[p] = txn->phases.acc[p];
    }
    record.wasted_cpu = txn->wasted_cpu();
    record.wasted_io = txn->wasted_io();
    record.wasted_total = txn->wasted_total();
    completion_hook_(record);
  }
  if (obs_wants(obs::EventKind::Completion)) {
    obs::Event event;
    event.kind = obs::EventKind::Completion;
    event.time = completion_time;
    event.txn = txn->id;
    event.cls = txn->cls;
    event.route = txn->route;
    event.home_site = txn->home_site;
    event.runs = txn->run_count + 1;
    event.arrival_time = txn->arrival_time;
    event.response_time = rt;
    for (int p = 0; p < obs::kPhaseCount; ++p) {
      event.phase[p] = txn->phases.acc[p];
    }
    for (int i = 0; i < static_cast<int>(AbortCause::kCount); ++i) {
      event.aborts[i] = txn->aborts[i];
    }
    event.wasted_cpu = txn->wasted_cpu();
    event.wasted_io = txn->wasted_io();
    emit_event(event);
  }
  arena_.release(txn->id);
}

void HybridSystem::prepare_rerun(Transaction* txn, AbortCause cause) {
  // Wasted work: everything the timeline accumulated since this attempt's
  // baseline is thrown away by the abort. Every caller settles or interrupts
  // the open segment before calling us, so the accumulators are current and
  // the deltas tile the window between consecutive aborts exactly.
  double attempt[obs::kPhaseCount];
  for (int p = 0; p < obs::kPhaseCount; ++p) {
    attempt[p] = txn->phases.acc[p] - txn->attempt_mark[p];
    txn->wasted_phase[p] += attempt[p];
    txn->attempt_mark[p] = txn->phases.acc[p];
  }
  const double attempt_cpu = attempt[static_cast<int>(obs::Phase::CpuService)] +
                             attempt[static_cast<int>(obs::Phase::Commit)];
  const double attempt_io = attempt[static_cast<int>(obs::Phase::Io)];

  // Winner: only collision-type causes name one. Crash sweeps and ship
  // timeouts must not inherit a stale marked_by from an invalidation that
  // happened to land on the same attempt.
  TxnId winner = kInvalidTxn;
  int winner_site = -2;
  if (cause == AbortCause::LocalPreempted ||
      cause == AbortCause::CentralInvalidated ||
      cause == AbortCause::AuthRefused || cause == AbortCause::Deadlock) {
    winner = txn->marked_by;
    winner_site = txn->marked_by_site;
  }
  const int abort_track =
      txn->at_central ? obs::kCentralTrack : txn->home_site;

  if (obs_wants(obs::EventKind::Abort)) {
    obs::Event event;
    event.kind = obs::EventKind::Abort;
    event.time = sim_.now();
    event.txn = txn->id;
    event.cls = txn->cls;
    event.route = txn->route;
    event.home_site = txn->home_site;
    event.runs = txn->run_count + 1;  // executions including the failed one
    event.arrival_time = txn->arrival_time;
    event.cause = cause;
    for (int i = 0; i < static_cast<int>(AbortCause::kCount); ++i) {
      event.aborts[i] = txn->aborts[i];
    }
    for (int p = 0; p < obs::kPhaseCount; ++p) {
      event.phase[p] = attempt[p];  // this attempt's breakdown, not totals
    }
    event.winner = winner;
    event.winner_site = winner_site;
    event.wasted_cpu = attempt_cpu;
    event.wasted_io = attempt_io;
    emit_event(event);
  }
  if (winner != kInvalidTxn && winner_site >= 0) {
    edge_note(obs::EdgeKind::Conflict, txn->id, sim_.now(), winner_site,
              sim_.now(), abort_track, winner);
  }
  if (obs_wants(obs::EventKind::Edge)) {
    txn->retry_edge_from = sim_.now();
    txn->retry_edge_track = abort_track;
  }

  txn->count_abort(cause);
  ++metrics_.aborts[static_cast<int>(cause)];
  ++metrics_.reruns;
  if (winner != kInvalidTxn && winner_site >= 0) {
    ++metrics_.aborts_with_winner;  // matches the conflict matrix's winner columns
  }
  metrics_.wasted_cpu_by_cause[static_cast<int>(cause)] += attempt_cpu;
  metrics_.wasted_io_by_cause[static_cast<int>(cause)] += attempt_io;
  metrics_.record_conflict(txn->home_site, winner_site);
  SiteMetrics& home_metrics = site_metrics_[txn->home_site];
  ++home_metrics.aborts[static_cast<int>(cause)];
  home_metrics.wasted_cpu += attempt_cpu;
  home_metrics.wasted_io += attempt_io;

  txn->marked_by = kInvalidTxn;
  txn->marked_by_site = -2;
  txn->auth_blocker = kInvalidTxn;
  txn->auth_blocker_site = -2;
  ++txn->run_count;
  ++txn->epoch;
  txn->call_index = 0;
  txn->marked_abort = false;
  txn->auth_pending_acks = 0;
  txn->auth_any_negative = false;
  txn->auth_sites.clear();
  // An ordinary rerun finds all referenced data in memory (§3.1). Crash and
  // timeout paths override this to false right after calling us: their
  // restart lost that memory and pays the I/O again.
  txn->memory_resident = true;
  HLS_ASSERT(txn->run_count <= cfg_.max_reruns,
             "transaction exceeded max_reruns: livelock or protocol bug");
}

Transaction* HybridSystem::choose_deadlock_victim(Transaction* requester,
                                                  const std::vector<TxnId>& cycle) {
  if (cfg_.deadlock_victim == DeadlockVictim::Requester) {
    return requester;
  }
  // Youngest: the most recently arrived live cycle member. A member that is
  // mid-authentication never appears here (authenticating transactions do
  // not wait on locks), so force-aborting any candidate is safe.
  Transaction* youngest = requester;
  for (TxnId id : cycle) {
    Transaction* t = arena_.lookup(id);
    if (t == nullptr) {
      continue;
    }
    if (t->arrival_time > youngest->arrival_time) {
      youngest = t;
    }
  }
  return youngest;
}

void HybridSystem::force_abort_victim(Transaction* victim,
                                      Transaction* requester) {
  HLS_ASSERT(victim->auth_pending_acks == 0,
             "deadlock victim cannot be mid-authentication");
  victim->marked_by = requester->id;
  victim->marked_by_site = requester->home_site;
  abort_run(victim, AbortCause::Deadlock, /*release_everything=*/true);
}

// --------------------------------------------------------------------------
// arrivals / routing

void HybridSystem::on_arrival(int site) {
  if (!sites_[site].alive) {
    // A crashed site accepts no new work; the user's request is rejected.
    ++metrics_.arrivals_rejected;
    return;
  }
  Transaction* t = arena_.checkout();
  factory_.fill(*t, site, sim_.now());
  arena_.commit(t);
  admit(t);
}

void HybridSystem::admit(Transaction* t) {
  t->phases.begin(t->arrival_time);

  SiteState& home = sites_[t->home_site];
  if (t->cls == TxnClass::B) {
    ++metrics_.arrivals_class_b;
    t->route = Route::Central;
    if (is_rfc(*t)) {
      // Remote-call mode: processing stays home, data stays central.
      ++central_.resident_txns;
      t->at_central = true;
      start_run(t);
    } else {
      ship_to_central(t);
    }
    return;
  }

  ++metrics_.arrivals_class_a;
  ++site_metrics_[t->home_site].arrivals_class_a;
  t->route = strategy_->decide(*t, make_state_view(t->home_site));
  if (t->route == Route::Central) {
    ++metrics_.shipped_class_a;
    ++site_metrics_[t->home_site].shipped_class_a;
    ++home.shipped_in_flight;
    arm_ship_timeout(t);
    ship_to_central(t);
  } else {
    ++home.resident_txns;
    start_run(t);
  }
}

SystemStateView HybridSystem::make_state_view(int site) const {
  HLS_ASSERT(site >= 0 && site < cfg_.num_sites, "site index out of range");
  const SiteState& s = sites_[site];
  SystemStateView view;
  view.config = &cfg_;
  view.now = sim_.now();
  view.site = site;
  view.local_cpu_queue = static_cast<int>(s.cpu->queue_length());
  view.local_num_txns = s.resident_txns;
  view.local_locks_held = static_cast<int>(s.locks->locks_held());
  view.shipped_in_flight = s.shipped_in_flight;
  view.last_local_rt = s.last_local_rt;
  view.last_shipped_rt = s.last_shipped_rt;
  view.central_reachable = central_.alive;
  if (cfg_.ideal_state_info) {
    view.central_info_age = 0.0;
    view.central_cpu_queue = static_cast<int>(central_.cpu->queue_length());
    view.central_num_txns = central_.resident_txns;
    view.central_locks_held = static_cast<int>(central_.locks->locks_held());
  } else {
    view.central_info_age = sim_.now() - s.central_view.taken_at;
    view.central_cpu_queue = s.central_view.cpu_queue;
    view.central_num_txns = s.central_view.num_txns;
    view.central_locks_held = s.central_view.locks_held;
  }
  const double window = sim_.now() - metrics_.measure_start;
  for (int c = 0; c < static_cast<int>(AbortCause::kCount); ++c) {
    view.aborts_by_cause[c] = metrics_.aborts[c];
    view.abort_rate_by_cause[c] =
        window > 0.0 ? static_cast<double>(metrics_.aborts[c]) / window : 0.0;
  }
  view.last_sample = series_.empty() ? nullptr : &series_.back();
  return view;
}

// --------------------------------------------------------------------------
// the run skeleton
//
// One execution of a transaction (§3.1): initiation CPU, setup I/O (first
// run only), then one round of [call CPU, lock request, call I/O] per DB
// call, then commit. Local class A, central (class B and shipped class A)
// and remote-call class B runs all walk these steps; each step asks the
// transaction where it executes (exec_track) and where its locks live
// (data_track). Three places differ by protocol and stay hooks: the commit
// tail (local_finalize vs central_begin_auth), the remote-call leg (the
// lock request travels up, the reply travels down) and the remote-call
// restart, which waits for the abort outcome to reach home.

int HybridSystem::exec_track(const Transaction& txn) const {
  return is_local(txn) || is_rfc(txn) ? txn.home_site : obs::kCentralTrack;
}

int HybridSystem::data_track(const Transaction& txn) const {
  return is_local(txn) ? txn.home_site : obs::kCentralTrack;
}

void HybridSystem::start_run(Transaction* txn) {
  const int track = exec_track(*txn);
  consume_retry_edge(txn, track);
  cpu_burst(txn, track, cfg_.instr_msg_init, obs::Phase::CpuService,
            &HybridSystem::after_init);
}

void HybridSystem::after_init(Transaction* txn) {
  if (txn->memory_resident) {
    // Re-referenced data is memory resident: skip the setup I/O.
    do_call(txn);
  } else {
    wait(cfg_.setup_io_time, txn, obs::Phase::Io, exec_track(*txn),
         &HybridSystem::do_call);
  }
}

void HybridSystem::do_call(Transaction* txn) {
  if (txn->call_index >= static_cast<int>(txn->locks.size())) {
    commit(txn);
    return;
  }
  // A remote call's lock request first travels to the central copy.
  cpu_burst(txn, exec_track(*txn), cfg_.instr_per_call, obs::Phase::CpuService,
            is_rfc(*txn) ? &HybridSystem::rfc_send_up
                         : &HybridSystem::request_lock);
}

void HybridSystem::request_lock(Transaction* txn) {
  LockManager& lm = *node(data_track(*txn)).locks;
  txn->phases.pending = obs::Phase::LockWait;
  // Retry loop: when the victim policy aborts another cycle member, the
  // requester's lock request is re-issued (each force-abort removes one
  // waiter, so this terminates).
  for (;;) {
    const LockNeed& need = txn->locks[txn->call_index];
    std::vector<TxnId> cycle;
    const auto outcome =
        lm.request(txn->id, need.id, need.mode,
                   [this, id = txn->id, epoch = txn->epoch] {
                     if (Transaction* t = find(id, epoch)) {
                       lock_granted(t);
                     }
                   },
                   &cycle);
    switch (outcome) {
      case LockRequestOutcome::Granted:
      case LockRequestOutcome::AlreadyHeld:
        lock_granted(txn);
        return;
      case LockRequestOutcome::Queued:
        return;  // lock_granted fires on grant
      case LockRequestOutcome::Deadlock: {
        Transaction* victim = choose_deadlock_victim(txn, cycle);
        if (victim == txn) {
          set_deadlock_winner(txn, cycle);
          abort_run(txn, AbortCause::Deadlock, /*release_everything=*/true);
          return;
        }
        force_abort_victim(victim, txn);
        continue;
      }
    }
  }
}

void HybridSystem::lock_granted(Transaction* txn) {
  const int track = data_track(*txn);
  // Zero-length if the lock was granted immediately (no span emitted).
  span_settle(txn, obs::Phase::LockWait, sim_.now(), track);
  const bool do_io = !txn->memory_resident && txn->call_io[txn->call_index];
  ++txn->call_index;
  if (is_rfc(*txn)) {
    // The remote call's I/O runs at the central copy and is scheduled even
    // when zero-length; then the reply travels home.
    wait(do_io ? cfg_.call_io_time : 0.0, txn, obs::Phase::Io, track,
         &HybridSystem::rfc_reply_down);
  } else if (do_io) {
    wait(cfg_.call_io_time, txn, obs::Phase::Io, track, &HybridSystem::do_call);
  } else {
    do_call(txn);
  }
}

void HybridSystem::commit(Transaction* txn) {
  if (txn->marked_abort) {
    // Preempted by an authenticating central transaction (local class A) or
    // invalidated by an asynchronous update (central data). Surviving locks
    // are kept (§3.1: locks are not released after an abort).
    abort_run(txn, marked_abort_cause(*txn), /*release_everything=*/false);
    return;
  }
  double instr = cfg_.instr_msg_commit;
  if (is_local(*txn) && txn->writes_anything()) {
    instr += cfg_.instr_send_async;  // the asynchronous update message
  }
  // A remote-call commit request travels to the central site after the
  // home-site burst.
  cpu_burst(txn, exec_track(*txn), instr, obs::Phase::Commit,
            is_rfc(*txn) ? &HybridSystem::rfc_send_up
                         : &HybridSystem::finish_commit);
}

void HybridSystem::finish_commit(Transaction* txn) {
  if (txn->marked_abort) {
    // Marked while commit processing was queued, in service or in flight.
    abort_run(txn, marked_abort_cause(*txn), /*release_everything=*/false);
    return;
  }
  if (is_local(*txn)) {
    local_finalize(txn);
  } else {
    central_begin_auth(txn);
  }
}

AbortCause HybridSystem::marked_abort_cause(const Transaction& txn) {
  return is_local(txn) ? AbortCause::LocalPreempted
                       : AbortCause::CentralInvalidated;
}

void HybridSystem::abort_run(Transaction* txn, AbortCause cause,
                             bool release_everything) {
  const int track = data_track(*txn);
  // Settle the open segment (zero-length for synchronous commit-point
  // aborts; a real lock wait for force-aborted deadlock victims).
  span_interrupt(txn, track);
  LockManager& lm = *node(track).locks;
  if (release_everything) {
    lm.release_all(txn->id);
  } else {
    lm.cancel_waits(txn->id);  // defensive: commit-time aborts never wait
  }
  prepare_rerun(txn, cause);
  restart_run(txn);
}

void HybridSystem::restart_run(Transaction* txn) {
  const double restart_delay = restart_delay_for(txn);
  if (is_rfc(*txn)) {
    // The abort outcome travels back to the home site before the rerun, so
    // a remote-call restart always waits.
    wait(cfg_.comm_delay + restart_delay, txn, obs::Phase::Stall,
         txn->home_site, &HybridSystem::start_run);
  } else if (restart_delay > 0.0) {
    wait(restart_delay, txn, obs::Phase::Stall, exec_track(*txn),
         &HybridSystem::start_run);
  } else {
    start_run(txn);
  }
}

double HybridSystem::restart_delay_for(const Transaction* txn) const {
  double delay = cfg_.abort_restart_delay;
  if (cfg_.livelock_backoff > 0.0 &&
      txn->run_count > cfg_.livelock_backoff_after) {
    // Linear growth de-synchronizes mutual-abort cycles: the members carry
    // different run counts, so their stalls diverge until one of them gets
    // a clear window to finish. Deterministic — no randomness needed.
    delay += cfg_.livelock_backoff *
             static_cast<double>(txn->run_count - cfg_.livelock_backoff_after);
  }
  return delay;
}

// --------------------------------------------------------------------------
// the local commit tail: asynchronous update propagation

void HybridSystem::local_finalize(Transaction* txn) {
  SiteState& home = sites_[txn->home_site];
  LockManager& lm = *home.locks;

  // Updated entities: the exclusive locks this transaction holds. (If it is
  // unmarked at commit it still holds every lock it acquired.) Each update
  // carries its committer so a central invalidation can name its winner.
  std::vector<UpdateItem> updated;
  for (const LockNeed& need : txn->locks) {
    if (need.mode != LockMode::Exclusive) {
      continue;
    }
    HLS_ASSERT(lm.holds(txn->id, need.id), "unmarked committer lost a lock");
    const auto dup = std::find_if(
        updated.begin(), updated.end(),
        [&need](const UpdateItem& u) { return u.id == need.id; });
    if (dup == updated.end()) {
      updated.push_back({need.id, txn->id});
    }
  }

  // Release the concurrency fields and flag the pending update propagation
  // in the coherence fields, then ship one asynchronous update message. The
  // transaction completes without waiting for any acknowledgement.
  lm.release_all(txn->id);
  for (const UpdateItem& item : updated) {
    lm.increment_coherence(item.id);
  }
  if (!updated.empty()) {
    queue_async_update(txn->home_site, std::move(updated));
  }
  complete(txn, sim_.now());
}

void HybridSystem::queue_async_update(int site, std::vector<UpdateItem> items) {
  if (cfg_.async_batch_window <= 0.0) {
    send_async_update(site, std::move(items));
    return;
  }
  SiteState& s = sites_[site];
  s.pending_updates.insert(s.pending_updates.end(), items.begin(), items.end());
  if (s.flush_armed) {
    return;  // a flush is already scheduled; this commit rides along
  }
  s.flush_armed = true;
  sim_.schedule_after(cfg_.async_batch_window, [this, site] {
    SiteState& st = sites_[site];
    st.flush_armed = false;
    if (!st.pending_updates.empty()) {
      std::vector<UpdateItem> batch;
      batch.swap(st.pending_updates);
      send_async_update(site, std::move(batch));
    }
  });
}

void HybridSystem::send_async_update(int site, std::vector<UpdateItem> items) {
  ++metrics_.async_updates_sent;
  // Apply cost: fixed per-message overhead plus a per-item component — the
  // saving that §2's batching suggestion is after.
  const double apply_cpu = cfg_.central_cpu_seconds(
      cfg_.instr_apply_update +
      cfg_.instr_apply_update_item * static_cast<double>(items.size()));
  const double sent_at = sim_.now();
  send_up(site, [this, site, apply_cpu, sent_at, items = std::move(items)] {
    // Delivered at the central site: queue the apply work on the central CPU.
    edge_note(obs::EdgeKind::AsyncUpdate, kInvalidTxn, sent_at, site,
              sim_.now(), obs::kCentralTrack);
    central_.cpu->submit(apply_cpu,
                         [this, site, items] { central_apply_update(site, items); });
  });
}

void HybridSystem::central_apply_update(int site,
                                        const std::vector<UpdateItem>& items) {
  // Invalidate central locks on the updated entities: holders are marked for
  // abort and lose the lock, so later central transactions see fresh data.
  // The committer that shipped the update is recorded as the winner of the
  // collision (its home site is `site` — batches are per-site).
  for (const UpdateItem& item : items) {
    for (const auto& holder : central_.locks->holders_of(item.id)) {
      Transaction* held = arena_.lookup(holder.txn);
      HLS_ASSERT(held != nullptr, "central lock held by a dead transaction");
      held->marked_abort = true;
      held->marked_by = item.committer;
      held->marked_by_site = site;
      central_.locks->release(holder.txn, item.id);
    }
  }
  // Acknowledge back to the master site; the ack processing decrements the
  // coherence counts that were raised at local commit.
  send_down(site, [this, site, items] {
    sites_[site].cpu->submit(
        cfg_.site_cpu_seconds(site, cfg_.instr_recv_ack), [this, site, items] {
          for (const UpdateItem& item : items) {
            sites_[site].locks->decrement_coherence(item.id);
          }
        });
  });
}

// --------------------------------------------------------------------------
// shipping to the central complex (class B and shipped class A)

void HybridSystem::ship_to_central(Transaction* txn) {
  // Input-message forwarding consumes home-site CPU, then the transaction
  // travels one link delay to the central complex.
  consume_retry_edge(txn, txn->home_site);
  cpu_burst(txn, txn->home_site, cfg_.instr_ship_forward,
            obs::Phase::CpuService, &HybridSystem::ship_after_forward);
}

void HybridSystem::ship_after_forward(Transaction* txn) {
  txn->phases.pending = obs::Phase::Network;
  const double sent_at = sim_.now();
  send_up(txn->home_site, [this, sent_at, id = txn->id, epoch = txn->epoch] {
    if (Transaction* t = find(id, epoch)) {
      // A delivery replayed from an outage backlog settles here too: the
      // Network phase absorbs backlog residence (documented convention).
      span_settle(t, obs::Phase::Network, sim_.now(), t->home_site);
      edge_note(obs::EdgeKind::Ship, t->id, sent_at, t->home_site, sim_.now(),
                obs::kCentralTrack);
      ++central_.resident_txns;
      t->at_central = true;
      start_run(t);
    }
  });
}

// --------------------------------------------------------------------------
// the central commit tail: authentication

void HybridSystem::central_begin_auth(Transaction* txn) {
  // Send the lock list to every master site of the data locked; for shipped
  // class A transactions that is just the home site.
  ++metrics_.auth_rounds;
  std::vector<int> involved;
  for (const LockNeed& need : txn->locks) {
    const int owner = cfg_.owner_site(need.id);
    if (std::find(involved.begin(), involved.end(), owner) == involved.end()) {
      involved.push_back(owner);
    }
  }
  HLS_ASSERT(!involved.empty(), "authentication with no involved sites");
  txn->auth_pending_acks = static_cast<int>(involved.size());
  txn->auth_any_negative = false;
  txn->auth_sites.clear();
  // Everything until the last ack lands — down links, local auth CPU, up
  // links — is the authentication phase.
  txn->phases.pending = obs::Phase::Auth;

  for (int site : involved) {
    std::vector<LockNeed> needs;
    for (const LockNeed& need : txn->locks) {
      if (cfg_.owner_site(need.id) == site) {
        needs.push_back(need);
      }
    }
    send_down(site, [this, site, id = txn->id, epoch = txn->epoch,
                     needs = std::move(needs)] {
      local_process_auth(site, id, epoch, needs);
    });
  }
}

void HybridSystem::local_process_auth(int site, TxnId txn_id, std::uint64_t epoch,
                                      std::vector<LockNeed> needs) {
  // Authentication processing consumes home-site CPU before the checks run.
  sites_[site].cpu->submit(
      cfg_.site_cpu_seconds(site, cfg_.instr_auth_local),
      [this, site, txn_id, epoch, needs = std::move(needs)] {
        if (find(txn_id, epoch) == nullptr) {
          // Requester reclaimed (ship timeout / crash) while this request
          // was queued: don't grab locks on behalf of a dead auth round.
          // Unreachable in fault-free runs — a transaction always collects
          // the full ack set before its epoch can change.
          return;
        }
        LockManager& lm = *sites_[site].locks;

        // Refuse when any requested entity has in-flight asynchronous
        // updates (stale central copy), or is held by a holder we may not
        // preempt: only class A transactions running locally are
        // preemptible. A lingering auth hold of another central transaction
        // (commit message still in flight) also forces a refusal. When the
        // refusal names a live holder, carry it back on the ack as the
        // winner of the conflict; coherence-in-flight refusals have none.
        bool refuse = false;
        TxnId blocker = kInvalidTxn;
        int blocker_site = -2;
        for (const LockNeed& need : needs) {
          if (lm.coherence_count(need.id) != 0) {
            refuse = true;
            break;
          }
          for (const auto& holder : lm.holders_of(need.id)) {
            if (holder.txn == txn_id) {
              continue;
            }
            const bool conflict = need.mode == LockMode::Exclusive ||
                                  holder.mode == LockMode::Exclusive;
            if (!conflict) {
              continue;
            }
            const Transaction* held = arena_.lookup(holder.txn);
            // Under the controller's lock-wait collision policy the site
            // treats even local class-A holders as non-preemptible: the
            // refusal names the holder as blocker and the central
            // transaction reruns, deferring to the holder instead of
            // killing it (docs/PROTOCOL.md, adaptive controller section).
            const bool preemptible =
                held != nullptr && held->cls == TxnClass::A &&
                held->route == Route::Local &&
                collision_policy(site) == CollisionPolicy::OptimisticAbort;
            if (!preemptible) {
              refuse = true;
              if (held != nullptr) {
                blocker = holder.txn;
                blocker_site = held->home_site;
              }
              break;
            }
          }
          if (refuse) {
            break;
          }
        }

        bool granted = false;
        if (!refuse) {
          Transaction* requester = find(txn_id, epoch);
          for (const LockNeed& need : needs) {
            auto grab = lm.grab_for_authentication(txn_id, need.id, need.mode);
            HLS_ASSERT(grab.granted, "auth grab refused after precheck");
            for (TxnId victim : grab.aborted) {
              Transaction* held = arena_.lookup(victim);
              HLS_ASSERT(held != nullptr, "preempted a dead transaction");
              held->marked_abort = true;
              // The authenticating transaction preempted this local holder.
              held->marked_by = txn_id;
              held->marked_by_site =
                  requester != nullptr ? requester->home_site : -2;
            }
          }
          granted = true;
        }

        send_up(site, [this, txn_id, epoch, site, positive = !refuse, granted,
                       blocker, blocker_site] {
          central_auth_ack(txn_id, epoch, site, positive, granted, blocker,
                          blocker_site);
        });
      });
}

void HybridSystem::central_auth_ack(TxnId txn_id, std::uint64_t epoch, int site,
                                    bool positive, bool granted, TxnId blocker,
                                    int blocker_site) {
  Transaction* txn = find(txn_id, epoch);
  // Fault-free, the transaction always waits for the full ack set before
  // moving on; a miss here means a ship timeout or crash reclaimed it while
  // the ack was in flight, and the reclaim already released its auth holds.
  if (txn == nullptr || txn->auth_pending_acks <= 0) {
    return;
  }
  if (granted) {
    txn->auth_sites.push_back(site);
  }
  if (!positive) {
    txn->auth_any_negative = true;
    // First named blocker wins (acks arrive in deterministic order).
    if (txn->auth_blocker == kInvalidTxn && blocker != kInvalidTxn) {
      txn->auth_blocker = blocker;
      txn->auth_blocker_site = blocker_site;
    }
  }
  if (--txn->auth_pending_acks == 0) {
    central_auth_done(txn);
  }
}

void HybridSystem::central_auth_done(Transaction* txn) {
  span_settle(txn, obs::Phase::Auth, sim_.now(), obs::kCentralTrack);
  if (txn->auth_any_negative || txn->marked_abort) {
    if (txn->auth_any_negative) {
      ++metrics_.auth_negative_acks;
    }
    const AbortCause cause = txn->auth_any_negative ? AbortCause::AuthRefused
                                                    : AbortCause::CentralInvalidated;
    if (txn->auth_any_negative) {
      // Surface the refusing holder (if any) as this abort's winner.
      txn->marked_by = txn->auth_blocker;
      txn->marked_by_site = txn->auth_blocker_site;
    }
    release_auth_grants(txn);
    abort_run(txn, cause, /*release_everything=*/false);
    return;
  }

  // Commit: release the authentication grants at the involved sites and the
  // concurrency locks at the central site; the response travels one link
  // delay back to the user's region.
  release_auth_grants(txn);
  central_.locks->release_all(txn->id);
  complete(txn, sim_.now() + cfg_.comm_delay);
}

void HybridSystem::release_auth_grants(Transaction* txn) {
  for (int site : txn->auth_sites) {
    release_grants_at(site, txn->id, /*over_link=*/true);
  }
  txn->auth_sites.clear();
}

void HybridSystem::release_grants_at(int site, TxnId id, bool over_link) {
  auto job = [this, site, id] {
    sites_[site].cpu->submit(
        cfg_.site_cpu_seconds(site, cfg_.instr_commit_apply_local),
        [this, site, id] { sites_[site].locks->release_all(id); });
  };
  if (over_link) {
    send_down(site, std::move(job));
  } else {
    job();
  }
}

// --------------------------------------------------------------------------
// the remote-call leg (ClassBMode::RemoteCalls)
//
// A remote-call class B transaction walks the run skeleton at home against
// the central copy: each lock request travels up and is served by the
// central CPU, the call's I/O runs at central, and the reply travels down
// to the home CPU; the commit request travels up the same way before the
// authentication tail. The central bursts are submitted whether or not the
// transaction is still live (the central CPU does the work before
// discovering the requester aborted), so the timeline settles around them:
// Network at delivery, the burst at its end.

void HybridSystem::rfc_send_up(Transaction* txn) {
  // Once every call is done, the request is the commit request.
  const bool commit_request =
      txn->call_index >= static_cast<int>(txn->locks.size());
  const double seconds = cfg_.central_cpu_seconds(
      commit_request ? cfg_.instr_msg_commit : cfg_.instr_remote_call);
  const obs::Phase phase =
      commit_request ? obs::Phase::Commit : obs::Phase::CpuService;
  const Step next = commit_request ? &HybridSystem::finish_commit
                                   : &HybridSystem::request_lock;
  txn->phases.pending = obs::Phase::Network;
  send_up(txn->home_site,
          [this, seconds, phase, next, id = txn->id, epoch = txn->epoch] {
            if (Transaction* t = find(id, epoch)) {
              span_settle(t, obs::Phase::Network, sim_.now(), t->home_site);
              t->phases.pending = obs::Phase::ReadyQueue;
            }
            central_.cpu->submit(seconds, [this, seconds, phase, next, id,
                                           epoch] {
              if (Transaction* t = find(id, epoch)) {
                span_burst(t, phase, seconds, obs::kCentralTrack);
                (this->*next)(t);
              }
            });
          });
}

void HybridSystem::rfc_reply_down(Transaction* txn) {
  txn->phases.pending = obs::Phase::Network;
  send_down(txn->home_site, [this, id = txn->id, epoch = txn->epoch] {
    if (Transaction* t = find(id, epoch)) {
      span_settle(t, obs::Phase::Network, sim_.now(), t->home_site);
      // The home-site CPU books the reply handling, then the next call.
      cpu_burst(t, t->home_site, cfg_.instr_recv_ack, obs::Phase::CpuService,
                &HybridSystem::do_call);
    }
  });
}

// --------------------------------------------------------------------------
// fault injection
//
// Failure semantics (docs/PROTOCOL.md "Failure model"):
//   * A crashed node processes nothing; messages delivered to it queue in a
//     backlog replayed in arrival order at recovery, so FIFO coherence /
//     authentication ordering survives the outage and nothing is lost.
//   * A central crash aborts every resident transaction (shipped class A,
//     class B, and the central half of remote-call class B). Their restart
//     is deferred to recovery, after the backlog replay. Crash restarts pay
//     their I/O again (memory contents are gone).
//   * A site crash aborts only the class A transactions running locally;
//     the site's lock/coherence tables are stable storage and survive, so
//     authentication holds and coherence counts held on behalf of central
//     transactions remain valid across the outage.
//   * Reclaim cleanup (crash or ship timeout) releases the victim's
//     authentication grabs at every master site it could have contacted —
//     the failure-detector shortcut; FIFO links + FCFS CPUs guarantee the
//     cleanup lands before any retry's new authentication round.

void HybridSystem::schedule_fault_transitions() {
  const FaultSchedule schedule(cfg_.faults, cfg_.num_sites,
                               rng_.fork("hybrid.fault-schedule"));
  Rng link_rng = rng_.fork("hybrid.link-faults");
  for (SiteState& site : sites_) {
    site.up->set_fault_rng(link_rng.fork("hybrid.link-up"));
    site.down->set_fault_rng(link_rng.fork("hybrid.link-down"));
  }
  // Steady-state message chaos applies from t = 0; msg_fault windows
  // override the probabilities while active and their end transitions
  // restore these values.
  if (cfg_.faults.message_faults()) {
    for (int s = 0; s < cfg_.num_sites; ++s) {
      apply_msg_fault(s, cfg_.faults.dup_prob, cfg_.faults.reorder_prob,
                      cfg_.faults.spike_prob, cfg_.faults.spike_factor);
    }
  }
  for (const FaultTransition& tr : schedule.transitions()) {
    sim_.schedule_at(tr.time, [this, tr] { apply_fault_transition(tr); });
  }
}

double HybridSystem::effective_reorder_window() const {
  return cfg_.faults.reorder_window > 0.0 ? cfg_.faults.reorder_window
                                          : cfg_.comm_delay;
}

void HybridSystem::apply_msg_fault(int site, double dup_prob,
                                   double reorder_prob, double spike_prob,
                                   double spike_factor) {
  SiteState& s = sites_[site];
  for (Link* link : {s.up.get(), s.down.get()}) {
    link->set_dup(dup_prob, cfg_.faults.dup_extra);
    link->set_reorder(reorder_prob, effective_reorder_window());
    link->set_delay_spike(spike_prob, spike_factor);
  }
}

void HybridSystem::apply_fault_transition(const FaultTransition& tr) {
  const int lo = tr.site < 0 ? 0 : tr.site;
  const int hi = tr.site < 0 ? cfg_.num_sites - 1 : tr.site;
  switch (tr.kind) {
    case FaultKind::CentralOutage:
      if (tr.begin) {
        central_crash();
      } else {
        central_recover();
      }
      return;
    case FaultKind::SiteOutage:
      for (int s = lo; s <= hi; ++s) {
        if (tr.begin) {
          site_crash(s);
        } else {
          site_recover(s);
        }
      }
      return;
    case FaultKind::LinkOutage:
      for (int s = lo; s <= hi; ++s) {
        sites_[s].up->set_up(!tr.begin);
        sites_[s].down->set_up(!tr.begin);
      }
      return;
    case FaultKind::LinkDegrade:
      for (int s = lo; s <= hi; ++s) {
        sites_[s].up->set_delay_factor(tr.begin ? tr.delay_factor : 1.0);
        sites_[s].down->set_delay_factor(tr.begin ? tr.delay_factor : 1.0);
        sites_[s].up->set_loss(tr.begin ? tr.loss_prob : 0.0);
        sites_[s].down->set_loss(tr.begin ? tr.loss_prob : 0.0);
      }
      return;
    case FaultKind::MsgFault:
      for (int s = lo; s <= hi; ++s) {
        if (tr.begin) {
          apply_msg_fault(s, tr.dup_prob, tr.reorder_prob, tr.spike_prob,
                          tr.spike_factor);
        } else {
          // Restore the schedule's steady-state message-fault levels.
          apply_msg_fault(s, cfg_.faults.dup_prob, cfg_.faults.reorder_prob,
                          cfg_.faults.spike_prob, cfg_.faults.spike_factor);
        }
      }
      return;
  }
  HLS_ASSERT(false, "unknown fault transition kind");
}

void HybridSystem::emit_fault_event(int site, bool up) {
  if (obs_wants(obs::EventKind::Fault)) {
    obs::Event event;
    event.kind = obs::EventKind::Fault;
    event.time = sim_.now();
    event.site = site;
    event.up = up;
    emit_event(event);
  }
}

void HybridSystem::crash_node(int track, std::vector<TxnId> victims) {
  Node& n = node(track);
  n.alive = false;
  emit_fault_event(track, /*up=*/false);

  // Sort the victims so the crash processing order (and therefore every
  // downstream event) is independent of arena index order.
  std::sort(victims.begin(), victims.end());
  // Two passes: bump every victim's epoch first so that releasing one
  // victim's locks cannot re-awaken another victim through a grant callback
  // carrying a still-valid epoch.
  for (TxnId id : victims) {
    Transaction* txn = arena_.lookup(id);
    txn->at_central = false;
    // Close the open segment at its pending phase; the outage residence
    // until the recovery restart is then charged to Stall.
    span_interrupt(txn, track);
    txn->phases.pending = obs::Phase::Stall;
    prepare_rerun(txn, AbortCause::Crash);
    txn->memory_resident = false;  // the crash wiped the node's memory
    n.recovery_queue.emplace_back(id, txn->epoch);
  }
  // Victims release their concurrency locks. At a site, authentication
  // holds and coherence counts (owned by central transactions / the update
  // protocol) live in stable storage and survive the outage; central
  // victims also drop the authentication grabs they made at master sites.
  for (TxnId id : victims) {
    n.locks->release_all(id);
    if (track == obs::kCentralTrack) {
      release_auth_holds_everywhere(arena_.lookup(id));
    }
  }
}

std::vector<std::pair<TxnId, std::uint64_t>> HybridSystem::recover_node(
    int track) {
  Node& n = node(track);
  n.alive = true;
  emit_fault_event(track, /*up=*/true);

  // Replay the message backlog in arrival order before restarting any
  // aborted resident: coherence updates and fresh shipped arrivals observe
  // the same FIFO order they would have without the outage.
  std::vector<UniqueFunction<void()>> backlog;
  backlog.swap(n.backlog);
  metrics_.backlog_replayed += backlog.size();
  for (UniqueFunction<void()>& cb : backlog) {
    cb();
  }
  std::vector<std::pair<TxnId, std::uint64_t>> queue;
  queue.swap(n.recovery_queue);
  return queue;
}

void HybridSystem::central_crash() {
  if (!central_.alive) {
    return;  // overlapping outage windows coalesce
  }
  ++metrics_.central_crashes;
  std::vector<TxnId> victims;
  arena_.for_each([&victims](const Transaction& txn) {
    if (txn.at_central) {
      victims.push_back(txn.id);
    }
  });
  HLS_ASSERT(static_cast<int>(victims.size()) == central_.resident_txns,
             "central residency disagrees with at_central flags");
  crash_node(obs::kCentralTrack, std::move(victims));
  central_.resident_txns = 0;
  HLS_ASSERT(central_.locks->locks_held() == 0,
             "crashed central complex still holds locks");
}

void HybridSystem::central_recover() {
  if (central_.alive) {
    return;
  }
  ++metrics_.central_recoveries;
  for (const auto& [id, epoch] : recover_node(obs::kCentralTrack)) {
    Transaction* txn = find(id, epoch);
    if (txn == nullptr) {
      continue;  // reclaimed by its home site's ship timeout meanwhile
    }
    ++central_.resident_txns;
    txn->at_central = true;
    // Outage residence, booked on the central track where the victim sat.
    span_settle(txn, obs::Phase::Stall, sim_.now(), obs::kCentralTrack);
    restart_run(txn);
  }
}

void HybridSystem::site_crash(int site) {
  if (!sites_[site].alive) {
    return;
  }
  ++metrics_.site_crashes;
  // Only the class A transactions executing locally crash with the site.
  // Shipped work from this site keeps running at central (its response will
  // queue in the backlog), and remote-call class B rides out the outage the
  // same way: its in-flight messages park until recovery.
  std::vector<TxnId> victims;
  arena_.for_each([&victims, site](const Transaction& txn) {
    if (is_local(txn) && txn.home_site == site) {
      victims.push_back(txn.id);
    }
  });
  crash_node(site, std::move(victims));
}

void HybridSystem::site_recover(int site) {
  if (sites_[site].alive) {
    return;
  }
  ++metrics_.site_recoveries;
  for (const auto& [id, epoch] : recover_node(site)) {
    if (Transaction* txn = find(id, epoch)) {
      span_settle(txn, obs::Phase::Stall, sim_.now(), site);  // outage residence
      start_run(txn);
    }
  }
}

void HybridSystem::release_auth_holds_everywhere(Transaction* txn) {
  // txn->auth_sites only lists sites whose positive ack already arrived; a
  // site whose grant is still in flight holds locks too. Recompute the full
  // master-site set from the access pattern and release unconditionally
  // (release_all is a no-op where nothing is held).
  std::vector<int> owners;
  for (const LockNeed& need : txn->locks) {
    const int owner = cfg_.owner_site(need.id);
    if (std::find(owners.begin(), owners.end(), owner) == owners.end()) {
      owners.push_back(owner);
    }
  }
  for (int site : owners) {
    // The failure detector runs at the home site, co-located with this
    // lock table: expire its holds without a link hop. Riding the link
    // would race a timeout fallback's local rerun — the cleanup could land
    // mid-run and strip a lock the rerun legitimately re-acquired under
    // the same transaction id. The CPU job still queues FCFS ahead of the
    // rerun's initiation burst, so the release is ordered before any
    // re-acquisition.
    const bool co_located = site == txn->home_site && sites_[site].alive;
    release_grants_at(site, txn->id, /*over_link=*/!co_located);
  }
  txn->auth_sites.clear();
}

void HybridSystem::arm_ship_timeout(Transaction* txn) {
  if (cfg_.ship_timeout <= 0.0) {
    return;  // timeouts disabled: schedule nothing (byte parity)
  }
  double delay = cfg_.ship_timeout;
  for (int i = 0; i < txn->ship_retries; ++i) {
    delay *= cfg_.ship_backoff;
  }
  if (cfg_.ship_jitter > 0.0) {
    // Seeded jitter de-synchronizes timeout storms: each armed timer draws
    // once from the dedicated stream. Disabled (the default) draws nothing.
    delay *= 1.0 + cfg_.ship_jitter * ship_jitter_rng_.next_double();
  }
  // Keyed on ship_attempt, not epoch: central-side reruns bump the epoch but
  // the home site's timer must keep covering them; only a reclaim (which
  // bumps ship_attempt) or completion disarms it.
  // hlslint:allow(callback-epoch) — ship_attempt is the guard here by design.
  sim_.schedule_after(delay, [this, id = txn->id, attempt = txn->ship_attempt] {
    on_ship_timeout(id, attempt);
  });
}

void HybridSystem::on_ship_timeout(TxnId id, std::uint64_t attempt) {
  Transaction* txn = arena_.lookup(id);
  if (txn == nullptr || txn->ship_attempt != attempt) {
    return;  // completed, or superseded by an earlier reclaim
  }
  HLS_ASSERT(txn->route == Route::Central, "ship timeout on a local transaction");
  if (!sites_[txn->home_site].alive) {
    // The failure detector lives at the home site and crashed with it. The
    // central execution proceeds (or waits out a central outage) normally.
    return;
  }
  ++metrics_.ship_timeouts;
  ++site_metrics_[txn->home_site].ship_timeouts;
  ++txn->ship_attempt;

  // Reclaim convention for the timeline: whatever the central incarnation
  // was doing since the last settled segment is written off as Stall — the
  // home site cannot observe where the dead/slow attempt actually stood.
  // The span lands on the home track, where the failure detector runs.
  span_settle(txn, obs::Phase::Stall, sim_.now(), txn->home_site);

  // Reclaim the central incarnation — it may be dead (crash, lost link) or
  // merely slow; the home-site failure detector cannot tell the difference.
  if (txn->at_central) {
    txn->at_central = false;
    --central_.resident_txns;
  }
  prepare_rerun(txn, AbortCause::ShipTimeout);
  txn->memory_resident = false;
  central_.locks->release_all(txn->id);
  release_auth_holds_everywhere(txn);

  if (txn->ship_retries < cfg_.ship_max_retries) {
    ++txn->ship_retries;
    ++metrics_.ship_retries;
    ++site_metrics_[txn->home_site].ship_retries;
    arm_ship_timeout(txn);  // backoff: next timeout is ship_backoff x longer
    ship_to_central(txn);
    return;
  }
  // Retry budget exhausted: fall back to local execution. The transaction
  // moves from the shipped to the local books and keeps its abort history.
  ++metrics_.ship_fallbacks;
  ++site_metrics_[txn->home_site].ship_fallbacks;
  SiteState& home = sites_[txn->home_site];
  --home.shipped_in_flight;
  ++home.resident_txns;
  txn->route = Route::Local;
  start_run(txn);
}

// --------------------------------------------------------------------------
// accessors

const LockManager& HybridSystem::local_locks(int site) const {
  HLS_ASSERT(site >= 0 && site < cfg_.num_sites, "site index out of range");
  return *sites_[site].locks;
}

const FcfsResource& HybridSystem::local_cpu(int site) const {
  HLS_ASSERT(site >= 0 && site < cfg_.num_sites, "site index out of range");
  return *sites_[site].cpu;
}

int HybridSystem::local_resident(int site) const {
  HLS_ASSERT(site >= 0 && site < cfg_.num_sites, "site index out of range");
  return sites_[site].resident_txns;
}

const SiteMetrics& HybridSystem::site_metrics(int site) const {
  HLS_ASSERT(site >= 0 && site < cfg_.num_sites, "site index out of range");
  flush_phase_batch();
  return site_metrics_[site];
}

int HybridSystem::shipped_in_flight(int site) const {
  HLS_ASSERT(site >= 0 && site < cfg_.num_sites, "site index out of range");
  return sites_[site].shipped_in_flight;
}

bool HybridSystem::site_up(int site) const {
  HLS_ASSERT(site >= 0 && site < cfg_.num_sites, "site index out of range");
  return sites_[site].alive;
}

HybridSystem::LinkFaultTotals HybridSystem::link_fault_totals() const {
  LinkFaultTotals totals;
  for (const SiteState& site : sites_) {
    for (const Link* link : {site.up.get(), site.down.get()}) {
      totals.retransmitted += link->messages_retransmitted();
      totals.duplicated += link->messages_duplicated();
      totals.reordered += link->messages_reordered();
      totals.delay_spikes += link->delay_spikes();
    }
  }
  return totals;
}

void HybridSystem::check_invariants() const {
  central_.locks->check_invariants();
  HLS_ASSERT(central_.resident_txns >= 0, "negative central residency");

  // Recount the residency books from the live transaction set. These are
  // exact cross-checks, not inequalities: every counter must equal the
  // number of live transactions in the matching state.
  int expect_central = 0;
  std::vector<int> expect_resident(sites_.size(), 0);
  std::vector<int> expect_shipped(sites_.size(), 0);
  arena_.for_each([&](const Transaction& txn) {
    if (txn.at_central) {
      ++expect_central;
    }
    if (txn.cls == TxnClass::A) {
      if (txn.route == Route::Local) {
        ++expect_resident[static_cast<std::size_t>(txn.home_site)];
      } else {
        ++expect_shipped[static_cast<std::size_t>(txn.home_site)];
      }
    }
  });
  HLS_ASSERT(central_.resident_txns == expect_central,
             "central residency disagrees with live transaction states");
  for (const SiteState& site : sites_) {
    site.locks->check_invariants();
    const auto s = static_cast<std::size_t>(site.index);
    HLS_ASSERT(site.resident_txns == expect_resident[s],
               "site residency disagrees with live transaction states");
    HLS_ASSERT(site.shipped_in_flight == expect_shipped[s],
               "shipped_in_flight disagrees with live transaction states");
    if (site.alive) {
      HLS_ASSERT(site.backlog.empty() && site.recovery_queue.empty(),
                 "live site has unreplayed backlog or recovery queue");
    }
    // Sequencer sanity: a resequencing buffer can only hold messages while
    // the gap message is still on the wire, so an idle link direction must
    // have an empty buffer and a fully caught-up cursor.
    HLS_ASSERT(site.up_seq.next_deliver <= site.up_seq.next_send &&
                   site.down_seq.next_deliver <= site.down_seq.next_send,
               "message sequencer delivered more than was sent");
    if (site.up->messages_in_flight() == 0) {
      HLS_ASSERT(site.up_seq.held.empty(),
                 "idle up link left messages in the resequencing buffer");
    }
    if (site.down->messages_in_flight() == 0) {
      HLS_ASSERT(site.down_seq.held.empty(),
                 "idle down link left messages in the resequencing buffer");
    }
  }
  if (central_.alive) {
    HLS_ASSERT(central_.backlog.empty() && central_.recovery_queue.empty(),
               "live central complex has unreplayed backlog or recovery queue");
  }

  // Class-A traffic counters are double-entry bookkeeping too: every
  // arrival and every ship is attributed to its home site at the same
  // instant the global tally moves.
  std::uint64_t site_arrivals_a = 0;
  std::uint64_t site_shipped_a = 0;
  for (const SiteMetrics& sm : site_metrics_) {
    site_arrivals_a += sm.arrivals_class_a;
    site_shipped_a += sm.shipped_class_a;
  }
  HLS_ASSERT(metrics_.arrivals_class_a == site_arrivals_a,
             "global arrivals_class_a disagrees with sum over sites");
  HLS_ASSERT(metrics_.shipped_class_a == site_shipped_a,
             "global shipped_class_a disagrees with sum over sites");

  // Fault counters are double-entry bookkeeping: the global tally and the
  // per-home-site attribution must agree exactly.
  std::uint64_t site_timeouts = 0;
  std::uint64_t site_retries = 0;
  std::uint64_t site_fallbacks = 0;
  for (const SiteMetrics& sm : site_metrics_) {
    site_timeouts += sm.ship_timeouts;
    site_retries += sm.ship_retries;
    site_fallbacks += sm.ship_fallbacks;
  }
  HLS_ASSERT(metrics_.ship_timeouts == site_timeouts,
             "global ship_timeouts disagrees with sum over sites");
  HLS_ASSERT(metrics_.ship_retries == site_retries,
             "global ship_retries disagrees with sum over sites");
  HLS_ASSERT(metrics_.ship_fallbacks == site_fallbacks,
             "global ship_fallbacks disagrees with sum over sites");
  std::uint64_t site_dup_drops = 0;
  std::uint64_t site_resequenced = 0;
  for (const SiteMetrics& sm : site_metrics_) {
    site_dup_drops += sm.dup_msgs_dropped;
    site_resequenced += sm.msgs_resequenced;
  }
  HLS_ASSERT(metrics_.dup_msgs_dropped == site_dup_drops,
             "global dup_msgs_dropped disagrees with sum over sites");
  HLS_ASSERT(metrics_.msgs_resequenced == site_resequenced,
             "global msgs_resequenced disagrees with sum over sites");

  // Abort provenance is double-entry bookkeeping too. Per cause: the global
  // tally equals the sum of the victims' home-site tallies; overall: every
  // abort is a rerun, lands in exactly one conflict-matrix cell, and the
  // winner columns account for exactly the aborts that named a winner.
  std::uint64_t cause_total = 0;
  for (int c = 0; c < static_cast<int>(AbortCause::kCount); ++c) {
    std::uint64_t site_sum = 0;
    for (const SiteMetrics& sm : site_metrics_) {
      site_sum += sm.aborts[c];
    }
    HLS_ASSERT(metrics_.aborts[c] == site_sum,
               "global per-cause aborts disagree with sum over sites");
    cause_total += metrics_.aborts[c];
  }
  HLS_ASSERT(cause_total == metrics_.reruns,
             "sum of aborts over causes disagrees with total reruns");
  if (metrics_.conflict_sites > 0) {
    HLS_ASSERT(metrics_.conflict_matrix_total() == cause_total,
               "conflict matrix total disagrees with total aborts");
    std::uint64_t winner_cells = 0;
    for (int v = 0; v < metrics_.conflict_sites; ++v) {
      for (int w = 0; w < metrics_.conflict_sites; ++w) {
        winner_cells += metrics_.conflict(v, w);
      }
    }
    HLS_ASSERT(winner_cells == metrics_.aborts_with_winner,
               "conflict-matrix winner columns disagree with aborts_with_winner");
  }
  double site_wasted_cpu = 0.0;
  double site_wasted_io = 0.0;
  for (const SiteMetrics& sm : site_metrics_) {
    site_wasted_cpu += sm.wasted_cpu;
    site_wasted_io += sm.wasted_io;
  }
  HLS_ASSERT(std::abs(site_wasted_cpu - metrics_.wasted_cpu_total()) <= 1e-6,
             "per-site wasted CPU disagrees with per-cause ledger");
  HLS_ASSERT(std::abs(site_wasted_io - metrics_.wasted_io_total()) <= 1e-6,
             "per-site wasted I/O disagrees with per-cause ledger");
}

// --------------------------------------------------------------------------
// observability: trace sinks and the time-series sampler

void HybridSystem::add_trace_sink(obs::TraceSink* sink) {
  HLS_ASSERT(sink != nullptr, "null trace sink");
  sinks_.push_back(sink);
  sink_mask_ |= sink->kind_mask();
}

void HybridSystem::remove_trace_sink(obs::TraceSink* sink) {
  sinks_.erase(std::remove(sinks_.begin(), sinks_.end(), sink), sinks_.end());
  sink_mask_ = 0;
  for (const obs::TraceSink* s : sinks_) {
    sink_mask_ |= s->kind_mask();
  }
}

void HybridSystem::emit_event(const obs::Event& ev) {
  const unsigned bit = obs::kind_bit(ev.kind);
  for (obs::TraceSink* sink : sinks_) {
    if (sink->kind_mask() & bit) {
      sink->on_event(ev);
    }
  }
}

void HybridSystem::take_sample() {
  obs::SampleRow row;
  row.time = sim_.now();
  row.central_utilization = central_.cpu->utilization();
  row.central_cpu_queue = static_cast<int>(central_.cpu->queue_length());
  row.central_resident = central_.resident_txns;
  row.central_up = central_.alive;
  row.live_txns = static_cast<int>(arena_.live_count());
  row.extended = resource_telemetry_;
  if (row.extended) {
    row.central_lock_waiters = static_cast<int>(central_.locks->waiters());
    row.central_io_in_flight = central_.io_in_flight;
  }
  row.sites.reserve(sites_.size());
  for (const SiteState& site : sites_) {
    obs::SiteSample s;
    s.utilization = site.cpu->utilization();
    s.cpu_queue = static_cast<int>(site.cpu->queue_length());
    s.resident = site.resident_txns;
    s.shipped_in_flight = site.shipped_in_flight;
    s.up = site.alive;
    if (row.extended) {
      s.lock_waiters = static_cast<int>(site.locks->waiters());
      s.link_in_flight = static_cast<int>(site.up->messages_in_flight() +
                                          site.down->messages_in_flight());
      s.io_in_flight = site.io_in_flight;
    }
    row.sites.push_back(s);
  }
  series_.push_back(std::move(row));

  if (obs_wants(obs::EventKind::Sample)) {
    obs::Event ev;
    ev.kind = obs::EventKind::Sample;
    ev.time = sim_.now();
    ev.up = central_.alive;
    ev.central_cpu_queue = static_cast<int>(central_.cpu->queue_length());
    ev.live_txns = static_cast<int>(arena_.live_count());
    ev.sample = &series_.back();  // full row; valid for the emission only
    emit_event(ev);
  }

  // Re-arm only while work remains so drain() terminates: the sampler must
  // never be the event keeping the simulation alive.
  if (arrivals_enabled_ || arena_.live_count() > 0) {
    sim_.schedule_after(cfg_.obs_sample_interval, [this] { take_sample(); });
  }
}

namespace {

constexpr int cause_idx(AbortCause c) { return static_cast<int>(c); }
constexpr int kCauseCount = static_cast<int>(AbortCause::kCount);

/// Registers the six per-cause abort counters under `sc` with the stable
/// literal names matching obs::abort_cause_name.
void export_abort_counters(const obs::Registry::Scope& sc,
                           const std::uint64_t (&aborts)[kCauseCount]) {
  sc.counter("aborts.preempted", aborts[cause_idx(AbortCause::LocalPreempted)]);
  sc.counter("aborts.invalidated",
             aborts[cause_idx(AbortCause::CentralInvalidated)]);
  sc.counter("aborts.auth_refused", aborts[cause_idx(AbortCause::AuthRefused)]);
  sc.counter("aborts.deadlock", aborts[cause_idx(AbortCause::Deadlock)]);
  sc.counter("aborts.ship_timeout", aborts[cause_idx(AbortCause::ShipTimeout)]);
  sc.counter("aborts.crash", aborts[cause_idx(AbortCause::Crash)]);
}

/// CPU + lock-manager entries shared by the central scope and every site
/// scope: utilization/queue time averages, the Little's-law ledgers, lock
/// occupancy, and — when armed — the wait-queue gauge and heat buckets.
void export_resource(const obs::Registry::Scope& sc, const FcfsResource& cpu,
                     const LockManager& locks, bool telemetry, int io_count,
                     const TimeWeightedStat& io_tw, double now) {
  sc.time_weighted("cpu.util", cpu.utilization(), cpu.busy() ? 1.0 : 0.0,
                   "fraction");
  sc.time_weighted("cpu.queue", cpu.average_queue_length(),
                   static_cast<double>(cpu.queue_length()), "jobs");
  sc.counter("cpu.bursts", cpu.completed_bursts(), "bursts");
  sc.gauge("cpu.busy_seconds", cpu.busy_seconds(), "s");
  sc.gauge("cpu.sojourn_seconds", cpu.sojourn_seconds(), "s");
  sc.gauge("locks.held", static_cast<double>(locks.locks_held()), "locks");
  sc.gauge("locks.waiters", static_cast<double>(locks.waiters()), "txns");
  sc.counter("locks.deadlocks", locks.deadlocks_detected(), "cycles");
  if (locks.wait_telemetry_enabled()) {
    sc.time_weighted("locks.wait_queue", locks.average_waiters(now),
                     static_cast<double>(locks.waiters()), "txns");
  }
  if (telemetry) {
    sc.time_weighted("io.in_flight", io_tw.average(now),
                     static_cast<double>(io_count), "ops");
  }
  const std::vector<std::uint64_t>& heat = locks.heat();
  for (std::size_t b = 0; b < heat.size(); ++b) {
    sc.bucket_counter("locks.heat", b, heat[b], "accesses");
  }
}

}  // namespace

void HybridSystem::export_registry(obs::Registry& reg) const {
  const Metrics& m = metrics();  // flushes the staged phase batch
  const double now = sim_.now();
  const obs::Registry::Scope root = reg.root();

  // ---- transaction flow counters ----
  root.counter("txn.arrivals.class_a", m.arrivals_class_a, "txns");
  root.counter("txn.arrivals.class_b", m.arrivals_class_b, "txns");
  root.counter("txn.shipped.class_a", m.shipped_class_a, "txns");
  root.counter("txn.completions", m.completions, "txns");
  root.counter("txn.completions.local_a", m.completions_local_a, "txns");
  root.counter("txn.completions.shipped_a", m.completions_shipped_a, "txns");
  root.counter("txn.completions.class_b", m.completions_class_b, "txns");
  root.counter("txn.reruns", m.reruns, "runs");
  root.gauge("txn.live", static_cast<double>(arena_.live_count()), "txns");
  root.gauge("txn.max_reruns_seen", static_cast<double>(m.max_reruns_seen),
             "runs");

  // ---- abort provenance ----
  export_abort_counters(root, m.aborts);
  root.counter("aborts.with_winner", m.aborts_with_winner, "txns");
  root.gauge("wasted.cpu.total", m.wasted_cpu_total(), "s");
  root.gauge("wasted.io.total", m.wasted_io_total(), "s");
  root.stat("wasted.per_txn", m.wasted_per_txn, "s");

  // ---- protocol message counters ----
  root.counter("msg.async_updates_sent", m.async_updates_sent, "msgs");
  root.counter("auth.rounds", m.auth_rounds, "rounds");
  root.counter("auth.negative_acks", m.auth_negative_acks, "acks");

  // ---- fault handling / message-level chaos defenses ----
  root.counter("fault.ship_timeouts", m.ship_timeouts);
  root.counter("fault.ship_retries", m.ship_retries);
  root.counter("fault.ship_fallbacks", m.ship_fallbacks);
  root.counter("fault.central_crashes", m.central_crashes);
  root.counter("fault.central_recoveries", m.central_recoveries);
  root.counter("fault.site_crashes", m.site_crashes);
  root.counter("fault.site_recoveries", m.site_recoveries);
  root.counter("fault.backlog_replayed", m.backlog_replayed, "msgs");
  root.counter("fault.arrivals_rejected", m.arrivals_rejected, "txns");
  root.counter("chaos.dup_msgs_dropped", m.dup_msgs_dropped, "msgs");
  root.counter("chaos.msgs_resequenced", m.msgs_resequenced, "msgs");

  // ---- response-time statistics ----
  root.stat("rt.all", m.rt_all, "s");
  root.stat("rt.local_a", m.rt_local_a, "s");
  root.stat("rt.shipped_a", m.rt_shipped_a, "s");
  root.stat("rt.class_b", m.rt_class_b, "s");
  root.stat("rt.first_try", m.rt_first_try, "s");
  root.stat("rt.rerun", m.rt_rerun, "s");
  root.histogram("rt.histogram", m.rt_histogram, "s");

  // ---- phase decomposition (one stat per obs::Phase) ----
  const PhaseStats& ph = m.rt_phase;
  root.stat("phase.ready_queue",
            ph[static_cast<std::size_t>(obs::Phase::ReadyQueue)], "s");
  root.stat("phase.cpu_service",
            ph[static_cast<std::size_t>(obs::Phase::CpuService)], "s");
  root.stat("phase.io", ph[static_cast<std::size_t>(obs::Phase::Io)], "s");
  root.stat("phase.network", ph[static_cast<std::size_t>(obs::Phase::Network)],
            "s");
  root.stat("phase.lock_wait",
            ph[static_cast<std::size_t>(obs::Phase::LockWait)], "s");
  root.stat("phase.auth", ph[static_cast<std::size_t>(obs::Phase::Auth)], "s");
  root.stat("phase.commit", ph[static_cast<std::size_t>(obs::Phase::Commit)],
            "s");
  root.stat("phase.stall", ph[static_cast<std::size_t>(obs::Phase::Stall)],
            "s");

  // ---- measurement window ----
  root.gauge("window.seconds", m.window_seconds(), "s");

  // ---- central complex ----
  const obs::Registry::Scope central = reg.central();
  export_resource(central, *central_.cpu, *central_.locks, resource_telemetry_,
                  central_.io_in_flight, central_.io_tw, now);
  central.gauge("txn.resident", static_cast<double>(central_.resident_txns),
                "txns");

  // ---- per-site breakdowns ----
  for (int s = 0; s < cfg_.num_sites; ++s) {
    const SiteState& site = sites_[static_cast<std::size_t>(s)];
    const SiteMetrics& sm = site_metrics_[static_cast<std::size_t>(s)];
    const obs::Registry::Scope sc = reg.site(s);
    export_resource(sc, *site.cpu, *site.locks, resource_telemetry_,
                    site.io_in_flight, site.io_tw, now);
    sc.stat("rt.local_a", sm.rt_local_a, "s");
    sc.stat("rt.shipped_a", sm.rt_shipped_a, "s");
    sc.counter("txn.arrivals.class_a", sm.arrivals_class_a, "txns");
    sc.counter("txn.shipped.class_a", sm.shipped_class_a, "txns");
    sc.gauge("txn.resident", static_cast<double>(site.resident_txns), "txns");
    sc.gauge("txn.shipped_in_flight",
             static_cast<double>(site.shipped_in_flight), "txns");
    export_abort_counters(sc, sm.aborts);
    sc.gauge("wasted.cpu", sm.wasted_cpu, "s");
    sc.gauge("wasted.io", sm.wasted_io, "s");
    sc.counter("fault.ship_timeouts", sm.ship_timeouts);
    sc.counter("fault.ship_retries", sm.ship_retries);
    sc.counter("fault.ship_fallbacks", sm.ship_fallbacks);
    sc.counter("chaos.dup_msgs_dropped", sm.dup_msgs_dropped, "msgs");
    sc.counter("chaos.msgs_resequenced", sm.msgs_resequenced, "msgs");
    sc.counter("link.up.sent", site.up->messages_sent(), "msgs");
    sc.counter("link.up.delivered", site.up->messages_delivered(), "msgs");
    sc.counter("link.down.sent", site.down->messages_sent(), "msgs");
    sc.counter("link.down.delivered", site.down->messages_delivered(), "msgs");
    if (resource_telemetry_) {
      sc.time_weighted("link.up.in_flight", site.up->average_in_flight(now),
                       static_cast<double>(site.up->messages_in_flight()),
                       "msgs");
      sc.time_weighted("link.down.in_flight",
                       site.down->average_in_flight(now),
                       static_cast<double>(site.down->messages_in_flight()),
                       "msgs");
    }
  }
}

ControllerFeed HybridSystem::make_controller_feed() const {
  ControllerFeed feed;
  feed.now = sim_.now();
  feed.num_sites = cfg_.num_sites;
  feed.completions_local_a = metrics_.completions_local_a;
  feed.completions_shipped_a = metrics_.completions_shipped_a;
  feed.rt_local_a_sum = metrics_.rt_local_a.sum();
  feed.rt_shipped_a_sum = metrics_.rt_shipped_a.sum();
  for (int c = 0; c < static_cast<int>(AbortCause::kCount); ++c) {
    feed.aborts_by_cause[c] = metrics_.aborts[c];
    feed.wasted_cpu_by_cause[c] = metrics_.wasted_cpu_by_cause[c];
    feed.wasted_io_by_cause[c] = metrics_.wasted_io_by_cause[c];
  }
  feed.conflict_matrix = metrics_.conflict_matrix;
  return feed;
}

void HybridSystem::controller_review() {
  controller_->on_review(make_controller_feed());
  // Same re-arm rule as the sampler: the controller must never be the event
  // keeping the simulation alive, or drain() would spin forever.
  if (arrivals_enabled_ || arena_.live_count() > 0) {
    sim_.schedule_after(adapt_interval_, [this] { controller_review(); });
  }
}

}  // namespace hls
