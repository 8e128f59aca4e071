// HybridSystem: the full hybrid distributed-centralized database simulator.
//
// Wires together N local sites (CPU + lock table + duplex link) and the
// central complex (CPU + global lock table), drives Poisson transaction
// arrivals, executes the paper's protocol (§2), and consults a pluggable
// RoutingStrategy for every class A arrival (§3).
//
// Protocol summary as implemented:
//   * Local class A execution: initiation CPU, setup I/O (first run only),
//     then db_calls_per_txn rounds of [call CPU, lock request on the local
//     table, call I/O]. At commit, an abort mark (set when an authenticating
//     central transaction preempted one of this transaction's locks) forces
//     a rerun; otherwise the transaction releases its locks, increments the
//     coherence count of every updated entity, ships one asynchronous update
//     message to the central site, and completes immediately — it never
//     waits for the central acknowledgement.
//   * Central execution (class B and shipped class A): same shape against
//     the central lock table. At commit the transaction runs the
//     authentication phase: lock lists go to the master site(s); a master
//     refuses (negative ack) if any entity has in-flight asynchronous
//     updates or is held by a non-preemptible holder, otherwise it preempts
//     incompatible local holders (marking them for abort) and grants. On all
//     positive acks — and if no asynchronous update invalidated the
//     transaction meanwhile — commit messages release the granted locks and
//     the transaction completes; otherwise it releases its grants and reruns
//     at the central site.
//   * Asynchronous updates delivered in order (net::Link) invalidate central
//     locks on the updated entities: central holders are marked for abort
//     and lose those locks; an acknowledgement flows back and decrements the
//     coherence counts.
//   * Deadlocks (waits-for cycle within one site) abort the requester, which
//     releases everything and reruns.
//
// Reruns model re-referenced data as memory-resident: all CPU is re-spent,
// all I/O is skipped, and surviving locks are kept (per §3.1).
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "db/lock_manager.hpp"
#include "hybrid/config.hpp"
#include "hybrid/metrics.hpp"
#include "hybrid/transaction.hpp"
#include "hybrid/txn_arena.hpp"
#include "net/link.hpp"
#include "obs/sample.hpp"
#include "obs/sink.hpp"
#include "routing/adaptive.hpp"
#include "routing/strategy.hpp"
#include "sim/resource.hpp"
#include "sim/simulator.hpp"
#include "util/random.hpp"
#include "workload/arrivals.hpp"
#include "workload/txn_factory.hpp"

namespace hls {

namespace obs {
class Registry;
}

class HybridSystem {
 public:
  HybridSystem(SystemConfig cfg, std::unique_ptr<RoutingStrategy> strategy);
  ~HybridSystem();

  HybridSystem(const HybridSystem&) = delete;
  HybridSystem& operator=(const HybridSystem&) = delete;

  // ---- experiment control ----

  /// Starts the per-site Poisson arrival processes.
  void enable_arrivals();

  /// Replaces site `site`'s arrival process with a time-varying one
  /// (must be called before enable_arrivals).
  void set_arrival_rate_function(int site, RateFunction rate, double max_rate);

  /// Stops all arrival processes; in-flight transactions keep running. Used
  /// to drain the system (liveness tests) and by open-ended examples.
  void stop_arrivals();

  /// Runs the simulation until no events remain (all in-flight transactions
  /// have completed). Call stop_arrivals() first or this never returns.
  void drain();

  /// Advances simulated time by `seconds`.
  void run_for(double seconds);

  /// Discards statistics gathered so far (end of warmup).
  void begin_measurement();

  /// Stamps the window end and fills utilization summaries into metrics().
  void end_measurement();

  // ---- manual injection (tests, examples) ----

  /// Generates and immediately admits one transaction of the given class.
  TxnId inject(TxnClass cls, int site);

  /// Admits a fully specified transaction (access pattern chosen by caller).
  TxnId inject_transaction(Transaction txn);

  // ---- accessors ----

  Simulator& simulator() { return sim_; }
  [[nodiscard]] const SystemConfig& config() const { return cfg_; }
  Metrics& metrics() {
    flush_phase_batch();
    return metrics_;
  }
  [[nodiscard]] const Metrics& metrics() const {
    flush_phase_batch();
    return metrics_;
  }
  [[nodiscard]] RoutingStrategy& strategy() { return *strategy_; }

  /// The installed strategy's adaptive controller, or nullptr when the
  /// strategy doesn't carry one (every non-`adapt:` spec).
  [[nodiscard]] const AdaptiveController* controller() const {
    return controller_;
  }

  /// Collision policy in force at `site` for a central authentication
  /// hitting a local class-A lock holder: the controller's per-site choice,
  /// or optimistic-abort (the paper's behaviour) without a controller.
  [[nodiscard]] CollisionPolicy collision_policy(int site) const {
    return controller_ != nullptr ? controller_->site_policy(site)
                                  : CollisionPolicy::OptimisticAbort;
  }

  /// Plain-data snapshot of the provenance + class-A latency sensors the
  /// controller reviews (exposed for controller unit tests).
  [[nodiscard]] ControllerFeed make_controller_feed() const;

  [[nodiscard]] const LockManager& central_locks() const { return *central_.locks; }
  [[nodiscard]] const LockManager& local_locks(int site) const;
  [[nodiscard]] const FcfsResource& central_cpu() const { return *central_.cpu; }
  [[nodiscard]] const FcfsResource& local_cpu(int site) const;
  [[nodiscard]] int central_resident() const { return central_.resident_txns; }
  [[nodiscard]] int local_resident(int site) const;
  [[nodiscard]] int shipped_in_flight(int site) const;
  [[nodiscard]] bool central_up() const { return central_.alive; }
  [[nodiscard]] bool site_up(int site) const;
  [[nodiscard]] int live_transactions() const {
    return static_cast<int>(arena_.live_count());
  }

  /// Aggregated link-level fault counters over both directions of every
  /// site's link (chaos oracles, fault-tolerance bench sweeps).
  struct LinkFaultTotals {
    std::uint64_t retransmitted = 0;
    std::uint64_t duplicated = 0;
    std::uint64_t reordered = 0;
    std::uint64_t delay_spikes = 0;
  };
  [[nodiscard]] LinkFaultTotals link_fault_totals() const;

  /// Per-site response-time / shipping breakdown (same measurement window
  /// as metrics()).
  [[nodiscard]] const SiteMetrics& site_metrics(int site) const;

  /// Registers a hook invoked on every transaction completion (tracing,
  /// custom analyses). Pass nullptr to clear.
  using CompletionHook = std::function<void(const TxnCompletionRecord&)>;
  void set_completion_hook(CompletionHook hook) {
    completion_hook_ = std::move(hook);
  }

  // ---- observability (obs/) ----

  /// Registers a structured trace sink; events whose kind is in the sink's
  /// kind_mask() are delivered as they happen. The sink must outlive the
  /// run (or be removed first). Emission never perturbs the simulation:
  /// with no sink interested in a kind, that kind costs one branch.
  void add_trace_sink(obs::TraceSink* sink);
  void remove_trace_sink(obs::TraceSink* sink);

  /// Rows recorded by the time-series sampler (config::obs_sample_interval
  /// > 0; empty otherwise). Cleared by begin_measurement().
  [[nodiscard]] const std::vector<obs::SampleRow>& sample_series() const {
    return series_;
  }
  /// Moves the series out (driver hand-off at the end of a run).
  [[nodiscard]] std::vector<obs::SampleRow> take_series() {
    return std::move(series_);
  }

  /// Exports every metric the run accumulated — counters, response-time
  /// stats, histograms, per-site and central resource telemetry, and (when
  /// armed) lock-access heat buckets — into `reg` under the stable names
  /// documented in docs/OBSERVABILITY.md. Read-only; callable any time.
  void export_registry(obs::Registry& reg) const;

  /// IO operations currently in progress on `track` (site index, or
  /// obs::kCentralTrack). Maintained only when obs_resource_telemetry is
  /// set; 0 otherwise.
  [[nodiscard]] int io_in_flight(int track) const;

  /// Builds the state view a class A arrival at `site` would see right now
  /// (exposed for strategy unit tests).
  [[nodiscard]] SystemStateView make_state_view(int site) const;

  /// Cross-checks internal bookkeeping; aborts on violation (tests).
  void check_invariants() const;

 private:
  /// One update in an asynchronous propagation batch: the entity plus the
  /// committing transaction, so central invalidations can name their winner.
  struct UpdateItem {
    LockId id;
    TxnId committer;
  };

  struct CentralSnapshot {
    double taken_at = 0.0;
    int cpu_queue = 0;
    int num_txns = 0;
    int locks_held = 0;
  };

  /// Per-link-direction sequence numbering (docs/PROTOCOL.md "Message
  /// sequence numbers and handler idempotence"). Every protocol message
  /// carries the sender's next sequence number; the receiver processes
  /// messages strictly in sequence, dropping duplicates and buffering
  /// early arrivals until the gap fills. With a FIFO link this is pure
  /// bookkeeping (two counter increments per message, no buffering), so
  /// fault-free runs stay byte-identical; under message-level chaos it is
  /// what makes the handlers idempotent.
  struct MsgSequencer {
    std::uint64_t next_send = 0;
    std::uint64_t next_deliver = 0;
    /// Early arrivals (seq > next_deliver), sorted by sequence number.
    std::vector<std::pair<std::uint64_t, UniqueFunction<void()>>> held;
  };

  /// An execution site — a local site or the central complex — as the run
  /// skeleton sees it, reached through node(track).
  struct Node {
    std::unique_ptr<FcfsResource> cpu;
    std::unique_ptr<LockManager> locks;
    // Fault state: while the node is down, inbound deliveries queue in
    // `backlog` and crashed transactions wait in `recovery_queue`. The
    // backlog preserves the §2 FIFO requirement across an outage — it
    // replays in arrival order at recovery, before any aborted resident
    // restarts.
    bool alive = true;
    std::vector<UniqueFunction<void()>> backlog;
    std::vector<std::pair<TxnId, std::uint64_t>> recovery_queue;
    // Per-resource telemetry (maintained only when obs_resource_telemetry).
    int io_in_flight = 0;
    TimeWeightedStat io_tw;
  };

  struct SiteState : Node {
    int index = 0;
    std::unique_ptr<Link> up;    ///< site -> central
    std::unique_ptr<Link> down;  ///< central -> site
    std::unique_ptr<ArrivalProcess> arrivals;
    int resident_txns = 0;      ///< class A txns currently executing here
    int shipped_in_flight = 0;  ///< class A txns from here now at central
    double last_local_rt = 0.0;
    double last_shipped_rt = 0.0;
    CentralSnapshot central_view;  ///< last central state learned from messages
    MsgSequencer up_seq;    ///< sequences site -> central messages
    MsgSequencer down_seq;  ///< sequences central -> site messages
    // Asynchronous-update batching (config::async_batch_window > 0).
    std::vector<UpdateItem> pending_updates;
    bool flush_armed = false;
  };

  struct CentralState : Node {
    int resident_txns = 0;  ///< class B + shipped class A currently at central
  };

  /// A continuation: the next step of a transaction's run.
  using Step = void (HybridSystem::*)(Transaction*);

  // ---- plumbing ----
  Transaction* find(TxnId id, std::uint64_t epoch);
  /// The execution site on `track` (site index, or obs::kCentralTrack).
  Node& node(int track) {
    return track == obs::kCentralTrack
               ? static_cast<Node&>(central_)
               : sites_[static_cast<std::size_t>(track)];
  }
  [[nodiscard]] const Node& node(int track) const {
    return track == obs::kCentralTrack
               ? static_cast<const Node&>(central_)
               : sites_[static_cast<std::size_t>(track)];
  }
  /// Submits a CPU burst of `instructions` on `track`'s CPU; on completion
  /// the leading queue wait is settled to ReadyQueue and the service time to
  /// `service_phase` (CpuService/Commit), both on `track`'s span track.
  void cpu_burst(Transaction* txn, int track, double instructions,
                 obs::Phase service_phase, Step next);
  /// Plain delay; the elapsed time is settled to `phase` (Io or Stall).
  void wait(double seconds, Transaction* txn, obs::Phase phase, int track,
            Step next);
  void send_up(int site, UniqueFunction<void()> deliver);
  void send_down(int site, UniqueFunction<void()> deliver);
  /// Receiver half of the sequence-number protocol: runs `process` when
  /// `seq` is next in `q`'s order, drops it as a duplicate when already
  /// processed/buffered, or buffers it ahead of a gap. `site` attributes
  /// the dedup/resequence counters.
  void deliver_in_order(MsgSequencer& q, int site, std::uint64_t seq,
                        UniqueFunction<void()> process);
  void complete(Transaction* txn, SimTime completion_time);
  /// Books an abort: provenance (cause, winner from txn->marked_by, wasted
  /// attempt time) into metrics and the abort event, then resets the
  /// transaction's execution state for the next attempt.
  void prepare_rerun(Transaction* txn, AbortCause cause);
  /// Stall before the next attempt: abort_restart_delay plus the livelock
  /// breaker's growing backoff once run_count passes the configured
  /// threshold (call after prepare_rerun bumped run_count).
  [[nodiscard]] double restart_delay_for(const Transaction* txn) const;

  // ---- span tracer (all no-ops unless a sink subscribed to Span/Edge) ----
  /// Emits one phase span [begin, end] on `track` for `txn`.
  void span_note(const Transaction& txn, obs::Phase p, double begin, double end,
                 int track);
  /// settle() + span emission; `t` is the segment end (usually now).
  void span_settle(Transaction* txn, obs::Phase p, double t, int track);
  /// settle_burst() + spans for the queue-wait and service segments.
  void span_burst(Transaction* txn, obs::Phase service_phase, double service,
                  int track);
  /// interrupt() + a span for the retrospectively settled segment.
  void span_interrupt(Transaction* txn, int track);
  /// Emits a causal cross-track edge (flow event in the Perfetto export).
  void edge_note(obs::EdgeKind kind, TxnId txn, double src_time, int src_track,
                 double dst_time, int dst_track, TxnId winner = kInvalidTxn);
  /// Emits the armed retry edge linking an abort to this run start, if any.
  void consume_retry_edge(Transaction* txn, int track);
  /// Records the deadlock winner (first other live cycle member) on the
  /// requester-victim so prepare_rerun can attribute the abort.
  void set_deadlock_winner(Transaction* requester,
                           const std::vector<TxnId>& cycle);

  /// Applies config::deadlock_victim to a detected cycle: returns the
  /// transaction to abort (the requester when policy says so, or when no
  /// other cycle member is eligible).
  Transaction* choose_deadlock_victim(Transaction* requester,
                                      const std::vector<TxnId>& cycle);
  /// Force-aborts a waiting victim (not the requester): releases its locks,
  /// preps a rerun and restarts it. The requester is the conflict winner for
  /// provenance.
  void force_abort_victim(Transaction* victim, Transaction* requester);

  // ---- arrivals / routing ----
  void on_arrival(int site);
  /// Starts an arena-resident transaction (registered via arena_.commit).
  void admit(Transaction* txn);

  // ---- the run skeleton (docs/PROTOCOL.md "Execution skeleton") ----
  /// Class A running at its home site.
  [[nodiscard]] static bool is_local(const Transaction& txn) {
    return txn.cls == TxnClass::A && txn.route == Route::Local;
  }
  /// Class B processed at home against the central copy.
  [[nodiscard]] bool is_rfc(const Transaction& txn) const {
    return txn.cls == TxnClass::B && cfg_.class_b_mode == ClassBMode::RemoteCalls;
  }
  /// Where the run's CPU, setup I/O and commit burst execute: the home site
  /// for local class A and remote-call class B, obs::kCentralTrack otherwise.
  [[nodiscard]] int exec_track(const Transaction& txn) const;
  /// Where the run's locks (and call I/O) live: the home site for local
  /// class A, obs::kCentralTrack otherwise.
  [[nodiscard]] int data_track(const Transaction& txn) const;
  void start_run(Transaction* txn);
  void after_init(Transaction* txn);
  void do_call(Transaction* txn);
  /// The lock request of the current call, with the deadlock-victim retry
  /// loop.
  void request_lock(Transaction* txn);
  void lock_granted(Transaction* txn);
  void commit(Transaction* txn);
  /// Commit point after the commit burst: abort if marked, else run the
  /// protocol's commit tail.
  void finish_commit(Transaction* txn);
  /// Abort cause of a transaction found marked at its commit point.
  [[nodiscard]] static AbortCause marked_abort_cause(const Transaction& txn);
  /// Aborts the current run (books it via prepare_rerun) and restarts it.
  void abort_run(Transaction* txn, AbortCause cause, bool release_everything);
  /// Starts the next run after restart_delay_for; a remote-call rerun also
  /// waits for the abort outcome to travel home.
  void restart_run(Transaction* txn);

  // ---- commit tails ----
  /// Local class A: release, flag coherence, ship the asynchronous update.
  void local_finalize(Transaction* txn);
  /// Everything else: authenticate at the master sites.
  void central_begin_auth(Transaction* txn);
  void local_process_auth(int site, TxnId txn_id, std::uint64_t epoch,
                          std::vector<LockNeed> needs);
  void central_auth_ack(TxnId txn_id, std::uint64_t epoch, int site, bool positive,
                        bool granted, TxnId blocker, int blocker_site);
  void central_auth_done(Transaction* txn);
  void release_auth_grants(Transaction* txn);
  /// Expires `id`'s authentication grants at master site `site`: the site
  /// CPU charges instr_commit_apply_local, then releases everything `id`
  /// holds there. The job travels down the site's link when `over_link`.
  void release_grants_at(int site, TxnId id, bool over_link);

  // ---- shipping (class B and shipped class A) ----
  void ship_to_central(Transaction* txn);
  void ship_after_forward(Transaction* txn);

  // ---- the remote-call leg (ClassBMode::RemoteCalls) ----
  /// Sends the current call's lock request (or, after the last call, the
  /// commit request) up; the central CPU serves it, then the run continues
  /// at central with request_lock (or finish_commit).
  void rfc_send_up(Transaction* txn);
  /// Sends a served call's reply down to the home CPU, then the next call.
  void rfc_reply_down(Transaction* txn);

  // ---- fault injection ----
  /// Expands cfg_.faults into simulator events (constructor; only when the
  /// schedule is non-empty, so fault-free runs fork no extra RNG streams).
  void schedule_fault_transitions();
  void apply_fault_transition(const FaultTransition& tr);
  /// Installs message-level fault knobs on both directions of `site`'s link
  /// (msg_fault window begin, or restore of the steady-state values).
  void apply_msg_fault(int site, double dup_prob, double reorder_prob,
                       double spike_prob, double spike_factor);
  /// Straggler displacement bound: the configured reorder window, or one
  /// link delay when unset.
  [[nodiscard]] double effective_reorder_window() const;
  void emit_fault_event(int site, bool up);
  /// Marks the node on `track` down and aborts `victims` into its recovery
  /// queue (two-pass epoch-bump sweep).
  void crash_node(int track, std::vector<TxnId> victims);
  /// Marks the node on `track` up, replays its backlog in arrival order and
  /// hands back its recovery queue.
  std::vector<std::pair<TxnId, std::uint64_t>> recover_node(int track);
  void central_crash();
  void central_recover();
  void site_crash(int site);
  void site_recover(int site);
  /// Failure-detector cleanup: expires this transaction's authentication
  /// grabs at every master site it could have contacted (acked or not).
  void release_auth_holds_everywhere(Transaction* txn);
  /// Arms the home-site timeout for a shipped class A transaction (no-op
  /// when cfg_.ship_timeout is 0); the delay backs off per retry.
  void arm_ship_timeout(Transaction* txn);
  void on_ship_timeout(TxnId id, std::uint64_t attempt);

  // ---- observability internals ----
  [[nodiscard]] bool obs_wants(obs::EventKind kind) const {
    return (sink_mask_ & obs::kind_bit(kind)) != 0;
  }
  /// Adjusts the IO-occupancy gauge for `track` by `delta`. A single branch
  /// when obs_resource_telemetry is off.
  void note_io(int track, int delta);
  void emit_event(const obs::Event& event);
  /// Takes one time-series row and re-arms the sampler while work remains
  /// (so drain() still terminates with sampling enabled).
  void take_sample();

  /// Runs one controller review epoch (feed snapshot -> on_review) and
  /// re-arms the chain while work remains, mirroring take_sample so drain()
  /// still terminates with the controller active.
  void controller_review();

  // ---- asynchronous update propagation ----
  /// Entry point from local commit: ships immediately, or appends to the
  /// site's batch and arms the flush timer when batching is configured.
  void queue_async_update(int site, std::vector<UpdateItem> items);
  void send_async_update(int site, std::vector<UpdateItem> items);
  void central_apply_update(int site, const std::vector<UpdateItem>& items);

  // ---- struct-of-arrays staging for per-phase completion statistics ----
  /// The per-phase SampleStat/Histogram adds are the hottest accumulator
  /// group in complete() (3 * kPhaseCount adds per completion, each touching
  /// a different cache line). Completions stage their phase vector here and
  /// the flush replays the samples one accumulator at a time, in completion
  /// order — so every accumulator sees exactly the add sequence it would
  /// have seen unbatched and its state (including Welford running moments)
  /// stays bit-identical.
  struct PhaseBatch {
    static constexpr int kCapacity = 256;
    int n = 0;
    double value[obs::kPhaseCount][kCapacity];
    int home_site[kCapacity];
  };
  /// Drains phase_batch_ into metrics_ / site_metrics_. Const because the
  /// staged samples are already logically part of the metrics; flushing only
  /// materializes them, which is why the read accessors may call it.
  void flush_phase_batch() const;

  SystemConfig cfg_;
  Simulator sim_;
  std::unique_ptr<RoutingStrategy> strategy_;
  TxnFactory factory_;
  Rng rng_;
  Rng ship_jitter_rng_;  ///< forked only when cfg_.ship_jitter > 0
  std::vector<SiteState> sites_;
  CentralState central_;
  Metrics metrics_;
  std::vector<SiteMetrics> site_metrics_;
  mutable PhaseBatch phase_batch_;
  CompletionHook completion_hook_;
  std::vector<obs::TraceSink*> sinks_;
  unsigned sink_mask_ = 0;  ///< union of registered sinks' kind masks
  std::vector<obs::SampleRow> series_;
  TxnArena arena_;
  AdaptiveController* controller_ = nullptr;  ///< borrowed from strategy_
  double adapt_interval_ = 0.0;  ///< resolved review cadence; 0 = inert
  bool arrivals_enabled_ = false;
  /// cfg_.obs_resource_telemetry, cached: gates every gauge update on the
  /// hot paths with a single branch.
  bool resource_telemetry_ = false;
};

}  // namespace hls
