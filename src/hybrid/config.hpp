// System configuration for the hybrid distributed-centralized architecture.
//
// Defaults reproduce the paper's baseline (§4.1): 10 local sites of 1 MIPS,
// a 15-MIPS central complex, 0.2 s one-way links, 75% class A transactions,
// a 32K-element global lock space of which each site masters one tenth, and
// the [YU87] pathlengths quoted in §3.1 (10 DB calls x 30K instructions,
// 150K instructions of message handling / initiation per transaction).
//
// I/O constants are not printed in the paper (they come from the authors'
// trace); the defaults below are typical late-1980s disk times and are
// documented as a substitution in DESIGN.md.
#pragma once

#include <algorithm>
#include <cstdint>
#include <iterator>
#include <limits>
#include <span>
#include <string>
#include <type_traits>
#include <variant>
#include <vector>

#include "db/lock_types.hpp"
#include "sim/fault_schedule.hpp"
#include "util/assert.hpp"

namespace hls {

/// Which transaction aborts when a waits-for cycle is detected.
enum class DeadlockVictim : std::uint8_t {
  Requester,  ///< the transaction whose request closed the cycle (paper §4.1)
  Youngest,   ///< the most recently arrived transaction on the cycle — it has
              ///< the least work to redo (ablation)
};

/// How class B (global-data) transactions execute. The paper ships them to
/// the central site and notes the alternative without analyzing it
/// (§3: "potentially, these transactions could be run at a local site,
/// making remote function calls to the central site to obtain required
/// data; however, we do not analyze this possibility here"). RemoteCalls
/// implements that alternative: processing stays at the home site and every
/// database call round-trips to the central copy, after which commit uses
/// the normal authentication phase.
enum class ClassBMode : std::uint8_t {
  Ship,         ///< ship the whole transaction to the central site (paper)
  RemoteCalls,  ///< run at home; one round trip per database call
};

struct SystemConfig {
  // ---- topology ----
  int num_sites = 10;
  double local_mips = 1.0;     ///< local CPU speed, millions of instr/s
  double central_mips = 15.0;  ///< central CPU speed, millions of instr/s
  double comm_delay = 0.2;     ///< one-way local<->central delay, seconds

  /// Optional per-site CPU speed override (heterogeneous regions); empty =
  /// every site runs at local_mips. When set, must have num_sites entries.
  /// §5 lists the local/central MIPS among the factors the threshold
  /// heuristic must be retuned for; heterogeneity makes that concrete.
  std::vector<double> local_mips_per_site;

  // ---- workload ----
  double arrival_rate_per_site = 1.0;  ///< Poisson arrivals per site, txn/s
  double prob_class_a = 0.75;          ///< fraction of purely-local (class A) txns

  // ---- transaction shape (per §3.1 / [YU87]) ----
  int db_calls_per_txn = 10;
  /// When true, the number of DB calls is geometric with mean
  /// db_calls_per_txn (truncated to [1, 8x mean]) instead of fixed —
  /// a variable-length workload extension for sensitivity studies.
  bool geometric_call_count = false;
  double instr_per_call = 30e3;    ///< database call processing
  double instr_msg_init = 75e3;    ///< arrival-side half of the 150K message path
  double instr_msg_commit = 75e3;  ///< commit-side half of the 150K message path
  double setup_io_time = 0.035;    ///< initial I/O before any lock is held, s
  double call_io_time = 0.025;     ///< I/O per database call, s
  double prob_call_io = 1.0;       ///< fraction of DB calls that do an I/O
  double prob_write_lock = 0.25;   ///< probability a lock request is exclusive

  // ---- lock space ----
  std::uint32_t lockspace = 32768;  ///< global number of lockable entities

  // ---- protocol overhead pathlengths (instructions) ----
  double instr_ship_forward = 15e3;       ///< local: forward a shipped txn's input
  double instr_apply_update = 10e3;       ///< central: apply one async update msg
  double instr_apply_update_item = 2e3;   ///< central: extra per batched item

  /// Batching window for asynchronous update propagation (§2: "these
  /// asynchronous messages may also be batched to reduce the overheads
  /// involved"). 0 disables batching: every local commit ships its own
  /// message. With a window w > 0, a site accumulates committed updates and
  /// flushes them as one message at most w seconds after the first pending
  /// update. Batching trades central apply overhead against longer
  /// coherence windows (more authentication refusals).
  double async_batch_window = 0.0;
  double instr_recv_ack = 2e3;            ///< local: process an async-update ack
  double instr_auth_local = 10e3;         ///< local: process an authentication request
  double instr_commit_apply_local = 5e3;  ///< local: apply a central commit msg
  double instr_send_async = 5e3;          ///< local: send the async update at commit

  // ---- control ----
  DeadlockVictim deadlock_victim = DeadlockVictim::Requester;
  ClassBMode class_b_mode = ClassBMode::Ship;
  double instr_remote_call = 15e3;  ///< central: serve one remote DB call
  std::uint64_t seed = 1;
  double abort_restart_delay = 0.0;  ///< optional backoff before a rerun, s
  int max_reruns = 1000;             ///< safety valve against livelock bugs
  /// Deterministic livelock breaker (docs/PROTOCOL.md): once a transaction
  /// has rerun more than `livelock_backoff_after` times, every further
  /// restart stalls an extra
  /// `livelock_backoff * (run_count - livelock_backoff_after)` seconds on
  /// top of abort_restart_delay, de-synchronizing mutual-abort limit cycles
  /// (two transactions deadlocking each other forever on identical re-run
  /// lock sequences). The threshold sits far above any rerun count the
  /// paper workloads reach, so runs that do not livelock are untouched.
  /// livelock_backoff = 0 disables the breaker.
  int livelock_backoff_after = 20;
  double livelock_backoff = 0.1;
  bool ideal_state_info = false;     ///< strategies see fresh central state

  // ---- fault injection (sim/fault_schedule) ----
  /// Deterministic outage/degradation schedule; empty injects nothing and
  /// leaves the simulation bit-identical to a fault-free build.
  FaultScheduleConfig faults;

  /// Timeout on a shipped class A transaction's central execution, seconds;
  /// 0 disables the timer. On expiry the home site reclaims the (possibly
  /// dead) central incarnation and reships; each retry multiplies the
  /// timeout by ship_backoff, and after ship_max_retries reships the
  /// transaction falls back to local execution.
  double ship_timeout = 0.0;
  double ship_backoff = 2.0;  ///< timeout multiplier per retry (>= 1)
  int ship_max_retries = 2;   ///< reships before the local fallback (>= 0)

  /// Seeded jitter on the ship-timeout backoff: each armed timer's delay is
  /// scaled by 1 + ship_jitter * U[0,1) from a dedicated stream forked off
  /// the config seed (de-synchronizes timeout storms). 0 (the default)
  /// keeps the fixed backoff and forks no stream, so existing figures stay
  /// byte-identical.
  double ship_jitter = 0.0;

  // ---- chaos-soak envelope (core/chaos, docs/CHAOS.md) ----
  /// Strategy spec a chaos episode/repro config runs under
  /// (routing parse_strategy_spec grammar); empty outside chaos files.
  std::string chaos_strategy;
  /// Seconds of open arrivals in a chaos episode before the drain phase;
  /// 0 outside chaos repro files.
  double chaos_run_seconds = 0.0;

  // ---- adaptive routing controller (routing/adaptive, docs/PROTOCOL.md) ----
  /// Review-epoch cadence of the adaptive controller, seconds; 0 (the
  /// default) disables it entirely — no review event is ever scheduled and
  /// every site keeps the optimistic-abort collision policy, so the event
  /// sequence stays bit-identical to a build without the controller. Only
  /// consulted when the installed strategy actually carries a controller
  /// (an `adapt:` spec); an `adapt@<interval>:` spec overrides this key.
  double adapt_interval = 0.0;
  /// Hill-climb step per review epoch for the tunable ship threshold.
  double adapt_threshold_step = 0.05;
  /// Epoch fraction of wasted work attributed to authentication refusals
  /// above which the controller backs off shipping (released at half).
  double adapt_refusal_frac = 0.5;
  /// Per-epoch abort count in one victim x winner conflict-matrix cell that
  /// counts as "hot" for the per-site lock-wait flip.
  int adapt_hot_conflicts = 8;

  // ---- observability (obs/) ----
  /// Cadence of the time-series sampler, seconds; 0 (the default) disables
  /// it entirely — no event is ever scheduled, keeping the event sequence
  /// bit-identical to a build without the sampler.
  double obs_sample_interval = 0.0;

  /// Span-sink specification for the driver: "" (default, no sink),
  /// "perfetto:PATH" (Chrome trace-event / Perfetto JSON), or "csv:PATH"
  /// (scalar event CSV). Attaching a sink changes emission only, never
  /// simulated timing.
  std::string obs_span_sink;

  /// Span trees listed in the run report's slowest-transactions section.
  int report_top_k = 5;

  /// Per-resource continuous telemetry: time-weighted IO-device occupancy,
  /// lock-manager wait-queue lengths, and link in-flight message counts,
  /// surfaced in the sampler series, Perfetto counter tracks, and the
  /// registry export. Off by default — when false no gauge is maintained,
  /// and enabling it only adds state writes (no events, no RNG forks), so
  /// the event sequence and metrics stay bit-identical either way.
  bool obs_resource_telemetry = false;

  /// Lock-access heat counters: the lock space is folded into this many
  /// equal-width buckets per lock manager and every request/authentication
  /// access increments its bucket. 0 (the default) keeps the counters
  /// entirely absent; like the gauges above, enabling them never perturbs
  /// the simulation.
  int obs_heat_buckets = 0;

  /// When non-empty, `run_simulation` serializes the metric registry as a
  /// canonical JSON run artifact at this path (schema in
  /// docs/OBSERVABILITY.md; diffed and gated by tools/hlsreport).
  std::string obs_artifact;

  /// Lock ids mastered by site s: [s*partition, (s+1)*partition).
  [[nodiscard]] std::uint32_t partition_size() const {
    return lockspace / static_cast<std::uint32_t>(num_sites);
  }

  [[nodiscard]] int owner_site(LockId lock) const {
    const int site = static_cast<int>(lock / partition_size());
    return site >= num_sites ? num_sites - 1 : site;  // remainder ids -> last site
  }

  [[nodiscard]] double local_cpu_seconds(double instructions) const {
    return instructions / (local_mips * 1e6);
  }

  /// Site s's CPU speed (the per-site override when present).
  [[nodiscard]] double site_mips(int s) const {
    return local_mips_per_site.empty() ? local_mips
                                       : local_mips_per_site[static_cast<std::size_t>(s)];
  }

  [[nodiscard]] double site_cpu_seconds(int s, double instructions) const {
    return instructions / (site_mips(s) * 1e6);
  }

  [[nodiscard]] double central_cpu_seconds(double instructions) const {
    return instructions / (central_mips * 1e6);
  }

  /// Total new-transaction arrival rate over all sites, txn/s.
  [[nodiscard]] double total_arrival_rate() const {
    return arrival_rate_per_site * num_sites;
  }

  /// Checks every key's range (kConfigKeys) and the cross-field rules.
  /// Returns false and fills `error` (when non-null) with the first
  /// violation; builds no message on success.
  [[nodiscard]] bool check(std::string* error = nullptr) const;

  /// Aborts if the configuration is internally inconsistent.
  void validate() const;
};

// ---- key descriptor table ---------------------------------------------------
//
// One row per `key=value` config key: its name, the member it sets, and the
// one allowed range. core/config_io parses and describes through this table
// (in row order), validate() checks every row, and docs/CONFIG.md is tested
// against it. Only `local_mips_per_site` (set in code) and the repeatable
// `fault=` window list (core/config_io) have no row.

/// Allowed values of a numeric key: lo <= v <= hi, either end optionally
/// open; `text` states the range in error messages. Integer keys are further
/// limited to whole numbers that fit the member's type.
struct KeyRange {
  double lo = 0.0;
  double hi = std::numeric_limits<double>::infinity();
  bool lo_open = false;
  bool hi_open = false;
  const char* text = "non-negative";

  [[nodiscard]] constexpr bool contains(double v) const {
    return (lo_open ? v > lo : v >= lo) && (hi_open ? v < hi : v <= hi);
  }
};

inline constexpr KeyRange kNonNegative{};
inline constexpr KeyRange kPositive{0.0, std::numeric_limits<double>::infinity(),
                                    true, false, "positive"};
inline constexpr KeyRange kAtLeastOne{1.0, std::numeric_limits<double>::infinity(),
                                      false, false, "at least 1"};
inline constexpr KeyRange kUnitInterval{0.0, 1.0, false, false, "in [0, 1]"};
inline constexpr KeyRange kProbability{0.0, 1.0, false, true, "in [0, 1)"};

/// The member a key sets. Its type is the key's kind: double, int or
/// uint32 (integer), uint64 (the seed), bool (0/1 flag), string, or an enum
/// spelled through the row's `spellings`. fault_* keys address the nested
/// FaultScheduleConfig.
using ConfigField =
    std::variant<double SystemConfig::*, int SystemConfig::*,
                 std::uint32_t SystemConfig::*, std::uint64_t SystemConfig::*,
                 bool SystemConfig::*, std::string SystemConfig::*,
                 DeadlockVictim SystemConfig::*, ClassBMode SystemConfig::*,
                 double FaultScheduleConfig::*>;

struct ConfigKey {
  const char* name;
  ConfigField field;
  KeyRange range{};  ///< double and integer kinds only
  std::span<const char* const> spellings{};  ///< enum kinds: text per value
};

inline constexpr const char* kDeadlockVictimNames[] = {"requester", "youngest"};
inline constexpr const char* kClassBModeNames[] = {"ship", "remote-calls"};

inline constexpr ConfigKey kConfigKeys[] = {
    {"num_sites", &SystemConfig::num_sites, kAtLeastOne},
    {"local_mips", &SystemConfig::local_mips, kPositive},
    {"central_mips", &SystemConfig::central_mips, kPositive},
    {"comm_delay", &SystemConfig::comm_delay, kNonNegative},
    {"arrival_rate_per_site", &SystemConfig::arrival_rate_per_site, kNonNegative},
    {"prob_class_a", &SystemConfig::prob_class_a, kUnitInterval},
    {"db_calls_per_txn", &SystemConfig::db_calls_per_txn, kAtLeastOne},
    {"instr_per_call", &SystemConfig::instr_per_call, kNonNegative},
    {"instr_msg_init", &SystemConfig::instr_msg_init, kNonNegative},
    {"instr_msg_commit", &SystemConfig::instr_msg_commit, kNonNegative},
    {"setup_io_time", &SystemConfig::setup_io_time, kNonNegative},
    {"call_io_time", &SystemConfig::call_io_time, kNonNegative},
    {"prob_call_io", &SystemConfig::prob_call_io, kUnitInterval},
    {"prob_write_lock", &SystemConfig::prob_write_lock, kUnitInterval},
    {"lockspace", &SystemConfig::lockspace, kAtLeastOne},
    {"instr_ship_forward", &SystemConfig::instr_ship_forward, kNonNegative},
    {"instr_apply_update", &SystemConfig::instr_apply_update, kNonNegative},
    {"instr_apply_update_item",
     &SystemConfig::instr_apply_update_item, kNonNegative},
    {"instr_recv_ack", &SystemConfig::instr_recv_ack, kNonNegative},
    {"instr_auth_local", &SystemConfig::instr_auth_local, kNonNegative},
    {"instr_commit_apply_local",
     &SystemConfig::instr_commit_apply_local, kNonNegative},
    {"instr_send_async", &SystemConfig::instr_send_async, kNonNegative},
    {"instr_remote_call", &SystemConfig::instr_remote_call, kNonNegative},
    {"async_batch_window", &SystemConfig::async_batch_window, kNonNegative},
    {"deadlock_victim", &SystemConfig::deadlock_victim, {}, kDeadlockVictimNames},
    {"class_b_mode", &SystemConfig::class_b_mode, {}, kClassBModeNames},
    {"seed", &SystemConfig::seed},
    {"abort_restart_delay", &SystemConfig::abort_restart_delay, kNonNegative},
    {"max_reruns", &SystemConfig::max_reruns, kNonNegative},
    {"livelock_backoff_after", &SystemConfig::livelock_backoff_after, kNonNegative},
    {"livelock_backoff", &SystemConfig::livelock_backoff, kNonNegative},
    {"ideal_state_info", &SystemConfig::ideal_state_info},
    {"geometric_call_count", &SystemConfig::geometric_call_count},
    {"ship_timeout", &SystemConfig::ship_timeout, kNonNegative},
    {"ship_backoff", &SystemConfig::ship_backoff, kAtLeastOne},
    {"ship_max_retries", &SystemConfig::ship_max_retries, kNonNegative},
    {"ship_jitter", &SystemConfig::ship_jitter, kNonNegative},
    {"obs_sample_interval", &SystemConfig::obs_sample_interval, kNonNegative},
    {"obs_span_sink", &SystemConfig::obs_span_sink},
    {"report_top_k", &SystemConfig::report_top_k, kNonNegative},
    {"obs_resource_telemetry", &SystemConfig::obs_resource_telemetry},
    {"obs_heat_buckets", &SystemConfig::obs_heat_buckets, kNonNegative},
    {"obs_artifact", &SystemConfig::obs_artifact},
    {"fault_random_link_rate",
     &FaultScheduleConfig::random_link_outage_rate, kNonNegative},
    {"fault_random_link_duration",
     &FaultScheduleConfig::random_link_outage_mean, kNonNegative},
    {"fault_random_horizon", &FaultScheduleConfig::random_horizon, kNonNegative},
    {"fault_dup_prob", &FaultScheduleConfig::dup_prob, kProbability},
    {"fault_dup_delay", &FaultScheduleConfig::dup_extra, kNonNegative},
    {"fault_reorder_prob", &FaultScheduleConfig::reorder_prob, kProbability},
    {"fault_reorder_window", &FaultScheduleConfig::reorder_window, kNonNegative},
    {"fault_spike_prob", &FaultScheduleConfig::spike_prob, kProbability},
    {"fault_spike_factor", &FaultScheduleConfig::spike_factor, kNonNegative},
    {"chaos_strategy", &SystemConfig::chaos_strategy},
    {"chaos_run_seconds", &SystemConfig::chaos_run_seconds, kNonNegative},
    {"adapt_interval", &SystemConfig::adapt_interval, kNonNegative},
    {"adapt_threshold_step", &SystemConfig::adapt_threshold_step, kNonNegative},
    {"adapt_refusal_frac", &SystemConfig::adapt_refusal_frac, kUnitInterval},
    {"adapt_hot_conflicts", &SystemConfig::adapt_hot_conflicts, kAtLeastOne},
};

namespace config_detail {

/// Converts to any member type, so `T{AnyMember{}...}` compiles exactly when
/// the aggregate T has at least that many members (brace-init counting).
struct AnyMember {
  template <class T>
  operator T() const;  // declared only: used in unevaluated operands
};

template <class T, class... Members>
constexpr std::size_t aggregate_member_count() {
  if constexpr (requires { T{Members{}..., AnyMember{}}; }) {
    return aggregate_member_count<T, Members..., AnyMember>();
  } else {
    return sizeof...(Members);
  }
}

constexpr std::size_t kFaultRows = static_cast<std::size_t>(std::count_if(
    std::begin(kConfigKeys), std::end(kConfigKeys), [](const ConfigKey& k) {
      return std::holds_alternative<double FaultScheduleConfig::*>(k.field);
    }));

}  // namespace config_detail

// A member added without a row fails here. The aggregates without a row:
// SystemConfig::local_mips_per_site and ::faults, FaultScheduleConfig::windows.
static_assert(config_detail::aggregate_member_count<SystemConfig>() ==
                  std::size(kConfigKeys) - config_detail::kFaultRows + 2,
              "every scalar SystemConfig member needs a kConfigKeys row");
static_assert(config_detail::aggregate_member_count<FaultScheduleConfig>() ==
                  config_detail::kFaultRows + 1,
              "every scalar FaultScheduleConfig member needs a kConfigKeys row");

/// The member `field` addresses in `cfg` (const when `cfg` is).
template <class Config, class T>
constexpr auto& config_member(Config& cfg, T SystemConfig::*field) {
  return cfg.*field;
}
template <class Config, class T>
constexpr auto& config_member(Config& cfg, T FaultScheduleConfig::*field) {
  return cfg.faults.*field;
}

/// Integer kinds: whole numbers that fit the member type.
template <class T>
inline constexpr bool kIntegerKey =
    std::is_same_v<T, int> || std::is_same_v<T, std::uint32_t>;

/// True when `v` is a legal value of `key`'s member: within the row's range
/// for numeric kinds, one of the spellings for enums.
template <class T>
[[nodiscard]] constexpr bool key_accepts(const ConfigKey& key, const T& v) {
  if constexpr (std::is_enum_v<T>) {
    return static_cast<std::size_t>(v) < key.spellings.size();
  } else if constexpr (std::is_same_v<T, double> || kIntegerKey<T>) {
    return key.range.contains(static_cast<double>(v));
  } else {
    return true;  // seed, flags and strings take any value
  }
}

/// "<key> must be ..." for a value `key_accepts` rejects (or, for integer
/// keys, a value that is not a whole number of the member's type).
[[nodiscard]] inline std::string key_range_error(const ConfigKey& key) {
  std::string text = std::string(key.name) + " must be ";
  if (!key.spellings.empty()) {
    for (std::size_t i = 0; i < key.spellings.size(); ++i) {
      text += (i == 0 ? "" : "|");
      text += key.spellings[i];
    }
    return text;
  }
  const bool is_int = std::holds_alternative<int SystemConfig::*>(key.field);
  const bool is_u32 =
      std::holds_alternative<std::uint32_t SystemConfig::*>(key.field);
  if (!is_int && !is_u32) {
    return text + key.range.text;
  }
  return text + "an integer, " + key.range.text + " and at most " +
         std::to_string(is_int ? std::numeric_limits<int>::max()
                               : std::numeric_limits<std::uint32_t>::max());
}

/// The obs_span_sink grammar: "", "perfetto:PATH" or "csv:PATH".
[[nodiscard]] inline bool span_sink_spec_ok(const std::string& spec) {
  return spec.empty() || spec.rfind("perfetto:", 0) == 0 ||
         spec.rfind("csv:", 0) == 0;
}
inline constexpr const char* kSpanSinkSpecError =
    "obs_span_sink must be empty, perfetto:PATH, or csv:PATH";

inline bool SystemConfig::check(std::string* error) const {
  const auto fail = [error](std::string message) {
    if (error != nullptr) {
      *error = std::move(message);
    }
    return false;
  };
  for (const ConfigKey& key : kConfigKeys) {
    const bool ok = std::visit(
        [&](auto field) { return key_accepts(key, config_member(*this, field)); },
        key.field);
    if (!ok) {
      return fail(key_range_error(key));
    }
  }
  if (lockspace < static_cast<std::uint32_t>(num_sites)) {
    return fail("lock space smaller than site count");
  }
  if (!local_mips_per_site.empty() &&
      local_mips_per_site.size() != static_cast<std::size_t>(num_sites)) {
    return fail("local_mips_per_site must be empty or have num_sites entries");
  }
  for (double mips : local_mips_per_site) {
    if (!(mips > 0.0)) {
      return fail("per-site MIPS must be positive");
    }
  }
  if (!span_sink_spec_ok(obs_span_sink)) {
    return fail(kSpanSinkSpecError);
  }
  std::string fault_error;
  if (!faults.validate(num_sites, &fault_error)) {
    return fail("fault schedule: " + fault_error);
  }
  return true;
}

inline void SystemConfig::validate() const {
  std::string error;
  HLS_ASSERT(check(&error), error.c_str());
}

}  // namespace hls
