#include "core/config_io.hpp"

#include <gtest/gtest.h>

#include <fstream>
#include <iterator>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <type_traits>
#include <variant>

namespace hls {
namespace {

TEST(ConfigIo, AppliesNumericOverrides) {
  SystemConfig cfg;
  EXPECT_TRUE(apply_config_override(cfg, "comm_delay=0.5"));
  EXPECT_TRUE(apply_config_override(cfg, "num_sites=4"));
  EXPECT_TRUE(apply_config_override(cfg, "lockspace=1024"));
  EXPECT_TRUE(apply_config_override(cfg, "prob_write_lock=0.4"));
  EXPECT_DOUBLE_EQ(cfg.comm_delay, 0.5);
  EXPECT_EQ(cfg.num_sites, 4);
  EXPECT_EQ(cfg.lockspace, 1024u);
  EXPECT_DOUBLE_EQ(cfg.prob_write_lock, 0.4);
}

TEST(ConfigIo, AppliesEnumOverrides) {
  SystemConfig cfg;
  EXPECT_TRUE(apply_config_override(cfg, "deadlock_victim=youngest"));
  EXPECT_EQ(cfg.deadlock_victim, DeadlockVictim::Youngest);
  EXPECT_TRUE(apply_config_override(cfg, "class_b_mode=remote-calls"));
  EXPECT_EQ(cfg.class_b_mode, ClassBMode::RemoteCalls);
  EXPECT_TRUE(apply_config_override(cfg, "class_b_mode=ship"));
  EXPECT_EQ(cfg.class_b_mode, ClassBMode::Ship);
  EXPECT_TRUE(apply_config_override(cfg, "ideal_state_info=1"));
  EXPECT_TRUE(cfg.ideal_state_info);
}

TEST(ConfigIo, RejectsBadInput) {
  SystemConfig cfg;
  std::string error;
  EXPECT_FALSE(apply_config_override(cfg, "no_equals_sign", &error));
  EXPECT_FALSE(apply_config_override(cfg, "unknown_key=1", &error));
  EXPECT_NE(error.find("unknown config key"), std::string::npos);
  EXPECT_FALSE(apply_config_override(cfg, "comm_delay=abc", &error));
  EXPECT_FALSE(apply_config_override(cfg, "deadlock_victim=alphabetical", &error));
  // The config is untouched by failed overrides.
  EXPECT_DOUBLE_EQ(cfg.comm_delay, 0.2);
}

TEST(ConfigIo, RejectsNonIntegralAndOutOfRangeValues) {
  // Each of these used to be truncated, cast with undefined behaviour, or
  // accepted here and then aborted in SystemConfig::validate().
  SystemConfig cfg;
  std::string error;
  EXPECT_FALSE(apply_config_override(cfg, "num_sites=2.7", &error));
  EXPECT_NE(error.find("num_sites must be an integer"), std::string::npos)
      << error;
  EXPECT_FALSE(apply_config_override(cfg, "lockspace=-1", &error));
  EXPECT_NE(error.find("lockspace must be"), std::string::npos) << error;
  EXPECT_FALSE(apply_config_override(cfg, "lockspace=5e9", &error));
  EXPECT_FALSE(apply_config_override(cfg, "prob_class_a=1.5", &error));
  EXPECT_NE(error.find("prob_class_a must be in [0, 1]"), std::string::npos)
      << error;
  EXPECT_FALSE(apply_config_override(cfg, "num_sites=0", &error));
  EXPECT_NE(error.find("at least 1"), std::string::npos) << error;
  EXPECT_FALSE(apply_config_override(cfg, "local_mips=0", &error));
  EXPECT_NE(error.find("positive"), std::string::npos) << error;
  EXPECT_FALSE(apply_config_override(cfg, "comm_delay=nan", &error));
  EXPECT_FALSE(apply_config_override(cfg, "class_b_mode=remote_calls", &error));
  EXPECT_NE(error.find("ship|remote-calls"), std::string::npos) << error;
  // Failed overrides leave the config untouched.
  EXPECT_EQ(cfg.num_sites, 10);
  EXPECT_EQ(cfg.lockspace, 32768u);
  EXPECT_DOUBLE_EQ(cfg.prob_class_a, 0.75);

  // Whole numbers in exponent form stay accepted.
  EXPECT_TRUE(apply_config_override(cfg, "lockspace=1e3", &error)) << error;
  EXPECT_EQ(cfg.lockspace, 1000u);

  // A cross-field violation is reported by parse_config_file, not aborted on.
  std::istringstream in("num_sites=20\nlockspace=8\n");
  EXPECT_FALSE(parse_config_file(in, SystemConfig{}, &error).has_value());
  EXPECT_NE(error.find("lock space smaller than site count"), std::string::npos)
      << error;
}

TEST(ConfigKeys, NoTwoRowsAddressTheSameMember) {
  // With the member-count static_assert in hybrid/config.hpp this makes the
  // table a bijection onto the scalar members.
  const std::size_t n = std::size(kConfigKeys);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = i + 1; j < n; ++j) {
      EXPECT_FALSE(kConfigKeys[i].field == kConfigKeys[j].field)
          << kConfigKeys[i].name << " and " << kConfigKeys[j].name;
      EXPECT_STRNE(kConfigKeys[i].name, kConfigKeys[j].name);
    }
  }
}

TEST(ConfigIo, ParsesFileWithCommentsAndWhitespace) {
  const std::string text =
      "# experiment configuration\n"
      "\n"
      "  comm_delay=0.5  \n"
      "arrival_rate_per_site=2.4\n"
      "deadlock_victim=youngest\n";
  std::istringstream in(text);
  const auto cfg = parse_config_file(in, SystemConfig{});
  ASSERT_TRUE(cfg.has_value());
  EXPECT_DOUBLE_EQ(cfg->comm_delay, 0.5);
  EXPECT_DOUBLE_EQ(cfg->arrival_rate_per_site, 2.4);
  EXPECT_EQ(cfg->deadlock_victim, DeadlockVictim::Youngest);
  // Untouched fields keep the base values.
  EXPECT_EQ(cfg->num_sites, 10);
}

TEST(ConfigIo, FileErrorsCarryLineNumbers) {
  std::istringstream in("comm_delay=0.5\nbogus_key=1\n");
  std::string error;
  EXPECT_FALSE(parse_config_file(in, SystemConfig{}, &error).has_value());
  EXPECT_NE(error.find("line 2"), std::string::npos);
}

TEST(ConfigIo, DescribeRoundTrips) {
  SystemConfig cfg;
  cfg.comm_delay = 0.5;
  cfg.num_sites = 7;
  cfg.class_b_mode = ClassBMode::RemoteCalls;
  cfg.deadlock_victim = DeadlockVictim::Youngest;
  cfg.async_batch_window = 0.25;
  cfg.seed = 777;
  std::ostringstream out;
  describe_config(out, cfg);
  std::istringstream in(out.str());
  const auto parsed = parse_config_file(in, SystemConfig{});
  ASSERT_TRUE(parsed.has_value());
  EXPECT_DOUBLE_EQ(parsed->comm_delay, 0.5);
  EXPECT_EQ(parsed->num_sites, 7);
  EXPECT_EQ(parsed->class_b_mode, ClassBMode::RemoteCalls);
  EXPECT_EQ(parsed->deadlock_victim, DeadlockVictim::Youngest);
  EXPECT_DOUBLE_EQ(parsed->async_batch_window, 0.25);
  EXPECT_EQ(parsed->seed, 777u);
}

/// A value for `key` other than its default, in range, distinct per row
/// (`row` is the row index) and, for doubles, needing all 17 digits.
template <class T>
T non_default(const ConfigKey& key, std::size_t row, const T& current) {
  if constexpr (std::is_same_v<T, double>) {
    return key.range.lo + 0.3183098861837907 / static_cast<double>(row + 1);
  } else if constexpr (std::is_same_v<T, bool>) {
    return !current;
  } else if constexpr (std::is_same_v<T, std::string>) {
    return "perfetto:out/" + std::string(key.name) + ".json";
  } else if constexpr (std::is_enum_v<T>) {
    return static_cast<T>((static_cast<std::size_t>(current) + 1) %
                          key.spellings.size());
  } else if constexpr (std::is_same_v<T, std::uint64_t>) {
    return 5057277406479545829ULL;  // > 2^62: not representable as a double
  } else {
    return static_cast<T>(current + 1 + static_cast<T>(row));
  }
}

TEST(ConfigIo, EveryKeyRoundTripsThroughDescribeExactly) {
  const SystemConfig defaults;
  SystemConfig cfg;
  for (std::size_t row = 0; row < std::size(kConfigKeys); ++row) {
    const ConfigKey& key = kConfigKeys[row];
    std::visit(
        [&](auto field) {
          auto& member = config_member(cfg, field);
          member = non_default(key, row, member);
        },
        key.field);
  }
  cfg.faults.windows = {
      {FaultKind::SiteOutage, 2, 10.0 / 3.0, 1.0 / 7.0},
      {FaultKind::LinkDegrade, -1, 0.1, 50.0 / 3.0, 2.0 / 3.0, 0.1 / 3.0},
      {FaultKind::MsgFault, 3, 1.0 / 9.0, 2.0 / 9.0, 1.0, 0.0, 0.5 / 3.0,
       0.4 / 3.0, 0.3 / 7.0, 6.0 / 7.0},
  };
  std::string error;
  ASSERT_TRUE(cfg.check(&error)) << error;

  std::ostringstream out;
  describe_config(out, cfg);
  std::istringstream in(out.str());
  const auto parsed = parse_config_file(in, SystemConfig{}, &error);
  ASSERT_TRUE(parsed.has_value()) << error;
  for (const ConfigKey& key : kConfigKeys) {
    std::visit(
        [&](auto field) {
          EXPECT_EQ(config_member(*parsed, field), config_member(cfg, field))
              << key.name;
          EXPECT_FALSE(config_member(defaults, field) ==
                       config_member(cfg, field))
              << key.name << " was left at its default";
        },
        key.field);
  }
  ASSERT_EQ(parsed->faults.windows.size(), cfg.faults.windows.size());
  for (std::size_t i = 0; i < cfg.faults.windows.size(); ++i) {
    const FaultWindow& a = parsed->faults.windows[i];
    const FaultWindow& b = cfg.faults.windows[i];
    EXPECT_EQ(a.kind, b.kind) << i;
    EXPECT_EQ(a.site, b.site) << i;
    EXPECT_EQ(a.start, b.start) << i;
    EXPECT_EQ(a.duration, b.duration) << i;
    EXPECT_EQ(a.delay_factor, b.delay_factor) << i;
    EXPECT_EQ(a.loss_prob, b.loss_prob) << i;
    EXPECT_EQ(a.dup_prob, b.dup_prob) << i;
    EXPECT_EQ(a.reorder_prob, b.reorder_prob) << i;
    EXPECT_EQ(a.spike_prob, b.spike_prob) << i;
    EXPECT_EQ(a.spike_factor, b.spike_factor) << i;
  }
}

TEST(ConfigIo, EveryDescribedKeyIsAccepted) {
  // describe_config must never emit a key apply_config_override rejects.
  std::ostringstream out;
  describe_config(out, SystemConfig{});
  std::istringstream in(out.str());
  std::string line;
  SystemConfig cfg;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') {
      continue;
    }
    std::string error;
    EXPECT_TRUE(apply_config_override(cfg, line, &error)) << line << ": " << error;
  }
}

TEST(ConfigIo, FaultWindowsAccumulateAndClear) {
  SystemConfig cfg;
  EXPECT_TRUE(apply_config_override(cfg, "fault=central_outage:10:2"));
  EXPECT_TRUE(apply_config_override(cfg, "fault=link_degrade:3:5:10:4:0.25"));
  ASSERT_EQ(cfg.faults.windows.size(), 2u);
  EXPECT_EQ(cfg.faults.windows[0].kind, FaultKind::CentralOutage);
  EXPECT_EQ(cfg.faults.windows[1].kind, FaultKind::LinkDegrade);
  EXPECT_EQ(cfg.faults.windows[1].site, 3);
  EXPECT_DOUBLE_EQ(cfg.faults.windows[1].delay_factor, 4.0);
  EXPECT_DOUBLE_EQ(cfg.faults.windows[1].loss_prob, 0.25);
  EXPECT_TRUE(apply_config_override(cfg, "fault=clear"));
  EXPECT_TRUE(cfg.faults.windows.empty());
}

TEST(ConfigIo, FaultAndShipKeysRejectBadValues) {
  SystemConfig cfg;
  std::string error;
  EXPECT_FALSE(apply_config_override(cfg, "fault=central_outage:bad", &error));
  EXPECT_NE(error.find("fault: "), std::string::npos);
  EXPECT_FALSE(apply_config_override(cfg, "ship_timeout=-1", &error));
  EXPECT_NE(error.find("non-negative"), std::string::npos);
  EXPECT_FALSE(apply_config_override(cfg, "ship_backoff=0.5", &error));
  EXPECT_NE(error.find("at least 1"), std::string::npos);
  EXPECT_FALSE(apply_config_override(cfg, "ship_max_retries=-2", &error));
}

TEST(ConfigIo, FaultConfigRoundTripsThroughDescribe) {
  SystemConfig cfg;
  cfg.ship_timeout = 1.5;
  cfg.ship_backoff = 3.0;
  cfg.ship_max_retries = 4;
  cfg.faults.windows.push_back({FaultKind::SiteOutage, 2, 10.0, 1.0, 1.0, 0.0});
  cfg.faults.windows.push_back({FaultKind::LinkDegrade, -1, 0.0, 50.0, 2.0, 0.1});
  cfg.faults.random_link_outage_rate = 0.01;
  cfg.faults.random_link_outage_mean = 2.0;
  cfg.faults.random_horizon = 400.0;
  std::ostringstream out;
  describe_config(out, cfg);
  std::istringstream in(out.str());
  const auto parsed = parse_config_file(in, SystemConfig{});
  ASSERT_TRUE(parsed.has_value());
  EXPECT_DOUBLE_EQ(parsed->ship_timeout, 1.5);
  EXPECT_DOUBLE_EQ(parsed->ship_backoff, 3.0);
  EXPECT_EQ(parsed->ship_max_retries, 4);
  ASSERT_EQ(parsed->faults.windows.size(), 2u);
  EXPECT_EQ(parsed->faults.windows[0].kind, FaultKind::SiteOutage);
  EXPECT_EQ(parsed->faults.windows[0].site, 2);
  EXPECT_DOUBLE_EQ(parsed->faults.windows[1].loss_prob, 0.1);
  EXPECT_DOUBLE_EQ(parsed->faults.random_link_outage_rate, 0.01);
  EXPECT_DOUBLE_EQ(parsed->faults.random_horizon, 400.0);
}

TEST(ConfigIo, SpanSinkAndReportTopKRoundTrip) {
  SystemConfig cfg;
  EXPECT_TRUE(apply_config_override(cfg, "obs_span_sink=perfetto:/tmp/t.json"));
  EXPECT_EQ(cfg.obs_span_sink, "perfetto:/tmp/t.json");
  EXPECT_TRUE(apply_config_override(cfg, "obs_span_sink=csv:spans.csv"));
  EXPECT_EQ(cfg.obs_span_sink, "csv:spans.csv");
  EXPECT_TRUE(apply_config_override(cfg, "obs_span_sink="));  // disable again
  EXPECT_TRUE(cfg.obs_span_sink.empty());
  EXPECT_TRUE(apply_config_override(cfg, "report_top_k=9"));
  EXPECT_EQ(cfg.report_top_k, 9);

  cfg.obs_span_sink = "perfetto:out/trace.json";
  cfg.report_top_k = 12;
  std::ostringstream out;
  describe_config(out, cfg);
  std::istringstream in(out.str());
  const auto parsed = parse_config_file(in, SystemConfig{});
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->obs_span_sink, "perfetto:out/trace.json");
  EXPECT_EQ(parsed->report_top_k, 12);
}

TEST(ConfigIo, RegistryTelemetryKeysRoundTrip) {
  SystemConfig cfg;
  EXPECT_TRUE(apply_config_override(cfg, "obs_resource_telemetry=1"));
  EXPECT_TRUE(cfg.obs_resource_telemetry);
  EXPECT_TRUE(apply_config_override(cfg, "obs_heat_buckets=48"));
  EXPECT_EQ(cfg.obs_heat_buckets, 48);
  EXPECT_TRUE(apply_config_override(cfg, "obs_artifact=out/run.json"));
  EXPECT_EQ(cfg.obs_artifact, "out/run.json");
  EXPECT_TRUE(apply_config_override(cfg, "obs_artifact="));  // disable again
  EXPECT_TRUE(cfg.obs_artifact.empty());

  std::string error;
  EXPECT_FALSE(apply_config_override(cfg, "obs_heat_buckets=-4", &error));
  EXPECT_NE(error.find("non-negative"), std::string::npos);
  EXPECT_EQ(cfg.obs_heat_buckets, 48);  // untouched by the failure

  cfg.obs_resource_telemetry = true;
  cfg.obs_heat_buckets = 16;
  cfg.obs_artifact = "artifacts/a.json";
  std::ostringstream out;
  describe_config(out, cfg);
  std::istringstream in(out.str());
  const auto parsed = parse_config_file(in, SystemConfig{});
  ASSERT_TRUE(parsed.has_value());
  EXPECT_TRUE(parsed->obs_resource_telemetry);
  EXPECT_EQ(parsed->obs_heat_buckets, 16);
  EXPECT_EQ(parsed->obs_artifact, "artifacts/a.json");

  // Defaults: observation is absent unless asked for.
  const SystemConfig fresh;
  EXPECT_FALSE(fresh.obs_resource_telemetry);
  EXPECT_EQ(fresh.obs_heat_buckets, 0);
  EXPECT_TRUE(fresh.obs_artifact.empty());
}

TEST(ConfigIo, SpanSinkRejectsUnknownSchemeAndNegativeTopK) {
  SystemConfig cfg;
  std::string error;
  EXPECT_FALSE(apply_config_override(cfg, "obs_span_sink=bogus:/x", &error));
  EXPECT_NE(error.find("perfetto:PATH"), std::string::npos);
  EXPECT_TRUE(cfg.obs_span_sink.empty());  // untouched by the failure
  EXPECT_FALSE(apply_config_override(cfg, "report_top_k=-1", &error));
  EXPECT_NE(error.find("non-negative"), std::string::npos);
}

TEST(ConfigIo, FaultSiteRangeIsValidatedAfterWholeFile) {
  // num_sites appears after the fault line; validation must still see the
  // final value and reject the out-of-range site.
  std::istringstream in("fault=site_outage:5:1:2\nnum_sites=3\n");
  std::string error;
  EXPECT_FALSE(parse_config_file(in, SystemConfig{}, &error).has_value());
  EXPECT_NE(error.find("fault schedule:"), std::string::npos);

  std::istringstream ok("fault=site_outage:5:1:2\nnum_sites=8\n");
  EXPECT_TRUE(parse_config_file(ok, SystemConfig{}).has_value());
}

TEST(ConfigIo, MessageChaosAndJitterKeysRoundTrip) {
  SystemConfig cfg;
  cfg.faults.dup_prob = 0.25;
  cfg.faults.dup_extra = 0.04;
  cfg.faults.reorder_prob = 0.3;
  cfg.faults.reorder_window = 0.45;
  cfg.faults.spike_prob = 0.1;
  cfg.faults.spike_factor = 3.5;
  cfg.ship_jitter = 0.2;
  cfg.chaos_strategy = "failsafe@2.5:queue-length";
  cfg.chaos_run_seconds = 12.5;
  cfg.faults.windows.push_back(
      {FaultKind::MsgFault, 2, 1.0, 2.0, 1.0, 0.0, 0.5, 0.4, 0.3, 6.0});

  std::ostringstream out;
  describe_config(out, cfg);
  std::istringstream in(out.str());
  const auto parsed = parse_config_file(in, SystemConfig{});
  ASSERT_TRUE(parsed.has_value());
  EXPECT_DOUBLE_EQ(parsed->faults.dup_prob, 0.25);
  EXPECT_DOUBLE_EQ(parsed->faults.dup_extra, 0.04);
  EXPECT_DOUBLE_EQ(parsed->faults.reorder_prob, 0.3);
  EXPECT_DOUBLE_EQ(parsed->faults.reorder_window, 0.45);
  EXPECT_DOUBLE_EQ(parsed->faults.spike_prob, 0.1);
  EXPECT_DOUBLE_EQ(parsed->faults.spike_factor, 3.5);
  EXPECT_DOUBLE_EQ(parsed->ship_jitter, 0.2);
  EXPECT_EQ(parsed->chaos_strategy, "failsafe@2.5:queue-length");
  EXPECT_DOUBLE_EQ(parsed->chaos_run_seconds, 12.5);
  ASSERT_EQ(parsed->faults.windows.size(), 1u);
  EXPECT_EQ(parsed->faults.windows[0].kind, FaultKind::MsgFault);
  EXPECT_DOUBLE_EQ(parsed->faults.windows[0].dup_prob, 0.5);
  EXPECT_DOUBLE_EQ(parsed->faults.windows[0].reorder_prob, 0.4);
  EXPECT_DOUBLE_EQ(parsed->faults.windows[0].spike_prob, 0.3);
  EXPECT_DOUBLE_EQ(parsed->faults.windows[0].spike_factor, 6.0);
}

TEST(ConfigIo, MessageChaosKeysRejectBadValues) {
  SystemConfig cfg;
  std::string error;
  EXPECT_FALSE(apply_config_override(cfg, "fault_dup_prob=1.0", &error));
  EXPECT_NE(error.find("fault_dup_prob"), std::string::npos);
  EXPECT_FALSE(apply_config_override(cfg, "fault_dup_delay=-0.1", &error));
  EXPECT_FALSE(apply_config_override(cfg, "fault_reorder_prob=-0.2", &error));
  EXPECT_FALSE(apply_config_override(cfg, "fault_reorder_window=-1", &error));
  EXPECT_FALSE(apply_config_override(cfg, "fault_spike_prob=2", &error));
  EXPECT_FALSE(apply_config_override(cfg, "fault_spike_factor=-3", &error));
  EXPECT_FALSE(apply_config_override(cfg, "ship_jitter=-0.5", &error));
  EXPECT_FALSE(apply_config_override(cfg, "chaos_run_seconds=-1", &error));
  // Failed overrides leave the config untouched.
  EXPECT_DOUBLE_EQ(cfg.faults.dup_prob, 0.0);
  EXPECT_DOUBLE_EQ(cfg.ship_jitter, 0.0);
}

TEST(ConfigIo, UnknownKeyErrorQuotesTheOffendingLine) {
  SystemConfig cfg;
  std::string error;
  EXPECT_FALSE(apply_config_override(cfg, "fault_dup_probe=0.3", &error));
  EXPECT_NE(error.find("'fault_dup_probe'"), std::string::npos);
  EXPECT_NE(error.find("'fault_dup_probe=0.3'"), std::string::npos);
}

TEST(ConfigIo, SeedRoundTripsFullSixtyFourBits) {
  // Chaos repros draw seeds from the whole 64-bit range; the parser must not
  // route them through a double (2^53 mantissa) on the way back in.
  SystemConfig cfg;
  cfg.seed = 5057277406479545829ULL;  // > 2^62, not representable in double
  std::ostringstream out;
  describe_config(out, cfg);
  std::istringstream in(out.str());
  const auto parsed = parse_config_file(in, SystemConfig{});
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->seed, 5057277406479545829ULL);

  std::string error;
  EXPECT_FALSE(apply_config_override(cfg, "seed=abc", &error));
  EXPECT_FALSE(apply_config_override(cfg, "seed=-3", &error));
  EXPECT_EQ(cfg.seed, 5057277406479545829ULL);
}

TEST(ConfigIo, LivelockBreakerKeysRoundTripAndValidate) {
  SystemConfig cfg;
  cfg.livelock_backoff_after = 7;
  cfg.livelock_backoff = 0.25;
  std::ostringstream out;
  describe_config(out, cfg);
  std::istringstream in(out.str());
  const auto parsed = parse_config_file(in, SystemConfig{});
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->livelock_backoff_after, 7);
  EXPECT_DOUBLE_EQ(parsed->livelock_backoff, 0.25);

  std::string error;
  EXPECT_FALSE(
      apply_config_override(cfg, "livelock_backoff_after=-1", &error));
  EXPECT_FALSE(apply_config_override(cfg, "livelock_backoff=-0.5", &error));
  EXPECT_EQ(cfg.livelock_backoff_after, 7);
  EXPECT_DOUBLE_EQ(cfg.livelock_backoff, 0.25);
}

// ---- docs/CONFIG.md against the descriptor table ---------------------------

/// The `| `key` | default | meaning |` rows of docs/CONFIG.md, key -> default
/// cell (trimmed).
std::map<std::string, std::string> documented_defaults() {
  std::ifstream in(std::string(HLS_REPO_ROOT) + "/docs/CONFIG.md");
  EXPECT_TRUE(in.good()) << "cannot read docs/CONFIG.md";
  std::map<std::string, std::string> rows;
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("| `", 0) != 0) {
      continue;
    }
    const auto key_end = line.find('`', 3);
    const auto cell_start = line.find('|', key_end) + 1;
    const auto cell_end = line.find('|', cell_start);
    std::string cell = line.substr(cell_start, cell_end - cell_start);
    cell.erase(0, cell.find_first_not_of(' '));
    cell.erase(cell.find_last_not_of(' ') + 1);
    const std::string key = line.substr(3, key_end - 3);
    EXPECT_TRUE(rows.emplace(key, cell).second) << key << " documented twice";
  }
  return rows;
}

TEST(ConfigDocs, DocumentedKeysAreTheTableKeys) {
  std::set<std::string> documented;
  for (const auto& [key, cell] : documented_defaults()) {
    documented.insert(key);
  }
  std::set<std::string> expected = {"fault"};  // the repeatable window list
  for (const ConfigKey& key : kConfigKeys) {
    expected.insert(key.name);
  }
  EXPECT_EQ(documented, expected);
}

TEST(ConfigDocs, DocumentedDefaultsAreTheDescribedDefaults) {
  std::ostringstream out;
  describe_config(out, SystemConfig{});
  std::istringstream in(out.str());
  std::map<std::string, std::string> described;
  std::string line;
  while (std::getline(in, line)) {
    const auto eq = line.find('=');
    if (line[0] != '#' && eq != std::string::npos) {
      described[line.substr(0, eq)] = line.substr(eq + 1);
    }
  }
  const std::map<std::string, std::string> documented = documented_defaults();
  for (const ConfigKey& key : kConfigKeys) {
    const auto it = documented.find(key.name);
    ASSERT_NE(it, documented.end()) << key.name;
    EXPECT_EQ(it->second, described.at(key.name)) << key.name;
  }
}

}  // namespace
}  // namespace hls
