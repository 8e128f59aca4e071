// SystemConfig serialization helpers: key=value overrides (CLI flags,
// config files) and a human-readable description. Keeps experiment scripts
// and the strategy_explorer example free of hand-rolled parsing.
//
// The keys are the rows of kConfigKeys (hybrid/config.hpp), plus the
// repeatable `fault=<window>` entry (appends; "fault=clear" resets; see
// sim/fault_schedule.hpp parse_fault_window for the window grammar).
// local_mips_per_site is programmatic-only: set it in code.
#pragma once

#include <iosfwd>
#include <optional>
#include <string>
#include <vector>

#include "hybrid/config.hpp"

namespace hls {

/// Applies one `key=value` override. Returns false (and fills `error` when
/// non-null) for unknown keys, unparseable values and values outside the
/// key's range; the config is only modified on success.
bool apply_config_override(SystemConfig& cfg, const std::string& assignment,
                           std::string* error = nullptr);

/// Parses a config file: one `key=value` per line, '#' comments and blank
/// lines ignored. Returns std::nullopt on the first bad line, or when the
/// whole config fails SystemConfig::check.
[[nodiscard]] std::optional<SystemConfig> parse_config_file(
    std::istream& in, const SystemConfig& base, std::string* error = nullptr);

/// One line per kConfigKeys row, in row order, then one per fault window
/// (valid input to parse_config_file).
void describe_config(std::ostream& out, const SystemConfig& cfg);

}  // namespace hls
