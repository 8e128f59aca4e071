#include "core/config_io.hpp"

#include <cerrno>
#include <cmath>
#include <cstdlib>
#include <istream>
#include <limits>
#include <ostream>
#include <type_traits>
#include <variant>

#include "util/table.hpp"

namespace hls {

namespace {

bool fail(std::string* error, const std::string& message) {
  if (error != nullptr) {
    *error = message;
  }
  return false;
}

bool parse_double(const std::string& text, double* out) {
  char* end = nullptr;
  const double v = std::strtod(text.c_str(), &end);
  if (end != text.c_str() + text.size() || text.empty()) {
    return false;
  }
  *out = v;
  return true;
}

bool bad_number(const ConfigKey& key, const std::string& text,
                std::string* error) {
  return fail(error, "bad numeric value for " + std::string(key.name) + ": " +
                         text);
}

// One parse per member type; each assigns only on success.

/// Seeds are parsed as full 64-bit integers, not through the double path:
/// seeds above 2^53 (chaos repros use the whole range) must round-trip.
bool parse_value(const ConfigKey& key, const std::string& text,
                 std::uint64_t& out, std::string* error) {
  errno = 0;
  char* end = nullptr;
  const unsigned long long parsed = std::strtoull(text.c_str(), &end, 10);
  if (text.empty() || end != text.c_str() + text.size() || errno != 0 ||
      text[0] == '-') {
    return bad_number(key, text, error);
  }
  out = static_cast<std::uint64_t>(parsed);
  return true;
}

/// Any text; obs_span_sink's scheme is checked by the caller, and a path or
/// strategy spec is checked where it is opened or parsed.
bool parse_value(const ConfigKey&, const std::string& text, std::string& out,
                 std::string*) {
  out = text;
  return true;
}

/// Enums (one of the row's spellings) and the numeric kinds: doubles and
/// integers in the row's range, integers whole and within the member type
/// (`1e3` is accepted, `2.7` is not), flags any number (non-zero sets them).
template <class T>
bool parse_value(const ConfigKey& key, const std::string& text, T& out,
                 std::string* error) {
  if constexpr (std::is_enum_v<T>) {
    for (std::size_t i = 0; i < key.spellings.size(); ++i) {
      if (text == key.spellings[i]) {
        out = static_cast<T>(i);
        return true;
      }
    }
    return fail(error, key_range_error(key));
  } else {
    double v = 0.0;
    if (!parse_double(text, &v)) {
      return bad_number(key, text, error);
    }
    if constexpr (std::is_same_v<T, bool>) {
      out = v != 0.0;  // hlslint:allow(float-eq) 0/1 flag, exact by design
      return true;
    } else {
      bool ok = key_accepts(key, v);
      if constexpr (kIntegerKey<T>) {
        ok = ok && std::trunc(v) == v &&
             v <= static_cast<double>(std::numeric_limits<T>::max());
      }
      if (!ok) {
        return fail(error, key_range_error(key));
      }
      out = static_cast<T>(v);
      return true;
    }
  }
}

template <class T>
void write_value(std::ostream& out, const ConfigKey& key, const T& v) {
  if constexpr (std::is_enum_v<T>) {
    out << key.spellings[static_cast<std::size_t>(v)];
  } else if constexpr (std::is_same_v<T, bool>) {
    out << (v ? 1 : 0);
  } else if constexpr (std::is_same_v<T, double>) {
    out << format_round_trip(v);
  } else {
    out << v;
  }
}

}  // namespace

bool apply_config_override(SystemConfig& cfg, const std::string& assignment,
                           std::string* error) {
  const auto eq = assignment.find('=');
  if (eq == std::string::npos) {
    return fail(error, "expected key=value: " + assignment);
  }
  const std::string key = assignment.substr(0, eq);
  const std::string value = assignment.substr(eq + 1);

  if (key == "fault") {
    if (value == "clear") {
      cfg.faults.windows.clear();
      return true;
    }
    FaultWindow window;
    std::string window_error;
    if (!parse_fault_window(value, &window, &window_error)) {
      return fail(error, "fault: " + window_error);
    }
    cfg.faults.windows.push_back(window);
    return true;
  }
  if (key == "obs_span_sink" && !span_sink_spec_ok(value)) {
    return fail(error, kSpanSinkSpecError);
  }
  for (const ConfigKey& row : kConfigKeys) {
    if (key == row.name) {
      return std::visit(
          [&](auto field) {
            return parse_value(row, value, config_member(cfg, field), error);
          },
          row.field);
    }
  }
  // Quote the whole assignment, not just the key: in a config file the line
  // number plus the offending text pinpoints the typo immediately.
  return fail(error, "unknown config key '" + key + "' in '" + assignment + "'");
}

std::optional<SystemConfig> parse_config_file(std::istream& in,
                                              const SystemConfig& base,
                                              std::string* error) {
  SystemConfig cfg = base;
  std::string line;
  std::size_t line_no = 0;
  while (std::getline(in, line)) {
    ++line_no;
    const auto first = line.find_first_not_of(" \t");
    if (first == std::string::npos || line[first] == '#') {
      continue;
    }
    const auto last = line.find_last_not_of(" \t\r");
    if (!apply_config_override(cfg, line.substr(first, last - first + 1),
                               error)) {
      if (error != nullptr) {
        *error = "line " + std::to_string(line_no) + ": " + *error;
      }
      return std::nullopt;
    }
  }
  // Cross-field rules (fault-window sites against num_sites, lockspace
  // against num_sites) can only be checked once the whole file is read.
  if (!cfg.check(error)) {
    return std::nullopt;
  }
  return cfg;
}

void describe_config(std::ostream& out, const SystemConfig& cfg) {
  out << "# hybridls system configuration\n";
  for (const ConfigKey& key : kConfigKeys) {
    out << key.name << '=';
    std::visit([&](auto field) { write_value(out, key, config_member(cfg, field)); },
               key.field);
    out << '\n';
  }
  for (const FaultWindow& window : cfg.faults.windows) {
    out << "fault=" << format_fault_window(window) << '\n';
  }
}

}  // namespace hls
