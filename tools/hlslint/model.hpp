// Semantic repo model: the cross-artifact facts the contract rules check,
// assembled in one pass over the scanned files.
//
// Each section is extracted structurally via the AST-lite layer
// (tools/hlslint/ast.hpp) and records where every fact came from, so a
// rule can anchor its finding on the declaration that needs fixing:
//
//   * SiteMetrics / Metrics counter fields and the bodies of every
//     check_invariants() overload (the double-entry ledger);
//   * Rng::fork(...) call sites with their label literals;
//   * obs::Registry registration sites with (name, unit);
//   * "csv,"-prefixed format literals and literal-header Table builds in
//     bench files;
//   * the include-graph edge count, for the parser smoke test.
//
// A section is only meaningful when its anchor artifacts exist in the
// scanned tree (fixture trees model a subset); each rule checks the
// corresponding `has_*` gate before firing.
#pragma once

#include <set>
#include <string>
#include <vector>

#include "hlslint/lint.hpp"

namespace hlslint {

/// Where a modeled fact was extracted from.
struct ModelSite {
  std::string file;
  int line = 0;
};

struct CounterFieldModel {
  std::string name;
  ModelSite site;
};

struct ForkSiteModel {
  std::string label;  // empty when the call passes no string literal
  bool labeled = false;
  ModelSite site;
};

struct RegistrationModel {
  std::string name;
  std::string unit;
  ModelSite site;
};

struct CsvLiteralModel {
  std::string text;  // full literal, starting "csv,"
  ModelSite site;
};

/// A Table built from a brace list of string-literal headers, together with
/// the add_cell/add_num/add_int count of every single-statement
/// `name.begin_row()....;` chain on that variable in the same function.
struct TableBuildModel {
  std::string variable;
  int header_count = 0;
  ModelSite site;
  struct RowChain {
    int cells = 0;
    ModelSite site;
  };
  std::vector<RowChain> rows;
};

struct RepoModel {
  // ---- counter double entry ----
  bool has_metrics_pair = false;    // both SiteMetrics and Metrics found
  bool has_invariants = false;      // at least one check_invariants body
  std::vector<CounterFieldModel> site_counters;  // counter-typed SiteMetrics
  std::set<std::string> global_counters;         // counter-typed Metrics
  std::string invariants_text;      // concatenated check_invariants bodies

  // ---- RNG stream labels ----
  std::vector<ForkSiteModel> forks;

  // ---- registry instruments ----
  std::vector<RegistrationModel> registrations;

  // ---- bench CSV schemas ----
  std::vector<CsvLiteralModel> csv_literals;
  std::vector<TableBuildModel> table_builds;

  // ---- include graph (parser smoke) ----
  int include_edges = 0;
};

/// Assembles the model from the scanned files.
RepoModel build_model(const std::vector<SourceFile>& files);

/// Cross-artifact contract rules over the model (counter-double-entry,
/// fork-label-unique, registry-unit,
/// bench-csv-schema, bench-time-scale). `files` supplies the per-file
/// context the bench rules need.
void check_model_rules(const RepoModel& model,
                       const std::vector<SourceFile>& files,
                       std::vector<Finding>& out);

}  // namespace hlslint
