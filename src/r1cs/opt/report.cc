#include "src/r1cs/opt/report.h"

#include <cstdio>
#include <map>

#include "src/base/check.h"

namespace nope {
namespace {

constexpr const char* kUnscoped = "(unscoped)";

// Name owning a given innermost-scope index (kNoScope -> "(unscoped)").
const std::string& ScopeName(const std::vector<ScopeSpan>& spans, uint32_t scope) {
  static const std::string unscoped = kUnscoped;
  return scope == OptimizeResult::kNoScope ? unscoped : spans[scope].name;
}

}  // namespace

DensityReport BuildDensityReport(const ConstraintSystem& cs, const OptimizeResult* opt) {
  NOPE_INVARIANT(cs.mode() == ConstraintSystem::Mode::kProve,
                 "BuildDensityReport requires a kProve-mode system");
  // Checked before the variable loop below indexes opt->var_map.
  NOPE_INVARIANT(opt == nullptr || (opt->var_map.size() == cs.NumVariables() &&
                                    opt->stats.constraints_before == cs.NumConstraints()),
                 "BuildDensityReport: OptimizeResult is not for this system");
  const std::vector<ScopeSpan>& spans = cs.scopes();
  std::vector<uint32_t> con_scope = InnermostConstraintScopes(cs);
  std::vector<uint32_t> var_scope = InnermostVarScopes(cs);

  std::map<std::string, GadgetDensityRow> rows;
  for (const ScopeSpan& span : spans) {
    if (!span.name.empty() && span.name[0] == '~') {
      continue;  // shared primitive; attributed to the enclosing gadget
    }
    GadgetDensityRow& row = rows[span.name];
    row.name = span.name;
    ++row.instances;
  }

  const std::vector<Constraint>& cons = cs.constraints();
  for (size_t i = 0; i < cons.size(); ++i) {
    GadgetDensityRow& row = rows[ScopeName(spans, con_scope[i])];
    if (row.name.empty()) {
      row.name = kUnscoped;
    }
    ++row.constraints_pre;
    row.lc_terms_pre +=
        cons[i].a.terms().size() + cons[i].b.terms().size() + cons[i].c.terms().size();
  }
  for (size_t v = 1; v < cs.NumVariables(); ++v) {
    GadgetDensityRow& row = rows[ScopeName(spans, var_scope[v])];
    if (row.name.empty()) {
      row.name = kUnscoped;
    }
    ++row.aux_wires_pre;
    if (opt != nullptr && opt->var_map[v] != OptimizeResult::kEliminatedVar) {
      ++row.aux_wires_post;
    }
  }
  if (opt != nullptr) {
    for (uint32_t scope : opt->constraint_scope) {
      GadgetDensityRow& row = rows[ScopeName(spans, scope)];
      if (row.name.empty()) {
        row.name = kUnscoped;
      }
      ++row.constraints_post;
    }
  }

  DensityReport report;
  report.total_constraints_pre = cs.NumConstraints();
  report.total_vars_pre = cs.NumVariables();
  if (opt != nullptr) {
    report.total_constraints_post = opt->stats.constraints_after;
    report.total_vars_post = opt->stats.vars_after;
  }
  for (auto& [name, row] : rows) {
    report.rows.push_back(row);
  }
  return report;
}

std::string DensityReportTable(const DensityReport& report) {
  std::string out;
  char line[256];
  std::snprintf(line, sizeof(line), "%-28s %6s %10s %10s %9s %8s\n", "gadget", "inst",
                "cons_pre", "cons_post", "wires", "avg_lc");
  out += line;
  for (const GadgetDensityRow& row : report.rows) {
    std::snprintf(line, sizeof(line), "%-28s %6zu %10zu %10zu %9zu %8.2f\n", row.name.c_str(),
                  row.instances, row.constraints_pre, row.constraints_post, row.aux_wires_pre,
                  row.AvgLcTerms());
    out += line;
  }
  std::snprintf(line, sizeof(line), "%-28s %6s %10zu %10zu %9zu\n", "total", "",
                report.total_constraints_pre, report.total_constraints_post,
                report.total_vars_pre);
  out += line;
  return out;
}

}  // namespace nope
