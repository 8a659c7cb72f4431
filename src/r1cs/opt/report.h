// Pass (d): per-gadget constraint/density/wire report.
//
// Aggregates scope-annotated synthesis (GadgetScope / BeginScope) by scope
// name: how many instances of each gadget a circuit contains, how many
// constraints and aux wires they emit, and how dense their linear
// combinations are. When an OptimizeResult is supplied the report also
// attributes post-optimization constraint and wire counts back to the
// original gadget instances, which is what the bench JSON emits as
// r1cs.<gadget>.constraints_{pre,post}.
#ifndef SRC_R1CS_OPT_REPORT_H_
#define SRC_R1CS_OPT_REPORT_H_

#include <string>
#include <vector>

#include "src/r1cs/constraint_system.h"
#include "src/r1cs/opt/optimizer.h"

namespace nope {

struct GadgetDensityRow {
  std::string name;              // scope name ("(unscoped)" for the remainder)
  size_t instances = 0;          // scope spans carrying this name
  size_t constraints_pre = 0;    // innermost attribution, before optimization
  size_t constraints_post = 0;   // after optimization (0 when no result given)
  size_t aux_wires_pre = 0;      // variables allocated inside the spans
  size_t aux_wires_post = 0;     // of those, surviving optimization
  size_t lc_terms_pre = 0;       // total terms across a/b/c, pre-optimization

  double AvgLcTerms() const {
    return constraints_pre == 0 ? 0.0
                                : static_cast<double>(lc_terms_pre) /
                                      static_cast<double>(constraints_pre);
  }
};

struct DensityReport {
  std::vector<GadgetDensityRow> rows;  // sorted by name
  size_t total_constraints_pre = 0;
  size_t total_constraints_post = 0;
  size_t total_vars_pre = 0;
  size_t total_vars_post = 0;
};

// `opt`, when non-null, must be the result of optimizing exactly `cs`. A
// kCount-mode `cs` or a mismatched `opt` is a programming error and aborts.
DensityReport BuildDensityReport(const ConstraintSystem& cs, const OptimizeResult* opt = nullptr);

// Human-readable table for logs and debugging.
std::string DensityReportTable(const DensityReport& report);

}  // namespace nope

#endif  // SRC_R1CS_OPT_REPORT_H_
