// R1CS optimizer bench: per-gadget density rows for the full NOPE statement
// (one JSON record per gadget and metric), total constraint counts before and
// after optimization for the baseline and Full() gadget designs, and the
// proving-time effect of the smaller system.
//
// Record shape follows run_benches.sh:
//   {"bench": "r1cs_opt", "metric": "r1cs.<gadget>.constraints_pre", ...}
#include <chrono>
#include <cstdio>

#include "src/core/statement.h"
#include "src/groth16/groth16.h"
#include "src/r1cs/opt/optimizer.h"
#include "src/r1cs/opt/report.h"

using namespace nope;

namespace {

void EmitJson(const std::string& metric, double value) {
  std::printf("{\"bench\": \"r1cs_opt\", \"metric\": \"%s\", \"value\": %.4f}\n", metric.c_str(),
              value);
}

double MsSince(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() - t0).count();
}

void BuildStatement(ConstraintSystem* cs, const StatementOptions& options,
                    DnssecHierarchy* dns, const DnsName& domain) {
  StatementParams params;
  params.suite = &CryptoSuite::Toy();
  params.num_levels = 1;
  params.max_name_len = 32;
  params.options = options;
  StatementWitness w;
  w.chain = dns->BuildChain(domain);
  w.leaf_ksk_private_key = dns->Find(domain)->ksk().ec_priv;
  w.tls_key_digest = Bytes(32, 0xaa);
  w.ca_name_digest = Bytes(32, 0xbb);
  w.truncated_ts = 2916666;
  BuildNopeStatement(cs, params, w);
}

}  // namespace

int main() {
  DnssecHierarchy dns{CryptoSuite::Toy(), 4001};
  DnsName domain = DnsName::FromString("example.com");
  dns.AddZone(DnsName::FromString("com"));
  dns.AddZone(domain);

  // Full() design: per-gadget density report plus proving-time comparison.
  ConstraintSystem cs;
  BuildStatement(&cs, StatementOptions::Full(), &dns, domain);
  OptimizeResult opt = Optimize(cs);
  DensityReport report = BuildDensityReport(cs, &opt);

  std::printf("%s\n", DensityReportTable(report).c_str());
  for (const GadgetDensityRow& row : report.rows) {
    std::string prefix = "r1cs." + row.name + ".";
    EmitJson(prefix + "instances", static_cast<double>(row.instances));
    EmitJson(prefix + "constraints_pre", static_cast<double>(row.constraints_pre));
    EmitJson(prefix + "constraints_post", static_cast<double>(row.constraints_post));
    EmitJson(prefix + "aux_wires_pre", static_cast<double>(row.aux_wires_pre));
    EmitJson(prefix + "aux_wires_post", static_cast<double>(row.aux_wires_post));
    EmitJson(prefix + "avg_lc_terms", row.AvgLcTerms());
  }

  EmitJson("r1cs.total.constraints_pre", static_cast<double>(report.total_constraints_pre));
  EmitJson("r1cs.total.constraints_post", static_cast<double>(report.total_constraints_post));
  EmitJson("r1cs.total.reduction_pct",
           100.0 * (1.0 - static_cast<double>(report.total_constraints_post) /
                              static_cast<double>(report.total_constraints_pre)));
  const OptStats& st = opt.stats;
  EmitJson("r1cs.opt.unified_spans", static_cast<double>(st.unified_spans));
  EmitJson("r1cs.opt.unified_vars", static_cast<double>(st.unified_vars));
  EmitJson("r1cs.opt.affine_rewrites", static_cast<double>(st.affine_rewrites));
  EmitJson("r1cs.opt.substituted_vars", static_cast<double>(st.substituted_vars));
  EmitJson("r1cs.opt.projected_products", static_cast<double>(st.projected_products));

  // Baseline design: the config the >= 10% acceptance bar is measured on.
  {
    ConstraintSystem base_cs;
    BuildStatement(&base_cs, StatementOptions::Baseline(), &dns, domain);
    OptimizeResult base_opt = Optimize(base_cs);
    EmitJson("r1cs.baseline.constraints_pre", static_cast<double>(base_cs.NumConstraints()));
    EmitJson("r1cs.baseline.constraints_post",
             static_cast<double>(base_opt.cs.NumConstraints()));
    EmitJson("r1cs.baseline.reduction_pct",
             100.0 * (1.0 - static_cast<double>(base_opt.cs.NumConstraints()) /
                                static_cast<double>(base_cs.NumConstraints())));
  }

  // Proving time, unoptimized vs optimized (one proof each; the Toy suite
  // statement is large enough that the delta dwarfs run-to-run noise).
  {
    Rng rng(7);
    auto t0 = std::chrono::steady_clock::now();
    groth16::ProvingKey pk_raw = groth16::Setup(cs, &rng);
    EmitJson("r1cs.setup_ms_unoptimized", MsSince(t0));
    t0 = std::chrono::steady_clock::now();
    groth16::Proof proof_raw = groth16::Prove(pk_raw, cs, &rng);
    (void)proof_raw;
    EmitJson("r1cs.prove_ms_unoptimized", MsSince(t0));

    t0 = std::chrono::steady_clock::now();
    groth16::ProvingKey pk_opt = groth16::Setup(opt.cs, &rng);
    EmitJson("r1cs.setup_ms_optimized", MsSince(t0));
    t0 = std::chrono::steady_clock::now();
    groth16::Proof proof_opt = groth16::Prove(pk_opt, opt.cs, &rng);
    (void)proof_opt;
    EmitJson("r1cs.prove_ms_optimized", MsSince(t0));
  }
  return 0;
}
