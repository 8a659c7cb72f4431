// Workload program of the NOPE benchmark. perfbench/run.py builds and runs it;
// it runs one workload in one process, closed loop, with a single client or
// issuer thread, and prints one JSON object of raw measurements as its last
// line of output.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//
// Workloads (perfbench/NOTES.md says why each exists):
//   handshake_nope       NopeClientVerify over a pool of distinct valid NOPE
//                        chains (two domains, RandomizeProof re-issues).
//   handshake_downgrade  NopeClientVerify over chains without a usable proof:
//                        a synthetic mix, mostly legacy, plus a fixed share
//                        with corrupted n0pe. SANs, an off-curve A or an
//                        out-of-subgroup B.
//   issuance             IssueCertificate(with_nope=true), one at a time,
//                        rotating over same-shape domains with fresh TLS keys.
//
// Every input is built from --seed together with the verdict it must get;
// an operation whose output differs counts as failed.
//
// --trace 1 replaces the end-to-end loop by the traced run: for each
// operation it interleaves the whole public call with the same operation
// replayed layer by layer through the public functions beneath it, timing
// each call from here (spans), then times the pairing and field kernels on
// the workload's own operands. Layers the workload's own operation never
// calls are measured on a side fixture so every layer metric is present.
#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "src/base/cancellation.h"
#include "src/base/threadpool.h"
#include "src/core/nope.h"
#include "src/ff/fp_simd.h"
#include "src/r1cs/opt/optimizer.h"

#include "ref_chunk/ref_chunk.h"

namespace nope {
namespace {

using SteadyClock = std::chrono::steady_clock;

constexpr uint64_t kNow = 1750000000;  // simulated issuance time
constexpr uint64_t kVerifyAt = kNow + 60;
constexpr const char* kCaName = "lets-encrypt-sim";

[[noreturn]] void Die(const std::string& what) {
  fprintf(stderr, "perfbench: %s\n", what.c_str());
  exit(2);
}

double MsSince(SteadyClock::time_point t0) {
  return std::chrono::duration<double, std::milli>(SteadyClock::now() - t0).count();
}

double Median(std::vector<double> v) {
  if (v.empty()) {
    return 0;
  }
  std::sort(v.begin(), v.end());
  size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

// --- JSON output ---------------------------------------------------------------

std::string JsonNumber(double v) {
  char buf[64];
  snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string JsonArray(const std::vector<double>& v) {
  std::string out = "[";
  for (size_t i = 0; i < v.size(); ++i) {
    out += (i ? "," : "") + JsonNumber(v[i]);
  }
  return out + "]";
}

std::string JsonStrings(const std::vector<std::string>& v) {
  std::string out = "[";
  for (size_t i = 0; i < v.size(); ++i) {
    out += (i ? "," : "") + JsonString(v[i]);
  }
  return out + "]";
}

// An ordered JSON object built from already-encoded values.
class JsonObject {
 public:
  JsonObject& Raw(const std::string& key, const std::string& encoded) {
    fields_.emplace_back(key, encoded);
    return *this;
  }
  JsonObject& Num(const std::string& key, double v) { return Raw(key, JsonNumber(v)); }
  JsonObject& Str(const std::string& key, const std::string& v) {
    return Raw(key, JsonString(v));
  }
  std::string Encode() const {
    std::string out = "{";
    for (size_t i = 0; i < fields_.size(); ++i) {
      out += (i ? ", " : "") + JsonString(fields_[i].first) + ": " + fields_[i].second;
    }
    return out + "}";
  }

 private:
  std::vector<std::pair<std::string, std::string>> fields_;
};

// --- Spans ---------------------------------------------------------------------

// Spans recorded around the calls this program makes into each layer, kept in
// memory. Spans of one replayed operation share
// `op` (-1 for setup, side-fixture and kernel spans); `parent` is the index
// of the enclosing span (-1 at top level).
struct Span {
  std::string name;
  int parent;
  int op;
  double start_ms;
  double end_ms;
  double duration_ms() const { return end_ms - start_ms; }
};

class Tracer {
 public:
  Tracer(bool enabled, SteadyClock::time_point origin) : enabled_(enabled), origin_(origin) {}

  void set_op(int op) { op_ = op; }

  int Begin(const std::string& name) {
    if (!enabled_) {
      return -1;
    }
    int parent = stack_.empty() ? -1 : stack_.back();
    spans_.push_back({name, parent, op_, NowMs(), 0});
    stack_.push_back(static_cast<int>(spans_.size()) - 1);
    return stack_.back();
  }
  void End(int id) {
    if (!enabled_) {
      return;
    }
    spans_[id].end_ms = NowMs();
    stack_.pop_back();
  }
  // A completed child of the innermost open span (prove stages, which the
  // prover reports through its stage hooks).
  void AddChild(const std::string& name, double start_ms, double end_ms) {
    if (enabled_) {
      spans_.push_back({name, stack_.empty() ? -1 : stack_.back(), op_, start_ms, end_ms});
    }
  }
  double NowMs() const { return MsSince(origin_); }

  // Runs f inside a span named `name` and returns its result.
  template <typename F>
  auto Time(const std::string& name, F&& f) {
    int id = Begin(name);
    auto result = f();
    End(id);
    return result;
  }

  const std::vector<Span>& spans() const { return spans_; }

 private:
  bool enabled_;
  SteadyClock::time_point origin_;
  int op_ = -1;
  std::vector<Span> spans_;
  std::vector<int> stack_;
};

// Results that timed loops fold in here stay live, so the loops are not
// optimized away.
std::atomic<uint64_t> g_sink{0};

// --- The simulated web -----------------------------------------------------------

// A DNSSEC hierarchy of same-shape one-level domains (so one deployment
// proves for all of them), a CA with two CT logs, and the client trust store.
struct World {
  World(uint64_t seed, size_t num_domains)
      : rng(seed),
        log1(1, &rng),
        log2(2, &rng),
        ca(kCaName, {&log1, &log2}, &rng),
        dns(CryptoSuite::Toy(), seed ^ 0x5eed5eed5eedULL),
        trust{ca.root_public_key(), 2} {
    dns.AddZone(DnsName::FromString("org"));
    static constexpr char kLetters[] = "abcdefghijklmnopqrstuvwxyz";
    while (domains.size() < num_domains) {
      std::string label = "s";
      for (int i = 0; i < 7; ++i) {
        label += kLetters[rng.NextBelow(26)];
      }
      DnsName name = DnsName::FromString(label + ".org");
      if (dns.Find(name) == nullptr) {
        dns.AddZone(name);
        domains.push_back(name);
      }
    }
  }

  Rng rng;
  CtLog log1;
  CtLog log2;
  CertificateAuthority ca;
  DnssecHierarchy dns;
  TrustStore trust;
  std::vector<DnsName> domains;
};

// ACME DNS-01 issuance of a certificate carrying `sans` (Fig. 2 steps 3-7).
std::optional<CertificateChain> IssueWithSans(World* w, const DnsName& domain,
                                              const Bytes& tls_key,
                                              std::vector<std::string> sans) {
  CertificateSigningRequest csr;
  csr.subject = domain;
  csr.sans = std::move(sans);
  csr.public_key = tls_key;
  AcmeOrder order = w->ca.NewOrder(csr);
  w->dns.SetTxt(domain.Child("_acme-challenge"), order.challenge_token);
  std::optional<Certificate> cert = w->ca.FinalizeOrder(
      order, csr, [w](const DnsName& name) { return w->dns.QueryTxt(name); }, kNow);
  if (!cert.has_value()) {
    return std::nullopt;
  }
  return CertificateChain{*cert, w->ca.intermediate()};
}

// The client's view of a deployment whose proofs it never gets to check: the
// statement shape and trust anchor, without keys. NopeClientVerify reads the
// verifying key only after a proof has parsed.
NopeDeployment ClientOnlyDeployment(World* w) {
  NopeDeployment deployment;
  deployment.params.suite = &CryptoSuite::Toy();
  deployment.params.num_levels = 1;
  deployment.params.max_name_len = 32;
  deployment.params.options = StatementOptions::Full();
  deployment.root_zsk = w->dns.root().ZskRdata();
  return deployment;
}

// --- Handshake inputs and their expected verdicts ----------------------------------

struct Expected {
  NopeVerifyStatus status;
  bool accepted;
  bool nope_validated;
  DowngradeReason downgrade_kind;
};

constexpr Expected kExpectValid{NopeVerifyStatus::kOk, true, true, DowngradeReason::kNone};
constexpr Expected kExpectNoProof{NopeVerifyStatus::kNoNopeProof, true, false,
                                  DowngradeReason::kNoProof};
constexpr Expected kExpectBadProof{NopeVerifyStatus::kBadProofEncoding, true, false,
                                   DowngradeReason::kBadProofEncoding};

bool Matches(const NopeClientResult& r, const Expected& e) {
  return r.status == e.status && r.accepted == e.accepted &&
         r.nope_validated == e.nope_validated && r.downgrade_kind == e.downgrade_kind;
}

struct Handshake {
  CertificateChain chain;
  DnsName domain;
  Expected expected;
  std::string kind;  // the kind of chain, for the per-kind times in the detail line
};

std::optional<groth16::Proof> ProofOf(const CertificateChain& chain, const DnsName& domain) {
  Result<Bytes> bytes = DecodeProofFromSans(chain.leaf.body.sans, domain);
  if (!bytes.ok() || bytes.value().size() != kSanProofBytes) {
    return std::nullopt;
  }
  Result<groth16::Proof> proof = groth16::Proof::TryFromBytes(bytes.value());
  if (!proof.ok()) {
    return std::nullopt;
  }
  return proof.value();
}

G1 RandomG1(Rng* rng) { return G1Generator().ScalarMul(BigUInt::RandomBelow(rng, Bn254Order())); }
G2 RandomG2(Rng* rng) { return G2Generator().ScalarMul(BigUInt::RandomBelow(rng, Bn254Order())); }

// 128 proof bytes with valid A, B and C except that A (want == kNotOnCurve)
// or B (want == kNotInSubgroup) is replaced by sampled coordinates until the
// strict decoder rejects the proof for exactly that reason.
Bytes CraftBrokenProof(Rng* rng, ErrorCode want) {
  Bytes bytes = groth16::Proof{RandomG1(rng), RandomG2(rng), RandomG1(rng)}.ToBytes();
  size_t begin = want == ErrorCode::kNotOnCurve ? 0 : 32;
  size_t end = want == ErrorCode::kNotOnCurve ? 32 : 96;
  for (int attempt = 0; attempt < 10000; ++attempt) {
    for (size_t i = begin; i < end; ++i) {
      bytes[i] = static_cast<uint8_t>(rng->NextBelow(256));
    }
    for (size_t i = begin; i < end; i += 32) {
      bytes[i] &= 0x1f;  // below p, no flags
    }
    Result<groth16::Proof> parsed = groth16::Proof::TryFromBytes(bytes);
    if (!parsed.ok() && parsed.error().code == want) {
      return bytes;
    }
  }
  Die("could not craft a broken proof");
}

// A synthetic mix of legacy chains and chains whose proof is unusable, per
// domain: 6 legacy, 1 corrupted SAN, 1 off-curve A, 1 out-of-subgroup B. The
// share is not a traffic measurement (today's web serves legacy chains
// only); it gives each broken kind about 400 handshakes in a 10 s run.
std::vector<Handshake> BuildDowngradePool(World* w) {
  std::vector<Handshake> pool;
  for (const DnsName& domain : w->domains) {
    for (int i = 0; i < 6; ++i) {
      Bytes key = GenerateEcdsaKey(&w->rng).pub.Encode();
      auto issued = IssueCertificate(nullptr, &w->dns, &w->ca, domain, key, kNow, &w->rng,
                                     /*with_nope=*/false);
      if (!issued) {
        Die("legacy issuance failed");
      }
      pool.push_back({issued->chain, domain, kExpectNoProof, "legacy"});
    }
    std::vector<std::pair<std::vector<std::string>, std::string>> broken;
    std::vector<std::string> corrupted =
        EncodeProofSans(groth16::Proof{RandomG1(&w->rng), RandomG2(&w->rng), RandomG1(&w->rng)}
                            .ToBytes(),
                        domain);
    char& c = corrupted[0][corrupted[0].size() / 2];
    c = c == 'a' ? 'b' : 'a';
    if (DecodeProofFromSans(corrupted, domain).ok()) {
      Die("SAN corruption went undetected");
    }
    broken.push_back({corrupted, "corrupted_san"});
    broken.push_back(
        {EncodeProofSans(CraftBrokenProof(&w->rng, ErrorCode::kNotOnCurve), domain),
         "off_curve_a"});
    broken.push_back(
        {EncodeProofSans(CraftBrokenProof(&w->rng, ErrorCode::kNotInSubgroup), domain),
         "out_of_subgroup_b"});
    for (auto& [sans, kind] : broken) {
      Bytes key = GenerateEcdsaKey(&w->rng).pub.Encode();
      auto chain = IssueWithSans(w, domain, key, std::move(sans));
      if (!chain) {
        Die("issuance of a broken-proof chain failed");
      }
      pool.push_back({*chain, domain, kExpectBadProof, kind});
    }
  }
  return pool;
}

// Two domains with a real proof each, plus RandomizeProof re-issues, so every
// handshake in a cycle verifies distinct proof points.
std::vector<Handshake> BuildNopePool(World* w, const NopeDeployment& deployment) {
  constexpr int kDomains = 2;
  constexpr int kVariants = 15;
  std::vector<Handshake> pool;
  for (int d = 0; d < kDomains; ++d) {
    const DnsName& domain = w->domains[d];
    Bytes key = GenerateEcdsaKey(&w->rng).pub.Encode();
    auto issued = IssueCertificate(&deployment, &w->dns, &w->ca, domain, key, kNow, &w->rng,
                                   /*with_nope=*/true);
    std::optional<groth16::Proof> proof =
        issued ? ProofOf(issued->chain, domain) : std::nullopt;
    if (!proof) {
      Die("NOPE issuance failed");
    }
    pool.push_back({issued->chain, domain, kExpectValid, "valid"});
    for (int v = 0; v < kVariants; ++v) {
      groth16::Proof variant = groth16::RandomizeProof(deployment.vk(), *proof, &w->rng);
      auto chain = IssueWithSans(w, domain, key, EncodeProofSans(variant.ToBytes(), domain));
      if (!chain) {
        Die("re-issuance of a randomized proof failed");
      }
      pool.push_back({*chain, domain, kExpectValid, "valid_randomized"});
    }
  }
  return pool;
}

// A seed-determined order over the pool in which every chain occurs once per
// cycle.
std::vector<size_t> Shuffled(size_t n, Rng* rng) {
  std::vector<size_t> order(n);
  for (size_t i = 0; i < n; ++i) {
    order[i] = i;
  }
  for (size_t i = n; i > 1; --i) {
    std::swap(order[i - 1], order[rng->NextBelow(i)]);
  }
  return order;
}

// --- Layer-by-layer replays -------------------------------------------------------

// NopeClientVerify (null prepared-VK cache) replayed step by step through the
// public functions it calls; returns the same verdict.
NopeClientResult ReplayVerify(Tracer* tr, const NopeDeployment& deployment,
                              const CertificateChain& chain, const TrustStore& trust,
                              const DnsName& domain) {
  NopeClientResult r;
  r.legacy = tr->Time("tls.legacy_verify", [&] {
    return LegacyVerifyChain(chain, trust, domain, kVerifyAt, nullptr);
  });
  if (r.legacy != LegacyStatus::kOk) {
    r.status = NopeVerifyStatus::kLegacyFailure;
    return r;
  }
  Result<Bytes> bytes = tr->Time("pki.san_decode", [&] {
    return DecodeProofFromSans(chain.leaf.body.sans, domain);
  });
  if (!bytes.ok()) {
    bool missing = bytes.error().code == ErrorCode::kMissing;
    r.status = missing ? NopeVerifyStatus::kNoNopeProof : NopeVerifyStatus::kBadProofEncoding;
    r.downgrade_kind = missing ? DowngradeReason::kNoProof : DowngradeReason::kBadProofEncoding;
    r.accepted = true;
    return r;
  }
  Result<groth16::Proof> proof = tr->Time("groth16.proof_parse", [&] {
    return groth16::Proof::TryFromBytes(bytes.value());
  });
  if (!proof.ok()) {
    r.status = NopeVerifyStatus::kBadProofEncoding;
    r.downgrade_kind = DowngradeReason::kBadProofEncoding;
    r.accepted = true;
    return r;
  }
  for (const Sct& sct : chain.leaf.body.scts) {
    uint64_t lo = std::min(sct.timestamp, chain.leaf.body.not_before);
    uint64_t hi = std::max(sct.timestamp, chain.leaf.body.not_before);
    if (hi - lo > 600) {
      r.status = NopeVerifyStatus::kTimestampMismatch;
      return r;
    }
  }
  std::vector<Fr> pub = tr->Time("core.public_inputs", [&] {
    return NopePublicInputs(deployment.params, domain,
                            TlsKeyDigest(chain.leaf.body.subject_public_key),
                            CaNameDigest(chain.leaf.body.issuer_organization),
                            TruncateTimestamp(chain.leaf.body.not_before));
  });
  bool ok = tr->Time("groth16.verify",
                     [&] { return groth16::Verify(deployment.vk(), pub, proof.value()); });
  r.status = ok ? NopeVerifyStatus::kOk : NopeVerifyStatus::kProofRejected;
  r.accepted = ok;
  r.nope_validated = ok;
  return r;
}

struct Counts {
  size_t constraints_pre = 0;
  size_t constraints_post = 0;
};

// IssueCertificate(with_nope=true) replayed step by step: witness, synthesis,
// optimizer, prover (with its stage hooks as child spans), then SAN encoding
// and the ACME order.
std::optional<CertificateChain> ReplayIssue(Tracer* tr, const NopeDeployment& deployment,
                                            World* w, const DnsName& domain,
                                            const Bytes& tls_key, Counts* counts) {
  StatementWitness witness = tr->Time("dns.build_witness", [&] {
    return BuildWitness(&w->dns, domain, tls_key, w->ca.organization(), kNow);
  });
  ConstraintSystem cs;
  tr->Time("r1cs.synthesize", [&] { return BuildNopeStatement(&cs, deployment.params, witness); });
  OptimizeResult optimized = tr->Time("r1cs.opt.optimize", [&] { return Optimize(cs); });
  counts->constraints_pre = cs.NumConstraints();
  counts->constraints_post = optimized.cs.NumConstraints();

  double stage_start = 0;
  groth16::ProveStageHooks hooks;
  hooks.on_stage = [&](const char* stage, uint64_t) {
    double now = tr->NowMs();
    tr->AddChild(std::string("groth16.prove.") + stage, stage_start, now);
    stage_start = now;
  };
  CancellationToken never;
  int prove_span = tr->Begin("groth16.prove");
  stage_start = tr->NowMs();
  groth16::ProveResult proved = groth16::Prove(deployment.pk, optimized.cs, &w->rng, never, &hooks);
  tr->End(prove_span);
  // Freeing the constraint systems is part of the whole call's time.
  tr->Time("r1cs.release", [&] {
    ConstraintSystem released_cs = std::move(cs);
    OptimizeResult released_optimized = std::move(optimized);
    return 0;
  });
  if (!proved.ok()) {
    return std::nullopt;
  }
  return tr->Time("pki.acme", [&] {
    return IssueWithSans(w, domain, tls_key, EncodeProofSans(proved.proof.ToBytes(), domain));
  });
}

// --- Kernels on the workload's operands -------------------------------------------

template <typename T>
void Sink(const T& value) {
  g_sink.fetch_xor(value.ToBigUInt().ToBytes(32)[31], std::memory_order_relaxed);
}

void Sink(const Fp12& f) { Sink(f.c0.c0.c0); }

// Median over repetitions of the per-iteration cost of `step`, in ns.
template <typename F>
double NsPerStep(int iterations, F&& step) {
  std::vector<double> reps;
  for (int rep = 0; rep < 7; ++rep) {
    auto t0 = SteadyClock::now();
    for (int i = 0; i < iterations; ++i) {
      step();
    }
    reps.push_back(MsSince(t0) * 1e6 / iterations);
  }
  return Median(reps);
}

struct ProofCase {
  groth16::Proof proof;
  std::vector<Fr> public_inputs;
};

ProofCase CaseOf(const NopeDeployment& deployment, const CertificateChain& chain,
                 const DnsName& domain) {
  std::optional<groth16::Proof> proof = ProofOf(chain, domain);
  if (!proof) {
    Die("kernel operand chain carries no proof");
  }
  const CertificateBody& body = chain.leaf.body;
  return {*proof, NopePublicInputs(deployment.params, domain, TlsKeyDigest(body.subject_public_key),
                                   CaNameDigest(body.issuer_organization),
                                   TruncateTimestamp(body.not_before))};
}

// Pairing-layer kernels (spans) and field kernels (ns per call) timed on the
// given proofs and the deployment's verifying key.
void TimeKernels(Tracer* tr, const groth16::VerifyingKey& vk, const std::vector<ProofCase>& cases,
                 std::map<std::string, std::vector<double>>* ns) {
  constexpr size_t kSamples = 8;
  groth16::PreparedVerifyingKey pvk = groth16::PrepareVerifyingKey(vk);
  for (const G2& q : {vk.beta_g2, vk.gamma_g2, vk.delta_g2}) {
    tr->Time("ec.prepare_g2", [&] { return PrepareG2(q).lines.size(); });
  }
  std::vector<Fp12> loops;
  for (size_t i = 0; i < kSamples; ++i) {
    const ProofCase& c = cases[i % cases.size()];
    const groth16::Proof& p = c.proof;
    G1 ic = vk.ic[0];
    for (size_t j = 0; j < c.public_inputs.size(); ++j) {
      ic = ic.Add(vk.ic[j + 1].ScalarMul(c.public_inputs[j].ToBigUInt()));
    }
    Fp12 f = tr->Time("ec.miller_loop", [&] { return MillerLoop(p.a, p.b); });
    Sink(tr->Time("ec.final_exp", [&] { return FinalExponentiation(f); }));
    bool product_ok = tr->Time("ec.pairing_product", [&] {
      return PairingProductIsOne({{p.a, p.b},
                                  {ic.Negate(), vk.gamma_g2},
                                  {p.c.Negate(), vk.delta_g2},
                                  {vk.alpha_g1.Negate(), vk.beta_g2}});
    });
    bool in_subgroup = tr->Time("ec.g2_subgroup_check", [&] { return G2InSubgroup(p.b); });
    bool prepared_ok = tr->Time("groth16.verify_prepared",
                                [&] { return groth16::Verify(pvk, c.public_inputs, p); });
    if (!product_ok || !in_subgroup || !prepared_ok) {
      Die("kernel operand proof failed to verify");
    }
    loops.push_back(f);
  }

  for (size_t i = 0; i < std::min<size_t>(cases.size(), 4); ++i) {
    auto a = cases[i].proof.a.ToAffine();
    Fq x = a.x;
    Fq y = a.y;
    (*ns)["ff.fq_mul"].push_back(NsPerStep(20000, [&] { x = x * y; }));
    (*ns)["ff.fq_square"].push_back(NsPerStep(20000, [&] { x = x.Square(); }));
    (*ns)["ff.fq_inverse"].push_back(NsPerStep(200, [&] { x = x.Inverse() + y; }));
    Sink(x);
    Fr s = cases[i].public_inputs.front();
    Fr t = cases[i].public_inputs.back();
    (*ns)["ff.fr_mul"].push_back(NsPerStep(20000, [&] { s = s * t; }));
    Sink(s);
    Fp12 f = loops[i];
    Fp12 g = loops[(i + 1) % loops.size()];
    (*ns)["ff.fp12_mul"].push_back(NsPerStep(200, [&] { f = f * g; }));
    (*ns)["ff.fp12_square"].push_back(NsPerStep(200, [&] { f = f.Square(); }));
    Sink(f);
  }
}

// --- Run -------------------------------------------------------------------------

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
};

Args ParseArgs(int argc, char** argv) {
  Args args;
  for (int i = 1; i + 1 < argc; i += 2) {
    std::string flag = argv[i];
    std::string value = argv[i + 1];
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      args.seconds = std::atof(value.c_str());
    } else if (flag == "--trace") {
      args.trace = value == "1";
    } else {
      Die("unknown flag " + flag);
    }
  }
  if (args.workload != "handshake_nope" && args.workload != "handshake_downgrade" &&
      args.workload != "issuance") {
    Die("unknown workload '" + args.workload + "'");
  }
  if (args.seconds <= 0) {
    Die("--seconds must be positive");
  }
  return args;
}

std::string CpuModel() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      size_t colon = line.find(':');
      return colon == std::string::npos ? line : line.substr(colon + 2);
    }
  }
  return "unknown";
}

// One interleaved measurement: the whole call's interval and the root span
// of the same operation's replay.
struct TracePair {
  double whole_start_ms;
  double whole_end_ms;
  int replay_root;
};

class Bench {
 public:
  explicit Bench(const Args& args)
      : args_(args), origin_(SteadyClock::now()), tracer_(args.trace, origin_) {}

  int Run() {
    Setup();
    if (args_.trace) {
      RunTraced();
    } else if (args_.workload == "issuance") {
      RunIssuance();
    } else {
      RunHandshakes();
    }
    return Print();
  }

 private:
  bool IsIssuance() const { return args_.workload == "issuance"; }
  bool IsDowngrade() const { return args_.workload == "handshake_downgrade"; }

  // Builds the workload's fixture; its wall time is setup_s. The downgrade
  // fixture is cheap, so it is built fifteen times and run.py takes the
  // median. Its cost differs between seeds by up to a quarter, so the builds
  // use fifteen seeds derived from --seed; the last, from --seed itself, is
  // the one the run uses. It is also single-threaded, so reference chunks on
  // the same thread around each build give its host-speed reading. The other
  // fixtures run the multi-threaded trusted setup, which no single-thread
  // chunk tracks, so their set-up time stays as measured.
  void Setup() {
    int repeats = IsDowngrade() && !args_.trace ? 15 : 1;
    for (int i = repeats - 1; i >= 0; --i) {
      double before = IsDowngrade() ? RefChunksMs() : 0;
      auto start = SteadyClock::now();
      SetupOnce(args_.seed + i * 0x9e3779b97f4a7c15ULL);
      setup_ms_.push_back(MsSince(start));
      if (IsDowngrade()) {
        setup_ref_ms_.push_back((before + RefChunksMs()) / 2);
      }
    }
  }

  // Median of three reference chunks on this thread.
  static double RefChunksMs() {
    return Median({perfbench::RefChunkMs(), perfbench::RefChunkMs(), perfbench::RefChunkMs()});
  }

  void SetupOnce(uint64_t seed) {
    size_t num_domains = IsDowngrade() ? 4 : 2;
    pool_.clear();
    deployment_.reset();
    world_ = tracer_.Time("dns.hierarchy", [&] {
      return std::make_unique<World>(seed, num_domains);
    });
    if (IsDowngrade()) {
      deployment_ = ClientOnlyDeployment(world_.get());
      pool_ = BuildDowngradePool(world_.get());
    } else {
      deployment_ = tracer_.Time("groth16.setup", [&] {
        return NopeTrustedSetup(&world_->dns, world_->domains[0], StatementOptions::Full(),
                                &world_->rng);
      });
      if (!IsIssuance()) {
        pool_ = BuildNopePool(world_.get(), *deployment_);
      }
    }
    order_ = Shuffled(pool_.size(), &world_->rng);
  }

  const Handshake& NextHandshake(size_t i) const { return pool_[order_[i % order_.size()]]; }

  // One reference chunk before the first handshake and one after each, on
  // the client thread, so every handshake has a host-speed reading on both
  // sides.
  void RunHandshakes() {
    auto start = SteadyClock::now();
    op_ref_ms_.push_back(perfbench::RefChunkMs());
    for (size_t i = 0; MsSince(start) < args_.seconds * 1e3; ++i) {
      const Handshake& h = NextHandshake(i);
      auto t0 = SteadyClock::now();
      NopeClientResult r =
          NopeClientVerify(*deployment_, h.chain, world_->trust, h.domain, kVerifyAt, nullptr);
      op_ms_.push_back(MsSince(t0));
      op_ref_ms_.push_back(perfbench::RefChunkMs());
      op_kind_.push_back(h.kind);
      Count(Matches(r, h.expected));
    }
    window_s_ = MsSince(start) / 1e3;
    for (const Handshake& h : pool_) {
      chain_bytes_.push_back(h.chain.TotalSize());
    }
  }

  struct Issued {
    CertificateChain chain;
    DnsName domain;
  };

  // Issues one certificate for the i-th domain in rotation with a fresh key;
  // returns the whole call's time.
  double IssueOne(size_t i) {
    const DnsName& domain = world_->domains[i % world_->domains.size()];
    Bytes key = GenerateEcdsaKey(&world_->rng).pub.Encode();
    auto t0 = SteadyClock::now();
    auto issued = IssueCertificate(&*deployment_, &world_->dns, &world_->ca, domain, key, kNow,
                                   &world_->rng, /*with_nope=*/true);
    double ms = MsSince(t0);
    if (issued) {
      issued_.push_back({issued->chain, domain});
    } else {
      Count(false);
    }
    return ms;
  }

  // Every issued chain must verify as a NOPE chain with a 128-byte proof;
  // checked outside the timed window.
  void CheckIssued() {
    for (const Issued& i : issued_) {
      Result<Bytes> proof = DecodeProofFromSans(i.chain.leaf.body.sans, i.domain);
      NopeClientResult r = NopeClientVerify(*deployment_, i.chain, world_->trust, i.domain,
                                            kVerifyAt, nullptr);
      Count(proof.ok() && proof.value().size() == kSanProofBytes && Matches(r, kExpectValid));
      chain_bytes_.push_back(i.chain.TotalSize());
    }
  }

  void RunIssuance() {
    auto start = SteadyClock::now();
    for (size_t i = 0; MsSince(start) < args_.seconds * 1e3; ++i) {
      op_ms_.push_back(IssueOne(i));
      op_kind_.push_back("issuance");
    }
    window_s_ = MsSince(start) / 1e3;
    CheckIssued();
  }

  // Interleaves whole calls with layer-by-layer replays, alternating which
  // goes first; then times the kernels and fills in layers the workload's
  // own operation never calls from a side fixture.
  void RunTraced() {
    auto start = SteadyClock::now();
    for (size_t i = 0; MsSince(start) < args_.seconds * 1e3; ++i) {
      TracePair pair{0, 0, -1};
      tracer_.set_op(static_cast<int>(i));
      int& root = pair.replay_root;
      auto whole = [&] {
        double ms;
        if (IsIssuance()) {
          ms = IssueOne(i);
        } else {
          const Handshake& h = NextHandshake(i);
          auto t0 = SteadyClock::now();
          NopeClientResult r = NopeClientVerify(*deployment_, h.chain, world_->trust, h.domain,
                                                kVerifyAt, nullptr);
          ms = MsSince(t0);
          Count(Matches(r, h.expected));
        }
        pair.whole_end_ms = MsSince(origin_);
        pair.whole_start_ms = pair.whole_end_ms - ms;
      };
      auto replay = [&] {
        if (IsIssuance()) {
          const DnsName& domain = world_->domains[i % world_->domains.size()];
          Bytes key = GenerateEcdsaKey(&world_->rng).pub.Encode();
          root = tracer_.Begin("op");
          auto chain = ReplayIssue(&tracer_, *deployment_, world_.get(), domain, key, &counts_);
          tracer_.End(root);
          if (chain) {
            issued_.push_back({*chain, domain});
          } else {
            Count(false);
          }
          return;
        }
        const Handshake& h = NextHandshake(i);
        root = tracer_.Begin("op");
        NopeClientResult r = ReplayVerify(&tracer_, *deployment_, h.chain, world_->trust, h.domain);
        tracer_.End(root);
        Count(Matches(r, h.expected));
      };
      if (i % 2 == 0) {
        whole();
        replay();
      } else {
        replay();
        whole();
      }
      pairs_.push_back(pair);
      op_ref_ms_.push_back(perfbench::RefChunkMs());
    }
    tracer_.set_op(-1);

    std::vector<ProofCase> cases;
    if (IsIssuance()) {
      CheckIssued();
      for (const Issued& i : issued_) {
        ReplayVerify(&tracer_, *deployment_, i.chain, world_->trust, i.domain);
        cases.push_back(CaseOf(*deployment_, i.chain, i.domain));
      }
    } else {
      for (const Handshake& h : pool_) {
        chain_bytes_.push_back(h.chain.TotalSize());
      }
      if (IsDowngrade()) {
        deployment_ = tracer_.Time("groth16.setup", [&] {
          return NopeTrustedSetup(&world_->dns, world_->domains[0], StatementOptions::Full(),
                                  &world_->rng);
        });
      }
      const DnsName& domain = world_->domains[0];
      Bytes key = GenerateEcdsaKey(&world_->rng).pub.Encode();
      auto chain = ReplayIssue(&tracer_, *deployment_, world_.get(), domain, key, &counts_);
      NopeClientResult r =
          chain ? ReplayVerify(&tracer_, *deployment_, *chain, world_->trust, domain)
                : NopeClientResult{};
      Count(chain.has_value() && Matches(r, kExpectValid));
      if (IsDowngrade()) {
        cases.push_back(CaseOf(*deployment_, *chain, domain));
      } else {
        for (const Handshake& h : pool_) {
          cases.push_back(CaseOf(*deployment_, h.chain, h.domain));
        }
      }
    }
    proof_bytes_ = cases.front().proof.ToBytes().size();
    TimeEcdsaVerify();
    TimeKernels(&tracer_, deployment_->vk(), cases, &kernel_ns_);
  }

  void Count(bool ok) {
    ++attempted_;
    if (!ok) {
      ++failed_;
    }
  }

  // Per-layer values: the median span per layer, preferring spans of the
  // workload's own operations over side-fixture spans of the same layer.
  std::string LayerJson() const {
    std::map<std::string, std::vector<double>> own, side;
    for (const Span& s : tracer_.spans()) {
      (s.op >= 0 ? own : side)[s.name].push_back(s.duration_ms());
    }
    JsonObject layers;
    auto layer = [&](const std::string& name) {
      auto it = own.find(name);
      const std::vector<double>* v = it != own.end() ? &it->second : nullptr;
      if (v == nullptr) {
        auto s = side.find(name);
        if (s == side.end()) {
          Die("no samples for layer " + name);
        }
        v = &s->second;
      }
      return Median(*v);
    };
    for (const char* name :
         {"groth16.verify", "groth16.verify_prepared", "ec.miller_loop", "ec.final_exp",
          "ec.pairing_product", "ec.prepare_g2", "ec.g2_subgroup_check", "tls.legacy_verify",
          "pki.san_decode", "groth16.proof_parse", "core.public_inputs", "dns.build_witness",
          "r1cs.synthesize", "r1cs.opt.optimize", "groth16.prove", "groth16.prove.witness",
          "groth16.prove.fft", "groth16.prove.h_poly", "groth16.prove.scalars",
          "groth16.prove.msm", "pki.acme", "sig.ecdsa_verify"}) {
      layers.Num(std::string(name) + "_ms", layer(name));
    }
    layers.Num("dns.hierarchy_s", layer("dns.hierarchy") / 1e3);
    layers.Num("groth16.setup_s", layer("groth16.setup") / 1e3);
    for (const auto& [name, samples] : kernel_ns_) {
      layers.Num(name + "_ns", Median(samples));
    }
    layers.Num("host.ref_chunk_ms", Median(op_ref_ms_));
    return layers.Encode();
  }

  // Per interleaved pair: both intervals, the summed time of the replay's
  // top-level layers, that of the workload's intended dominant layer, and
  // the number of pairing checks (groth16::Verify calls) in the replay.
  std::string PairsJson() const {
    const std::vector<Span>& spans = tracer_.spans();
    std::vector<double> layers(spans.size(), 0), dominant(spans.size(), 0),
        pairings(spans.size(), 0);
    for (const Span& s : spans) {
      if (s.parent < 0 || spans[s.parent].name != "op") {
        continue;
      }
      layers[s.parent] += s.duration_ms();
      pairings[s.parent] += s.name == "groth16.verify";
      bool is_dominant =
          IsIssuance()    ? s.name == "r1cs.opt.optimize" || s.name == "groth16.prove"
          : IsDowngrade() ? s.name == "tls.legacy_verify"
                          : s.name == "groth16.verify";
      if (is_dominant) {
        dominant[s.parent] += s.duration_ms();
      }
    }
    std::string out = "[";
    for (size_t i = 0; i < pairs_.size(); ++i) {
      const TracePair& p = pairs_[i];
      const Span& replay = spans[p.replay_root];
      out += (i ? ", " : "") + JsonObject()
                                   .Raw("whole", JsonArray({p.whole_start_ms, p.whole_end_ms}))
                                   .Raw("replay", JsonArray({replay.start_ms, replay.end_ms}))
                                   .Num("layers_ms", layers[p.replay_root])
                                   .Num("dominant_ms", dominant[p.replay_root])
                                   .Num("pairings", pairings[p.replay_root])
                                   .Encode();
    }
    return out + "]";
  }

  // The ECDSA check of the leaf signature, on the workload's chains.
  void TimeEcdsaVerify() {
    for (size_t i = 0; i < 16; ++i) {
      const CertificateChain& chain =
          pool_.empty() ? issued_[i % issued_.size()].chain : pool_[i % pool_.size()].chain;
      EcdsaPublicKey issuer = EcdsaPublicKey::Decode(chain.intermediate.body.subject_public_key);
      Bytes body = chain.leaf.body.Serialize();
      EcdsaSignature sig = EcdsaSignature::Decode(chain.leaf.signature);
      Count(tracer_.Time("sig.ecdsa_verify", [&] { return EcdsaVerify(issuer, body, sig); }));
    }
  }

  int Print() {
    struct rusage usage;
    getrusage(RUSAGE_SELF, &usage);
    const char* threads_env = std::getenv("NOPE_THREADS");
    JsonObject fingerprint;
    fingerprint.Str("cpu_model", CpuModel())
        .Num("nproc", std::thread::hardware_concurrency())
        .Str("nope_threads_env", threads_env ? threads_env : "")
        .Num("pool_threads", ThreadPool::GlobalThreads())
        .Str("simd_backend", fp_simd::ActiveBackend().name)
        .Str("ref_chunk_build", perfbench::RefChunkBuild());
    JsonObject counts;
    counts.Num("chain_bytes", Median(chain_bytes_));
    if (deployment_ && !deployment_->pk.vk.ic.empty()) {
      counts.Num("domain_size", deployment_->pk.domain_size)
          .Num("constraints_post_setup", deployment_->pk.num_constraints);
    }
    if (args_.trace) {
      counts.Num("proof_bytes", proof_bytes_)
          .Num("constraints_pre", counts_.constraints_pre)
          .Num("constraints_post", counts_.constraints_post);
    }
    JsonObject out;
    out.Str("workload", args_.workload)
        .Num("seed", args_.seed)
        .Num("trace", args_.trace ? 1 : 0)
        .Raw("fingerprint", fingerprint.Encode())
        .Num("ref_nominal_ms", perfbench::kRefNominalMs)
        .Raw("setup_ms", JsonArray(setup_ms_))
        .Raw("setup_ref_ms", JsonArray(setup_ref_ms_))
        .Raw("op_ms", JsonArray(op_ms_))
        .Raw("op_ref_ms", JsonArray(op_ref_ms_))
        .Raw("op_kind", JsonStrings(op_kind_))
        .Num("window_s", window_s_)
        .Num("attempted", attempted_)
        .Num("failed", failed_)
        .Num("peak_rss_mb", usage.ru_maxrss / 1024.0)
        .Raw("counts", counts.Encode());
    if (args_.trace) {
      out.Raw("layers", LayerJson()).Raw("pairs", PairsJson());
    }
    printf("%s\n", out.Encode().c_str());
    return 0;
  }

  Args args_;
  SteadyClock::time_point origin_;  // time base of spans
  Tracer tracer_;
  std::unique_ptr<World> world_;
  std::optional<NopeDeployment> deployment_;
  std::vector<Handshake> pool_;
  std::vector<size_t> order_;
  std::vector<Issued> issued_;
  std::vector<double> setup_ms_;
  std::vector<double> setup_ref_ms_;  // handshake_downgrade only
  std::vector<double> op_ms_;
  std::vector<double> op_ref_ms_;  // before the first handshake and after each, or each traced pair
  std::vector<std::string> op_kind_;  // the kind of input of each operation
  std::vector<double> chain_bytes_;
  std::vector<TracePair> pairs_;
  std::map<std::string, std::vector<double>> kernel_ns_;
  Counts counts_;
  double window_s_ = 0;
  size_t proof_bytes_ = 0;
  size_t attempted_ = 0;
  size_t failed_ = 0;
};

}  // namespace
}  // namespace nope

int main(int argc, char** argv) {
  nope::Args args = nope::ParseArgs(argc, argv);
  return nope::Bench(args).Run();
}
