// Golden-vector oracle for the BN254 optimal ate pairing.
//
// The expected values were produced by the textbook reference pairing (an
// affine Miller loop over the untwisted curve E(Fp12) with dense lines, and
// a final exponentiation whose hard part was a plain Fp12::Pow by
// (p^4 - p^2 + 1)/r). Any rewrite of the Miller loop or the final
// exponentiation must reproduce these bytes exactly: Pairing() is the
// reduced pairing, so its value is unique no matter how the loop scales
// its lines internally.
//
// Canonical encoding of an Fp12 element: its twelve Fq coefficients in
// tower order (c0.c0.c0, c0.c0.c1, c0.c1.c0, ..., c1.c2.c1), each as a
// 32-byte big-endian integer in standard (non-Montgomery) form, 384 bytes
// in all. The generator pairing is pinned byte for byte; the other vectors
// are pinned by the SHA-256 of their canonical encoding.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "src/base/sha256.h"
#include "src/ec/bn254.h"

namespace nope {
namespace {

void AppendFq(const Fq& x, Bytes* out) {
  Bytes b = x.ToBigUInt().ToBytes(32);
  out->insert(out->end(), b.begin(), b.end());
}

Bytes CanonicalBytes(const Fp12& f) {
  Bytes out;
  out.reserve(384);
  for (const Fp6* half : {&f.c0, &f.c1}) {
    for (const Fp2* c : {&half->c0, &half->c1, &half->c2}) {
      AppendFq(c->c0, &out);
      AppendFq(c->c1, &out);
    }
  }
  return out;
}

std::string Digest(const Fp12& f) { return EncodeHex(Sha256::Hash(CanonicalBytes(f))); }

// e(G1, G2) in canonical encoding.
const char kGeneratorPairingHex[] =
    "12c70e90e12b7874510cd1707e8856f71bf7f61d72631e268fca81000db9a1f5"
    "084f330485b09e866bc2f2ea2b897394deaf3f12aa31f28cb0552990967d4704"
    "0e841c2ac18a4003ac9326b9558380e0bc27fdd375e3605f96b819a358d34bde"
    "2067586885c3318eeffa1938c754fe3c60224ee5ae15e66af6b5104c47c8c5d8"
    "01676555de427abc409c4a394bc5426886302996919d4bf4bdd02236e14b3636"
    "2b03614464f04dd772d86df88674c270ffc8747ea13e72da95e3594468f222c4"
    "2c53748bcd21a7c038fb30ddc8ac3bf0af25d7859cfbc12c30c866276c565909"
    "27ed208e7a0b55ae6e710bbfbd2fd922669c026360e37cc5b2ab862411536104"
    "1ad9db1937fd72f4ac462173d31d3d6117411fa48dba8d499d762b47edb3b54a"
    "279db296f9d479292532c7c493d8e0722b6efae42158387564889c79fc038ee3"
    "0dc26f240656bbe2029bd441d77c221f0ba4c70c94b29b5f17f0f6d08745a069"
    "108c19d15f9446f744d0f110405d3856d6cc3bda6c4d537663729f5257628417";

// SHA-256 of the canonical encoding of e(a_i G1, b_i G2) for the seeded
// full-width scalars drawn in SeededPairs().
const char* const kSeededDigests[] = {
    "3dfc032f1d6faf9a401e0239336195b8c89de15e55504f24c5d3e62f36566c05",
    "2d11f4207bc60c0106553eb667ad3eb76ce9f0e5d7836aab9d0be043557c7102",
    "9a072edf067e0dd08ff8e05035ae0c51e3aee055f9023ee9623fe9575e40f2aa",
    "369158a6868a7c5635bd14ad59b80c29baaa0b785fb2cdbdc75319deb5a3fdb0",
    "188465d5a6306897ad46f82566b67fa3a08904741561937b788882e7b3188de6",
    "003040a1b50234d34cd06276715f8bbe616ae87c3885dab06b5b14eb966fe988",
    "39d67a6b8c287d12b39b365f5b4157093792a27dcfdf4fe1b01e44ac00890f1e",
    "77020f10fdeb9fd916707fd82c3d0b7fce5e2c4421390ba0d6118b043442a5fd",
    "f76d56e0d9eedddcb7a588ace2c5ca246907901e6698bbeac3db4103c967ba27",
    "097f4e3178395dcb625b9168a2e2a088433ce4ee80cd67d584e29088c9ef8345",
    "a5cb25312b2e7229fe110e3384c3d7bcc4d6efcb0d2ca3f14f160e0ee21dd579",
    "ace11050252d801776f6ad2e927c2a95b87acd16322dc7726e9cadd2c8041a74",
    "b6f9fae8ef88c272820283762f586b61be690c7d5a0abafb579e628a7c1afa9b",
    "7e5ba0da708e66cf95f6b48043d3dfb9e06ad577062dbce45fc7bd2a1071c432",
    "35362c84f11f714a281668de7269f2ef8a39cf4d7a48812316639d14a2b5dfdb",
    "435673d1d3f0c57478f67bd8e632a2a269395aed6662bd00d31d3be7735342fd",
    "4b90c770913682f609713b55772c25b87ab94ae0380b15f660696807102769bb",
    "3ff5fdb32ab5c35640383676be2446023571dc09eec7a2e6b5b60f7099cae51f",
    "2d0f3275888b124a5e1497b72e6ba52690b3171209a78eb935abdfe14d3cb70e",
    "40fe09dc8a0af9c9acaef58b949cb2af9eb1c2dc668dd3e2b6c111e064c5c9cc",
    "44d34e23f30b035ef68696a0a1f396833f80d83e8fb0cca6ef537faa4a3e6a49",
    "002fafbaf435446d25f75f1804eda173986dd0b92c96a3869cfb08496f48849f",
    "7fd76318f8529e132ca0a7932134f000ceb339e663107f9e5b3ed7302cc96baf",
    "82208d8e3854ea577708a208d0849992e66e7376217c94df23a9860e6c5eb2a9",
    "b083889821787232892acba99d02bc4b73cce68643b9749b0775e0647cf5c12c",
    "8e96eefe9436d7fb8bb3534bf69eab26059451a2f1e3e92b910171daf376e075",
    "0e2ea428db0dd784b65434cbacbc55ad607ff4773c4b44c37daf8b04093c0947",
    "182fbf2c2c82d25ac774f416ddab10bd99e2112845f16a3f91ad4c599d5f5e95",
    "31b454d9eaa10b9ad4927b5a89e3a90ba6ca60496f3f62e6caef27b0482cfb71",
    "a8d0811dc3bf3b58217515238c078f69b2cc9a038e3bea47334a9df556337785",
    "9238f40a3112f271770ac8305de335346d2ebefa2e6a3e3dfab933bc4a3d3b2a",
    "4346f8b2d35d63e6455d0a9c04d56c931955f339323f1d8b86f3cb759bce2468",
    "b0637696aa626b4f553c05a796f9711142b0bf7576a49d33e15173a48c70a3d6",
    "c31d359fba770646aabbe3a5debb4eb5966cf52625d17fd8345661a2b7b7dc94",
    "2e92c5607e2e236ccc4f82cf7d93081d03bb2dd75f8adadb35649fbd93f2573d",
    "0c1c775fedab14e7e0e6b36afa35ffb29ac47ecc676c4688f04c952c934ceca6",
    "7f2900212c46f02a8400cf8cf90c02561a7baa6ec39e712ecd0217c8f74f6398",
    "b4bd18fb6be48be5b9e7b2ff6b117c02824ecc7f3654c96615cc15497ec4f58a",
    "cecb45934100d59980bff14a94490b1412b45ad4735ad8e28b4a81ee3227e4e8",
    "e0c2f34852c7a325a44542e099b5be4edf6d29e450c024eafe7f485674f2daba",
    "4fb12f23c105f6c943baf663722583257794c922eb07c4c6ffda704552c56a56",
    "e7c37e4af9c01c867b7b94d021faa00813f6fd7dab07e5654b7298fd8d42d094",
    "b33f18b77f2f9b525eb86ab51f053f9a64ba8b53909f6b1e74e49965606155c5",
    "71173db8c6fd5412bb3f0293f59e4f0b40dedf2e7963c4020435302d77b0eb5a",
    "80b48ca2812dd8ddb2f2130c5035dd201df325650873f947ca3e622b964d318f",
    "94881be140151acf19bca4b9ac78d91181267383faee1fbf4a54686076edabef",
    "00036eec2cf4e92e5a7ff4de33ed26d2c7701852b36e040d8ce21bb0ccad42aa",
    "24736e8c7a7c4cc74931d930a098c9b3dfcd4cf14401f0dcdfaaffc6836302c7",
    "07d643cd34dbeec427a88b2d06b30ade4755e29d48b04ceb5fc09029f2151485",
    "3b96def1ff0dd5cde556e0dfb405f0fbfc8387d6fbceb0a37a9cd94a1ed426b8",
    "e8e44617d892fd7b3014ec1d0bb6a46683d0cd30a334dd8b15412ccb3c43cf69",
    "090566d5c63fc7d5106ff1b58e3535cac9f80b966ab4a2a755bb26a29c3ca3e7",
    "4a5a31bf90cf3a9bec9f3ae3a96337a4c87b2d974f6e98e1c5b090dba5938a86",
    "bec9395239da3f8b0885e07e91a83111505c3a357270e4b259cfb31eafaa8aa6",
    "25ee6f47b186e331779b548237b658dbd3e26f4181f5fa2d90f17bf98f19dd55",
    "362714484e35d3e2caa8100c442083134da79e414b517ccb5565e4740a7729fa",
    "72761a20ccdaefebcb0ceed11f13e8729e37b9a7d14ce36ac09540e6294876be",
    "f4869c3afca6babd03b44cf1991f5eee49f0a895983edbdaf6ed057140c3942c",
    "7a550c9069c2c789c1b1ff58b89befc5dd976cef233b80d7ddd071a0fbc89625",
    "518b13c250c708d200c9ae7d175ce795a4435b36f0d2fdff65f4efb261a26892",
    "4cc9daa13ec662afc8777dd06aa66296dc83e88bc929ef3a9996f05556ecdbe5",
    "c3b4085f48e99e86106920afe9e6dd43b033861b2b01e579dbc5742c4db2697e",
    "daa7d377ea7d635c5994afba0692056ea9578869e59998043091de923599386c",
    "419ad256de5c411c7c537af8eb7ed68c99856c730687cd698665028c41d2bb06",
};

// Digests of the sign variants, for the generator pair and seeded pair 0.
const char kNegPGenDigest[] =
    "6ddbda85dc7f6c9b7c9b830856b853469599480977c6b47d55b6f0ef6e23f7f6";  // e(-G1, G2)
const char kNegQGenDigest[] =
    "6ddbda85dc7f6c9b7c9b830856b853469599480977c6b47d55b6f0ef6e23f7f6";  // e(G1, -G2)
const char kNegPSeedDigest[] =
    "77b878cdde02d0907841ada75914359aba9134b719caf4449e8ef45f2669dbc0";  // e(-P_0, Q_0)
const char kNegQSeedDigest[] =
    "77b878cdde02d0907841ada75914359aba9134b719caf4449e8ef45f2669dbc0";  // e(P_0, -Q_0)

constexpr size_t kSeededCount = 64;
constexpr uint64_t kSeed = 0x5eed0ba1;

std::vector<std::pair<G1, G2>> SeededPairs() {
  Rng rng(kSeed);
  std::vector<std::pair<G1, G2>> out;
  out.reserve(kSeededCount);
  for (size_t i = 0; i < kSeededCount; ++i) {
    BigUInt a = BigUInt::RandomBelow(&rng, Bn254Order());
    BigUInt b = BigUInt::RandomBelow(&rng, Bn254Order());
    out.emplace_back(G1Generator().ScalarMul(a), G2Generator().ScalarMul(b));
  }
  return out;
}

TEST(PairingGolden, GeneratorPairBytes) {
  EXPECT_EQ(EncodeHex(CanonicalBytes(Pairing(G1Generator(), G2Generator()))),
            kGeneratorPairingHex);
}

TEST(PairingGolden, SeededPairs) {
  std::vector<std::pair<G1, G2>> pairs = SeededPairs();
  ASSERT_EQ(sizeof(kSeededDigests) / sizeof(kSeededDigests[0]), kSeededCount);
  for (size_t i = 0; i < kSeededCount; ++i) {
    EXPECT_EQ(Digest(Pairing(pairs[i].first, pairs[i].second)), kSeededDigests[i])
        << "seeded pair " << i;
  }
}

TEST(PairingGolden, Infinity) {
  const std::string one = EncodeHex(CanonicalBytes(Fp12::One()));
  EXPECT_EQ(EncodeHex(CanonicalBytes(Pairing(G1::Infinity(), G2Generator()))), one);
  EXPECT_EQ(EncodeHex(CanonicalBytes(Pairing(G1Generator(), G2::Infinity()))), one);
  EXPECT_EQ(EncodeHex(CanonicalBytes(Pairing(G1::Infinity(), G2::Infinity()))), one);
}

TEST(PairingGolden, Negations) {
  EXPECT_EQ(Digest(Pairing(G1Generator().Negate(), G2Generator())), kNegPGenDigest);
  EXPECT_EQ(Digest(Pairing(G1Generator(), G2Generator().Negate())), kNegQGenDigest);
  std::vector<std::pair<G1, G2>> pairs = SeededPairs();
  const auto& [p, q] = pairs[0];
  EXPECT_EQ(Digest(Pairing(p.Negate(), q)), kNegPSeedDigest);
  EXPECT_EQ(Digest(Pairing(p, q.Negate())), kNegQSeedDigest);
}

// Differential: PairingProductIsOne(S) agrees with "prod_{(P,Q) in S}
// Pairing(P, Q) == 1" on seeded sets of 1-5 pairs. Every other set is built
// so that its product is one (the last pair cancels the others in the
// exponent), so both verdicts are exercised. Some cancelling sets carry an
// extra pair with an infinity point, which must drop out of both sides.
TEST(PairingGolden, ProductAgreesWithPairings) {
  Rng rng(kSeed + 1);
  size_t ones = 0;
  size_t sets = 0;
  for (size_t size = 1; size <= 5; ++size) {
    for (int rep = 0; rep < 6; ++rep) {
      const bool cancel = rep % 2 == 0;
      std::vector<std::pair<G1, G2>> set;
      Fr exponent_sum = Fr::Zero();
      for (size_t i = 0; i < size; ++i) {
        Fr a = Fr::Random(&rng);
        Fr b = Fr::Random(&rng);
        if (cancel && i + 1 == size) {
          // Last pair: (-(sum)/b) G1, b G2 cancels every earlier factor.
          a = -(exponent_sum * b.Inverse());
        }
        G1 p = G1Generator().ScalarMul(a.ToBigUInt());
        G2 q = G2Generator().ScalarMul(b.ToBigUInt());
        if (rep == 2 && i == 0 && size > 1) {
          p = G1::Infinity();
        } else if (rep == 4 && i == 0 && size > 1) {
          q = G2::Infinity();
        } else {
          exponent_sum = exponent_sum + a * b;
        }
        set.emplace_back(p, q);
      }
      Fp12 prod = Fp12::One();
      for (const auto& [p, q] : set) {
        prod = prod * Pairing(p, q);
      }
      const bool want = prod.IsOne();
      EXPECT_EQ(PairingProductIsOne(set), want) << "size " << size << " rep " << rep;
      if (cancel) {
        EXPECT_TRUE(want) << "size " << size << " rep " << rep;
      }
      ones += want ? 1 : 0;
      ++sets;
    }
  }
  // Both verdicts occur, so the agreement above is not vacuous.
  EXPECT_GT(ones, 0u);
  EXPECT_LT(ones, sets);
}

}  // namespace
}  // namespace nope
