// Batch Ed25519 verification: the multi-scalar-mul machinery in ge25519,
// Ed25519::verify_batch (transcript randomizers + bisection culprit
// identification), and the Pki batch API. The contract under test
// throughout: verify_batch agrees with scalar Ed25519::verify entry by
// entry, for valid and invalid signatures alike.
#include <gtest/gtest.h>

#include <string>
#include <thread>
#include <vector>

#include "codec/bytes.hpp"
#include "crypto/bigint.hpp"
#include "crypto/ed25519.hpp"
#include "crypto/ge25519.hpp"
#include "crypto/pki.hpp"
#include "crypto/sha512.hpp"
#include "sim/rng.hpp"

namespace setchain::crypto {
namespace {

U256 random_u256(sim::Rng& rng) {
  U256 k;
  for (auto& w : k.w) w = rng.next_u64();
  return k;
}

// ---------------------------------------------------- ge25519 scalar-mul fast paths

/// k*P through the multi-scalar path alone (no base-point term).
Ge single_term(const Ge& p, const U256& k) {
  const GeOddMultiples odd = GeOddMultiples::of(p);
  const Ge::Term term{k, &odd};
  return Ge::multi_scalar_mul(U256::zero(), std::span(&term, 1));
}

TEST(Ge25519MultiScalar, SingleTermMatchesPlainScalarMul) {
  sim::Rng rng(2024);
  const Ge p = Ge::base().scalar_mul(U256::from_u64(7));
  for (int i = 0; i < 20; ++i) {
    U256 k = random_u256(rng);
    k.w[3] &= 0x0FFFFFFFFFFFFFFFULL;  // stay under 2^252-ish like real scalars
    EXPECT_EQ(single_term(p, k).compress(), p.scalar_mul(k).compress()) << i;
  }
}

TEST(Ge25519MultiScalar, SingleTermEdgeScalars) {
  const Ge p = Ge::base().scalar_mul(U256::from_u64(11));
  EXPECT_TRUE(single_term(p, U256::zero()).is_identity());
  EXPECT_EQ(single_term(p, U256::from_u64(1)).compress(), p.compress());
  for (std::uint64_t k : {2ULL, 15ULL, 16ULL, 17ULL, 255ULL, 65537ULL}) {
    EXPECT_EQ(single_term(p, U256::from_u64(k)).compress(),
              p.scalar_mul(U256::from_u64(k)).compress())
        << k;
  }
  // Full 256-bit scalars: the NAF's carry runs past bit 255.
  U256 all_ones;
  for (auto& w : all_ones.w) w = ~std::uint64_t{0};
  EXPECT_EQ(single_term(p, all_ones).compress(), p.scalar_mul(all_ones).compress());
}

TEST(Ge25519MultiScalar, BaseScalarMulMatchesPlain) {
  sim::Rng rng(99);
  for (int i = 0; i < 10; ++i) {
    U256 k = random_u256(rng);
    k.w[3] &= 0x0FFFFFFFFFFFFFFFULL;
    EXPECT_EQ(Ge::base_scalar_mul(k).compress(), Ge::base().scalar_mul(k).compress());
  }
}

TEST(Ge25519MultiScalar, MultiScalarMatchesSumOfScalarMuls) {
  sim::Rng rng(7);
  for (int trial = 0; trial < 5; ++trial) {
    U256 base_k = random_u256(rng);
    base_k.w[3] &= 0x0FFFFFFFFFFFFFFFULL;
    std::vector<GeOddMultiples> tables;
    std::vector<Ge::Term> terms;
    tables.reserve(4);
    Ge expected = Ge::base().scalar_mul(base_k);
    for (int j = 0; j < 4; ++j) {
      U256 k = random_u256(rng);
      k.w[3] &= 0x0FFFFFFFFFFFFFFFULL;
      const Ge p = Ge::base().scalar_mul(U256::from_u64(rng.next_u64() | 1));
      tables.push_back(GeOddMultiples::of(p));
      terms.push_back(Ge::Term{k, &tables.back()});
      expected = expected.add(p.scalar_mul(k));
    }
    EXPECT_EQ(Ge::multi_scalar_mul(base_k, terms).compress(), expected.compress())
        << trial;
  }
}

TEST(Ge25519MultiScalar, EmptyInputIsIdentity) {
  EXPECT_TRUE(Ge::multi_scalar_mul(U256::zero(), {}).is_identity());
}

TEST(Ge25519MultiScalar, IsIdentityExcludesTwoTorsion) {
  EXPECT_TRUE(Ge::identity().is_identity());
  EXPECT_FALSE(Ge::base().is_identity());
  // (0, -1) has X == 0 like the identity but must not be mistaken for it.
  const Ge minus_one{Fe::zero(), Fe::one().negate(), Fe::one(), Fe::zero()};
  EXPECT_FALSE(minus_one.is_identity());
}

// ------------------------------------------------------------ batch fixtures

struct Signed {
  Ed25519::PublicKey pub;
  codec::Bytes msg;
  Ed25519::Signature sig;
};

std::vector<Signed> make_signed(std::size_t n, std::uint64_t seed_tag) {
  sim::Rng rng(seed_tag);
  std::vector<Signed> out(n);
  for (std::size_t i = 0; i < n; ++i) {
    Ed25519::Seed seed{};
    for (auto& b : seed) b = static_cast<std::uint8_t>(rng.next_u64());
    out[i].pub = Ed25519::public_key(seed);
    out[i].msg.resize(1 + rng.next_u64() % 100);
    for (auto& b : out[i].msg) b = static_cast<std::uint8_t>(rng.next_u64());
    out[i].sig = Ed25519::sign(seed, out[i].pub, out[i].msg);
  }
  return out;
}

std::vector<Ed25519::BatchEntry> entries_of(const std::vector<Signed>& s) {
  std::vector<Ed25519::BatchEntry> out;
  out.reserve(s.size());
  for (const auto& x : s) out.push_back(Ed25519::BatchEntry{&x.pub, x.msg, &x.sig});
  return out;
}

// ------------------------------------------------------- Ed25519::verify_batch

TEST(Ed25519Batch, EmptyBatchIsVacuouslyValid) {
  const auto res = Ed25519::verify_batch({});
  EXPECT_TRUE(res.all_valid);
  EXPECT_TRUE(res.valid.empty());
}

TEST(Ed25519Batch, SingleEntryValidAndInvalid) {
  auto s = make_signed(1, 11);
  auto es = entries_of(s);
  auto res = Ed25519::verify_batch(es);
  EXPECT_TRUE(res.all_valid);
  ASSERT_EQ(res.valid.size(), 1u);
  EXPECT_TRUE(res.valid[0]);

  s[0].sig[5] ^= 0x01;
  res = Ed25519::verify_batch(es);
  EXPECT_FALSE(res.all_valid);
  EXPECT_FALSE(res.valid[0]);
}

TEST(Ed25519Batch, AllValidBatchPasses) {
  for (const std::size_t n : {2u, 8u, 33u}) {
    const auto s = make_signed(n, 100 + n);
    const auto res = Ed25519::verify_batch(entries_of(s));
    EXPECT_TRUE(res.all_valid) << n;
    for (std::size_t i = 0; i < n; ++i) EXPECT_TRUE(res.valid[i]) << n << ":" << i;
  }
}

TEST(Ed25519Batch, ExactlyOneForgedCulpritIdentified) {
  // The bisection must pin the single bad signature at any position.
  for (const std::size_t bad : {0u, 3u, 7u, 12u, 15u}) {
    auto s = make_signed(16, 31337);
    s[bad].sig[17] ^= 0x80;  // forge exactly one
    const auto res = Ed25519::verify_batch(entries_of(s));
    EXPECT_FALSE(res.all_valid) << bad;
    for (std::size_t i = 0; i < s.size(); ++i) {
      EXPECT_EQ(res.valid[i], i != bad) << "bad=" << bad << " i=" << i;
    }
  }
}

TEST(Ed25519Batch, MultipleForgedAllIdentified) {
  auto s = make_signed(20, 555);
  for (const std::size_t bad : {1u, 2u, 9u, 19u}) s[bad].sig[40] ^= 0x22;
  const auto res = Ed25519::verify_batch(entries_of(s));
  EXPECT_FALSE(res.all_valid);
  for (std::size_t i = 0; i < s.size(); ++i) {
    const bool forged = i == 1 || i == 2 || i == 9 || i == 19;
    EXPECT_EQ(res.valid[i], !forged) << i;
  }
}

TEST(Ed25519Batch, WrongMessageRejected) {
  auto s = make_signed(8, 77);
  s[4].msg[0] ^= 0xFF;  // signature no longer covers this message
  const auto res = Ed25519::verify_batch(entries_of(s));
  EXPECT_FALSE(res.all_valid);
  for (std::size_t i = 0; i < s.size(); ++i) EXPECT_EQ(res.valid[i], i != 4) << i;
}

TEST(Ed25519Batch, NonCanonicalSRejected) {
  auto s = make_signed(6, 88);
  s[2].sig[63] |= 0xF0;  // S >= L: must fail the malleability guard
  const auto res = Ed25519::verify_batch(entries_of(s));
  EXPECT_FALSE(res.all_valid);
  for (std::size_t i = 0; i < s.size(); ++i) {
    EXPECT_EQ(res.valid[i], i != 2) << i;
    // Cross-check against the scalar verifier.
    EXPECT_EQ(res.valid[i], Ed25519::verify(s[i].pub, s[i].msg, s[i].sig)) << i;
  }
}

TEST(Ed25519Batch, UndecompressablePointsRejected) {
  auto s = make_signed(5, 99);
  // y = 2 is not on the curve: break A of one entry and R of another.
  s[1].pub.fill(0);
  s[1].pub[0] = 2;
  s[3].sig[0] = 2;
  for (std::size_t i = 1; i < 32; ++i) s[3].sig[i] = 0;
  const auto res = Ed25519::verify_batch(entries_of(s));
  EXPECT_FALSE(res.all_valid);
  for (std::size_t i = 0; i < s.size(); ++i) {
    EXPECT_EQ(res.valid[i], i != 1 && i != 3) << i;
  }
}

TEST(Ed25519Batch, LinearityForgeryWithPredictedRandomizersRejected) {
  // Regression for a soundness hole: an early transcript derived the
  // randomizers z_i from (R, A, message) only. An adversary could then
  // compute z1, z2 ahead of time and doctor two valid signatures as
  // S1' = S1 + z2, S2' = S2 - z1 (mod L): the combination z1*S1' + z2*S2'
  // is unchanged, so the combined check still passed while both signatures
  // were individually invalid. The transcript now absorbs the S halves,
  // which makes the z_i depend on the doctored values themselves; replay
  // the attack against the S-free derivation and require rejection.
  auto s = make_signed(2, 777);

  // Reconstruct the (R, A, M)-only transcript exactly as the vulnerable
  // derivation did.
  Sha512 transcript;
  transcript.update(codec::to_bytes("setchain.ed25519.batch.v1"));
  codec::Bytes count;
  codec::append_u64le(count, 2);
  transcript.update(count);
  for (const auto& x : s) {
    transcript.update(codec::ByteView(x.sig.data(), 32));  // R only, no S
    transcript.update(codec::ByteView(x.pub.data(), x.pub.size()));
    codec::Bytes len;
    codec::append_u64le(len, x.msg.size());
    transcript.update(len);
    transcript.update(x.msg);
  }
  const auto seed = transcript.finalize();
  U256 z[2];
  for (std::uint64_t j = 0; j < 2; ++j) {
    Sha512 zh;
    zh.update(codec::ByteView(seed.data(), seed.size()));
    codec::Bytes idx;
    codec::append_u64le(idx, j);
    zh.update(idx);
    const auto zd = zh.finalize();
    z[j] = U256::from_bytes_le(codec::ByteView(zd.data(), 16));
    if (z[j].is_zero()) z[j] = U256::from_u64(1);
  }

  // Doctor the S halves: S1 += z2, S2 -= z1 (mod L).
  U256 l;
  l.w[0] = 0x5812631A5CF5D3EDULL;
  l.w[1] = 0x14DEF9DEA2F79CD6ULL;
  l.w[3] = 0x1000000000000000ULL;
  const U256 one = U256::from_u64(1);
  U256 s0 = U256::from_bytes_le(codec::ByteView(s[0].sig.data() + 32, 32));
  U256 s1 = U256::from_bytes_le(codec::ByteView(s[1].sig.data() + 32, 32));
  U256 minus_z0 = l;
  minus_z0.sub_in_place(z[0]);
  const auto s0p = muladd_mod(one, s0, z[1], l).to_bytes_le<32>();
  const auto s1p = muladd_mod(one, s1, minus_z0, l).to_bytes_le<32>();
  std::copy(s0p.begin(), s0p.end(), s[0].sig.begin() + 32);
  std::copy(s1p.begin(), s1p.end(), s[1].sig.begin() + 32);

  // Both doctored signatures are individually invalid...
  EXPECT_FALSE(Ed25519::verify(s[0].pub, s[0].msg, s[0].sig));
  EXPECT_FALSE(Ed25519::verify(s[1].pub, s[1].msg, s[1].sig));
  // ...and the batch must agree, not be fooled by the preserved linear sum.
  const auto res = Ed25519::verify_batch(entries_of(s));
  EXPECT_FALSE(res.all_valid);
  EXPECT_FALSE(res.valid[0]);
  EXPECT_FALSE(res.valid[1]);
}

TEST(Ed25519Batch, DeterministicAcrossReplays) {
  auto s = make_signed(10, 123);
  s[6].sig[0] ^= 1;
  const auto es = entries_of(s);
  const auto a = Ed25519::verify_batch(es);
  const auto b = Ed25519::verify_batch(es);
  EXPECT_EQ(a.all_valid, b.all_valid);
  EXPECT_EQ(a.valid, b.valid);
}

TEST(Ed25519Batch, AgreesWithScalarVerifyOnRandomizedSuite) {
  // 1k random cases in batches of 50: ~6% of entries tampered in assorted
  // ways; batch verdicts must equal scalar verdicts everywhere.
  sim::Rng rng(4242);
  std::size_t checked = 0;
  for (int round = 0; round < 20; ++round) {
    auto s = make_signed(50, 9000 + static_cast<std::uint64_t>(round));
    for (auto& x : s) {
      if (!rng.chance(0.06)) continue;
      switch (rng.next_u64() % 4) {
        case 0: x.sig[rng.next_u64() % 64] ^= 0x01; break;              // bad sig byte
        case 1: x.msg[rng.next_u64() % x.msg.size()] ^= 0x01; break;    // bad message
        case 2: x.sig[63] |= 0xE0; break;                               // S >= L
        default: x.pub[rng.next_u64() % 32] ^= 0x01; break;             // bad key
      }
    }
    const auto res = Ed25519::verify_batch(entries_of(s));
    for (std::size_t i = 0; i < s.size(); ++i) {
      const bool scalar = Ed25519::verify(s[i].pub, s[i].msg, s[i].sig);
      ASSERT_EQ(res.valid[i], scalar) << "round " << round << " entry " << i;
      ++checked;
    }
  }
  EXPECT_EQ(checked, 1000u);
}

// ------------------------------------------- shared signers and edge keys

/// A key whose secret the test holds, so it can build signatures that are
/// deliberately odd yet satisfy (or miss) the verification equation.
struct TestSigner {
  Ed25519::SigningKey sk;
  Ed25519::VerifyKey vk;
};

TestSigner test_signer(std::uint8_t tag) {
  Ed25519::Seed seed{};
  seed.fill(tag);
  auto [sk, vk] = Ed25519::keypair(seed);
  return TestSigner{sk, vk};
}

/// k = H(R || A || M) mod L, the challenge scalar of the verify equation.
U256 challenge(codec::ByteView r, const Ed25519::PublicKey& a, codec::ByteView m) {
  Sha512 h;
  h.update(r);
  h.update(codec::ByteView(a.data(), a.size()));
  h.update(m);
  const auto d = h.finalize();
  return mod_512(U512::from_bytes_le(codec::ByteView(d.data(), d.size())), kOrderL);
}

Ed25519::PublicKey key_from_hex(const char* hex_str) {
  Ed25519::PublicKey out{};
  for (std::size_t i = 0; i < out.size(); ++i) {
    out[i] = static_cast<std::uint8_t>(std::stoi(std::string(hex_str + 2 * i, 2), nullptr, 16));
  }
  return out;
}

/// Batch verdicts (prepared keys and raw keys, several shardings) must equal
/// scalar verdicts entry by entry.
void expect_batch_agrees(const std::vector<Signed>& s, const std::vector<const Ed25519::VerifyKey*>& keys,
                         const std::string& what) {
  std::vector<bool> scalar(s.size());
  for (std::size_t i = 0; i < s.size(); ++i) scalar[i] = Ed25519::verify(s[i].pub, s[i].msg, s[i].sig);
  auto raw = entries_of(s);
  auto prepared = raw;
  for (std::size_t i = 0; i < s.size(); ++i) prepared[i].key = keys[i];
  for (const auto* es : {&raw, &prepared}) {
    for (const std::size_t shards : {1u, 3u}) {
      const auto res = Ed25519::verify_batch_sharded(*es, shards);
      bool all = true;
      for (std::size_t i = 0; i < s.size(); ++i) {
        ASSERT_EQ(res.valid[i], scalar[i])
            << what << " entry " << i << (es == &raw ? " raw" : " prepared") << " shards "
            << shards;
        all = all && scalar[i];
      }
      EXPECT_EQ(res.all_valid, all) << what;
    }
  }
}

TEST(Ed25519Batch, SharedSignersWithHiddenForgeriesAgreeWithScalar) {
  // Entries from 3 signers, so each signer's entries merge into one A
  // term; forgeries hide among same-key valid entries, so the combined
  // check fails and bisection has to separate them inside a group.
  std::vector<TestSigner> signers = {test_signer(1), test_signer(2), test_signer(3)};
  sim::Rng rng(8080);
  std::size_t forged_total = 0;
  for (int round = 0; round < 12; ++round) {
    const std::size_t n = 8 + rng.next_u64() % 40;
    std::vector<Signed> s(n);
    std::vector<const Ed25519::VerifyKey*> keys(n);
    for (std::size_t i = 0; i < n; ++i) {
      const TestSigner& t = signers[rng.next_u64() % signers.size()];
      s[i].pub = t.vk.bytes;
      keys[i] = &t.vk;
      s[i].msg.resize(1 + rng.next_u64() % 50);
      for (auto& b : s[i].msg) b = static_cast<std::uint8_t>(rng.next_u64());
      s[i].sig = Ed25519::sign(t.sk, s[i].msg);
    }
    const std::size_t forged = 1 + rng.next_u64() % 3;
    for (std::size_t f = 0; f < forged; ++f) {
      Signed& x = s[rng.next_u64() % n];
      switch (rng.next_u64() % 3) {
        case 0: x.sig[32 + rng.next_u64() % 31] ^= 0x04; break;  // S off by a bit
        case 1: x.msg.push_back(0x5A); break;                     // message changed
        default: {  // signed by a different key of the same batch
          const TestSigner& other = signers[rng.next_u64() % signers.size()];
          x.sig = Ed25519::sign(other.sk, x.msg);
        }
      }
      ++forged_total;
    }
    expect_batch_agrees(s, keys, "round " + std::to_string(round));
  }
  EXPECT_GT(forged_total, 12u);
}

TEST(Ed25519Batch, NonCanonicalRSameVerdictAsScalar) {
  // S = k*a makes S*B - k*A the identity. Encoded canonically as R that is
  // a valid signature; encoded as y = 1 + p (non-canonical) scalar verify
  // rejects it, because it compares bytes, so the batch must reject it too.
  const TestSigner t = test_signer(9);
  std::array<std::uint8_t, 32> r_canonical{};
  r_canonical[0] = 0x01;
  std::array<std::uint8_t, 32> r_noncanonical;
  r_noncanonical.fill(0xFF);
  r_noncanonical[0] = 0xEE;  // 2^255 - 19 + 1
  r_noncanonical[31] = 0x7F;
  std::array<std::uint8_t, 32> r_y0_noncanonical;  // y = 0 + p: a 4-torsion point
  r_y0_noncanonical.fill(0xFF);
  r_y0_noncanonical[0] = 0xED;
  r_y0_noncanonical[31] = 0x7F;

  std::vector<Signed> s = make_signed(6, 31);
  std::vector<const Ed25519::VerifyKey*> keys(s.size(), nullptr);
  std::vector<Ed25519::VerifyKey> owned;
  owned.reserve(s.size() + 3);
  for (std::size_t i = 0; i < s.size(); ++i) {
    owned.push_back(*Ed25519::prepare(s[i].pub));
    keys[i] = &owned.back();
  }
  int expect_valid = 0;
  for (const auto& r : {r_canonical, r_noncanonical, r_y0_noncanonical}) {
    Signed x;
    x.pub = t.vk.bytes;
    x.msg = codec::to_bytes("identity nonce");
    const U256 k = challenge(codec::ByteView(r.data(), r.size()), x.pub, x.msg);
    const auto s_bytes = muladd_mod(k, t.sk.a, U256::zero(), kOrderL).to_bytes_le<32>();
    std::copy(r.begin(), r.end(), x.sig.begin());
    std::copy(s_bytes.begin(), s_bytes.end(), x.sig.begin() + 32);
    expect_valid += Ed25519::verify(x.pub, x.msg, x.sig) ? 1 : 0;
    s.push_back(x);
    keys.push_back(&t.vk);
  }
  EXPECT_EQ(expect_valid, 1);  // only the canonical encoding verifies
  expect_batch_agrees(s, keys, "non-canonical R");
}

TEST(Ed25519Batch, SmallOrderKeySameVerdictAsScalar) {
  // Public keys of order 1, 2, 4 and 8. With R = S*B, scalar verify accepts
  // exactly when k*A is the identity (k a multiple of A's order); the
  // combined check would multiply A by (z*k mod L) instead, so it must
  // leave such keys to scalar verification.
  const std::vector<Ed25519::PublicKey> small = {
      key_from_hex("0100000000000000000000000000000000000000000000000000000000000000"),
      key_from_hex("ecffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff7f"),
      key_from_hex("0000000000000000000000000000000000000000000000000000000000000000"),
      key_from_hex("26e8958fc2b227b045c3f489f2ef98f0d5dfac05d3c63339b13802886d53fc05"),
  };
  const std::vector<std::uint64_t> orders = {1, 2, 4, 8};
  std::vector<Ed25519::VerifyKey> small_keys;
  for (std::size_t i = 0; i < small.size(); ++i) {
    const auto a = Ge::decompress(codec::ByteView(small[i].data(), small[i].size()));
    ASSERT_TRUE(a.has_value()) << i;
    EXPECT_TRUE(a->scalar_mul(U256::from_u64(orders[i])).is_identity()) << i;
    if (orders[i] > 1) {
      EXPECT_FALSE(a->scalar_mul(U256::from_u64(orders[i] / 2)).is_identity()) << i;
    }
    small_keys.push_back(*Ed25519::prepare(small[i]));
    EXPECT_FALSE(small_keys.back().torsion_free && orders[i] > 1) << i;
  }

  sim::Rng rng(1212);
  int scalar_valid = 0, scalar_invalid = 0;
  for (int round = 0; round < 8; ++round) {
    std::vector<Signed> s = make_signed(6, 500 + static_cast<std::uint64_t>(round));
    std::vector<Ed25519::VerifyKey> owned;
    owned.reserve(s.size());
    std::vector<const Ed25519::VerifyKey*> keys;
    for (const auto& x : s) {
      owned.push_back(*Ed25519::prepare(x.pub));
      keys.push_back(&owned.back());
    }
    for (int j = 0; j < 10; ++j) {
      const std::size_t which = rng.next_u64() % small.size();
      Signed x;
      x.pub = small[which];
      x.msg = codec::to_bytes("small order " + std::to_string(round) + "/" + std::to_string(j));
      U256 sc = U256::from_u64(rng.next_u64());
      sc.w[1] = rng.next_u64();
      const auto r_enc = Ge::base_scalar_mul(sc).compress();
      const auto s_enc = sc.to_bytes_le<32>();
      std::copy(r_enc.begin(), r_enc.end(), x.sig.begin());
      std::copy(s_enc.begin(), s_enc.end(), x.sig.begin() + 32);
      (Ed25519::verify(x.pub, x.msg, x.sig) ? scalar_valid : scalar_invalid) += 1;
      s.push_back(x);
      keys.push_back(&small_keys[which]);
    }
    expect_batch_agrees(s, keys, "round " + std::to_string(round));
  }
  // Both verdicts occur, so agreement is tested in both directions.
  EXPECT_GT(scalar_valid, 5);
  EXPECT_GT(scalar_invalid, 5);
}

TEST(PkiBatch, ConcurrentSignVerifyAgree) {
  // Prepared keys and the fixed-base tables are shared read-only across
  // threads (the verify pool, node threads); run under TSan in CI.
  Pki pki(99);
  for (ProcessId id = 0; id < 8; ++id) pki.register_process(id);
  std::vector<std::thread> threads;
  std::vector<int> failures(4, 0);
  for (std::size_t t = 0; t < failures.size(); ++t) {
    threads.emplace_back([&pki, &failures, t] {
      std::vector<codec::Bytes> msgs;
      std::vector<Ed25519::Signature> sigs;
      std::vector<Pki::SignedMessage> items;
      for (ProcessId id = 0; id < 8; ++id) {
        msgs.push_back(codec::to_bytes("thread " + std::to_string(t) + " id " + std::to_string(id)));
      }
      for (ProcessId id = 0; id < 8; ++id) sigs.push_back(pki.sign(id, msgs[id]));
      sigs[3][40] ^= 0x01;
      for (ProcessId id = 0; id < 8; ++id) {
        items.push_back({id, msgs[id], &sigs[id]});
        if (pki.verify(id, msgs[id], sigs[id]) != (id != 3)) ++failures[t];
      }
      const auto res = pki.verify_batch(items);
      for (ProcessId id = 0; id < 8; ++id) {
        if (res.valid[id] != (id != 3)) ++failures[t];
      }
    });
  }
  for (auto& th : threads) th.join();
  for (std::size_t t = 0; t < failures.size(); ++t) EXPECT_EQ(failures[t], 0) << t;
}

// ---------------------------------------------------------------- Pki batch

TEST(PkiBatch, MapsVerdictsAndRejectsUnknownSigners) {
  Pki pki(7);
  for (ProcessId id = 0; id < 4; ++id) pki.register_process(id);
  const auto m0 = codec::to_bytes("epoch 1 hash");
  const auto m1 = codec::to_bytes("epoch 2 hash");
  const auto m2 = codec::to_bytes("batch hash");
  const auto s0 = pki.sign(0, m0);
  const auto s1 = pki.sign(1, m1);
  auto s2 = pki.sign(2, m2);
  s2[3] ^= 0xFF;  // forged
  const auto s3 = pki.sign(3, m0);

  const std::vector<Pki::SignedMessage> items = {
      {0, m0, &s0},
      {1, m1, &s1},
      {2, m2, &s2},
      {99, m0, &s3},  // unknown process
      {3, m0, &s3},
  };
  const auto res = pki.verify_batch(items);
  EXPECT_FALSE(res.all_valid);
  ASSERT_EQ(res.valid.size(), 5u);
  EXPECT_TRUE(res.valid[0]);
  EXPECT_TRUE(res.valid[1]);
  EXPECT_FALSE(res.valid[2]);  // forged
  EXPECT_FALSE(res.valid[3]);  // unknown signer
  EXPECT_TRUE(res.valid[4]);
}

TEST(PkiBatch, AllValidAcrossProcesses) {
  Pki pki(21);
  std::vector<codec::Bytes> msgs;
  std::vector<Ed25519::Signature> sigs;
  for (ProcessId id = 0; id < 12; ++id) {
    pki.register_process(id);
    codec::Bytes m = codec::to_bytes("msg-");
    m.push_back(static_cast<std::uint8_t>(id));
    msgs.push_back(std::move(m));
    sigs.push_back(pki.sign(id, msgs.back()));
  }
  std::vector<Pki::SignedMessage> items;
  for (ProcessId id = 0; id < 12; ++id) items.push_back({id, msgs[id], &sigs[id]});
  const auto res = pki.verify_batch(items);
  EXPECT_TRUE(res.all_valid);
}

}  // namespace
}  // namespace setchain::crypto
