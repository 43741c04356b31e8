#include <gtest/gtest.h>

#include <atomic>
#include <latch>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "codec/hex.hpp"
#include "crypto/bigint.hpp"
#include "crypto/ed25519.hpp"
#include "crypto/fe25519.hpp"
#include "crypto/ge25519.hpp"
#include "crypto/pki.hpp"
#include "crypto/sha256.hpp"
#include "crypto/sha512.hpp"
#include "sim/rng.hpp"

namespace setchain::crypto {
namespace {

std::string hex(codec::ByteView b) { return codec::to_hex(b); }

template <std::size_t N>
std::array<std::uint8_t, N> arr(const char* h) {
  const auto b = codec::from_hex(h);
  EXPECT_TRUE(b && b->size() == N);
  std::array<std::uint8_t, N> out{};
  std::copy(b->begin(), b->end(), out.begin());
  return out;
}

// ------------------------------------------------------------------- SHA-256

TEST(Sha256, NistVectors) {
  EXPECT_EQ(hex(Sha256::hash(codec::to_bytes("abc"))),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
  EXPECT_EQ(hex(Sha256::hash({})),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
  EXPECT_EQ(hex(Sha256::hash(codec::to_bytes(
                "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"))),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1");
}

TEST(Sha256, MillionA) {
  Sha256 ctx;
  const codec::Bytes chunk(1000, 'a');
  for (int i = 0; i < 1000; ++i) ctx.update(chunk);
  const auto d = ctx.finalize();
  EXPECT_EQ(hex(codec::ByteView(d.data(), d.size())),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0");
}

TEST(Sha256, IncrementalMatchesOneShot) {
  const auto msg = codec::to_bytes("the quick brown fox jumps over the lazy dog etc");
  for (std::size_t split = 0; split <= msg.size(); ++split) {
    Sha256 ctx;
    ctx.update(codec::ByteView(msg.data(), split));
    ctx.update(codec::ByteView(msg.data() + split, msg.size() - split));
    EXPECT_EQ(ctx.finalize(), Sha256::hash(msg)) << split;
  }
}

// ------------------------------------------------------------------- SHA-512

TEST(Sha512, NistVectors) {
  EXPECT_EQ(hex(Sha512::hash(codec::to_bytes("abc"))),
            "ddaf35a193617abacc417349ae20413112e6fa4e89a97ea20a9eeee64b55d39a"
            "2192992a274fc1a836ba3c23a3feebbd454d4423643ce80e2a9ac94fa54ca49f");
  EXPECT_EQ(hex(Sha512::hash({})),
            "cf83e1357eefb8bdf1542850d66d8007d620e4050b5715dc83f4a921d36ce9ce"
            "47d0d13c5d85f2b0ff8318d2877eec2f63b931bd47417a81a538327af927da3e");
  EXPECT_EQ(
      hex(Sha512::hash(codec::to_bytes(
          "abcdefghbcdefghicdefghijdefghijkefghijklfghijklmghijklmnhijklmno"
          "ijklmnopjklmnopqklmnopqrlmnopqrsmnopqrstnopqrstu"))),
      "8e959b75dae313da8cf4f72814fc143f8f7779c6eb9f7fa17299aeadb6889018"
      "501d289e4900f7e4331b99dec4b5433ac7d329eeb6dd26545e96e55b874be909");
}

TEST(Sha512, MillionA) {
  Sha512 ctx;
  const codec::Bytes chunk(1000, 'a');
  for (int i = 0; i < 1000; ++i) ctx.update(chunk);
  const auto d = ctx.finalize();
  EXPECT_EQ(hex(codec::ByteView(d.data(), d.size())),
            "e718483d0ce769644e2e42c7bc15b4638e1f98b13b2044285632a803afa973eb"
            "de0ff244877ea60a4cb0432ce577c31beb009c5c2c49aa2e4eadb217ad8cc09b");
}

TEST(Sha512, IncrementalAcrossBlockBoundary) {
  codec::Bytes msg(300);
  for (std::size_t i = 0; i < msg.size(); ++i) msg[i] = static_cast<std::uint8_t>(i);
  for (const std::size_t split : {0u, 1u, 63u, 64u, 127u, 128u, 129u, 255u, 300u}) {
    Sha512 ctx;
    ctx.update(codec::ByteView(msg.data(), split));
    ctx.update(codec::ByteView(msg.data() + split, msg.size() - split));
    EXPECT_EQ(ctx.finalize(), Sha512::hash(msg)) << split;
  }
}

// ------------------------------------------------------- SHA padding sweep
// finalize() pads in one step (0x80, a memset, at most two compressions).
// Every message length 0..300 crosses each padding case: the length field
// fits after the 0x80 (SHA-256 lengths mod 64 up to 55, SHA-512 up to 111)
// or spills into one more block (56..63, 112..127). Each digest must equal
// the byte-at-a-time digest, and the digests of all 301 prefixes, hashed
// together, must equal the value an independent FIPS 180-4 implementation
// (Python hashlib) gives for the same prefixes.

codec::Bytes sweep_message() {
  codec::Bytes msg(300);
  for (std::size_t i = 0; i < msg.size(); ++i) msg[i] = static_cast<std::uint8_t>(i * 7 + 3);
  return msg;
}

template <typename H>
std::string sweep_every_length(const codec::Bytes& msg) {
  codec::Bytes all;
  for (std::size_t len = 0; len <= msg.size(); ++len) {
    const auto one_shot = H::hash(codec::ByteView(msg.data(), len));
    H bytewise;
    for (std::size_t i = 0; i < len; ++i) bytewise.update(codec::ByteView(msg.data() + i, 1));
    EXPECT_EQ(bytewise.finalize(), one_shot) << len;
    all.insert(all.end(), one_shot.begin(), one_shot.end());
  }
  const auto folded = H::hash(all);
  return hex(codec::ByteView(folded.data(), folded.size()));
}

TEST(ShaPadding, Sha256EveryLengthMatchesReference) {
  const codec::Bytes msg = sweep_message();
  EXPECT_EQ(sweep_every_length<Sha256>(msg),
            "7d917fbd2cf49ddff9ad0a8706bba32d204e92e71d2e369c5a03d6af29278c9f");
  const std::vector<std::pair<std::size_t, const char*>> boundaries = {
      {55, "e7313d333c272e639f790978283f9eb392e843d0f29b7016828bb1daa4aac70b"},
      {56, "4324d65f3c103567f5589c710bc08f8523f929a9272e3af36fc968e52abc6c27"},
      {63, "81c80242132f230c3bd41b3e63bbcff16107339549214a99614ff26664625055"},
      {64, "39e3d7b6b5d075d37d053ad89b24b41bef4f3c29760c84447cab3f3be1882241"},
  };
  for (const auto& [len, want] : boundaries) {
    const auto d = Sha256::hash(codec::ByteView(msg.data(), len));
    EXPECT_EQ(hex(codec::ByteView(d.data(), d.size())), want) << len;
  }
}

TEST(ShaPadding, Sha512EveryLengthMatchesReference) {
  const codec::Bytes msg = sweep_message();
  EXPECT_EQ(sweep_every_length<Sha512>(msg),
            "404431b1c0eac12729b20176c61b0e1c561b6b20d2ecbb7ee1126c361943d724"
            "d7c0814a8daf5c3a2a7d3e431a0aaf58c12f96d8c3370582b777fd375c3c972f");
  const std::vector<std::pair<std::size_t, const char*>> boundaries = {
      {111, "68cffa6d0d76f309c9ce0d35280939f8e25990c43b7b086ccdf709be35b07d4d"
            "dba599541ff2b1c19d34ea49aeafb9659adb7ac3c0b078bb30a22d57fc6687ef"},
      {112, "d0865c524d1dddf7c23b799c413f5adcd7caefd3f66a9b49750ec81066012c25"
            "a8bcf94ddea6dc525691673097ca40e0101e897fc97218cfdb0704084e2bef4b"},
      {127, "e0b6a20f1c0c88970a9340152cd5a1c1ecf3d3b8de55102741879438079473540"
            "133b812706e5dbec322c8c9523b6fc8c6d16ee626e87ad5fe3d2916afedc369"},
      {128, "99b16f17aa0b969a5b8f08f367719d516e330ccd2660b6f0688ec031dbc783de"
            "50a1cd185a2568dba75070a2403d17d4741d163578515dfd2ff756ddfe4d47b1"},
  };
  for (const auto& [len, want] : boundaries) {
    const auto d = Sha512::hash(codec::ByteView(msg.data(), len));
    EXPECT_EQ(hex(codec::ByteView(d.data(), d.size())), want) << len;
  }
}

// -------------------------------------------------------------------- bigint

TEST(BigInt, AddSubCarry) {
  U256 a = U256::from_u64(0xFFFFFFFFFFFFFFFFULL);
  const U256 one = U256::from_u64(1);
  EXPECT_EQ(a.add_in_place(one), 0u);
  EXPECT_EQ(a.w[0], 0u);
  EXPECT_EQ(a.w[1], 1u);
  EXPECT_EQ(a.sub_in_place(one), 0u);
  EXPECT_EQ(a.w[0], 0xFFFFFFFFFFFFFFFFULL);
  EXPECT_EQ(a.w[1], 0u);
}

TEST(BigInt, SubBorrowsToZero) {
  U256 a = U256::from_u64(5);
  const U256 b = U256::from_u64(7);
  EXPECT_EQ(a.sub_in_place(b), 1u);  // borrow out: a < b
}

TEST(BigInt, MulMatchesSchoolbookSmall) {
  const U256 a = U256::from_u64(0xFFFFFFFFULL);
  const U512 p = mul_256(a, a);
  EXPECT_EQ(p.w[0], 0xFFFFFFFE00000001ULL);
  for (int i = 1; i < 8; ++i) EXPECT_EQ(p.w[i], 0u);
}

TEST(BigInt, ModReducesCorrectly) {
  // x = q*m + r with small values checked exactly.
  const U256 m = U256::from_u64(97);
  U512 x;
  x.w[0] = 12345;
  const U256 r = mod_512(x, m);
  EXPECT_EQ(r.w[0], 12345 % 97);
}

TEST(BigInt, ModOfLargeValue) {
  U512 x;
  for (auto& w : x.w) w = 0xFFFFFFFFFFFFFFFFULL;
  const U256 m = U256::from_u64(1000003);
  const U256 r = mod_512(x, m);
  EXPECT_LT(r.w[0], 1000003u);
  for (int i = 1; i < 4; ++i) EXPECT_EQ(r.w[i], 0u);
}

TEST(BigInt, MulAddModProperty) {
  sim::Rng rng(5);
  const U256 m = U256::from_u64(1'000'000'007ULL);
  for (int i = 0; i < 200; ++i) {
    const std::uint64_t a = rng.next_u64() % 1'000'000'007ULL;
    const std::uint64_t b = rng.next_u64() % 1'000'000'007ULL;
    const std::uint64_t c = rng.next_u64() % 1'000'000'007ULL;
    const U256 r = muladd_mod(U256::from_u64(a), U256::from_u64(b), U256::from_u64(c), m);
    const auto expect = static_cast<std::uint64_t>(
        (static_cast<unsigned __int128>(a) * b + c) % 1'000'000'007ULL);
    EXPECT_EQ(r.w[0], expect);
  }
}

TEST(BigInt, BitLengthAndShift) {
  EXPECT_EQ(U256::zero().bit_length(), 0u);
  EXPECT_EQ(U256::from_u64(1).bit_length(), 1u);
  EXPECT_EQ(U256::from_u64(0x8000000000000000ULL).bit_length(), 64u);
  const U256 s = U256::from_u64(1).shl(130);
  EXPECT_EQ(s.bit_length(), 131u);
  EXPECT_TRUE(s.bit(130));
  EXPECT_FALSE(s.bit(129));
}

// ------------------------------------------------------------------- fe25519

TEST(Fe25519, ToFromBytesRoundtrip) {
  sim::Rng rng(31);
  for (int i = 0; i < 200; ++i) {
    std::array<std::uint8_t, 32> b{};
    for (auto& x : b) x = static_cast<std::uint8_t>(rng.next_u64());
    b[31] &= 0x7F;  // < 2^255
    const Fe f = Fe::from_bytes(codec::ByteView(b.data(), b.size()));
    // Values >= p re-encode reduced; values < p roundtrip exactly. Check
    // via double conversion (idempotence of the canonical form).
    const auto c1 = f.to_bytes();
    const Fe g = Fe::from_bytes(codec::ByteView(c1.data(), c1.size()));
    EXPECT_EQ(g.to_bytes(), c1);
  }
}

TEST(Fe25519, FieldAxioms) {
  sim::Rng rng(33);
  for (int i = 0; i < 100; ++i) {
    const Fe a = Fe::from_u64(rng.next_u64());
    const Fe b = Fe::from_u64(rng.next_u64());
    const Fe c = Fe::from_u64(rng.next_u64());
    EXPECT_TRUE((a + b).equals(b + a));
    EXPECT_TRUE((a * b).equals(b * a));
    EXPECT_TRUE(((a + b) * c).equals(a * c + b * c));
    EXPECT_TRUE((a - a).is_zero());
    EXPECT_TRUE((a * Fe::one()).equals(a));
  }
}

TEST(Fe25519, InverseIsInverse) {
  sim::Rng rng(37);
  for (int i = 0; i < 20; ++i) {
    const Fe a = Fe::from_u64(rng.next_u64() | 1);
    EXPECT_TRUE((a * a.invert()).equals(Fe::one()));
  }
}

TEST(Fe25519, SqrtMinusOneSquaresToMinusOne) {
  const Fe i = fe_const::kSqrtM1;
  EXPECT_TRUE(i.square().equals(Fe::one().negate()));
}

TEST(Fe25519, DConstantMatchesRfc8032) {
  // d = 370957059346694393431380835087545651895421138798432190163887855330
  //     85940283555
  const auto d_bytes = fe_const::kD.to_bytes();
  EXPECT_EQ(hex(codec::ByteView(d_bytes.data(), 32)),
            "a3785913ca4deb75abd841414d0a700098e879777940c78c73fe6f2bee6c0352");
}

// ------------------------------------------------------------------- ge25519

TEST(Ge25519, BasePointEncoding) {
  const auto enc = Ge::base().compress();
  EXPECT_EQ(hex(codec::ByteView(enc.data(), 32)),
            "5866666666666666666666666666666666666666666666666666666666666666");
}

TEST(Ge25519, IdentityLaws) {
  const Ge b = Ge::base();
  const Ge id = Ge::identity();
  EXPECT_EQ(b.add(id).compress(), b.compress());
  EXPECT_EQ(b.add(b.negate()).compress(), id.compress());
}

TEST(Ge25519, DoubleEqualsAdd) {
  const Ge b = Ge::base();
  EXPECT_EQ(b.dbl().compress(), b.add(b).compress());
}

TEST(Ge25519, ScalarMulDistributes) {
  const Ge b = Ge::base();
  const Ge lhs = b.scalar_mul(U256::from_u64(41)).add(b);
  const Ge rhs = b.scalar_mul(U256::from_u64(42));
  EXPECT_EQ(lhs.compress(), rhs.compress());
}

TEST(Ge25519, DecompressRejectsNonCurvePoints) {
  // y = 2 gives x^2 non-square on edwards25519.
  std::array<std::uint8_t, 32> enc{};
  enc[0] = 2;
  int rejected = 0;
  for (int sign = 0; sign < 2; ++sign) {
    enc[31] = static_cast<std::uint8_t>(sign << 7);
    if (!Ge::decompress(codec::ByteView(enc.data(), 32)).has_value()) ++rejected;
  }
  EXPECT_EQ(rejected, 2);
}

TEST(Ge25519, CompressDecompressRoundtrip) {
  for (std::uint64_t k : {1ULL, 2ULL, 3ULL, 99ULL, 123456789ULL}) {
    const Ge p = Ge::base().scalar_mul(U256::from_u64(k));
    const auto enc = p.compress();
    const auto q = Ge::decompress(codec::ByteView(enc.data(), enc.size()));
    ASSERT_TRUE(q.has_value()) << k;
    EXPECT_EQ(q->compress(), enc) << k;
  }
}

// ------------------------------------------- differential kernel tests
// The fast kernels (dedicated squaring, addition-chain exponentiations,
// cached/affine point forms, the fixed-base comb) against the plain
// definitions they replace.

/// Bit-by-bit square-and-multiply: the generic exponentiation the addition
/// chains replaced, kept here as their reference.
Fe reference_pow(const Fe& a, const std::array<std::uint8_t, 32>& exp_le) {
  Fe result = Fe::one();
  for (int bit = 255; bit >= 0; --bit) {
    result = result * result;
    if ((exp_le[static_cast<std::size_t>(bit / 8)] >> (bit % 8)) & 1) result = result * a;
  }
  return result;
}

/// All-0xFF exponent bytes with the given lowest and highest byte.
std::array<std::uint8_t, 32> exponent(std::uint8_t lowest, std::uint8_t highest) {
  std::array<std::uint8_t, 32> e;
  e.fill(0xFF);
  e[0] = lowest;
  e[31] = highest;
  return e;
}

const auto kPMinus2 = exponent(0xEB, 0x7F);    // 2^255 - 21
const auto kPMinus5Over8 = exponent(0xFD, 0x0F);  // 2^252 - 3
const auto kPMinus1Over4 = exponent(0xFB, 0x1F);  // 2^253 - 5

/// RFC 8032 square root of u/v through the reference exponentiation.
bool reference_sqrt_ratio(const Fe& u, const Fe& v, Fe& x) {
  const Fe v3 = v * v * v;
  const Fe v7 = v3 * v3 * v;
  const Fe cand = u * v3 * reference_pow(u * v7, kPMinus5Over8);
  const Fe check = v * cand * cand;
  if (check.equals(u)) {
    x = cand;
    return true;
  }
  if (check.equals(u.negate())) {
    x = cand * reference_pow(Fe::from_u64(2), kPMinus1Over4);
    return true;
  }
  return false;
}

/// Random field element with every limb anywhere below 2^52 — the bound
/// the multiply and square accept (inputs need not be reduced).
Fe random_fe_wide(sim::Rng& rng) {
  Fe f;
  for (auto& l : f.v) l = rng.next_u64() & ((std::uint64_t{1} << 52) - 1);
  return f;
}

TEST(FeKernel, SquareMatchesMultiply) {
  sim::Rng rng(61);
  for (int i = 0; i < 2000; ++i) {
    const Fe a = random_fe_wide(rng);
    ASSERT_EQ(a.square().to_bytes(), (a * a).to_bytes()) << i;
  }
  // Limbs at the carry bound, alone and mixed with zeros.
  constexpr std::uint64_t kTop = (std::uint64_t{1} << 52) - 1;
  for (int mask = 0; mask < 32; ++mask) {
    Fe a;
    for (int l = 0; l < 5; ++l) a.v[static_cast<std::size_t>(l)] = (mask >> l) & 1 ? kTop : 0;
    EXPECT_EQ(a.square().to_bytes(), (a * a).to_bytes()) << mask;
    EXPECT_EQ(a.square_times(3).to_bytes(), (a * a * (a * a) * (a * a * (a * a))).to_bytes())
        << mask;
  }
}

TEST(FeKernel, InvertMatchesReferencePow) {
  sim::Rng rng(67);
  EXPECT_TRUE(Fe::zero().invert().is_zero());
  EXPECT_TRUE(Fe::one().invert().equals(Fe::one()));
  for (int i = 0; i < 50; ++i) {
    const Fe a = random_fe_wide(rng);
    EXPECT_EQ(a.invert().to_bytes(), reference_pow(a, kPMinus2).to_bytes()) << i;
    EXPECT_EQ(a.pow22523().to_bytes(), reference_pow(a, kPMinus5Over8).to_bytes()) << i;
  }
}

TEST(FeKernel, SqrtRatioMatchesReference) {
  sim::Rng rng(71);
  int roots = 0;
  for (int i = 0; i < 100; ++i) {
    const Fe u = random_fe_wide(rng);
    const Fe v = i % 10 == 0 ? Fe::one() : random_fe_wide(rng);
    Fe x_fast, x_ref;
    const bool ok_fast = fe_sqrt_ratio(u, v, x_fast);
    const bool ok_ref = reference_sqrt_ratio(u, v, x_ref);
    ASSERT_EQ(ok_fast, ok_ref) << i;
    if (!ok_fast) continue;
    ++roots;
    EXPECT_EQ(x_fast.to_bytes(), x_ref.to_bytes()) << i;
    EXPECT_TRUE((v * x_fast.square()).equals(u)) << i;
  }
  EXPECT_GT(roots, 20);  // about half of random ratios are squares
}

TEST(FeKernel, ConstantsMatchDefinitions) {
  const Fe d = Fe::from_u64(121665).negate() * Fe::from_u64(121666).invert();
  EXPECT_EQ(fe_const::kD.to_bytes(), d.to_bytes());
  EXPECT_EQ(fe_const::kD2.to_bytes(), (d + d).to_bytes());
  EXPECT_EQ(fe_const::kSqrtM1.to_bytes(),
            reference_pow(Fe::from_u64(2), kPMinus1Over4).to_bytes());
}

U256 random_scalar(sim::Rng& rng) {
  U256 k;
  for (auto& w : k.w) w = rng.next_u64();
  return k;
}

/// Curve points with and without small-order parts: multiples of B, the
/// identity, the 2-torsion point (0, -1) and a 4-torsion point (x, 0).
std::vector<Ge> sample_points(sim::Rng& rng) {
  std::vector<Ge> pts = {Ge::identity(), Ge::base(),
                         Ge{Fe::zero(), Fe::one().negate(), Fe::one(), Fe::zero()}};
  const std::array<std::uint8_t, 32> y_zero{};  // y = 0: x = sqrt(-1), order 4
  pts.push_back(*Ge::decompress(codec::ByteView(y_zero.data(), y_zero.size())));
  for (int i = 0; i < 6; ++i) {
    U256 k = random_scalar(rng);
    k.w[3] &= 0x0FFFFFFFFFFFFFFFULL;
    pts.push_back(Ge::base().scalar_mul(k));
  }
  pts.push_back(pts[4].add(pts[3]));  // prime-order part plus 4-torsion
  return pts;
}

TEST(GeKernel, PointFormsMatchUnifiedAdd) {
  sim::Rng rng(73);
  const auto pts = sample_points(rng);
  for (std::size_t i = 0; i < pts.size(); ++i) {
    const Ge& p = pts[i];
    EXPECT_EQ(p.to_p2().dbl().to_p3().compress(), p.add(p).compress()) << i;
    for (std::size_t j = 0; j < pts.size(); ++j) {
      const Ge& q = pts[j];
      const auto sum = p.add(q).compress();
      const auto diff = p.add(q.negate()).compress();
      EXPECT_EQ(p.add(q.to_cached()).to_p3().compress(), sum) << i << "," << j;
      EXPECT_EQ(p.sub(q.to_cached()).to_p3().compress(), diff) << i << "," << j;
      EXPECT_EQ(p.madd(GePrecomp::from(q)).to_p3().compress(), sum) << i << "," << j;
      EXPECT_EQ(p.msub(GePrecomp::from(q)).to_p3().compress(), diff) << i << "," << j;
      // The p2 route (no T) must describe the same point as the p3 route.
      const GeP2 via_p2 = p.add(q.to_cached()).to_p2();
      const Ge from_p2{via_p2.X, via_p2.Y, via_p2.Z, Fe::zero()};
      EXPECT_EQ(from_p2.compress(), sum) << i << "," << j;
    }
  }
}

TEST(GeKernel, OddMultiplesMatchScalarMul) {
  sim::Rng rng(79);
  for (const Ge& p : sample_points(rng)) {
    const GeOddMultiples odd = GeOddMultiples::of(p);
    for (std::size_t m = 0; m < odd.pts.size(); ++m) {
      const Ge want = p.scalar_mul(U256::from_u64(2 * m + 1));
      // identity + cached(mP) == mP
      EXPECT_EQ(Ge::identity().add(odd.pts[m]).to_p3().compress(), want.compress()) << m;
    }
  }
}

/// Scalars below 2^255 that stress the signed radix-16 recoding: small
/// digits, the carry boundary, L - 1, L and 2^255 - 1 (every digit at its
/// extreme), then random ones.
std::vector<U256> comb_edge_scalars(sim::Rng& rng, int randoms) {
  std::vector<U256> scalars = {U256::zero(), U256::from_u64(1), U256::from_u64(8),
                               U256::from_u64(15), U256::from_u64(16)};
  U256 l_minus_1 = kOrderL;
  l_minus_1.sub_in_place(U256::from_u64(1));
  scalars.push_back(l_minus_1);
  scalars.push_back(kOrderL);
  U256 top;  // 2^255 - 1
  for (auto& w : top.w) w = ~std::uint64_t{0};
  top.w[3] >>= 1;
  scalars.push_back(top);
  for (int i = 0; i < randoms; ++i) {
    U256 k = random_scalar(rng);
    k.w[3] &= 0x7FFFFFFFFFFFFFFFULL;
    scalars.push_back(k);
  }
  return scalars;
}

TEST(GeKernel, CombBaseScalarMulMatchesPlain) {
  sim::Rng rng(83);
  std::vector<U256> scalars = comb_edge_scalars(rng, 20);
  U256 all_ones;  // 2^256 - 1: bit 255 set, the non-comb path
  for (auto& w : all_ones.w) w = ~std::uint64_t{0};
  scalars.push_back(all_ones);
  for (int i = 0; i < 20; ++i) scalars.push_back(random_scalar(rng));
  for (std::size_t i = 0; i < scalars.size(); ++i) {
    EXPECT_EQ(Ge::base_scalar_mul(scalars[i]).compress(),
              Ge::base().scalar_mul(scalars[i]).compress())
        << i;
  }
  EXPECT_TRUE(Ge::base_scalar_mul(kOrderL).is_identity());
}

TEST(GeKernel, CombOfAnyPointMatchesScalarMul) {
  // GeComb::of over points with and without small-order parts (the batch
  // inversion must not care), single terms and interleaved pairs.
  sim::Rng rng(97);
  const auto pts = sample_points(rng);
  const auto scalars = comb_edge_scalars(rng, 6);
  std::vector<std::unique_ptr<const GeComb>> combs;
  for (const Ge& p : pts) combs.push_back(GeComb::of(p));
  for (std::size_t i = 0; i < pts.size(); ++i) {
    for (std::size_t j = 0; j < scalars.size(); ++j) {
      const Ge::CombTerm term{scalars[j], combs[i].get()};
      EXPECT_EQ(Ge::comb_sum(std::span(&term, 1)).compress(),
                pts[i].scalar_mul(scalars[j]).compress())
          << i << "," << j;
    }
    const std::size_t q = (i + 1) % pts.size();
    const U256& a = scalars[(3 * i) % scalars.size()];
    const U256& b = scalars[(3 * i + 5) % scalars.size()];
    const std::array<Ge::CombTerm, 2> pair{{{a, combs[i].get()}, {b, combs[q].get()}}};
    EXPECT_EQ(Ge::comb_sum(pair).compress(),
              pts[i].scalar_mul(a).add(pts[q].scalar_mul(b)).compress())
        << i;
  }
  // Table layout: rows[r][j] is (j+1) * 256^r * P in affine Niels form.
  for (const std::size_t i : {std::size_t{1}, std::size_t{3}, pts.size() - 1}) {
    for (const std::size_t r : {0u, 7u, 16u, 31u}) {
      for (std::size_t j = 0; j < 8; ++j) {
        std::array<std::uint8_t, 32> k_le{};
        k_le[r] = static_cast<std::uint8_t>(j + 1);
        const GePrecomp want =
            GePrecomp::from(pts[i].scalar_mul(U256::from_bytes_le(codec::ByteView(k_le))));
        const GePrecomp& got = combs[i]->rows[r][j];
        EXPECT_EQ(got.yplusx.to_bytes(), want.yplusx.to_bytes()) << i << "," << r << "," << j;
        EXPECT_EQ(got.yminusx.to_bytes(), want.yminusx.to_bytes()) << i << "," << r << "," << j;
        EXPECT_EQ(got.xy2d.to_bytes(), want.xy2d.to_bytes()) << i << "," << r << "," << j;
      }
    }
  }
}

TEST(GeKernel, TorsionFreeOnlyWithoutSmallOrderPart) {
  sim::Rng rng(89);
  const auto pts = sample_points(rng);
  EXPECT_TRUE(pts[0].is_torsion_free());   // identity
  EXPECT_TRUE(pts[1].is_torsion_free());   // B
  EXPECT_FALSE(pts[2].is_torsion_free());  // order 2
  EXPECT_FALSE(pts[3].is_torsion_free());  // order 4
  for (std::size_t i = 4; i + 1 < pts.size(); ++i) EXPECT_TRUE(pts[i].is_torsion_free()) << i;
  EXPECT_FALSE(pts.back().is_torsion_free());  // mixed
}

// ------------------------------------------------------------------- Ed25519

struct Rfc8032Vector {
  const char* seed;
  const char* pub;
  const char* msg;
  const char* sig;
};

class Ed25519Rfc : public ::testing::TestWithParam<Rfc8032Vector> {};

TEST_P(Ed25519Rfc, SignAndVerify) {
  const auto& v = GetParam();
  const auto seed = arr<32>(v.seed);
  const auto pub = Ed25519::public_key(seed);
  EXPECT_EQ(hex(codec::ByteView(pub.data(), 32)), v.pub);
  const auto msg = *codec::from_hex(v.msg);
  const auto sig = Ed25519::sign(seed, pub, msg);
  EXPECT_EQ(hex(codec::ByteView(sig.data(), 64)), v.sig);
  EXPECT_TRUE(Ed25519::verify(pub, msg, sig));
}

INSTANTIATE_TEST_SUITE_P(
    Vectors, Ed25519Rfc,
    ::testing::Values(
        Rfc8032Vector{
            "9d61b19deffd5a60ba844af492ec2cc44449c5697b326919703bac031cae7f60",
            "d75a980182b10ab7d54bfed3c964073a0ee172f3daa62325af021a68f707511a", "",
            "e5564300c360ac729086e2cc806e828a84877f1eb8e5d974d873e06522490155"
            "5fb8821590a33bacc61e39701cf9b46bd25bf5f0595bbe24655141438e7a100b"},
        Rfc8032Vector{
            "4ccd089b28ff96da9db6c346ec114e0f5b8a319f35aba624da8cf6ed4fb8a6fb",
            "3d4017c3e843895a92b70aa74d1b7ebc9c982ccf2ec4968cc0cd55f12af4660c", "72",
            "92a009a9f0d4cab8720e820b5f642540a2b27b5416503f8fb3762223ebdb69da"
            "085ac1e43e15996e458f3613d0f11d8c387b2eaeb4302aeeb00d291612bb0c00"},
        Rfc8032Vector{
            "c5aa8df43f9f837bedb7442f31dcb7b166d38535076f094b85ce3a2e0b4458f7",
            "fc51cd8e6218a1a38da47ed00230f0580816ed13ba3303ac5deb911548908025", "af82",
            "6291d657deec24024827e69c3abe01a30ce548a284743a445e3680d7db5ac3ac"
            "18ff9b538d16f290ae67f760984dc6594a7c15e9716ed28dc027beceea1ec40a"},
        // RFC 8032 "TEST SHA(abc)": message is the SHA-512 digest of "abc".
        Rfc8032Vector{
            "833fe62409237b9d62ec77587520911e9a759cec1d19755b7da901b96dca3d42",
            "ec172b93ad5e563bf4932c70e1245034c35467ef2efd4d64ebf819683467e2bf",
            "ddaf35a193617abacc417349ae20413112e6fa4e89a97ea20a9eeee64b55d39a"
            "2192992a274fc1a836ba3c23a3feebbd454d4423643ce80e2a9ac94fa54ca49f",
            "dc2a4459e7369633a52b1bf277839a00201009a3efbf3ecb69bea2186c26b589"
            "09351fc9ac90b3ecfdfbc7c66431e0303dca179c138ac17ad9bef1177331a704"}));

TEST(Ed25519, RejectsTamperedMessage) {
  const auto seed = arr<32>(
      "9d61b19deffd5a60ba844af492ec2cc44449c5697b326919703bac031cae7f60");
  const auto pub = Ed25519::public_key(seed);
  const auto msg = codec::to_bytes("payment of 100 to alice");
  const auto sig = Ed25519::sign(seed, pub, msg);
  auto tampered = msg;
  tampered[11] = '9';
  EXPECT_FALSE(Ed25519::verify(pub, tampered, sig));
}

TEST(Ed25519, RejectsTamperedSignatureAnyByte) {
  const auto seed = arr<32>(
      "c5aa8df43f9f837bedb7442f31dcb7b166d38535076f094b85ce3a2e0b4458f7");
  const auto pub = Ed25519::public_key(seed);
  const auto msg = codec::to_bytes("x");
  const auto sig = Ed25519::sign(seed, pub, msg);
  for (std::size_t i = 0; i < sig.size(); i += 7) {
    auto bad = sig;
    bad[i] ^= 0x40;
    EXPECT_FALSE(Ed25519::verify(pub, msg, bad)) << "byte " << i;
  }
}

TEST(Ed25519, RejectsWrongKey) {
  const auto seed1 = arr<32>(
      "9d61b19deffd5a60ba844af492ec2cc44449c5697b326919703bac031cae7f60");
  const auto seed2 = arr<32>(
      "4ccd089b28ff96da9db6c346ec114e0f5b8a319f35aba624da8cf6ed4fb8a6fb");
  const auto pub1 = Ed25519::public_key(seed1);
  const auto pub2 = Ed25519::public_key(seed2);
  const auto msg = codec::to_bytes("hello");
  EXPECT_FALSE(Ed25519::verify(pub2, msg, Ed25519::sign(seed1, pub1, msg)));
}

TEST(Ed25519, RejectsNonCanonicalS) {
  const auto seed = arr<32>(
      "9d61b19deffd5a60ba844af492ec2cc44449c5697b326919703bac031cae7f60");
  const auto pub = Ed25519::public_key(seed);
  const auto msg = codec::to_bytes("m");
  auto sig = Ed25519::sign(seed, pub, msg);
  // Force S >= L by setting its top bits.
  sig[63] |= 0xF0;
  EXPECT_FALSE(Ed25519::verify(pub, msg, sig));
}

TEST(Ed25519, SignVerifyPropertySweep) {
  sim::Rng rng(404);
  for (int i = 0; i < 20; ++i) {
    Ed25519::Seed seed{};
    for (auto& b : seed) b = static_cast<std::uint8_t>(rng.next_u64());
    const auto pub = Ed25519::public_key(seed);
    codec::Bytes msg(rng.next_u64() % 200);
    for (auto& b : msg) b = static_cast<std::uint8_t>(rng.next_u64());
    const auto sig = Ed25519::sign(seed, pub, msg);
    EXPECT_TRUE(Ed25519::verify(pub, msg, sig));
  }
}

// ----------------------------------------------------------------------- PKI

// ------------------------------------------------------ Ed25519 comb verify
// Comb verify runs S*B + k*(-A) over two fixed-base combs; the prepared-
// and raw-key overloads run the Straus chain. Same equation, same R-bytes
// compare: the verdicts must be identical on every input.

/// The comb of -A for a prepared key.
std::unique_ptr<const GeComb> comb_of(const Ed25519::VerifyKey& key) {
  return GeComb::of(Ge::decompress(codec::ByteView(key.bytes.data(), 32))->negate());
}

/// k = H(R || A || M) mod L.
U256 challenge_of(codec::ByteView r, const Ed25519::PublicKey& a, codec::ByteView m) {
  Sha512 h;
  h.update(r);
  h.update(codec::ByteView(a.data(), a.size()));
  h.update(m);
  const auto d = h.finalize();
  return mod_512(U512::from_bytes_le(codec::ByteView(d.data(), d.size())), kOrderL);
}

/// A signature (r_enc, S) with S = r + k*a for k over r_enc: the signer's
/// equation with a nonce point of the caller's choosing.
Ed25519::Signature sign_with_nonce(const std::array<std::uint8_t, 32>& r_enc, const U256& r,
                                   const Ed25519::SigningKey& sk, codec::ByteView m) {
  const U256 k = challenge_of(codec::ByteView(r_enc.data(), r_enc.size()), sk.pub, m);
  const auto s = muladd_mod(k, sk.a, r, kOrderL).to_bytes_le<32>();
  Ed25519::Signature sig;
  std::copy(r_enc.begin(), r_enc.end(), sig.begin());
  std::copy(s.begin(), s.end(), sig.begin() + 32);
  return sig;
}

/// Comb and Straus verdicts agree; returns the verdict.
bool same_verdict(const Ed25519::VerifyKey& key, const GeComb& neg_a_comb, codec::ByteView m,
                  const Ed25519::Signature& sig, const std::string& what) {
  const bool comb = Ed25519::verify(key.bytes, neg_a_comb, m, sig);
  EXPECT_EQ(comb, Ed25519::verify(key, m, sig)) << what;
  EXPECT_EQ(comb, Ed25519::verify(key.bytes, m, sig)) << what;  // raw-key path
  return comb;
}

TEST(Ed25519Comb, ValidAndTamperedSignaturesSameVerdict) {
  sim::Rng rng(4242);
  for (int signer = 0; signer < 6; ++signer) {
    Ed25519::Seed seed{};
    for (auto& b : seed) b = static_cast<std::uint8_t>(rng.next_u64());
    const auto [sk, vk] = Ed25519::keypair(seed);
    const auto comb = comb_of(vk);
    for (int i = 0; i < 4; ++i) {
      codec::Bytes msg(rng.next_u64() % 150);
      for (auto& b : msg) b = static_cast<std::uint8_t>(rng.next_u64());
      const auto sig = Ed25519::sign(sk, msg);
      const std::string tag = std::to_string(signer) + "/" + std::to_string(i);
      EXPECT_TRUE(same_verdict(vk, *comb, msg, sig, "valid " + tag));

      codec::Bytes tampered = msg;
      tampered.push_back(0x5A);
      EXPECT_FALSE(same_verdict(vk, *comb, tampered, sig, "message " + tag));
      for (std::size_t byte = static_cast<std::size_t>(i); byte < sig.size(); byte += 9) {
        auto bad = sig;
        bad[byte] ^= static_cast<std::uint8_t>(1u << (byte % 8));
        EXPECT_FALSE(same_verdict(vk, *comb, msg, bad, "byte " + std::to_string(byte) + " " + tag));
      }

      // Non-canonical S: S + L encodes the same residue, and S | 0xF0 in
      // the top byte is far above L. Both are refused before any curve work.
      U256 s_plus_l = U256::from_bytes_le(codec::ByteView(sig.data() + 32, 32));
      s_plus_l.add_in_place(kOrderL);
      auto non_canonical = sig;
      const auto s_bytes = s_plus_l.to_bytes_le<32>();
      std::copy(s_bytes.begin(), s_bytes.end(), non_canonical.begin() + 32);
      EXPECT_FALSE(same_verdict(vk, *comb, msg, non_canonical, "S + L " + tag));
      auto top = sig;
      top[63] |= 0xF0;
      EXPECT_FALSE(same_verdict(vk, *comb, msg, top, "S top bits " + tag));
    }
  }
}

TEST(Ed25519Comb, NonCanonicalAndOffCurveRSameVerdict) {
  Ed25519::Seed seed{};
  seed.fill(0x33);
  const auto [sk, vk] = Ed25519::keypair(seed);
  const auto comb = comb_of(vk);
  const auto msg = codec::to_bytes("identity nonce");
  // r = 0: R is the identity, encoded canonically as y = 1 and
  // non-canonically as y = 1 + p; y = p is a non-canonical 4-torsion point.
  std::array<std::uint8_t, 32> y1{};
  y1[0] = 0x01;
  std::array<std::uint8_t, 32> y1_plus_p;
  y1_plus_p.fill(0xFF);
  y1_plus_p[0] = 0xEE;
  y1_plus_p[31] = 0x7F;
  std::array<std::uint8_t, 32> y_p;
  y_p.fill(0xFF);
  y_p[0] = 0xED;
  y_p[31] = 0x7F;
  EXPECT_TRUE(same_verdict(vk, *comb, msg, sign_with_nonce(y1, U256::zero(), sk, msg), "y = 1"));
  EXPECT_FALSE(same_verdict(vk, *comb, msg, sign_with_nonce(y1_plus_p, U256::zero(), sk, msg),
                            "y = 1 + p"));
  EXPECT_FALSE(same_verdict(vk, *comb, msg, sign_with_nonce(y_p, U256::zero(), sk, msg), "y = p"));

  // Off-curve R: encodings that do not decompress, with assorted S.
  sim::Rng rng(77);
  int off_curve = 0;
  for (std::uint8_t y = 2; off_curve < 8; ++y) {
    std::array<std::uint8_t, 32> r_enc{};
    r_enc[0] = y;
    if (Ge::decompress(codec::ByteView(r_enc.data(), r_enc.size()))) continue;
    ++off_curve;
    U256 r = random_scalar(rng);
    r.w[3] &= 0x0FFFFFFFFFFFFFFFULL;
    EXPECT_FALSE(same_verdict(vk, *comb, msg, sign_with_nonce(r_enc, r, sk, msg),
                              "off-curve y = " + std::to_string(y)));
  }
}

TEST(Ed25519Comb, SmallOrderKeysAndTorsionInRSameVerdict) {
  sim::Rng rng(5151);
  const auto pts = sample_points(rng);  // [2]: order 2, [3]: order 4
  std::array<std::uint8_t, 32> order8_enc{};
  const auto order8_bytes = codec::from_hex(
      "26e8958fc2b227b045c3f489f2ef98f0d5dfac05d3c63339b13802886d53fc05");
  std::copy(order8_bytes->begin(), order8_bytes->end(), order8_enc.begin());
  const Ge order8 = *Ge::decompress(codec::ByteView(order8_enc.data(), order8_enc.size()));
  const std::vector<Ge> torsion = {pts[2], pts[3], order8};

  // Small-order keys (orders 2, 4, 8) with R = S*B: verify accepts exactly
  // when k*A is the identity, so both verdicts occur.
  int accepted = 0, rejected = 0;
  for (std::size_t t = 0; t < torsion.size(); ++t) {
    const auto key = Ed25519::prepare(torsion[t].compress());
    ASSERT_TRUE(key.has_value()) << t;
    ASSERT_FALSE(key->torsion_free) << t;
    const auto comb = comb_of(*key);
    for (int j = 0; j < 12; ++j) {
      const auto msg = codec::to_bytes("small " + std::to_string(t) + "/" + std::to_string(j));
      U256 sc = U256::from_u64(rng.next_u64());
      sc.w[1] = rng.next_u64();
      Ed25519::Signature sig;
      const auto r_enc = Ge::base_scalar_mul(sc).compress();
      const auto s_enc = sc.to_bytes_le<32>();
      std::copy(r_enc.begin(), r_enc.end(), sig.begin());
      std::copy(s_enc.begin(), s_enc.end(), sig.begin() + 32);
      (same_verdict(*key, *comb, msg, sig, "small-order key " + std::to_string(t)) ? accepted
                                                                             : rejected) += 1;
    }
  }
  EXPECT_GT(accepted, 3);
  EXPECT_GT(rejected, 3);

  // R + T for a torsion point T: cofactorless verify rejects it on both
  // paths, for a prime-order key and for a key with its own torsion part.
  Ed25519::Seed seed{};
  seed.fill(0x44);
  const auto [sk, vk] = Ed25519::keypair(seed);
  const auto comb = comb_of(vk);
  for (std::size_t t = 0; t < torsion.size(); ++t) {
    U256 r = random_scalar(rng);
    r.w[3] &= 0x0FFFFFFFFFFFFFFFULL;
    const auto msg = codec::to_bytes("torsion nonce " + std::to_string(t));
    const auto r_enc = Ge::base_scalar_mul(r).add(torsion[t]).compress();
    EXPECT_FALSE(same_verdict(vk, *comb, msg, sign_with_nonce(r_enc, r, sk, msg),
                              "R + T " + std::to_string(t)));
    EXPECT_TRUE(same_verdict(vk, *comb, msg,
                             sign_with_nonce(Ge::base_scalar_mul(r).compress(), r, sk, msg),
                             "R " + std::to_string(t)));
  }
}

TEST(Ed25519Comb, FirstUseRaceOnOneKey) {
  // Eight threads make the first scalar verify against one fresh key at
  // once, half through each of two Pkis over one seed (which share the
  // key's comb): the comb is built once and published safely (TSan covers
  // this suite), and every verdict is right.
  Pki pki(2718);
  Pki twin(2718);
  pki.register_process(5);
  twin.register_process(5);
  const auto msg = codec::to_bytes("first use");
  const auto sig = pki.sign(5, msg);
  auto bad = sig;
  bad[40] ^= 0x01;
  constexpr int kThreads = 8;
  std::latch start(kThreads);
  std::atomic<int> accepted{0};
  std::atomic<int> rejected{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    const Pki* p = t % 2 == 0 ? &pki : &twin;
    threads.emplace_back([&, p] {
      start.arrive_and_wait();
      for (int i = 0; i < 3; ++i) {
        if (p->verify(5, msg, sig)) accepted.fetch_add(1);
        if (!p->verify(5, msg, bad)) rejected.fetch_add(1);
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(accepted.load(), 3 * kThreads);
  EXPECT_EQ(rejected.load(), 3 * kThreads);

  // A shared comb outlives the Pki that built it.
  auto first = std::make_unique<Pki>(2719);
  first->register_process(6);
  Pki second(2719);
  second.register_process(6);
  const auto sig6 = second.sign(6, msg);
  EXPECT_TRUE(first->verify(6, msg, sig6));
  first.reset();
  EXPECT_TRUE(second.verify(6, msg, sig6));
  EXPECT_FALSE(second.verify(6, msg, bad));
}

TEST(Pki, DeterministicKeysPerSeed) {
  Pki a(42), b(42), c(43);
  EXPECT_EQ(a.register_process(7), b.register_process(7));
  EXPECT_NE(a.register_process(8), c.register_process(8));
}

TEST(Pki, SignVerifyAcrossProcesses) {
  Pki pki(1);
  pki.register_process(0);
  pki.register_process(1);
  const auto msg = codec::to_bytes("epoch 5 hash");
  const auto sig = pki.sign(0, msg);
  EXPECT_TRUE(pki.verify(0, msg, sig));
  EXPECT_FALSE(pki.verify(1, msg, sig));          // wrong signer
  EXPECT_FALSE(pki.verify(99, msg, sig));         // unknown process
}

TEST(Pki, UnknownProcessThrowsOnSign) {
  Pki pki(1);
  EXPECT_THROW(pki.sign(5, codec::to_bytes("x")), std::out_of_range);
  EXPECT_THROW(pki.public_key(5), std::out_of_range);
}

}  // namespace
}  // namespace setchain::crypto
