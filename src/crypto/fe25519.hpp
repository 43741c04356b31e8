#pragma once

#include <array>
#include <cstdint>

#include "codec/bytes.hpp"

namespace setchain::crypto {

/// Field element of GF(2^255 - 19) in 5 radix-2^51 limbs (the classic
/// unsaturated representation: products of two 51+epsilon-bit limbs fit in
/// __int128 accumulators with room for the 19-fold reduction terms).
///
/// Not constant-time: this library signs simulation traffic, not secrets.
struct Fe {
  std::array<std::uint64_t, 5> v{};

  static Fe zero() { return {}; }
  static Fe one() {
    Fe r;
    r.v[0] = 1;
    return r;
  }
  static Fe from_u64(std::uint64_t x);

  /// Load 32 little-endian bytes; the top bit (bit 255) is ignored, per the
  /// RFC 8032 encoding of field elements.
  static Fe from_bytes(codec::ByteView bytes32);

  /// Store as 32 little-endian bytes, fully reduced mod p.
  std::array<std::uint8_t, 32> to_bytes() const;

  bool is_zero() const;
  /// Parity of the fully-reduced value (used as the x sign bit).
  bool is_negative() const;

  friend Fe operator+(const Fe& a, const Fe& b);
  friend Fe operator-(const Fe& a, const Fe& b);
  friend Fe operator*(const Fe& a, const Fe& b);
  /// a^2 with 15 limb products instead of a multiply's 25.
  Fe square() const;
  /// a^(2^n): n successive squarings.
  Fe square_times(int n) const;
  Fe negate() const;

  /// a^(p-2): multiplicative inverse (0 maps to 0), by the ref10 addition
  /// chain (254 squarings, 11 multiplies).
  Fe invert() const;

  /// a^((p-5)/8) = a^(2^252-3), the exponent of RFC 8032 decompression
  /// (251 squarings, 11 multiplies).
  Fe pow22523() const;

  bool equals(const Fe& o) const;
};

/// Curve constants in limb form (checked against their definitions in
/// tests/crypto):
///   d       = -121665/121666 mod p
///   sqrt(-1)= 2^((p-1)/4) mod p
namespace fe_const {
inline constexpr Fe kD{{0x34dca135978a3ULL, 0x1a8283b156ebdULL, 0x5e7a26001c029ULL,
                        0x739c663a03cbbULL, 0x52036cee2b6ffULL}};
inline constexpr Fe kD2{{0x69b9426b2f159ULL, 0x35050762add7aULL, 0x3cf44c0038052ULL,
                         0x6738cc7407977ULL, 0x2406d9dc56dffULL}};
inline constexpr Fe kSqrtM1{{0x61b274a0ea0b0ULL, 0x0d5a5fc8f189dULL, 0x7ef5e9cbd0c60ULL,
                             0x78595a6804c9eULL, 0x2b8324804fc1dULL}};
}  // namespace fe_const

// ------------------------------------------------ inline field arithmetic
// Defined here so the point formulas in ge25519.cpp inline them: the
// multiply is the innermost operation of every signature operation.

namespace fe_detail {

inline constexpr std::uint64_t kMask = (std::uint64_t{1} << 51) - 1;
using u128 = unsigned __int128;

inline u128 mul64(std::uint64_t a, std::uint64_t b) { return static_cast<u128>(a) * b; }

/// Weak carry propagation: brings limbs below 2^52 (enough headroom for the
/// next multiplication).
inline void carry_weak(std::array<std::uint64_t, 5>& v) {
  std::uint64_t c;
  c = v[0] >> 51; v[0] &= kMask; v[1] += c;
  c = v[1] >> 51; v[1] &= kMask; v[2] += c;
  c = v[2] >> 51; v[2] &= kMask; v[3] += c;
  c = v[3] >> 51; v[3] &= kMask; v[4] += c;
  c = v[4] >> 51; v[4] &= kMask; v[0] += c * 19;
  c = v[0] >> 51; v[0] &= kMask; v[1] += c;
}

/// Carry a column-sum result back into 51-bit limbs.
inline Fe carry_wide(u128 t0, u128 t1, u128 t2, u128 t3, u128 t4) {
  u128 c;
  c = t0 >> 51; t0 &= kMask; t1 += c;
  c = t1 >> 51; t1 &= kMask; t2 += c;
  c = t2 >> 51; t2 &= kMask; t3 += c;
  c = t3 >> 51; t3 &= kMask; t4 += c;
  c = t4 >> 51; t4 &= kMask; t0 += c * 19;
  c = t0 >> 51; t0 &= kMask; t1 += c;

  Fe out;
  out.v[0] = static_cast<std::uint64_t>(t0);
  out.v[1] = static_cast<std::uint64_t>(t1);
  out.v[2] = static_cast<std::uint64_t>(t2);
  out.v[3] = static_cast<std::uint64_t>(t3);
  out.v[4] = static_cast<std::uint64_t>(t4);
  return out;
}

}  // namespace fe_detail

inline Fe operator+(const Fe& a, const Fe& b) {
  Fe r;
  for (int i = 0; i < 5; ++i) r.v[i] = a.v[i] + b.v[i];
  fe_detail::carry_weak(r.v);
  return r;
}

inline Fe operator-(const Fe& a, const Fe& b) {
  // a + 2p - b, limbwise, keeps everything nonnegative.
  Fe r;
  r.v[0] = a.v[0] + 0xFFFFFFFFFFFDAULL - b.v[0];
  r.v[1] = a.v[1] + 0xFFFFFFFFFFFFEULL - b.v[1];
  r.v[2] = a.v[2] + 0xFFFFFFFFFFFFEULL - b.v[2];
  r.v[3] = a.v[3] + 0xFFFFFFFFFFFFEULL - b.v[3];
  r.v[4] = a.v[4] + 0xFFFFFFFFFFFFEULL - b.v[4];
  fe_detail::carry_weak(r.v);
  return r;
}

inline Fe operator*(const Fe& a, const Fe& b) {
  using fe_detail::mul64;
  const std::uint64_t f0 = a.v[0], f1 = a.v[1], f2 = a.v[2], f3 = a.v[3], f4 = a.v[4];
  const std::uint64_t g0 = b.v[0], g1 = b.v[1], g2 = b.v[2], g3 = b.v[3], g4 = b.v[4];
  // Limbs stay below 2^52, so 19*g fits 64 bits and each column below 2^112.
  const std::uint64_t g1_19 = 19 * g1, g2_19 = 19 * g2, g3_19 = 19 * g3, g4_19 = 19 * g4;

  return fe_detail::carry_wide(
      mul64(f0, g0) + mul64(f1, g4_19) + mul64(f2, g3_19) + mul64(f3, g2_19) + mul64(f4, g1_19),
      mul64(f0, g1) + mul64(f1, g0) + mul64(f2, g4_19) + mul64(f3, g3_19) + mul64(f4, g2_19),
      mul64(f0, g2) + mul64(f1, g1) + mul64(f2, g0) + mul64(f3, g4_19) + mul64(f4, g3_19),
      mul64(f0, g3) + mul64(f1, g2) + mul64(f2, g1) + mul64(f3, g0) + mul64(f4, g4_19),
      mul64(f0, g4) + mul64(f1, g3) + mul64(f2, g2) + mul64(f3, g1) + mul64(f4, g0));
}

inline Fe Fe::square() const {
  using fe_detail::mul64;
  const std::uint64_t f0 = v[0], f1 = v[1], f2 = v[2], f3 = v[3], f4 = v[4];
  // The cross products f_i*f_j (i != j) appear twice; fold the 2 (and the
  // 19 of the wrap-around columns) into one operand.
  const std::uint64_t f0_2 = 2 * f0, f1_2 = 2 * f1;
  const std::uint64_t f1_38 = 38 * f1, f2_38 = 38 * f2, f3_38 = 38 * f3;
  const std::uint64_t f3_19 = 19 * f3, f4_19 = 19 * f4;

  return fe_detail::carry_wide(mul64(f0, f0) + mul64(f1_38, f4) + mul64(f2_38, f3),
                               mul64(f0_2, f1) + mul64(f2_38, f4) + mul64(f3_19, f3),
                               mul64(f0_2, f2) + mul64(f1, f1) + mul64(f3_38, f4),
                               mul64(f0_2, f3) + mul64(f1_2, f2) + mul64(f4_19, f4),
                               mul64(f0_2, f4) + mul64(f1_2, f3) + mul64(f2, f2));
}

/// Square root of (u/v) per RFC 8032 decompression: returns false when u/v is
/// not a quadratic residue. On success x satisfies v*x^2 == u.
bool fe_sqrt_ratio(const Fe& u, const Fe& v, Fe& x);

}  // namespace setchain::crypto
