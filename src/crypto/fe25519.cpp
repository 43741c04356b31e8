#include "crypto/fe25519.hpp"

#include <cstring>

namespace setchain::crypto {

namespace {

using fe_detail::carry_weak;
using fe_detail::kMask;

inline std::uint64_t load64(const std::uint8_t* p) {
  std::uint64_t v;
  std::memcpy(&v, p, 8);
  return v;  // little-endian host assumed (x86/ARM); asserted in tests
}

}  // namespace

Fe Fe::from_u64(std::uint64_t x) {
  Fe r;
  r.v[0] = x & kMask;
  r.v[1] = x >> 51;
  return r;
}

Fe Fe::from_bytes(codec::ByteView b) {
  Fe r;
  r.v[0] = load64(b.data()) & kMask;
  r.v[1] = (load64(b.data() + 6) >> 3) & kMask;
  r.v[2] = (load64(b.data() + 12) >> 6) & kMask;
  r.v[3] = (load64(b.data() + 19) >> 1) & kMask;
  r.v[4] = (load64(b.data() + 24) >> 12) & kMask;
  return r;
}

std::array<std::uint8_t, 32> Fe::to_bytes() const {
  std::array<std::uint64_t, 5> t = v;
  carry_weak(t);
  carry_weak(t);

  // Freeze: add 19 and check whether the sum overflows 2^255; if so the
  // value was >= p and we subtract p (i.e. keep the +19 and drop bit 255).
  std::uint64_t q = (t[0] + 19) >> 51;
  q = (t[1] + q) >> 51;
  q = (t[2] + q) >> 51;
  q = (t[3] + q) >> 51;
  q = (t[4] + q) >> 51;

  t[0] += 19 * q;
  std::uint64_t c;
  c = t[0] >> 51; t[0] &= kMask; t[1] += c;
  c = t[1] >> 51; t[1] &= kMask; t[2] += c;
  c = t[2] >> 51; t[2] &= kMask; t[3] += c;
  c = t[3] >> 51; t[3] &= kMask; t[4] += c;
  t[4] &= kMask;  // drop bit 255 (that subtracts 2^255, completing -p)

  std::array<std::uint8_t, 32> out{};
  const std::uint64_t w0 = t[0] | (t[1] << 51);
  const std::uint64_t w1 = (t[1] >> 13) | (t[2] << 38);
  const std::uint64_t w2 = (t[2] >> 26) | (t[3] << 25);
  const std::uint64_t w3 = (t[3] >> 39) | (t[4] << 12);
  std::memcpy(out.data() + 0, &w0, 8);
  std::memcpy(out.data() + 8, &w1, 8);
  std::memcpy(out.data() + 16, &w2, 8);
  std::memcpy(out.data() + 24, &w3, 8);
  return out;
}

bool Fe::is_zero() const {
  const auto b = to_bytes();
  for (auto x : b)
    if (x != 0) return false;
  return true;
}

bool Fe::is_negative() const { return to_bytes()[0] & 1; }

Fe Fe::square_times(int n) const {
  Fe r = *this;
  for (int i = 0; i < n; ++i) r = r.square();
  return r;
}

Fe Fe::negate() const { return Fe::zero() - *this; }

namespace {

/// The shared prefix of the ref10 chains for p-2 and (p-5)/8: returns
/// z^(2^250-1) and sets z11 = z^11.
Fe pow2_250_1(const Fe& z, Fe& z11) {
  const Fe z2 = z.square();                           // 2
  const Fe z9 = z2.square_times(2) * z;               // 9
  z11 = z9 * z2;                                      // 11
  const Fe z5_0 = z11.square() * z9;                  // 2^5 - 1
  const Fe z10_0 = z5_0.square_times(5) * z5_0;       // 2^10 - 1
  const Fe z20_0 = z10_0.square_times(10) * z10_0;    // 2^20 - 1
  const Fe z40_0 = z20_0.square_times(20) * z20_0;    // 2^40 - 1
  const Fe z50_0 = z40_0.square_times(10) * z10_0;    // 2^50 - 1
  const Fe z100_0 = z50_0.square_times(50) * z50_0;   // 2^100 - 1
  const Fe z200_0 = z100_0.square_times(100) * z100_0;  // 2^200 - 1
  return z200_0.square_times(50) * z50_0;             // 2^250 - 1
}

}  // namespace

Fe Fe::invert() const {
  Fe z11;
  const Fe t = pow2_250_1(*this, z11);
  return t.square_times(5) * z11;  // 2^255 - 32 + 11 = p - 2
}

Fe Fe::pow22523() const {
  Fe z11;
  const Fe t = pow2_250_1(*this, z11);
  return t.square_times(2) * *this;  // 2^252 - 4 + 1
}

bool Fe::equals(const Fe& o) const { return to_bytes() == o.to_bytes(); }

bool fe_sqrt_ratio(const Fe& u, const Fe& v, Fe& x) {
  // RFC 8032 section 5.1.3: candidate root of u/v is u*v^3*(u*v^7)^((p-5)/8).
  const Fe v3 = v.square() * v;
  const Fe v7 = v3.square() * v;
  const Fe cand = u * v3 * (u * v7).pow22523();

  const Fe check = v * cand.square();
  if (check.equals(u)) {
    x = cand;
    return true;
  }
  if (check.equals(u.negate())) {
    x = cand * fe_const::kSqrtM1;
    return true;
  }
  return false;
}

}  // namespace setchain::crypto
