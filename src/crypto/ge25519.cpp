#include "crypto/ge25519.hpp"

#include <algorithm>
#include <vector>

namespace setchain::crypto {

namespace {

/// Width-w NAF: k = sum d[i]*2^i with every nonzero digit odd and
/// |d[i]| <= 2^(w-1) - 1, so consecutive nonzero digits are at least w
/// apart. 257 digits suffice for any 256-bit k (the centered-digit carry can
/// push one bit past the top). Variable time.
struct Naf {
  std::array<std::int8_t, 257> d{};
  int len = 0;  ///< highest nonzero index + 1
};

/// Bits [pos, pos + count) of k, count <= 32; bits past 255 read as zero.
std::uint32_t bits_at(const U256& k, int pos, int count) {
  const int word = pos / 64;
  const int shift = pos % 64;
  std::uint64_t v = word < 4 ? k.w[static_cast<std::size_t>(word)] >> shift : 0;
  if (shift + count > 64 && word + 1 < 4) {
    v |= k.w[static_cast<std::size_t>(word) + 1] << (64 - shift);
  }
  return static_cast<std::uint32_t>(v & ((std::uint64_t{1} << count) - 1));
}

/// Windowed scan (as in libsecp256k1): skip zero positions one bit at a
/// time, read a whole window at each nonzero digit, and center it with a
/// carry into the next window.
Naf wnaf(const U256& k, int w) {
  Naf out;
  int carry = 0;
  int bit = 0;
  while (bit < static_cast<int>(out.d.size())) {
    if (static_cast<int>(bits_at(k, bit, 1)) == carry) {
      ++bit;
      continue;
    }
    int digit = static_cast<int>(bits_at(k, bit, w)) + carry;
    carry = (digit >> (w - 1)) & 1;
    digit -= carry << w;
    out.d[static_cast<std::size_t>(bit)] = static_cast<std::int8_t>(digit);
    out.len = bit + 1;
    bit += w;
  }
  return out;
}

constexpr int kBaseWindow = 8;  ///< width-8 NAF for the fixed base point

/// 1B, 3B, ..., 127B in affine form, built once.
const std::array<GePrecomp, 64>& base_odd_table() {
  static const std::array<GePrecomp, 64> kTable = [] {
    std::array<GePrecomp, 64> out;
    const GeCached b2 = Ge::base().dbl().to_cached();
    Ge cur = Ge::base();
    out[0] = GePrecomp::from(cur);
    for (std::size_t i = 1; i < out.size(); ++i) {
      cur = cur.add(b2).to_p3();
      out[i] = GePrecomp::from(cur);
    }
    return out;
  }();
  return kTable;
}

/// 64 signed radix-16 digits in [-8, 8] of k < 2^255: k = sum e[i] * 16^i.
std::array<std::int8_t, 64> radix16(const U256& k) {
  std::array<std::int8_t, 64> e{};
  const auto bytes = k.to_bytes_le<32>();
  for (std::size_t i = 0; i < 32; ++i) {
    e[2 * i] = static_cast<std::int8_t>(bytes[i] & 15);
    e[2 * i + 1] = static_cast<std::int8_t>(bytes[i] >> 4);
  }
  int carry = 0;
  for (std::size_t i = 0; i < 63; ++i) {
    const int d = e[i] + carry;
    carry = (d + 8) >> 4;
    e[i] = static_cast<std::int8_t>(d - (carry << 4));
  }
  e[63] = static_cast<std::int8_t>(e[63] + carry);  // <= 8 since bit 255 is clear
  return e;
}

GeP2 identity_p2() { return GeP2{Fe::zero(), Fe::one(), Fe::one()}; }

}  // namespace

// ------------------------------------------------------------ point forms

GeP1P1 GeP2::dbl() const {
  // ref10 ge_p2_dbl (dbl-2008-hwcd for a = -1): 4 squarings.
  GeP1P1 r;
  const Fe xx = X.square();
  const Fe yy = Y.square();
  const Fe zz = Z.square();
  const Fe zz2 = zz + zz;
  r.Y = yy + xx;
  r.Z = yy - xx;
  r.X = (X + Y).square() - r.Y;
  r.T = zz2 - r.Z;
  return r;
}

GeP2 GeP1P1::to_p2() const { return GeP2{X * T, Y * Z, Z * T}; }

Ge GeP1P1::to_p3() const { return Ge{X * T, Y * Z, Z * T, X * Y}; }

GeP2 Ge::to_p2() const { return GeP2{X, Y, Z}; }

GeCached Ge::to_cached() const { return GeCached{Y + X, Y - X, Z, T * fe_const::kD2}; }

GeP1P1 Ge::add(const GeCached& q) const {
  const Fe a = (Y + X) * q.YplusX;
  const Fe b = (Y - X) * q.YminusX;
  const Fe c = q.T2d * T;
  const Fe zz = Z * q.Z;
  const Fe d = zz + zz;
  return GeP1P1{a - b, a + b, d + c, d - c};
}

GeP1P1 Ge::sub(const GeCached& q) const {
  const Fe a = (Y + X) * q.YminusX;
  const Fe b = (Y - X) * q.YplusX;
  const Fe c = q.T2d * T;
  const Fe zz = Z * q.Z;
  const Fe d = zz + zz;
  return GeP1P1{a - b, a + b, d - c, d + c};
}

GeP1P1 Ge::madd(const GePrecomp& q) const {
  const Fe a = (Y + X) * q.yplusx;
  const Fe b = (Y - X) * q.yminusx;
  const Fe c = q.xy2d * T;
  const Fe d = Z + Z;
  return GeP1P1{a - b, a + b, d + c, d - c};
}

GeP1P1 Ge::msub(const GePrecomp& q) const {
  const Fe a = (Y + X) * q.yminusx;
  const Fe b = (Y - X) * q.yplusx;
  const Fe c = q.xy2d * T;
  const Fe d = Z + Z;
  return GeP1P1{a - b, a + b, d - c, d + c};
}

GePrecomp GePrecomp::from(const Ge& p) {
  const Fe zinv = p.Z.invert();
  const Fe x = p.X * zinv;
  const Fe y = p.Y * zinv;
  return GePrecomp{y + x, y - x, x * y * fe_const::kD2};
}

GeOddMultiples GeOddMultiples::of(const Ge& p) {
  GeOddMultiples t;
  const GeCached p2 = p.dbl().to_cached();
  Ge cur = p;
  t.pts[0] = cur.to_cached();
  for (std::size_t i = 1; i < t.pts.size(); ++i) {
    cur = cur.add(p2).to_p3();
    t.pts[i] = cur.to_cached();
  }
  return t;
}

std::unique_ptr<const GeComb> GeComb::of(const Ge& p) {
  // Row i: j * 256^i * P for j = 1..8, in extended form first.
  std::vector<Ge> pts;
  pts.reserve(256);
  Ge row_base = p;  // 256^i * P
  for (std::size_t i = 0; i < 32; ++i) {
    const GeCached step = row_base.to_cached();
    Ge cur = row_base;
    pts.push_back(cur);
    for (std::size_t j = 1; j < 8; ++j) {
      cur = cur.add(step).to_p3();
      pts.push_back(cur);
    }
    // cur = 8 * 256^i * P; five doublings give 256^(i+1) * P.
    GeP2 q = cur.to_p2();
    for (int d = 0; d < 4; ++d) q = q.dbl().to_p2();
    row_base = q.dbl().to_p3();
  }

  // Montgomery batch inversion: prefix[k] = Z_0 * ... * Z_(k-1), one
  // inversion of the full product, then walk back. Z is never zero for a
  // curve point in extended coordinates.
  std::vector<Fe> prefix(pts.size());
  Fe acc = Fe::one();
  for (std::size_t k = 0; k < pts.size(); ++k) {
    prefix[k] = acc;
    acc = acc * pts[k].Z;
  }
  Fe inv = acc.invert();
  auto comb = std::make_unique<GeComb>();
  for (std::size_t k = pts.size(); k-- > 0;) {
    const Fe zinv = inv * prefix[k];
    inv = inv * pts[k].Z;
    const Fe x = pts[k].X * zinv;
    const Fe y = pts[k].Y * zinv;
    comb->rows[k / 8][k % 8] = GePrecomp{y + x, y - x, x * y * fe_const::kD2};
  }
  return comb;
}

const GeComb& GeComb::base() {
  static const std::unique_ptr<const GeComb> kComb = GeComb::of(Ge::base());
  return *kComb;
}

const GeComb& GeLazyComb::get() const {
  std::call_once(once_, [this] { comb_ = GeComb::of(point_); });
  return *comb_;
}

// ------------------------------------------------------------------ Ge

Ge Ge::identity() {
  return Ge{Fe::zero(), Fe::one(), Fe::one(), Fe::zero()};
}

const Ge& Ge::base() {
  static const Ge kBase = [] {
    // y = 4/5 mod p; x recovered with even parity (the standard B).
    const Fe y = Fe::from_u64(4) * Fe::from_u64(5).invert();
    auto enc = y.to_bytes();  // sign bit 0 -> even x
    const auto p = Ge::decompress(codec::ByteView(enc.data(), enc.size()));
    return *p;  // must exist; validated by RFC 8032 vectors in tests
  }();
  return kBase;
}

Ge Ge::add(const Ge& o) const {
  // add-2008-hwcd-3 for a = -1 twisted Edwards (unified, complete).
  const Fe A = (Y - X) * (o.Y - o.X);
  const Fe B = (Y + X) * (o.Y + o.X);
  const Fe C = T * fe_const::kD2 * o.T;
  const Fe D = (Z + Z) * o.Z;
  const Fe E = B - A;
  const Fe F = D - C;
  const Fe G = D + C;
  const Fe H = B + A;
  return Ge{E * F, G * H, F * G, E * H};
}

Ge Ge::dbl() const { return to_p2().dbl().to_p3(); }

Ge Ge::negate() const { return Ge{X.negate(), Y, Z, T.negate()}; }

bool Ge::is_identity() const {
  // Projectively (0 : Z : Z : 0); the X check excludes the 2-torsion point
  // (0, -1), which also has X == 0 but Y == -Z.
  return X.is_zero() && (Y - Z).is_zero();
}

Ge Ge::scalar_mul(const U256& k) const {
  Ge acc = Ge::identity();
  const std::size_t bits = k.bit_length();
  for (std::size_t i = bits; i-- > 0;) {
    acc = acc.dbl();
    if (k.bit(i)) acc = acc.add(*this);
  }
  return acc;
}

Ge Ge::base_scalar_mul(const U256& k) {
  if (k.bit(255)) return multi_scalar_mul(k, {});
  const CombTerm term{k, &GeComb::base()};
  return comb_sum(std::span(&term, 1));
}

Ge Ge::comb_sum(std::span<const CombTerm> terms) {
  std::vector<std::array<std::int8_t, 64>> digits;
  digits.reserve(terms.size());
  for (const auto& t : terms) digits.push_back(radix16(t.scalar));

  // Odd digits sit one radix-16 position above a comb row, so they are
  // summed first and lifted by 16 (four doublings); even digits add on top.
  Ge h = Ge::identity();
  const auto add_digits = [&](std::size_t first) {
    for (std::size_t i = first; i < 64; i += 2) {
      for (std::size_t t = 0; t < terms.size(); ++t) {
        const int d = digits[t][i];
        const auto& row = terms[t].comb->rows[i / 2];
        if (d > 0) h = h.madd(row[static_cast<std::size_t>(d - 1)]).to_p3();
        if (d < 0) h = h.msub(row[static_cast<std::size_t>(-d - 1)]).to_p3();
      }
    }
  };
  add_digits(1);
  h = h.to_p2().dbl().to_p2().dbl().to_p2().dbl().to_p2().dbl().to_p3();
  add_digits(0);
  return h;
}

Ge Ge::multi_scalar_mul(const U256& base_scalar, std::span<const Term> terms) {
  const Naf base_naf = wnaf(base_scalar, kBaseWindow);
  std::vector<Naf> nafs;
  nafs.reserve(terms.size());
  int top = base_naf.len;
  for (const auto& t : terms) {
    nafs.push_back(wnaf(t.scalar, 5));
    top = std::max(top, nafs.back().len);
  }
  if (top == 0) return Ge::identity();

  const auto& base_odd = base_odd_table();
  GeP2 acc = identity_p2();
  for (int i = top;;) {
    --i;
    GeP1P1 t = acc.dbl();
    const int bd = base_naf.d[static_cast<std::size_t>(i)];
    if (bd > 0) t = t.to_p3().madd(base_odd[static_cast<std::size_t>(bd) >> 1]);
    if (bd < 0) t = t.to_p3().msub(base_odd[static_cast<std::size_t>(-bd) >> 1]);
    for (std::size_t j = 0; j < nafs.size(); ++j) {
      const int d = nafs[j].d[static_cast<std::size_t>(i)];
      if (d > 0) t = t.to_p3().add(terms[j].odd->pts[static_cast<std::size_t>(d) >> 1]);
      if (d < 0) t = t.to_p3().sub(terms[j].odd->pts[static_cast<std::size_t>(-d) >> 1]);
    }
    if (i == 0) return t.to_p3();
    acc = t.to_p2();
  }
}

bool Ge::is_torsion_free() const {
  const GeOddMultiples odd = GeOddMultiples::of(*this);
  const Term term{kOrderL, &odd};
  return multi_scalar_mul(U256::zero(), std::span(&term, 1)).is_identity();
}

std::array<std::uint8_t, 32> Ge::compress() const {
  const Fe zinv = Z.invert();
  const Fe x = X * zinv;
  const Fe y = Y * zinv;
  auto out = y.to_bytes();
  if (x.is_negative()) out[31] |= 0x80;
  return out;
}

std::optional<Ge> Ge::decompress(codec::ByteView b) {
  if (b.size() != 32) return std::nullopt;
  const bool sign = (b[31] & 0x80) != 0;
  const Fe y = Fe::from_bytes(b);

  // x^2 = (y^2 - 1) / (d*y^2 + 1)
  const Fe y2 = y.square();
  const Fe u = y2 - Fe::one();
  const Fe v = fe_const::kD * y2 + Fe::one();
  Fe x;
  if (!fe_sqrt_ratio(u, v, x)) return std::nullopt;
  if (x.is_zero() && sign) return std::nullopt;  // -0 is not a valid encoding
  if (x.is_negative() != sign) x = x.negate();

  Ge p;
  p.X = x;
  p.Y = y;
  p.Z = Fe::one();
  p.T = x * y;
  return p;
}

}  // namespace setchain::crypto
