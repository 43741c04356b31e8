#pragma once

#include <memory>
#include <mutex>
#include <optional>
#include <span>

#include "crypto/bigint.hpp"
#include "crypto/fe25519.hpp"

namespace setchain::crypto {

struct GeP2;
struct GeP1P1;
struct GeCached;
struct GePrecomp;
struct GeOddMultiples;
struct GeComb;

/// Order L = 2^252 + 27742317777372353535851937790883648493 of the
/// prime-order subgroup generated by the base point.
inline constexpr U256 kOrderL{{0x5812631A5CF5D3EDULL, 0x14DEF9DEA2F79CD6ULL, 0,
                               0x1000000000000000ULL}};

/// Point on edwards25519 in extended homogeneous coordinates
/// (X : Y : Z : T) with x = X/Z, y = Y/Z, x*y = T/Z (ref10's "p3").
///
/// The hot paths work in ref10's other point forms (below): a doubling
/// reads only X, Y, Z (p2) and yields a completed point (p1p1); an addition
/// takes one operand pre-shaped as "cached" (projective Niels, 8M) or
/// "precomp" (affine Niels, 7M) and also yields a p1p1. Converting a p1p1
/// costs 3M to p2 (enough for the next doubling) or 4M to p3 (needed before
/// an addition), so doubling chains never compute an unused T.
struct Ge {
  Fe X, Y, Z, T;

  static Ge identity();
  /// The standard base point B (y = 4/5, x even), derived at first use.
  static const Ge& base();

  /// Complete unified addition (add-2008-hwcd-3, 9M). The plain formula:
  /// the oracle of scalar_mul and of the cached/precomp forms in tests.
  Ge add(const Ge& o) const;
  Ge dbl() const;
  Ge negate() const;

  GeP2 to_p2() const;
  GeCached to_cached() const;
  GeP1P1 add(const GeCached& q) const;   ///< this + q
  GeP1P1 sub(const GeCached& q) const;   ///< this - q
  GeP1P1 madd(const GePrecomp& q) const;  ///< this + q, q affine
  GeP1P1 msub(const GePrecomp& q) const;  ///< this - q, q affine

  bool is_identity() const;

  /// Scalar multiplication, plain double-and-add over 256 bits: the
  /// reference every faster path is tested against.
  Ge scalar_mul(const U256& k) const;

  /// k*B through the base point's comb (GeComb::base()). The signing /
  /// key-derivation path. Scalars >= 2^255 (never produced by Ed25519) take
  /// the multi-scalar path instead.
  static Ge base_scalar_mul(const U256& k);

  /// One term of comb_sum: a scalar below 2^255 and the comb of its point.
  struct CombTerm {
    U256 scalar;
    const GeComb* comb = nullptr;
  };

  /// sum_i terms[i].scalar * P_i over fixed-base combs: 64 signed radix-16
  /// digits per scalar. The odd digits of every term are summed first and
  /// lifted by 16 (four doublings shared by all terms); the even digits add
  /// on top. So m terms cost about 64m mixed additions and 4 doublings, no
  /// doubling chain. Every scalar must be below 2^255. Variable time.
  static Ge comb_sum(std::span<const CombTerm> terms);

  /// One term of multi_scalar_mul: the scalar and the cached odd multiples
  /// of its point (built once by the caller, so a key verified many times
  /// pays for its table once).
  struct Term {
    U256 scalar;
    const GeOddMultiples* odd = nullptr;
  };

  /// Straus/interleaved multi-scalar multiplication:
  ///   base_scalar*B + sum_i terms[i].scalar * terms[i].point
  /// One shared doubling chain for all terms (the doublings amortize across
  /// the whole sum, which is what makes batch signature verification pay
  /// off); width-5 NAF digits for the terms, width-8 for B. Variable time.
  static Ge multi_scalar_mul(const U256& base_scalar, std::span<const Term> terms);

  /// [L]P == identity: P has no small-order component. Costs about one
  /// variable-base scalar multiplication.
  bool is_torsion_free() const;

  /// Compressed 32-byte encoding: y with the sign of x in the top bit.
  /// Always canonical (y < p; sign bit clear when x == 0).
  std::array<std::uint8_t, 32> compress() const;

  /// Decompress; rejects non-curve points and the x==0/sign==1 encoding.
  static std::optional<Ge> decompress(codec::ByteView bytes32);
};

/// Projective (X : Y : Z): all a doubling reads.
struct GeP2 {
  Fe X, Y, Z;
  GeP1P1 dbl() const;
};

/// Completed ((X : Z), (Y : T)): what additions and doublings produce.
struct GeP1P1 {
  Fe X, Y, Z, T;
  GeP2 to_p2() const;
  Ge to_p3() const;
};

/// Projective Niels form (Y+X, Y-X, Z, 2d*T) of an addition operand.
struct GeCached {
  Fe YplusX, YminusX, Z, T2d;
};

/// Affine Niels form (y+x, y-x, 2d*x*y): a cached point with Z = 1.
struct GePrecomp {
  Fe yplusx, yminusx, xy2d;
  static GePrecomp from(const Ge& p);  ///< one inversion
};

/// P, 3P, 5P, ..., 15P in cached form: the table a width-5 NAF digit of a
/// multi_scalar_mul term selects from.
struct GeOddMultiples {
  std::array<GeCached, 8> pts;
  static GeOddMultiples of(const Ge& p);
};

/// Fixed-base comb of a point P: rows[i][j-1] = j * 256^i * P for i < 32,
/// j = 1..8, in affine form (ref10's table, generalized from B to any
/// point). 30 KiB; the table comb_sum selects from.
struct GeComb {
  std::array<std::array<GePrecomp, 8>, 32> rows;

  /// Builds the 256 points in extended form, then makes them affine with
  /// one Montgomery batch inversion.
  static std::unique_ptr<const GeComb> of(const Ge& p);
  /// The comb of B, built at first use.
  static const GeComb& base();
};

/// A point's comb, built on the first get() and shared by every caller
/// after that. Thread-safe: concurrent first calls build it once.
class GeLazyComb {
 public:
  explicit GeLazyComb(const Ge& p) : point_(p) {}
  const GeComb& get() const;

 private:
  Ge point_;
  mutable std::once_flag once_;
  mutable std::unique_ptr<const GeComb> comb_;
};

}  // namespace setchain::crypto
