#include "crypto/ed25519.hpp"

#include <algorithm>
#include <deque>
#include <map>

#include "crypto/bigint.hpp"
#include "crypto/ge25519.hpp"
#include "crypto/sha512.hpp"
#include "util/thread_pool.hpp"

namespace setchain::crypto {

namespace {

/// Reduction mod L specialized to its sparse shape: L = 2^252 + c with the
/// 125-bit constant c, so 2^252 == -c (mod L) and x = hi*2^252 + lo == lo -
/// c*hi. Each step shrinks x by ~127 bits; four steps bring any 512-bit
/// value under 2^252, with a sign flag tracking the alternating
/// subtraction. Replaces the generic binary long division (~256 shift/
/// compare rounds) on the batch-verification hot path.
U256 reduce_mod_l(U512 x) {
  static const U512 kC = [] {  // c = L - 2^252
    U512 c;
    c.w[0] = 0x5812631A5CF5D3EDULL;
    c.w[1] = 0x14DEF9DEA2F79CD6ULL;
    return c;
  }();

  bool neg = false;
  for (;;) {
    // hi = x >> 252 (< 2^260), lo = x mod 2^252.
    U512 hi;
    for (std::size_t i = 0; i < 5; ++i) {
      hi.w[i] = (x.w[i + 3] >> 60) | (i + 4 < 8 ? x.w[i + 4] << 4 : 0);
    }
    if (hi.is_zero()) break;
    U512 lo = x;
    lo.w[3] &= (std::uint64_t{1} << 60) - 1;
    for (std::size_t i = 4; i < 8; ++i) lo.w[i] = 0;

    // prod = c * hi: 2 x 5 words, < 2^385 — never overflows 512 bits.
    U512 prod;
    for (std::size_t i = 0; i < 2; ++i) {
      unsigned __int128 carry = 0;
      for (std::size_t j = 0; j < 6; ++j) {
        carry += static_cast<unsigned __int128>(kC.w[i]) * hi.w[j] + prod.w[i + j];
        prod.w[i + j] = static_cast<std::uint64_t>(carry);
        carry >>= 64;
      }
    }

    if (lo >= prod) {
      lo.sub_in_place(prod);
      x = lo;
    } else {
      prod.sub_in_place(lo);
      x = prod;
      neg = !neg;
    }
  }

  U256 r;
  for (std::size_t i = 0; i < 4; ++i) r.w[i] = x.w[i];  // x < 2^252 < L
  if (neg && !r.is_zero()) {
    U256 l = kOrderL;
    l.sub_in_place(r);
    r = l;
  }
  return r;
}

/// (a*b + c) mod L through the specialized reduction.
U256 mul_add_mod_l(const U256& a, const U256& b, const U256& c) {
  U512 prod = mul_256(a, b);
  unsigned __int128 carry = 0;
  for (std::size_t i = 0; i < 8; ++i) {
    carry += static_cast<unsigned __int128>(prod.w[i]) + (i < 4 ? c.w[i] : 0);
    prod.w[i] = static_cast<std::uint64_t>(carry);
    carry >>= 64;
  }
  return reduce_mod_l(prod);
}

U256 scalar_from_hash512(const Sha512::Digest& h) {
  return reduce_mod_l(U512::from_bytes_le(codec::ByteView(h.data(), h.size())));
}

Ed25519::SigningKey expand(const Ed25519::Seed& seed, const Ed25519::PublicKey& pub) {
  auto h = Sha512::hash(codec::ByteView(seed.data(), seed.size()));
  h[0] &= 248;
  h[31] &= 127;
  h[31] |= 64;
  Ed25519::SigningKey out;
  out.a = U256::from_bytes_le(codec::ByteView(h.data(), 32));
  std::copy(h.begin() + 32, h.end(), out.prefix.begin());
  out.pub = pub;
  return out;
}

/// The scalars of the verification equation: S from the signature and
/// k = H(R || A || M) mod L. False for a non-canonical S (S >= L), the
/// malleability guard.
bool signature_scalars(const Ed25519::PublicKey& pub, codec::ByteView message,
                       const Ed25519::Signature& sig, U256& s, U256& k) {
  s = U256::from_bytes_le(codec::ByteView(sig.data() + 32, 32));
  if (!(s < kOrderL)) return false;
  Sha512 k_hash;
  k_hash.update(codec::ByteView(sig.data(), 32));
  k_hash.update(codec::ByteView(pub.data(), pub.size()));
  k_hash.update(message);
  k = scalar_from_hash512(k_hash.finalize());
  return true;
}

/// encode(p) == R bytes. No decoding of R is needed: compress() only emits
/// canonical encodings of curve points, so a non-canonical or off-curve R
/// can never match.
bool encodes_r(const Ge& p, const Ed25519::Signature& sig) {
  const auto enc = p.compress();
  return std::equal(enc.begin(), enc.end(), sig.begin());
}

/// The verification equation over the Straus chain: accept iff
/// encode(S*B + k*(-A)) == R bytes, with one interleaved double-scalar
/// multiplication.
bool verify_with(const Ed25519::PublicKey& pub, const GeOddMultiples& neg_a,
                 codec::ByteView message, const Ed25519::Signature& sig) {
  U256 s, k;
  if (!signature_scalars(pub, message, sig, s, k)) return false;
  const Ge::Term term{k, &neg_a};
  return encodes_r(Ge::multi_scalar_mul(s, std::span(&term, 1)), sig);
}

}  // namespace

Ed25519::PublicKey Ed25519::public_key(const Seed& seed) {
  return Ge::base_scalar_mul(expand(seed, {}).a).compress();
}

std::optional<Ed25519::VerifyKey> Ed25519::prepare(const PublicKey& pub) {
  const auto a_pt = Ge::decompress(codec::ByteView(pub.data(), pub.size()));
  if (!a_pt) return std::nullopt;
  return VerifyKey{pub, GeOddMultiples::of(a_pt->negate()), a_pt->is_torsion_free()};
}

std::pair<Ed25519::SigningKey, Ed25519::VerifyKey> Ed25519::keypair(const Seed& seed) {
  SigningKey sk = expand(seed, {});
  const Ge a_pt = Ge::base_scalar_mul(sk.a);
  sk.pub = a_pt.compress();
  // A = a*B lies in B's prime-order subgroup by construction.
  VerifyKey vk{sk.pub, GeOddMultiples::of(a_pt.negate()), true};
  return {sk, vk};
}

Ed25519::Signature Ed25519::sign(const SigningKey& key, codec::ByteView message) {
  Sha512 r_hash;
  r_hash.update(codec::ByteView(key.prefix.data(), key.prefix.size()));
  r_hash.update(message);
  const U256 r = scalar_from_hash512(r_hash.finalize());

  const auto r_enc = Ge::base_scalar_mul(r).compress();

  Sha512 k_hash;
  k_hash.update(codec::ByteView(r_enc.data(), r_enc.size()));
  k_hash.update(codec::ByteView(key.pub.data(), key.pub.size()));
  k_hash.update(message);
  const U256 k = scalar_from_hash512(k_hash.finalize());

  // S = (r + k*a) mod L
  const U256 s = mul_add_mod_l(k, key.a, r);
  const auto s_enc = s.to_bytes_le<32>();

  Signature sig;
  std::copy(r_enc.begin(), r_enc.end(), sig.begin());
  std::copy(s_enc.begin(), s_enc.end(), sig.begin() + 32);
  return sig;
}

Ed25519::Signature Ed25519::sign(const Seed& seed, const PublicKey& pub,
                                 codec::ByteView message) {
  return sign(expand(seed, pub), message);
}

bool Ed25519::verify(const VerifyKey& key, codec::ByteView message, const Signature& sig) {
  return verify_with(key.bytes, key.neg_a, message, sig);
}

bool Ed25519::verify(const PublicKey& pub, const GeComb& neg_a_comb, codec::ByteView message,
                     const Signature& sig) {
  U256 s, k;
  if (!signature_scalars(pub, message, sig, s, k)) return false;
  // comb_sum needs scalars below 2^255: s, k < L.
  const std::array<Ge::CombTerm, 2> terms{{{s, &GeComb::base()}, {k, &neg_a_comb}}};
  return encodes_r(Ge::comb_sum(terms), sig);
}

bool Ed25519::verify(const PublicKey& pub, codec::ByteView message, const Signature& sig) {
  const auto a_pt = Ge::decompress(codec::ByteView(pub.data(), pub.size()));
  if (!a_pt) return false;
  return verify_with(pub, GeOddMultiples::of(a_pt->negate()), message, sig);
}

namespace {

/// The distinct public keys of one shard, each prepared once: the caller's
/// VerifyKey when the entry carries one, otherwise decoded here. Entries
/// signed by the same key share one slot, which is what lets the combined
/// check merge their A terms.
class ShardKeys {
 public:
  /// Slot of the entry's key (added on first sight).
  std::size_t slot_of(const Ed25519::BatchEntry& e) {
    const auto [it, inserted] = index_.try_emplace(*e.pub, keys_.size());
    if (inserted) {
      if (e.key != nullptr) {
        keys_.push_back(e.key);
      } else {
        owned_.push_back(Ed25519::prepare(*e.pub));
        keys_.push_back(owned_.back() ? &*owned_.back() : nullptr);
      }
    }
    return it->second;
  }

  /// Null when the key is not a curve point.
  const Ed25519::VerifyKey* operator[](std::size_t slot) const { return keys_[slot]; }
  std::size_t size() const { return keys_.size(); }

 private:
  std::map<Ed25519::PublicKey, std::size_t> index_;
  std::vector<const Ed25519::VerifyKey*> keys_;
  std::deque<std::optional<Ed25519::VerifyKey>> owned_;  ///< push_back keeps addresses
};

/// Per-entry state shared by the combined check and its bisection:
/// R decoded and scalars derived once per batch, reused by every
/// sub-check.
struct PreparedEntry {
  GeOddMultiples neg_r;  ///< odd multiples of -R
  U256 s;                ///< signature scalar
  U256 k;                ///< H(R || A || M) mod L
  std::size_t key = 0;   ///< ShardKeys slot of A
};

/// Decode R and derive the scalars; false when the entry cannot pass
/// scalar `verify` (S >= L, R not a canonical curve-point encoding).
bool prepare_entry(const Ed25519::BatchEntry& e, PreparedEntry& out) {
  const codec::ByteView r_bytes(e.sig->data(), 32);
  out.s = U256::from_bytes_le(codec::ByteView(e.sig->data() + 32, 32));
  if (!(out.s < kOrderL)) return false;  // non-canonical S

  const auto r_pt = Ge::decompress(r_bytes);
  if (!r_pt) return false;
  // Scalar `verify` compares the recomputed point against the R *bytes*, so
  // a non-canonically encoded R (y >= p) always fails there; reject it here
  // too, otherwise the batch path (which works on the decompressed point)
  // would disagree.
  const auto canonical_y = Fe::from_bytes(r_bytes).to_bytes();
  for (std::size_t i = 0; i < 32; ++i) {
    const std::uint8_t want = i == 31 ? (canonical_y[i] | (r_bytes[i] & 0x80)) : canonical_y[i];
    if (r_bytes[i] != want) return false;
  }

  Sha512 k_hash;
  k_hash.update(r_bytes);
  k_hash.update(codec::ByteView(e.pub->data(), e.pub->size()));
  k_hash.update(e.message);
  out.k = scalar_from_hash512(k_hash.finalize());
  out.neg_r = GeOddMultiples::of(r_pt->negate());
  return true;
}

/// Combined random-linear-combination check over a subset of the batch:
///   (sum z_i*S_i)*B + sum z_i*(-R_i) + sum_A (sum_{i: A_i = A} z_i*k_i)*(-A)
///     == identity.
/// Grouping the A terms by key is the same sum, regrouped: a batch of 60
/// signatures from 4 signers multiplies 4 full-width A terms instead of 60.
/// The z_i are 128-bit scalars derived from a SHA-512 transcript of the
/// subset's full (R, S, A, message) tuples, keyed per entry by its index
/// within the subset — deterministic, so the same batch always produces the
/// same combination. The transcript MUST absorb the S halves: if the z_i
/// depended only on (R, A, M), an adversary could pick them first and then
/// doctor two valid signatures as S1+z2 / S2-z1, preserving sum z_i*S_i
/// while making both individually invalid.
bool combined_check(std::span<const Ed25519::BatchEntry> entries,
                    const std::vector<PreparedEntry>& prepared, const ShardKeys& keys,
                    const std::vector<std::size_t>& subset) {
  Sha512 transcript;
  transcript.update(codec::to_bytes("setchain.ed25519.batch.v1"));
  codec::Bytes count;
  codec::append_u64le(count, subset.size());
  transcript.update(count);
  for (const std::size_t i : subset) {
    const auto& e = entries[i];
    transcript.update(codec::ByteView(e.sig->data(), e.sig->size()));  // R and S
    transcript.update(codec::ByteView(e.pub->data(), e.pub->size()));
    codec::Bytes len;
    codec::append_u64le(len, e.message.size());
    transcript.update(len);
    transcript.update(e.message);
  }
  const auto seed = transcript.finalize();

  U256 base_scalar = U256::zero();
  std::vector<U256> key_scalar(keys.size(), U256::zero());
  std::vector<bool> key_used(keys.size(), false);
  std::vector<Ge::Term> terms;
  terms.reserve(subset.size() + keys.size());
  for (std::size_t j = 0; j < subset.size(); ++j) {
    const PreparedEntry& p = prepared[subset[j]];
    Sha512 zh;
    zh.update(codec::ByteView(seed.data(), seed.size()));
    codec::Bytes idx;
    codec::append_u64le(idx, j);
    zh.update(idx);
    const auto zd = zh.finalize();
    // 128-bit randomizers: standard for ed25519 batching (2^-128 soundness)
    // and half the NAF length of a full scalar for the R_i terms.
    U256 z = U256::from_bytes_le(codec::ByteView(zd.data(), 16));
    if (z.is_zero()) z = U256::from_u64(1);

    base_scalar = mul_add_mod_l(z, p.s, base_scalar);
    terms.push_back(Ge::Term{z, &p.neg_r});
    key_scalar[p.key] = mul_add_mod_l(z, p.k, key_scalar[p.key]);
    key_used[p.key] = true;
  }
  for (std::size_t g = 0; g < keys.size(); ++g) {
    if (key_used[g]) terms.push_back(Ge::Term{key_scalar[g], &keys[g]->neg_a});
  }
  return Ge::multi_scalar_mul(base_scalar, terms).is_identity();
}

/// Scalar verification of one entry against its shard-prepared key.
bool verify_entry(const Ed25519::BatchEntry& e, const Ed25519::VerifyKey& key) {
  return verify_with(*e.pub, key.neg_a, e.message, *e.sig);
}

/// Bisection fallback: a failing subset is split until the culprits are
/// pinned down by scalar verification, which keeps the result exactly equal
/// to per-signature `verify` even in the (negligible-probability) corner
/// cases a random combination could mask.
void bisect(std::span<const Ed25519::BatchEntry> entries,
            const std::vector<PreparedEntry>& prepared, const ShardKeys& keys,
            std::vector<std::size_t> subset, std::vector<bool>& valid) {
  if (subset.empty()) return;
  if (subset.size() == 1) {
    const std::size_t i = subset[0];
    valid[i] = verify_entry(entries[i], *keys[prepared[i].key]);
    return;
  }
  if (combined_check(entries, prepared, keys, subset)) {
    for (const std::size_t i : subset) valid[i] = true;
    return;
  }
  const std::size_t mid = subset.size() / 2;
  bisect(entries, prepared, keys,
         std::vector<std::size_t>(subset.begin(), subset.begin() + static_cast<std::ptrdiff_t>(mid)),
         valid);
  bisect(entries, prepared, keys,
         std::vector<std::size_t>(subset.begin() + static_cast<std::ptrdiff_t>(mid), subset.end()),
         valid);
}

/// One shard's worth of batch verification (the pre-sharding verify_batch
/// body). `valid` is sized to the shard and all-false on entry.
void verify_shard(std::span<const Ed25519::BatchEntry> entries,
                  std::vector<bool>& valid, bool& all_valid) {
  if (entries.size() == 1) {
    const auto& e = entries[0];
    valid[0] = e.key != nullptr ? Ed25519::verify(*e.key, e.message, *e.sig)
                                : Ed25519::verify(*e.pub, e.message, *e.sig);
    all_valid = valid[0];
    return;
  }

  ShardKeys keys;
  std::vector<PreparedEntry> prepared(entries.size());
  std::vector<std::size_t> candidates;
  candidates.reserve(entries.size());
  for (std::size_t i = 0; i < entries.size(); ++i) {
    const auto& e = entries[i];
    prepared[i].key = keys.slot_of(e);
    const Ed25519::VerifyKey* key = keys[prepared[i].key];
    if (key == nullptr) continue;  // A not a curve point: invalid
    if (!key->torsion_free) {
      // A has a small-order component, which the combination would treat
      // differently from scalar verify: check the entry on its own.
      valid[i] = verify_entry(e, *key);
      continue;
    }
    if (prepare_entry(e, prepared[i])) candidates.push_back(i);
  }

  // One combined check when everything is fine; bisection (inside `bisect`)
  // takes over only on failure.
  bisect(entries, prepared, keys, candidates, valid);
  all_valid = true;
  for (std::size_t i = 0; i < entries.size(); ++i) all_valid = all_valid && valid[i];
}

/// Entries below which a shard is not worth a transcript + MSM of its own:
/// the MSM's amortization flattens out around this batch size, so slicing
/// finer just repeats fixed costs.
constexpr std::size_t kMinShardEntries = 64;

}  // namespace

Ed25519::BatchResult Ed25519::verify_batch(std::span<const BatchEntry> entries) {
  std::size_t shards = 1;
  const std::size_t workers = util::ThreadPool::global().workers();
  if (workers > 0 && entries.size() >= 2 * kMinShardEntries) {
    shards = std::min(workers + 1, entries.size() / kMinShardEntries);
  }
  return verify_batch_sharded(entries, shards);
}

Ed25519::BatchResult Ed25519::verify_batch_sharded(std::span<const BatchEntry> entries,
                                                   std::size_t shards) {
  BatchResult res;
  res.valid.assign(entries.size(), false);
  if (entries.empty()) {
    res.all_valid = true;
    return res;
  }
  shards = std::max<std::size_t>(1, std::min(shards, entries.size()));

  if (shards == 1) {
    bool all = false;
    verify_shard(entries, res.valid, all);
    res.all_valid = all;
    return res;
  }

  // Contiguous split. Each shard writes a LOCAL verdict vector (vector<bool>
  // packs bits — concurrent writes to neighboring indices of a shared one
  // would race) merged in order after the parallel_for barrier.
  struct ShardOut {
    std::vector<bool> valid;
    bool all_valid = false;
  };
  std::vector<ShardOut> outs(shards);
  const std::size_t base = entries.size() / shards;
  const std::size_t extra = entries.size() % shards;
  const auto shard_begin = [&](std::size_t s) {
    return s * base + std::min(s, extra);
  };
  util::ThreadPool::global().parallel_for(shards, [&](std::size_t s) {
    const std::size_t begin = shard_begin(s);
    const std::size_t len = shard_begin(s + 1) - begin;
    ShardOut& o = outs[s];
    o.valid.assign(len, false);
    verify_shard(entries.subspan(begin, len), o.valid, o.all_valid);
  });

  res.all_valid = true;
  for (std::size_t s = 0; s < shards; ++s) {
    const std::size_t begin = shard_begin(s);
    for (std::size_t i = 0; i < outs[s].valid.size(); ++i) {
      res.valid[begin + i] = outs[s].valid[i];
    }
    res.all_valid = res.all_valid && outs[s].all_valid;
  }
  return res;
}

}  // namespace setchain::crypto
