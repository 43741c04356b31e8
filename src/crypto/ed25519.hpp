#pragma once

#include <array>
#include <optional>
#include <utility>
#include <span>
#include <vector>

#include "codec/bytes.hpp"
#include "crypto/bigint.hpp"
#include "crypto/ge25519.hpp"

namespace setchain::crypto {

/// Ed25519 (RFC 8032) built on the from-scratch SHA-512 / curve25519 code in
/// this module. The paper signs epoch-proofs and hash-batches with ed25519;
/// wire sizes (32-byte keys, 64-byte signatures) therefore match exactly.
///
/// Validated against the RFC 8032 test vectors in tests/crypto.
struct Ed25519 {
  static constexpr std::size_t kSeedSize = 32;
  static constexpr std::size_t kPublicKeySize = 32;
  static constexpr std::size_t kSignatureSize = 64;

  using Seed = std::array<std::uint8_t, kSeedSize>;
  using PublicKey = std::array<std::uint8_t, kPublicKeySize>;
  using Signature = std::array<std::uint8_t, kSignatureSize>;

  /// Derive the public key for a 32-byte seed (RFC 8032 "secret key").
  static PublicKey public_key(const Seed& seed);

  /// A public key decoded once for repeated verification: the encoding
  /// (hashed into every challenge) and the cached odd multiples of -A that
  /// the verification equation multiplies. Immutable once built, so any
  /// number of threads may verify against one concurrently.
  struct VerifyKey {
    PublicKey bytes{};
    GeOddMultiples neg_a;
    /// A has no small-order component. A combined batch check applies
    /// k mod L to A, which equals scalar verify's k*A only when this holds,
    /// so batch verification sends other keys' signatures to scalar verify.
    bool torsion_free = false;
  };

  /// Decode and prepare a public key; nullopt when it is not a curve point.
  /// Includes the torsion check (about one scalar multiplication).
  static std::optional<VerifyKey> prepare(const PublicKey& pub);

  /// An expanded secret for repeated signing: the clamped scalar a, the
  /// nonce prefix, and the public key the challenge hashes.
  struct SigningKey {
    U256 a;
    std::array<std::uint8_t, 32> prefix{};
    PublicKey pub{};
  };

  /// Both halves of a keypair from one seed, without re-decoding A.
  static std::pair<SigningKey, VerifyKey> keypair(const Seed& seed);

  static Signature sign(const SigningKey& key, codec::ByteView message);
  static Signature sign(const Seed& seed, const PublicKey& pub, codec::ByteView message);

  /// Cofactorless verification: S*B == R + k*A with canonical-S check,
  /// computed as encode(S*B + k*(-A)) == R bytes over a 253-doubling
  /// Straus chain. The raw-key overload decodes the key (without the
  /// torsion check) for this one call.
  static bool verify(const VerifyKey& key, codec::ByteView message, const Signature& sig);
  static bool verify(const PublicKey& pub, codec::ByteView message, const Signature& sig);
  /// The same equation over two fixed-base combs, B's and `neg_a_comb`
  /// (the comb of -A for `pub`), interleaved: about 128 mixed additions
  /// and 4 doublings, no doubling chain. It computes the same point, so
  /// the verdict equals the Straus overloads' on every input. Pays off for
  /// a key verified more than about four times (the comb costs about four
  /// Straus verifies to build and holds 30 KiB).
  static bool verify(const PublicKey& pub, const GeComb& neg_a_comb, codec::ByteView message,
                     const Signature& sig);

  /// One signature of a batch. The referenced key/signature/message bytes
  /// must stay alive for the duration of the verify_batch call.
  struct BatchEntry {
    const PublicKey* pub = nullptr;
    codec::ByteView message;
    const Signature* sig = nullptr;
    /// The prepared form of *pub when the caller holds one (Pki does);
    /// null means the batch prepares each distinct key itself.
    const VerifyKey* key = nullptr;
  };

  struct BatchResult {
    bool all_valid = false;
    std::vector<bool> valid;  ///< per entry, same order as the input span
  };

  /// Batch verification via a random linear combination: checks
  ///   (sum z_i*S_i)*B == sum z_i*R_i + sum_A (sum_{i signed by A} z_i*k_i)*A
  /// with ONE interleaved multi-scalar multiplication, amortizing the
  /// doubling chain across the whole batch; entries that share a public key
  /// share one full-width A term. The per-entry randomizers z_i
  /// are derived deterministically from a SHA-512 transcript of all
  /// (R, S, A, message) tuples — the full signatures, so no part of the
  /// batch can be chosen after the randomizers; no wall-clock randomness,
  /// so replays of the same batch are bit-identical. When the combined check fails the batch
  /// is bisected (each half re-checked with fresh transcript randomizers)
  /// down to per-signature scalar verification, so the result identifies
  /// exactly which signatures are bad and agrees entry-by-entry with
  /// `verify`. Known gap: an R with a small-order component cancels from
  /// the combination for some z_i (about half the time for order 2), so
  /// such an entry, which scalar verify always rejects, can pass here.
  static BatchResult verify_batch(std::span<const BatchEntry> entries);

  /// verify_batch fanned out over the process thread pool: the batch is cut
  /// into `shards` contiguous sub-batches, each verified independently (own
  /// transcript, own MSM, own bisection), and the per-entry verdicts merged
  /// back in order. Verdicts are EXACTLY those of verify() per entry —
  /// sharding changes the combination grouping, never the outcome — so any
  /// shard count (including 1, which is plain verify_batch) agrees with any
  /// other. verify_batch itself delegates here with a machine-derived shard
  /// count, so callers normally never pick one; the explicit overload exists
  /// for tests and tuning.
  static BatchResult verify_batch_sharded(std::span<const BatchEntry> entries,
                                          std::size_t shards);
};

}  // namespace setchain::crypto
