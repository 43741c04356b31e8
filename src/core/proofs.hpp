#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <vector>

#include "codec/byte_io.hpp"
#include "core/config.hpp"
#include "core/element.hpp"
#include "crypto/pki.hpp"
#include "crypto/sha256.hpp"
#include "crypto/sha512.hpp"

namespace setchain::core {

using EpochHash = std::array<std::uint8_t, 64>;

/// Epoch-proof p_v(i) = Sign_v(Hash(i, history[i])) — the paper's mechanism
/// letting a light client trust an epoch after f+1 consistent proofs
/// (§2, "Setchain Epoch-proofs"). Wire size is exactly 139 bytes, matching
/// the measured length in §4.
struct EpochProof {
  std::uint64_t epoch = 0;
  crypto::ProcessId server = 0;
  EpochHash epoch_hash{};
  crypto::Ed25519::Signature sig{};
  bool valid_flag = true;  ///< calibrated-fidelity validity

  bool operator==(const EpochProof& o) const {
    return epoch == o.epoch && server == o.server;
  }
};

constexpr std::uint32_t kEpochProofWireSize = 139;
constexpr std::uint8_t kEpochProofTag = 0x02;

/// Canonical hash of an epoch: SHA-512 over the epoch number and the
/// (id, digest) pairs of its elements sorted by id. Sorting gives all
/// correct servers a content-identical hash regardless of processing order.
/// Calibrated fidelity derives a deterministic placeholder from the same
/// inputs without SHA cost on the host.
EpochHash epoch_hash(std::uint64_t epoch,
                     const std::vector<std::pair<ElementId, std::uint64_t>>& id_digests,
                     Fidelity fidelity);

/// Prefix digest of a history: a hash chain over its epochs, c_0 = 0 and
/// c_i = SHA-256(c_{i-1} ‖ i as u64le ‖ hash_i). Equal digests at epoch k
/// mean equal (number, hash) sequences 1..k, so a quorum reader that caches
/// an adopted prefix checks a node against all of it in O(1).
using PrefixDigest = crypto::Sha256::Digest;
PrefixDigest chain_digest(const PrefixDigest& prev, std::uint64_t number,
                          const EpochHash& hash);

void serialize_epoch_proof(codec::Writer& w, const EpochProof& p);
std::optional<EpochProof> parse_epoch_proof(codec::Reader& r);

EpochProof make_epoch_proof(const crypto::Pki& pki, crypto::ProcessId server,
                            std::uint64_t epoch, const EpochHash& hash,
                            Fidelity fidelity);

/// Result of an Ed25519 check performed ahead of time through the batch
/// path (Pki::verify_batch). kUnchecked means "not pre-verified": the
/// validator runs the scalar check itself.
enum class SigCheck : std::uint8_t { kUnchecked, kValid, kInvalid };

/// The paper's valid_proof(j, p, w, history[j]): the proof must reference an
/// existing epoch whose locally computed hash matches, with a valid server
/// signature over it. `presig` carries a batch-verified signature verdict so
/// hot paths that already checked a whole block's signatures in one
/// multi-scalar multiplication do not re-verify one by one.
bool valid_proof(const EpochProof& p, const EpochHash& expected,
                 const crypto::Pki& pki, Fidelity fidelity,
                 SigCheck presig = SigCheck::kUnchecked);

/// Hash-batch <h, s, v> (Hashchain): fixed-size stand-in for a batch on the
/// ledger. Also 139 bytes on the wire, as measured in §4.
struct HashBatchMsg {
  EpochHash hash{};  ///< Hash(batch)
  crypto::ProcessId server = 0;
  crypto::Ed25519::Signature sig{};
  bool valid_flag = true;
};

constexpr std::uint32_t kHashBatchWireSize = 139;
constexpr std::uint8_t kHashBatchTag = 0x03;

void serialize_hash_batch(codec::Writer& w, const HashBatchMsg& hb);
std::optional<HashBatchMsg> parse_hash_batch(codec::Reader& r);

HashBatchMsg make_hash_batch(const crypto::Pki& pki, crypto::ProcessId server,
                             const EpochHash& h, Fidelity fidelity);

/// valid_hash(h, s_w, w): signature of w over h. `presig` as in valid_proof.
bool valid_hash_batch(const HashBatchMsg& hb, const crypto::Pki& pki, Fidelity fidelity,
                      SigCheck presig = SigCheck::kUnchecked);

/// Batch-verify the signatures of a block's worth of epoch-proofs with one
/// Ed25519 batch check. Returns kUnchecked everywhere when batching cannot
/// help (calibrated fidelity, or fewer than two proofs), so callers always
/// feed the result straight into valid_proof.
std::vector<SigCheck> batch_check_proof_sigs(const std::vector<EpochProof>& ps,
                                             const crypto::Pki& pki, Fidelity fidelity);

/// Same for hash-batch announcements.
std::vector<SigCheck> batch_check_hash_batch_sigs(const std::vector<HashBatchMsg>& hbs,
                                                  const crypto::Pki& pki,
                                                  Fidelity fidelity);

}  // namespace setchain::core
