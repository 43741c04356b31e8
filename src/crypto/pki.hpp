#pragma once

#include <cstdint>
#include <memory>
#include <unordered_map>
#include <vector>

#include "crypto/ed25519.hpp"

namespace setchain::crypto {

/// Process identifier in the Setchain system model: servers and clients are
/// both "processes" with keys in the PKI.
using ProcessId = std::uint32_t;

/// Public-key infrastructure from the paper's system model: every process
/// has a keypair and knows everyone's public key. Keys are derived
/// deterministically from a master seed so simulation runs are reproducible.
///
/// Each registered process keeps its keys prepared: the expanded secret for
/// signing and the decoded -A table for verifying, built once here. The
/// 30 KiB comb of -A that `verify` uses is built on the key's first
/// `verify` (GeLazyComb: once, thread-safely), so only processes whose
/// signatures are scalar-verified pay for it, and it is shared by every
/// Pki in the process that registers the same key (an in-process cluster
/// runs one Pki per node over one seed). Otherwise the entries are
/// read-only after registration, so the verify pool and node threads may
/// sign and verify concurrently.
class Pki {
 public:
  explicit Pki(std::uint64_t master_seed);

  /// Create (or return the existing) keypair for a process.
  const Ed25519::PublicKey& register_process(ProcessId id);

  bool knows(ProcessId id) const { return keys_.contains(id); }
  const Ed25519::PublicKey& public_key(ProcessId id) const;

  /// Sign on behalf of a registered process (the simulation holds all seeds;
  /// a real deployment would keep them per-host).
  Ed25519::Signature sign(ProcessId id, codec::ByteView message) const;

  /// Verify a signature allegedly from `id`. Unknown processes fail.
  bool verify(ProcessId id, codec::ByteView message, const Ed25519::Signature& sig) const;

  /// One (signer, message, signature) triple of a batch. The referenced
  /// message/signature bytes must outlive the verify_batch call.
  struct SignedMessage {
    ProcessId signer = 0;
    codec::ByteView message;
    const Ed25519::Signature* sig = nullptr;
  };

  /// Batch-verify a block's worth of signatures with one Ed25519 batch
  /// check (see Ed25519::verify_batch). Entries from unknown processes are
  /// reported invalid without entering the batch. The per-item verdicts
  /// agree with scalar `verify` entry by entry.
  Ed25519::BatchResult verify_batch(std::span<const SignedMessage> items) const;

  std::vector<ProcessId> processes() const;

 private:
  struct Entry {
    Ed25519::SigningKey signing;
    Ed25519::VerifyKey verify;
    std::shared_ptr<const GeLazyComb> neg_a_comb;
  };
  std::uint64_t master_seed_;
  std::unordered_map<ProcessId, Entry> keys_;
};

}  // namespace setchain::crypto
