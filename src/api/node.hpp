#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "core/element.hpp"
#include "core/epoch_record.hpp"
#include "core/proofs.hpp"

namespace setchain::api {

/// One read of S.get_v() from epoch `from` on: the node's epoch count, the
/// prefix digest of its history at from-1, and its epoch records from
/// `from` on. A quorum reader that already adopted epochs 1..from-1 checks
/// the digest against its own chain (core::chain_digest) and ballots only
/// the records, so a read costs O(new epochs) wherever the node lives.
struct NodeSnapshot {
  std::uint64_t epoch = 0;  ///< epochs this node has consolidated
  /// c_{from-1}. Zero for from == 1, and when the node is below from-1
  /// (it then has no records to offer either).
  core::PrefixDigest prefix_digest{};
  /// Epochs from, from+1, ... in order, at most up to `epoch`. May stop
  /// short of `epoch` (a remote node pages large reads): ask again from
  /// the next epoch.
  std::span<const core::EpochRecord> records;
  /// Keeps `records` alive when the node had to copy them (remote stubs);
  /// null for in-process servers, whose records are views into live
  /// history, valid while the server is alive and unmodified.
  std::shared_ptr<const void> owner;
};

/// The client-facing surface of one Setchain server — the datatype API the
/// paper specifies (add / get / epoch-proofs), abstracted away from concrete
/// server classes. `SetchainServer` implements it in-process;
/// `net::RemoteNode` implements it over a socket against a live cluster.
/// Everything client-shaped (QuorumClient, examples, light-client checks)
/// talks to this interface only, so a node here may equally be a correct
/// server, a Byzantine wrapper in a test, or a remote stub.
///
/// Failure semantics, uniform across implementations: a node that is down,
/// crashed, or unreachable (an RPC timeout on a remote stub) REFUSES adds
/// and serves empty reads — indistinguishable from a silent Byzantine
/// server, which is exactly why no caller may trust one node. Quorum
/// callers (QuorumClient) tolerate up to f nodes behaving this way per
/// operation.
class ISetchainNode {
 public:
  virtual ~ISetchainNode() = default;

  /// S.add_v(e). False when the element is invalid (bad signature,
  /// malformed), already known to this node, or the node is down /
  /// unreachable — acceptance by ONE node is no commitment (the element
  /// may still die with that node's collector; broadcast policies and the
  /// f+1 commit check exist for exactly that reason).
  virtual bool add(core::Element e) = 0;

  /// S.get_v() from epoch `from_epoch` (1-based; a full read is 1).
  /// Untrusted: a Byzantine node may return anything, so a client must
  /// reconcile reads across f+1 nodes before believing a record
  /// (QuorumClient::get does). Down/unreachable nodes serve an empty read
  /// (epoch 0, no records).
  virtual NodeSnapshot snapshot(std::uint64_t from_epoch) const = 0;

  /// Epoch-proofs this node holds for epoch `epoch_number` (1-based, the
  /// paper's numbering). Bounds-checked: epoch 0, an epoch this node has
  /// not consolidated yet, or a down/unreachable node yields an empty
  /// list. This accessor is the single owner of the "epoch i lives at
  /// index i-1" convention. Any single node's proof store may be partial
  /// or fake — commit decisions need f+1 VALID proofs from distinct
  /// signers, validated against the quorum-agreed epoch hash, gathered
  /// across all nodes (QuorumClient::verify). The reference is valid until
  /// the next proofs_for_epoch call on the same node: a remote stub keeps
  /// only its last answer, so callers use it before asking again.
  virtual const std::vector<core::EpochProof>& proofs_for_epoch(
      std::uint64_t epoch_number) const = 0;

  /// Number of epochs this node has consolidated; 0 when down/unreachable.
  /// An honest-but-slow node legitimately trails the cluster, and a
  /// Byzantine one may claim anything — never a commit signal by itself.
  virtual std::uint64_t epoch() const = 0;

  /// The server's process id in the PKI (who signs its epoch-proofs).
  virtual crypto::ProcessId node_id() const = 0;
};

}  // namespace setchain::api
