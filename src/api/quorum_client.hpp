#pragma once

#include <cstdint>
#include <functional>
#include <iterator>
#include <memory>
#include <span>
#include <vector>

#include "api/node.hpp"
#include "crypto/pki.hpp"

namespace setchain::api {

/// How an add() is fanned out across the client's node set.
enum class WritePolicy : std::uint8_t {
  kPrimary,  ///< one node (the primary), failing over past refusals
  kQuorum,   ///< f+1 distinct nodes must accept
  kAll,      ///< broadcast to every node (the paper's Byzantine-client-proof
             ///< submission: at least one correct server receives it)
};

/// Client-side health verdict for one node, learned from its responses.
enum class NodeStatus : std::uint8_t {
  kOk,
  /// Refused a kPrimary add that a failover target then accepted. Only the
  /// primary walk assigns blame: under kQuorum/kAll broadcast a refusal is
  /// routinely just "already known" and says nothing about the node.
  kRefusing,
  kEquivocating,  ///< reported an epoch that contradicts the f+1 quorum
};

/// The paper's quorum-based Setchain client (§2: the datatype is defined
/// through add/get plus epoch-proof commit checks, and a client trusts no
/// single server). A QuorumClient owns handles to n nodes of which at most
/// f are Byzantine:
///
/// * `add(e)` is fanned out according to the WritePolicy, failing over past
///   nodes that refuse.
/// * `get()` extends the client's adopted prefix epoch by epoch, adopting
///   an epoch only when f+1 nodes report an identical (hash, contents)
///   record — so at least one correct server vouches for it. Nodes are
///   asked only for the epochs past the prefix, and must present the
///   prefix's digest (core::chain_digest) with them; nodes contradicting
///   the prefix or an adopted record are masked as equivocating from then
///   on.
/// * `verify(id)` commits an element only on f+1 valid epoch-proofs from
///   distinct signing servers, gathered across ALL nodes' proof stores — no
///   single server needs to hold (or can fake) the committing proof set.
///
/// Nodes are accessed through ISetchainNode only: in-process servers, remote
/// stubs, Byzantine wrappers in tests. Not thread-safe: one thread drives a
/// client (Views it returned may be read on any thread).
class QuorumClient {
 public:
  struct Config {
    std::uint32_t f = 1;  ///< Byzantine bound; quorum threshold is f+1
    WritePolicy write_policy = WritePolicy::kPrimary;
    std::size_t primary = 0;  ///< first node tried for kPrimary/kQuorum adds
    core::Fidelity fidelity = core::Fidelity::kFull;
  };

  /// `pki` must outlive the client. Quorum reads need nodes.size() >= f+1.
  QuorumClient(std::vector<ISetchainNode*> nodes, const crypto::Pki& pki, Config cfg);

  struct AddResult {
    std::size_t accepted = 0;   ///< nodes that accepted the element
    std::size_t attempted = 0;  ///< nodes offered the element
    bool ok = false;            ///< the write policy's threshold was met
  };
  /// S.add(e) under the configured WritePolicy. Threshold for `ok`:
  /// kPrimary >= 1 accept within f+1 attempts (that set provably contains
  /// a correct server, so walking further only spreads load from bad
  /// elements), kQuorum >= f+1 accepts, kAll >= 1 accept after offering
  /// everyone. A refusal may mean "invalid", "already known", or "node
  /// down/unreachable" — only the kPrimary failover walk assigns blame
  /// (kRefusing) since broadcast refusals are routinely just duplicates.
  /// ok==true is NOT commitment: that is verify()'s f+1-proof check.
  AddResult add(core::Element e);

  struct Adopted;  // the adopted prefix: records, chain tip, id -> epoch index

  /// Client-side consolidated view: exactly the epochs with f+1 agreement.
  /// Copying a View is O(1): it shares the client's adopted prefix, which
  /// the client never changes while a View holds it (a later get() extends
  /// a private copy instead), so a View stays valid and unchanged.
  struct View {
    std::span<const core::EpochRecord> history;  ///< epochs 1..epoch, adopted
    std::uint64_t epoch = 0;       ///< last epoch with an f+1 quorum
    std::size_t masked_nodes = 0;  ///< nodes currently masked as equivocating
    /// Is `id` in one of this view's epochs (the paper's the_set, as far as
    /// the quorum vouches for it)? O(1).
    bool contains(core::ElementId id) const;

   private:
    friend class QuorumClient;
    std::shared_ptr<const Adopted> adopted_;
  };
  /// Quorum read: asks every non-masked node for its epochs past the
  /// adopted prefix, then adopts epochs in order while f+1 nodes report an
  /// IDENTICAL (hash, contents) record — at most f are Byzantine, so each
  /// adopted record carries a correct server's word. Stops at the first
  /// epoch without such a quorum (a trailing epoch still consolidating is
  /// simply not visible yet). A node whose read is paged is asked again
  /// from the first epoch it left out once adoption reaches it, so one
  /// get() adopts histories of any length. Nodes are masked as equivocating
  /// for the lifetime of this client when their prefix digest differs from
  /// the adopted prefix's (a rewrite at any depth), when they vote against
  /// an adopted record, or when they serve a structurally bogus read.
  /// Down, unreachable and lagging nodes (below the adopted prefix) just
  /// don't vote and are NOT masked (they may recover). Adopted epochs are
  /// never retracted, so the view only grows.
  View get();

  struct VerifyResult {
    bool in_epoch = false;
    std::uint64_t epoch = 0;
    std::size_t valid_proofs = 0;   ///< distinct servers with a valid proof
    std::size_t proof_sources = 0;  ///< distinct nodes that supplied one
    bool committed = false;         ///< in_epoch && valid_proofs >= f+1
  };
  /// Commit check for one element against the quorum view. Proofs are
  /// validated against the f+1-agreed epoch hash, so a Byzantine node can
  /// neither sneak a proof for a fake epoch in nor suppress the quorum;
  /// each signing server counts once no matter how many nodes relay its
  /// proof. committed==true needs f+1 valid proofs from DISTINCT signers,
  /// gathered across ALL non-masked nodes — correct by the f bound even
  /// when no single server holds a committing set. in_epoch==false means
  /// the element has not reached any f+1-agreed epoch yet (or never will:
  /// a refused/invalid element looks the same — poll wait_committed to
  /// distinguish "not yet" from "never" within a bounded wait).
  VerifyResult verify(core::ElementId id);

  /// Poll verify(id) until committed, calling `pump` between attempts to
  /// make progress (seal a ledger block, advance the simulation, sleep a
  /// beat of wall time against a live cluster, ...). Stops early when
  /// pump() reports no more progress is possible, so a dead deployment
  /// returns promptly instead of burning max_rounds.
  VerifyResult wait_committed(core::ElementId id, const std::function<bool()>& pump,
                              int max_rounds = 60);

  std::size_t node_count() const { return nodes_.size(); }
  /// Health verdict learned from node i's past responses: kRefusing from a
  /// kPrimary failover walk, kEquivocating once its word contradicted an
  /// f+1 quorum (permanent for this client's lifetime — an equivocator is
  /// provably faulty, not slow).
  NodeStatus node_status(std::size_t i) const { return status_[i]; }
  /// The f+1 threshold every read/commit decision uses.
  std::uint32_t quorum() const { return cfg_.f + 1; }
  const Config& config() const { return cfg_; }

 private:
  /// Ballot the epochs past the adopted prefix over each node's current
  /// read (`reads[i]` starts at epoch `firsts[i]`), adopting while f+1
  /// nodes agree and masking the nodes that contradict.
  void adopt_agreed(const std::vector<NodeSnapshot>& reads,
                    const std::vector<std::uint64_t>& firsts);
  void adopt(const core::EpochRecord& rec);

  std::vector<ISetchainNode*> nodes_;
  const crypto::Pki* pki_;
  Config cfg_;
  std::vector<NodeStatus> status_;
  std::shared_ptr<Adopted> adopted_;  ///< copied on write while a View holds it
};

/// Assemble a QuorumClient from an explicit node list — the one place that
/// fills in a Config, shared by Experiment, the examples, and tests.
QuorumClient make_quorum_client(std::vector<ISetchainNode*> nodes,
                                const crypto::Pki& pki, std::uint32_t f,
                                core::Fidelity fidelity,
                                WritePolicy policy = WritePolicy::kPrimary,
                                std::size_t primary = 0);

/// Same, over any container of server pointers (raw or smart) whose
/// pointees implement ISetchainNode.
template <typename Servers>
QuorumClient make_quorum_client(const Servers& servers, const crypto::Pki& pki,
                                std::uint32_t f, core::Fidelity fidelity,
                                WritePolicy policy = WritePolicy::kPrimary,
                                std::size_t primary = 0) {
  std::vector<ISetchainNode*> nodes;
  nodes.reserve(std::size(servers));
  for (const auto& s : servers) nodes.push_back(&*s);
  return make_quorum_client(std::move(nodes), pki, f, fidelity, policy, primary);
}

}  // namespace setchain::api
