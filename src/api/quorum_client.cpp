#include "api/quorum_client.hpp"

#include <algorithm>
#include <unordered_map>
#include <unordered_set>
#include <utility>

namespace setchain::api {

struct QuorumClient::Adopted {
  std::vector<core::EpochRecord> history;  ///< [i] = epoch i+1
  core::PrefixDigest tip{};                ///< chain digest of `history`
  std::unordered_map<core::ElementId, std::uint64_t> epoch_of;  ///< id -> epoch
};

QuorumClient::QuorumClient(std::vector<ISetchainNode*> nodes, const crypto::Pki& pki,
                           Config cfg)
    : nodes_(std::move(nodes)),
      pki_(&pki),
      cfg_(cfg),
      status_(nodes_.size(), NodeStatus::kOk),
      adopted_(std::make_shared<Adopted>()) {}

QuorumClient::AddResult QuorumClient::add(core::Element e) {
  AddResult r;
  const std::size_t n = nodes_.size();
  if (n == 0) return r;
  const std::size_t start = cfg_.primary % n;

  std::vector<std::size_t> refused;
  // `last` hands the element over by move: no further offer can happen.
  const auto offer = [&](std::size_t i, bool last) {
    ++r.attempted;
    const bool accepted = last ? nodes_[i]->add(std::move(e)) : nodes_[i]->add(e);
    if (accepted) {
      ++r.accepted;
    } else {
      refused.push_back(i);
    }
  };

  switch (cfg_.write_policy) {
    case WritePolicy::kAll:
      for (std::size_t k = 0; k < n; ++k) offer((start + k) % n, k + 1 == n);
      r.ok = r.accepted >= 1;
      break;
    case WritePolicy::kQuorum:
      for (std::size_t k = 0; k < n && r.accepted < quorum(); ++k) {
        offer((start + k) % n, k + 1 == n);
      }
      r.ok = r.accepted >= quorum();
      break;
    case WritePolicy::kPrimary: {
      // Failover: walk past refusing nodes until one accepts. f+1 distinct
      // nodes always include a correct server, so trying more than that
      // cannot help — it only lets a flood of invalid elements charge
      // validation work on the whole cluster instead of f+1 nodes.
      const std::size_t attempts = std::min<std::size_t>(n, quorum());
      for (std::size_t k = 0; k < attempts && r.accepted == 0; ++k) {
        offer((start + k) % n, k + 1 == attempts);
      }
      // Refusing a fresh element the next node then accepted is misbehaving
      // (or unreachable); remember it. Blame is kPrimary-only: broadcast
      // policies legitimately see "already known" refusals, and when nobody
      // accepts the element itself was bad.
      if (r.accepted > 0) {
        for (const auto i : refused) {
          if (status_[i] == NodeStatus::kOk) status_[i] = NodeStatus::kRefusing;
        }
      }
      r.ok = r.accepted >= 1;
      break;
    }
  }
  return r;
}

QuorumClient::View QuorumClient::get() {
  const std::size_t n = nodes_.size();
  // Each node's current read and the epoch its first record stands for.
  std::vector<NodeSnapshot> reads(n);
  std::vector<std::uint64_t> firsts(n, 0);
  std::vector<bool> ask(n, true);
  for (;;) {
    const std::uint64_t from = adopted_->history.size() + 1;
    bool asked = false;
    for (std::size_t i = 0; i < n; ++i) {
      if (!ask[i] || status_[i] == NodeStatus::kEquivocating) continue;
      asked = true;
      reads[i] = nodes_[i]->snapshot(from);
      firsts[i] = from;
      // A node below the adopted prefix (lagging, recovering, down) has
      // nothing to vote with and no digest at from-1 to check.
      if (reads[i].epoch + 1 < from) reads[i].records = {};
      else if (reads[i].prefix_digest != adopted_->tip ||
               reads[i].records.size() > reads[i].epoch + 1 - from) {
        // Its history up to from-1 is not the adopted prefix (or its read
        // runs past its own epoch): provably not a correct server's.
        status_[i] = NodeStatus::kEquivocating;
      }
    }
    if (!asked) break;
    adopt_agreed(reads, firsts);

    // Follow pages: ask again a node whose read stopped short of its own
    // epoch once adoption has used up every record it sent. Adoption must
    // advance for that, so a node paging slowly cannot stall get().
    const std::uint64_t adopted = adopted_->history.size();
    for (std::size_t i = 0; i < n; ++i) {
      const std::uint64_t end = firsts[i] + reads[i].records.size() - 1;
      ask[i] = status_[i] != NodeStatus::kEquivocating && !reads[i].records.empty() &&
               end <= adopted && end < reads[i].epoch;
    }
  }

  View view;
  view.adopted_ = adopted_;
  view.history = adopted_->history;
  view.epoch = adopted_->history.size();
  for (const auto s : status_) {
    if (s == NodeStatus::kEquivocating) ++view.masked_nodes;
  }
  return view;
}

void QuorumClient::adopt_agreed(const std::vector<NodeSnapshot>& reads,
                                const std::vector<std::uint64_t>& firsts) {
  for (std::uint64_t e = adopted_->history.size() + 1;; ++e) {
    // Distinct (hash, contents) records reported for epoch e, each with
    // its supporting node indices.
    std::vector<std::pair<const core::EpochRecord*, std::vector<std::size_t>>> ballots;
    for (std::size_t i = 0; i < nodes_.size(); ++i) {
      if (status_[i] == NodeStatus::kEquivocating) continue;
      if (e < firsts[i] || e - firsts[i] >= reads[i].records.size()) continue;
      const core::EpochRecord& rec = reads[i].records[e - firsts[i]];
      if (rec.number != e) {
        // A read whose k-th record is not epoch from+k is structurally bogus.
        status_[i] = NodeStatus::kEquivocating;
        continue;
      }
      const auto same = std::find_if(ballots.begin(), ballots.end(), [&](const auto& b) {
        return b.first->hash == rec.hash && b.first->ids == rec.ids;
      });
      if (same != ballots.end()) {
        same->second.push_back(i);
      } else {
        ballots.push_back({&rec, {i}});
      }
    }

    // At most f nodes are Byzantine, so an f+1 quorum always contains a
    // correct server's word.
    const auto winner = std::find_if(ballots.begin(), ballots.end(), [&](const auto& b) {
      return b.second.size() >= quorum();
    });
    if (winner == ballots.end()) return;  // no quorum: epoch e is not committed yet

    // Nodes voting against the quorum record are equivocating: their word
    // contradicts at least one correct server. Mask them from now on.
    for (const auto& b : ballots) {
      if (&b == &*winner) continue;
      for (const auto i : b.second) status_[i] = NodeStatus::kEquivocating;
    }
    adopt(*winner->first);
  }
}

void QuorumClient::adopt(const core::EpochRecord& rec) {
  // Views share the prefix and must never see it change: extend a copy.
  if (adopted_.use_count() > 1) adopted_ = std::make_shared<Adopted>(*adopted_);
  adopted_->history.push_back(rec);
  for (const auto id : rec.ids) adopted_->epoch_of.emplace(id, rec.number);
  adopted_->tip = core::chain_digest(adopted_->tip, rec.number, rec.hash);
}

bool QuorumClient::View::contains(core::ElementId id) const {
  return adopted_ != nullptr && adopted_->epoch_of.contains(id);
}

QuorumClient::VerifyResult QuorumClient::verify(core::ElementId id) {
  VerifyResult out;
  get();
  const auto it = adopted_->epoch_of.find(id);
  if (it == adopted_->epoch_of.end()) return out;
  const core::EpochRecord& rec = adopted_->history[it->second - 1];
  out.in_epoch = true;
  out.epoch = rec.number;

  // Gather proofs for the agreed epoch hash across EVERY live node: the
  // f+1 signatures may be spread over the cluster, with no single server
  // holding a committing set. Each signing server counts once.
  std::unordered_set<crypto::ProcessId> signers;
  for (std::size_t i = 0; i < nodes_.size(); ++i) {
    if (status_[i] == NodeStatus::kEquivocating) continue;
    bool contributed = false;
    for (const auto& p : nodes_[i]->proofs_for_epoch(rec.number)) {
      if (p.epoch != rec.number) continue;  // lying proof store
      if (!core::valid_proof(p, rec.hash, *pki_, cfg_.fidelity)) continue;
      if (signers.insert(p.server).second) contributed = true;
    }
    if (contributed) ++out.proof_sources;
  }
  out.valid_proofs = signers.size();
  out.committed = out.valid_proofs >= quorum();
  return out;
}

QuorumClient::VerifyResult QuorumClient::wait_committed(
    core::ElementId id, const std::function<bool()>& pump, int max_rounds) {
  VerifyResult v = verify(id);
  for (int round = 0; round < max_rounds && !v.committed; ++round) {
    const bool progressed = pump ? pump() : false;
    v = verify(id);
    if (!progressed && !v.committed) break;
  }
  return v;
}

QuorumClient make_quorum_client(std::vector<ISetchainNode*> nodes,
                                const crypto::Pki& pki, std::uint32_t f,
                                core::Fidelity fidelity, WritePolicy policy,
                                std::size_t primary) {
  QuorumClient::Config cfg;
  cfg.f = f;
  cfg.write_policy = policy;
  cfg.primary = primary;
  cfg.fidelity = fidelity;
  return QuorumClient(std::move(nodes), pki, cfg);
}

}  // namespace setchain::api
