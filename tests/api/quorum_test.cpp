// setchain::api facade tests: the quorum client protocol under Byzantine
// nodes (equivocating snapshots, corrupt proofs, refused writes, proofs
// spread across the cluster), the scenario builder's validation, and the
// bounds-checked epoch-proof accessor.
#include <gtest/gtest.h>

#include <stdexcept>

#include "api/quorum_client.hpp"
#include "api/scenario_builder.hpp"
#include "core/algo_fixture.hpp"
#include "runner/experiment.hpp"
#include "runner/scenario.hpp"

namespace setchain {
namespace {

using core::testing::AlgoHarness;

// ---------------------------------------------------------------------------
// Byzantine node wrappers. QuorumClient only sees ISetchainNode, so a test
// can stand in for a lying server without touching server internals — the
// same seam a remote transport stub will use.

/// Returns doctored reads: content hashes flipped and ids perturbed (a
/// server lying about what the epochs contain).
class EquivocatingNode final : public api::ISetchainNode {
 public:
  explicit EquivocatingNode(core::SetchainServer& real) : real_(real) {}

  bool add(core::Element e) override { return real_.add(std::move(e)); }

  api::NodeSnapshot snapshot(std::uint64_t from) const override {
    api::NodeSnapshot out = real_.snapshot(from);
    fake_records_.assign(out.records.begin(), out.records.end());
    for (auto& rec : fake_records_) {
      rec.hash[0] ^= 0xFF;
      if (!rec.ids.empty()) rec.ids.front() ^= 0x1;
    }
    out.records = fake_records_;
    return out;
  }

  const std::vector<core::EpochProof>& proofs_for_epoch(
      std::uint64_t e) const override {
    return real_.proofs_for_epoch(e);
  }
  std::uint64_t epoch() const override { return real_.epoch(); }
  crypto::ProcessId node_id() const override { return real_.node_id(); }

 private:
  core::SetchainServer& real_;
  mutable std::vector<core::EpochRecord> fake_records_;
};

/// Returns structurally bogus reads: the record for epoch i claims to be
/// epoch i+1.
class WrongNumberNode final : public api::ISetchainNode {
 public:
  explicit WrongNumberNode(core::SetchainServer& real) : real_(real) {}

  bool add(core::Element e) override { return real_.add(std::move(e)); }

  api::NodeSnapshot snapshot(std::uint64_t from) const override {
    api::NodeSnapshot out = real_.snapshot(from);
    fake_records_.assign(out.records.begin(), out.records.end());
    for (auto& rec : fake_records_) rec.number += 1;
    out.records = fake_records_;
    return out;
  }

  const std::vector<core::EpochProof>& proofs_for_epoch(
      std::uint64_t e) const override {
    return real_.proofs_for_epoch(e);
  }
  std::uint64_t epoch() const override { return real_.epoch(); }
  crypto::ProcessId node_id() const override { return real_.node_id(); }

 private:
  core::SetchainServer& real_;
  mutable std::vector<core::EpochRecord> fake_records_;
};

/// Honest until `rewrite` is set, then rewrites that (1-based) epoch of
/// its history and serves everything, prefix digests included, as derived
/// from the rewritten history — a node lying consistently about an epoch
/// a client may already have adopted.
class RewritingNode final : public api::ISetchainNode {
 public:
  explicit RewritingNode(core::SetchainServer& real) : real_(real) {}

  std::uint64_t rewrite = 0;  ///< epoch to rewrite; 0 = honest

  bool add(core::Element e) override { return real_.add(std::move(e)); }

  api::NodeSnapshot snapshot(std::uint64_t from) const override {
    api::NodeSnapshot out = real_.snapshot(from);
    if (rewrite == 0 || out.epoch < rewrite) return out;
    history_ = *real_.get().history;
    history_[rewrite - 1].hash[0] ^= 0xFF;
    core::PrefixDigest c{};
    for (std::uint64_t k = 1; k < from && k <= history_.size(); ++k) {
      c = core::chain_digest(c, k, history_[k - 1].hash);
    }
    if (from - 1 <= out.epoch) {
      out.prefix_digest = c;
      out.records = std::span<const core::EpochRecord>(history_).subspan(from - 1);
    }
    return out;
  }

  const std::vector<core::EpochProof>& proofs_for_epoch(
      std::uint64_t e) const override {
    return real_.proofs_for_epoch(e);
  }
  std::uint64_t epoch() const override { return real_.epoch(); }
  crypto::ProcessId node_id() const override { return real_.node_id(); }

 private:
  core::SetchainServer& real_;
  mutable std::vector<core::EpochRecord> history_;
};

/// An honest node seen through a narrow pipe: every read carries at most
/// `page` records, as a remote node pages a large history, and reads are
/// counted.
class PagingNode final : public api::ISetchainNode {
 public:
  PagingNode(core::SetchainServer& real, std::size_t page) : real_(real), page_(page) {}

  bool add(core::Element e) override { return real_.add(std::move(e)); }

  api::NodeSnapshot snapshot(std::uint64_t from) const override {
    ++reads;
    api::NodeSnapshot out = real_.snapshot(from);
    out.records = out.records.first(std::min(out.records.size(), page_));
    return out;
  }

  const std::vector<core::EpochProof>& proofs_for_epoch(
      std::uint64_t e) const override {
    return real_.proofs_for_epoch(e);
  }
  std::uint64_t epoch() const override { return real_.epoch(); }
  crypto::ProcessId node_id() const override { return real_.node_id(); }

  mutable std::size_t reads = 0;

 private:
  core::SetchainServer& real_;
  std::size_t page_;
};

/// An honest node that has consolidated only its first `epochs` epochs:
/// reads are the real server's, cut off there.
class LaggingNode final : public api::ISetchainNode {
 public:
  LaggingNode(core::SetchainServer& real, std::uint64_t epochs)
      : real_(real), epochs_(epochs) {}

  bool add(core::Element e) override { return real_.add(std::move(e)); }

  api::NodeSnapshot snapshot(std::uint64_t from) const override {
    if (epochs_ + 1 < from) {
      api::NodeSnapshot out;
      out.epoch = epochs_;
      return out;
    }
    api::NodeSnapshot out = real_.snapshot(from);
    out.epoch = epochs_;
    out.records = out.records.first(std::min<std::size_t>(out.records.size(), epochs_ + 1 - from));
    return out;
  }

  const std::vector<core::EpochProof>& proofs_for_epoch(
      std::uint64_t e) const override {
    return e <= epochs_ ? real_.proofs_for_epoch(e) : kNone;
  }
  std::uint64_t epoch() const override { return epochs_; }
  crypto::ProcessId node_id() const override { return real_.node_id(); }

 private:
  static inline const std::vector<core::EpochProof> kNone;
  core::SetchainServer& real_;
  std::uint64_t epochs_;
};

/// Serves reads truthfully but only reveals the epoch-proofs signed by its
/// own server — so no single node ever holds an f+1 committing proof set
/// and verify() must gather signatures across the cluster.
class ProofSliceNode final : public api::ISetchainNode {
 public:
  explicit ProofSliceNode(core::SetchainServer& real) : real_(real) {}

  bool add(core::Element e) override { return real_.add(std::move(e)); }
  api::NodeSnapshot snapshot(std::uint64_t from) const override {
    return real_.snapshot(from);
  }

  const std::vector<core::EpochProof>& proofs_for_epoch(
      std::uint64_t e) const override {
    scratch_.clear();
    for (const auto& p : real_.proofs_for_epoch(e)) {
      if (p.server == real_.node_id()) scratch_.push_back(p);
    }
    return scratch_;
  }
  std::uint64_t epoch() const override { return real_.epoch(); }
  crypto::ProcessId node_id() const override { return real_.node_id(); }

 private:
  core::SetchainServer& real_;
  mutable std::vector<core::EpochProof> scratch_;
};

/// Refuses every add; reads pass through.
class RefusingNode final : public api::ISetchainNode {
 public:
  explicit RefusingNode(core::SetchainServer& real) : real_(real) {}

  bool add(core::Element) override { return false; }
  api::NodeSnapshot snapshot(std::uint64_t from) const override {
    return real_.snapshot(from);
  }
  const std::vector<core::EpochProof>& proofs_for_epoch(
      std::uint64_t e) const override {
    return real_.proofs_for_epoch(e);
  }
  std::uint64_t epoch() const override { return real_.epoch(); }
  crypto::ProcessId node_id() const override { return real_.node_id(); }

 private:
  core::SetchainServer& real_;
};

template <typename Server>
api::QuorumClient make_client(AlgoHarness<Server>& h,
                              std::vector<api::ISetchainNode*> nodes,
                              api::WritePolicy policy = api::WritePolicy::kPrimary,
                              std::size_t primary = 0) {
  return api::make_quorum_client(std::move(nodes), h.pki, h.params.f,
                                 h.params.fidelity, policy, primary);
}

template <typename Server>
std::vector<api::ISetchainNode*> real_nodes(AlgoHarness<Server>& h) {
  std::vector<api::ISetchainNode*> nodes;
  for (auto& s : h.servers) nodes.push_back(s.get());
  return nodes;
}

// ------------------------------------------------------- proofs_for_epoch

TEST(ProofsForEpoch, BoundsCheckedAccessor) {
  AlgoHarness<core::HashchainServer> h(4, 4);
  auto client = make_client(h, real_nodes(h));
  for (std::uint64_t seq = 1; seq <= 4; ++seq) {
    EXPECT_TRUE(client.add(h.make_element(0, seq)).ok);
  }
  h.seal_rounds();

  const auto& server = *h.servers[0];
  ASSERT_GE(server.epoch(), 1u);
  EXPECT_TRUE(server.proofs_for_epoch(0).empty());  // epoch numbering is 1-based
  EXPECT_GE(server.proofs_for_epoch(1).size(), h.params.f + 1);
  EXPECT_TRUE(server.proofs_for_epoch(server.epoch() + 5).empty());
}

// --------------------------------------------------------- write policies

TEST(QuorumAdd, PrimaryWritesToOneNodeAndFailsOverOnRefusal) {
  AlgoHarness<core::HashchainServer> h(4, 8);
  auto direct = make_client(h, real_nodes(h));
  const auto r1 = direct.add(h.make_element(0, 1));
  EXPECT_TRUE(r1.ok);
  EXPECT_EQ(r1.accepted, 1u);
  EXPECT_EQ(r1.attempted, 1u);

  // Node 0 refuses: the client fails over to node 1 and flags node 0.
  RefusingNode refuser(*h.servers[0]);
  std::vector<api::ISetchainNode*> nodes = real_nodes(h);
  nodes[0] = &refuser;
  auto failover = make_client(h, std::move(nodes));
  const auto r2 = failover.add(h.make_element(0, 2));
  EXPECT_TRUE(r2.ok);
  EXPECT_EQ(r2.accepted, 1u);
  EXPECT_EQ(r2.attempted, 2u);
  EXPECT_EQ(failover.node_status(0), api::NodeStatus::kRefusing);
  EXPECT_EQ(failover.node_status(1), api::NodeStatus::kOk);
}

TEST(QuorumAdd, QuorumAndBroadcastPolicies) {
  AlgoHarness<core::HashchainServer> h(4, 8);
  auto quorum = make_client(h, real_nodes(h), api::WritePolicy::kQuorum);
  const auto rq = quorum.add(h.make_element(0, 1));
  EXPECT_TRUE(rq.ok);
  EXPECT_EQ(rq.accepted, h.params.f + 1);

  auto all = make_client(h, real_nodes(h), api::WritePolicy::kAll);
  const auto ra = all.add(h.make_element(0, 2));
  EXPECT_TRUE(ra.ok);
  EXPECT_EQ(ra.accepted, 4u);
  EXPECT_EQ(ra.attempted, 4u);
}

TEST(QuorumAdd, InvalidElementRefusedWithoutBlameAndWithBoundedFailover) {
  AlgoHarness<core::HashchainServer> h(4, 8);
  auto client = make_client(h, real_nodes(h));
  const auto r = client.add(h.factory.make_invalid(100, 1));
  EXPECT_FALSE(r.ok);
  EXPECT_EQ(r.accepted, 0u);
  // Failover stops after f+1 nodes: that set provably contains a correct
  // server, so further attempts could only waste cluster-wide validation
  // work on an element that is simply bad.
  EXPECT_EQ(r.attempted, h.params.f + 1);
  for (std::size_t i = 0; i < client.node_count(); ++i) {
    EXPECT_EQ(client.node_status(i), api::NodeStatus::kOk) << i;
  }
}

// ------------------------------------------- quorum reads under equivocation

/// The acceptance scenario: n=10, f=3, three Byzantine servers that both
/// sign corrupted epoch-proofs and serve fake snapshots. A quorum client
/// over all ten nodes must reconstruct the correct consolidated view (the
/// liars are outvoted by f+1 correct servers), mask the liars, and commit
/// elements via proofs from the correct seven.
class EquivocationSuite : public ::testing::Test {
 protected:
  static constexpr std::uint32_t kN = 10;

  EquivocationSuite() : h(kN, 4) {
    for (const std::uint32_t s : {7u, 8u, 9u}) {
      auto b = h.servers[s]->byzantine();
      b.corrupt_proofs = true;
      h.servers[s]->set_byzantine(b);
    }
  }

  /// Drive a workload through the facade and quiesce.
  void run_workload() {
    auto submit = make_client(h, real_nodes(h), api::WritePolicy::kPrimary, 0);
    std::uint64_t seq = 0;
    for (int round = 0; round < 4; ++round) {
      for (int i = 0; i < 10; ++i) {
        const auto e = h.make_element(static_cast<std::uint32_t>(i), ++seq);
        if (submit.add(e).ok) accepted.push_back(e.id);
      }
      h.flush_collectors();
      h.ledger.seal_block();
    }
    h.seal_rounds(400);
  }

  /// Ten nodes as the client sees them: 7 honest, 2 content liars, 1
  /// structural liar.
  std::vector<api::ISetchainNode*> byzantine_nodes() {
    liars.clear();
    auto nodes = real_nodes(h);
    liars.push_back(std::make_unique<EquivocatingNode>(*h.servers[7]));
    nodes[7] = liars.back().get();
    liars.push_back(std::make_unique<EquivocatingNode>(*h.servers[8]));
    nodes[8] = liars.back().get();
    auto wrong = std::make_unique<WrongNumberNode>(*h.servers[9]);
    nodes[9] = wrong.get();
    wrong_number = std::move(wrong);
    return nodes;
  }

  AlgoHarness<core::HashchainServer> h;
  std::vector<core::ElementId> accepted;
  std::vector<std::unique_ptr<EquivocatingNode>> liars;
  std::unique_ptr<WrongNumberNode> wrong_number;
};

TEST_F(EquivocationSuite, GetOutvotesEquivocatingServers) {
  ASSERT_EQ(h.params.f, 3u);
  run_workload();
  ASSERT_GT(accepted.size(), 30u);

  auto client = make_client(h, byzantine_nodes());
  const auto view = client.get();

  // The reconciled view is exactly a correct server's history.
  const auto truth = h.servers[0]->get();
  ASSERT_EQ(view.epoch, truth.epoch);
  ASSERT_EQ(view.history.size(), truth.history->size());
  for (std::size_t i = 0; i < view.history.size(); ++i) {
    EXPECT_EQ(view.history[i].number, (*truth.history)[i].number);
    EXPECT_EQ(view.history[i].ids, (*truth.history)[i].ids);
    EXPECT_EQ(view.history[i].hash, (*truth.history)[i].hash);
  }
  for (const auto id : accepted) EXPECT_TRUE(view.contains(id));

  // All three liars are masked; the correct seven are not.
  EXPECT_EQ(view.masked_nodes, 3u);
  for (std::size_t i = 0; i < 7; ++i) {
    EXPECT_EQ(client.node_status(i), api::NodeStatus::kOk) << i;
  }
  for (std::size_t i = 7; i < 10; ++i) {
    EXPECT_EQ(client.node_status(i), api::NodeStatus::kEquivocating) << i;
  }
}

TEST_F(EquivocationSuite, VerifyCommitsDespiteCorruptProofServers) {
  run_workload();
  auto client = make_client(h, byzantine_nodes());

  const auto v = client.verify(accepted.front());
  EXPECT_TRUE(v.in_epoch);
  // The three corrupt servers' proofs bind the wrong hash and never count;
  // the seven correct signers clear the f+1 = 4 threshold.
  EXPECT_GE(v.valid_proofs, h.params.f + 1);
  EXPECT_LE(v.valid_proofs, 7u);
  EXPECT_TRUE(v.committed);

  // Unknown elements do not commit.
  const auto missing = client.verify(core::make_element_id(99, 12345));
  EXPECT_FALSE(missing.in_epoch);
  EXPECT_FALSE(missing.committed);
}

TEST(QuorumVerify, GathersProofsSpreadAcrossServers) {
  AlgoHarness<core::HashchainServer> h(10, 4);
  std::vector<std::unique_ptr<ProofSliceNode>> slices;
  std::vector<api::ISetchainNode*> nodes;
  for (auto& s : h.servers) {
    slices.push_back(std::make_unique<ProofSliceNode>(*s));
    nodes.push_back(slices.back().get());
  }
  auto client = make_client(h, std::move(nodes));

  std::vector<core::ElementId> accepted;
  for (std::uint64_t seq = 1; seq <= 12; ++seq) {
    const auto e = h.make_element(0, seq);
    ASSERT_TRUE(client.add(e).ok);
    accepted.push_back(e.id);
  }
  h.seal_rounds();

  const auto v = client.verify(accepted.front());
  ASSERT_TRUE(v.in_epoch);
  // No single node reveals more than its own proof — an f+1 set exists only
  // across servers — yet the quorum client commits.
  for (std::size_t i = 0; i < slices.size(); ++i) {
    EXPECT_LE(slices[i]->proofs_for_epoch(v.epoch).size(), 1u) << i;
  }
  EXPECT_TRUE(v.committed);
  EXPECT_GE(v.valid_proofs, h.params.f + 1);
  EXPECT_GE(v.proof_sources, h.params.f + 1);

  // A client pinned to one such node cannot commit: one proof < f+1.
  auto lonely = make_client(h, {slices[0].get()});
  const auto lv = lonely.verify(accepted.front());
  EXPECT_FALSE(lv.committed);
}

TEST(QuorumVerify, WaitCommittedPumpsUntilProofsLand) {
  AlgoHarness<core::HashchainServer> h(4, 4);
  auto client = make_client(h, real_nodes(h));
  const auto e = h.make_element(0, 1);
  ASSERT_TRUE(client.add(e).ok);

  // Nothing sealed yet: not committed.
  EXPECT_FALSE(client.verify(e.id).committed);

  const auto v = client.wait_committed(e.id, [&h] {
    h.flush_collectors();
    return h.ledger.seal_block();
  });
  EXPECT_TRUE(v.committed);
  EXPECT_GE(v.valid_proofs, h.params.f + 1);
}

// ------------------------------------------------------- incremental reads
//
// get() asks nodes only for the epochs past the adopted prefix, and checks
// the prefix through its digest chain instead of re-reading it.

/// Compresschain cluster with `rounds` sealed epochs' worth of elements.
struct ReadHarness {
  AlgoHarness<core::CompresschainServer> h{4, 4};
  std::uint64_t seq = 0;

  explicit ReadHarness(int rounds) { grow(rounds); }

  /// Add four elements through server 0 and seal, `rounds` times.
  void grow(int rounds) {
    for (int r = 0; r < rounds; ++r) {
      for (int i = 0; i < 4; ++i) EXPECT_TRUE(h.servers[0]->add(h.make_element(0, ++seq)));
      h.seal_rounds();
    }
  }
};

TEST(QuorumIncrementalRead, RewriteOfAnAdoptedEpochIsMaskedAtAnyDepth) {
  for (const bool deep : {false, true}) {
    SCOPED_TRACE(deep ? "deep rewrite (epoch 1)" : "depth-1 rewrite (last epoch)");
    ReadHarness r(4);
    RewritingNode liar(*r.h.servers[3]);
    auto nodes = real_nodes(r.h);
    nodes[3] = &liar;
    auto client = make_client(r.h, nodes);
    const std::uint64_t adopted = client.get().epoch;
    ASSERT_GE(adopted, 4u);
    EXPECT_EQ(client.node_status(3), api::NodeStatus::kOk);

    // The liar rewrites an adopted epoch; the cluster moves on meanwhile.
    liar.rewrite = deep ? 1 : adopted;
    r.grow(2);
    const auto view = client.get();
    EXPECT_EQ(client.node_status(3), api::NodeStatus::kEquivocating);
    EXPECT_EQ(view.masked_nodes, 1u);
    EXPECT_GT(view.epoch, adopted);  // the three honest nodes carry on
    EXPECT_EQ(view.epoch, r.h.servers[0]->get().epoch);
  }
}

TEST(QuorumIncrementalRead, AdoptedEpochsSurviveEveryNodeRewritingThemAlike) {
  ReadHarness r(3);
  std::vector<std::unique_ptr<RewritingNode>> liars;
  std::vector<api::ISetchainNode*> nodes;
  for (auto& s : r.h.servers) {
    liars.push_back(std::make_unique<RewritingNode>(*s));
    nodes.push_back(liars.back().get());
  }
  auto client = make_client(r.h, nodes);
  const auto before = client.get();
  ASSERT_GE(before.epoch, 3u);
  const core::EpochHash adopted_hash = before.history[1].hash;

  // All n nodes rewrite epoch 2 identically: no quorum can retract an
  // adopted epoch, so every node is masked and the view keeps its prefix.
  for (auto& l : liars) l->rewrite = 2;
  const auto after = client.get();
  EXPECT_EQ(after.masked_nodes, 4u);
  EXPECT_EQ(after.epoch, before.epoch);
  EXPECT_EQ(after.history[1].hash, adopted_hash);
  EXPECT_EQ(before.history[1].hash, adopted_hash);  // held views never change
}

TEST(QuorumIncrementalRead, LaggingAndPagedNodesAreNotMasked) {
  ReadHarness r(5);
  const std::uint64_t epochs = r.h.servers[0]->get().epoch;
  ASSERT_GE(epochs, 5u);
  PagingNode pager0(*r.h.servers[0], 1);
  PagingNode pager1(*r.h.servers[1], 1);
  LaggingNode lagger(*r.h.servers[2], 1);
  auto client = make_client(r.h, {&pager0, &pager1, &lagger, r.h.servers[3].get()});

  // One get() follows the one-record pages to the end of the history.
  const auto view = client.get();
  EXPECT_EQ(view.epoch, epochs);
  EXPECT_EQ(view.masked_nodes, 0u);
  EXPECT_EQ(pager0.reads, epochs);
  EXPECT_EQ(pager1.reads, epochs);

  // Next read starts past the prefix: the lagging node sits below it.
  r.grow(1);
  const auto next = client.get();
  EXPECT_EQ(next.epoch, r.h.servers[0]->get().epoch);
  EXPECT_GT(next.epoch, epochs);
  EXPECT_EQ(next.masked_nodes, 0u);
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(client.node_status(i), api::NodeStatus::kOk) << i;
  }
  for (std::size_t i = 0; i < view.history.size(); ++i) {
    EXPECT_EQ(next.history[i].hash, view.history[i].hash) << i;
  }
}

TEST(QuorumIncrementalRead, NodeRecoveringFromAWipeIsNotMaskedAndVotesAgain) {
  ReadHarness r(4);
  auto client = make_client(r.h, real_nodes(r.h));
  const std::uint64_t adopted = client.get().epoch;
  ASSERT_GE(adopted, 4u);

  // Down and wiped: serves nothing, then restarts empty (below the prefix).
  auto& node = *r.h.servers[3];
  node.crash(/*wipe=*/true);
  EXPECT_EQ(client.get().masked_nodes, 0u);
  node.restart();
  EXPECT_EQ(client.get().masked_nodes, 0u);

  // Replaying the ledger rebuilds the same history, hence the same chain.
  const std::uint64_t height = r.h.ledger.height();
  for (std::uint64_t b = 1; b <= height / 2; ++b) node.on_new_block(r.h.ledger.block_at(b));
  ASSERT_LT(node.get().epoch, adopted);
  EXPECT_EQ(client.get().masked_nodes, 0u);
  for (std::uint64_t b = height / 2 + 1; b <= height; ++b) {
    node.on_new_block(r.h.ledger.block_at(b));
  }
  ASSERT_EQ(node.get().epoch, r.h.servers[0]->get().epoch);

  // With nodes 1 and 2 down, new epochs reach f+1 = 2 only if the
  // recovered node votes.
  r.h.servers[1]->crash(/*wipe=*/false);
  r.h.servers[2]->crash(/*wipe=*/false);
  r.grow(2);
  const auto view = client.get();
  EXPECT_EQ(view.masked_nodes, 0u);
  EXPECT_GT(view.epoch, adopted);
  EXPECT_EQ(view.epoch, r.h.servers[0]->get().epoch);
  EXPECT_EQ(client.node_status(3), api::NodeStatus::kOk);
}

TEST(QuorumIncrementalRead, VerifyFindsElementsOfEveryAdoptedEpoch) {
  ReadHarness r(3);
  auto client = make_client(r.h, real_nodes(r.h));
  const auto view = client.get();
  ASSERT_GE(view.epoch, 3u);
  for (const auto& rec : view.history) {
    for (const auto id : rec.ids) {
      EXPECT_TRUE(view.contains(id));
      const auto v = client.verify(id);
      EXPECT_TRUE(v.in_epoch);
      EXPECT_EQ(v.epoch, rec.number);
      EXPECT_TRUE(v.committed);
    }
  }
  EXPECT_FALSE(view.contains(core::make_element_id(99, 1)));
  EXPECT_FALSE(client.verify(core::make_element_id(99, 1)).in_epoch);
}

// ----------------------------------------------- crashed / isolated primaries

// The facade face of a crash fault: a dead primary refuses adds, so the
// kPrimary walk must fail over within f+1 attempts, and serves empty reads,
// so get() reaches its f+1 agreement from the remaining live nodes.
TEST(QuorumUnderCrash, DeadPrimaryFailsOverWithinQuorumAttemptsAndGetAgrees) {
  AlgoHarness<core::HashchainServer> h(4, 4);
  auto client = make_client(h, real_nodes(h));  // kPrimary, primary = node 0
  std::vector<core::ElementId> accepted;

  // Healthy primary: one attempt per add. Collector limit 4 -> the batch
  // self-emits, so nothing is sitting in node 0's collector at crash time.
  for (std::uint64_t seq = 1; seq <= 4; ++seq) {
    const auto e = h.make_element(0, seq);
    const auto r = client.add(e);
    ASSERT_TRUE(r.ok);
    EXPECT_EQ(r.attempted, 1u);
    accepted.push_back(e.id);
  }
  h.seal_rounds();

  h.servers[0]->crash(/*wipe=*/false);
  EXPECT_TRUE(h.servers[0]->is_down());
  const auto dead = h.servers[0]->snapshot(1);  // serves nothing
  EXPECT_EQ(dead.epoch, 0u);
  EXPECT_TRUE(dead.records.empty());
  EXPECT_TRUE(h.servers[0]->proofs_for_epoch(1).empty());

  // Adds while the primary is dead: exactly one failover hop (f+1 = 2
  // attempts bound the walk), and node 0 is flagged as refusing.
  for (std::uint64_t seq = 5; seq <= 8; ++seq) {
    const auto e = h.make_element(0, seq);
    const auto r = client.add(e);
    ASSERT_TRUE(r.ok) << seq;
    EXPECT_EQ(r.attempted, 2u);
    EXPECT_EQ(r.accepted, 1u);
    accepted.push_back(e.id);
  }
  EXPECT_EQ(client.node_status(0), api::NodeStatus::kRefusing);

  // get() still reaches f+1 agreement: the three live nodes carry the view.
  const auto view = client.get();
  EXPECT_EQ(view.masked_nodes, 0u);  // dead != equivocating
  const auto truth = h.servers[1]->get();
  ASSERT_EQ(view.epoch, truth.history->size());
  for (const auto id : accepted) {
    if (view.contains(id)) continue;
    // Post-crash adds are still in live collectors until the next seal.
    EXPECT_GT(id, accepted[3]) << "pre-crash element missing from quorum view";
  }

  h.servers[0]->restart();
  EXPECT_FALSE(h.servers[0]->is_down());
  EXPECT_EQ(h.servers[0]->crash_count(), 1u);
}

// Full-stack variant (satellite of the fault-injection layer): the primary
// both crashes and is partitioned mid-run inside the simulation. Its
// co-located client keeps adding through the facade, so every add during the
// outage fails over; after heal the cluster reconverges and the quorum view
// matches the correct servers.
TEST(QuorumUnderPartition, PrimaryIsolatedMidRunFailsOverAndRecovers) {
  runner::Scenario s;
  s.algorithm = runner::Algorithm::kHashchain;
  s.n = 4;
  s.sending_rate = 200;
  s.collector_limit = 20;
  s.add_duration = sim::from_seconds(5);
  s.horizon = sim::from_seconds(180);
  s.track_ids = true;
  s.faults.faults.push_back(sim::Fault::partition({0}, sim::from_seconds(2.0),
                                                  sim::from_seconds(3.5)));
  s.faults.faults.push_back(sim::Fault::crash(0, sim::from_seconds(2.0),
                                              sim::from_seconds(3.5)));

  runner::Experiment e(s);

  // Mid-outage probe: a fresh kPrimary client pinned to the dead node 0.
  workload::ArbitrumLikeGenerator probe_gen(77);
  core::ElementFactory probe_factory(probe_gen, e.pki(), core::Fidelity::kCalibrated);
  e.pki().register_process(100);
  auto probe = e.make_client(api::WritePolicy::kPrimary, 0);
  e.simulation().schedule_at(sim::from_seconds(2.5), [&] {
    const auto r = probe.add(probe_factory.make(100, 1));
    EXPECT_TRUE(r.ok);
    EXPECT_EQ(r.attempted, 2u);  // f+1 bounds the failover walk
    EXPECT_EQ(r.accepted, 1u);
    EXPECT_EQ(probe.node_status(0), api::NodeStatus::kRefusing);
  });
  e.run();

  // The dead primary's collector contents are lost with it; everything else
  // must commit (clients failed over, the cluster healed).
  const auto r = e.result();
  EXPECT_GT(r.net_dropped, 0u);
  EXPECT_GE(r.elements_committed + s.collector_limit, r.elements_added);
  EXPECT_GT(r.elements_committed, 0u);
  EXPECT_EQ(e.server(0).crash_count(), 1u);

  // Safety holds across every server, the recovered node 0 included, and a
  // quorum client over all four nodes agrees with the correct servers.
  std::vector<const core::SetchainServer*> all;
  for (std::uint32_t i = 0; i < s.n; ++i) all.push_back(&e.server(i));
  const auto safety = core::check_safety(all);
  EXPECT_TRUE(safety.ok()) << safety.to_string();
  auto reader = e.make_client();
  const auto view = reader.get();
  const auto truth = e.server(1).get();
  ASSERT_EQ(view.epoch, truth.history->size());
  for (std::size_t i = 0; i < view.history.size(); ++i) {
    EXPECT_EQ(view.history[i].hash, (*truth.history)[i].hash);
  }
}

// -------------------------------------------------- scenario builder / parse

TEST(ParseAlgorithm, RoundTripsEveryAlgorithmName) {
  for (const auto a : {runner::Algorithm::kVanilla, runner::Algorithm::kCompresschain,
                       runner::Algorithm::kHashchain}) {
    const auto parsed = runner::parse_algorithm(runner::algorithm_name(a));
    ASSERT_TRUE(parsed.has_value()) << runner::algorithm_name(a);
    EXPECT_EQ(*parsed, a);
  }
  EXPECT_EQ(runner::parse_algorithm("hashchain"), runner::Algorithm::kHashchain);
  EXPECT_EQ(runner::parse_algorithm("HASHCHAIN"), runner::Algorithm::kHashchain);
  EXPECT_FALSE(runner::parse_algorithm("merklechain").has_value());
  EXPECT_FALSE(runner::parse_algorithm("").has_value());
}

TEST(ScenarioValidate, AcceptsDefaultsAndPaperGrid) {
  EXPECT_TRUE(runner::Scenario{}.validate().empty());
  runner::Scenario s;
  s.n = 10;
  s.f = 3;
  EXPECT_TRUE(s.validate().empty());
}

TEST(ScenarioValidate, RejectsEachBrokenParameter) {
  const auto broken = [](auto mutate) {
    runner::Scenario s;
    mutate(s);
    return !s.validate().empty();
  };
  EXPECT_TRUE(broken([](runner::Scenario& s) { s.f = 4; }));  // > (10-1)/3
  EXPECT_TRUE(broken([](runner::Scenario& s) { s.sending_rate = 0; }));
  EXPECT_TRUE(broken([](runner::Scenario& s) { s.collector_limit = 0; }));
  EXPECT_TRUE(broken([](runner::Scenario& s) { s.hashchain_committee = 11; }));
  EXPECT_TRUE(broken([](runner::Scenario& s) { s.add_duration = 0; }));
  EXPECT_TRUE(broken([](runner::Scenario& s) { s.horizon = s.add_duration - 1; }));
  EXPECT_TRUE(broken([](runner::Scenario& s) { s.block_bytes = 0; }));
  EXPECT_TRUE(broken([](runner::Scenario& s) { s.byz_corrupt_proofs = {10}; }));
  EXPECT_TRUE(broken([](runner::Scenario& s) { s.client_invalid_fraction = 1.5; }));
}

TEST(ScenarioValidate, RejectsMalformedFaultPlansOneMessageEach) {
  runner::Scenario s;  // default n = 10
  // Three independent violations -> exactly three messages.
  s.faults.faults.push_back(
      sim::Fault::drop(0, 1, /*probability=*/1.7, sim::from_seconds(2),
                       sim::from_seconds(1)));  // heals before start AND p > 1
  s.faults.faults.push_back(sim::Fault::crash(10, 0, sim::from_seconds(1)));
  const auto errors = s.validate();
  ASSERT_EQ(errors.size(), 3u);
  EXPECT_NE(errors[0].find("heals"), std::string::npos);
  EXPECT_NE(errors[1].find("probability"), std::string::npos);
  EXPECT_NE(errors[2].find("node 10"), std::string::npos);

  // Hashchain light mode models a perfect dissemination layer (peers read
  // each other's stores directly) — fault plans are rejected with it.
  runner::Scenario light;
  light.algorithm = runner::Algorithm::kHashchain;
  light.hash_reversal = false;
  EXPECT_TRUE(light.validate().empty());
  light.faults.faults.push_back(
      sim::Fault::crash(0, sim::from_seconds(1), sim::from_seconds(2)));
  const auto light_errors = light.validate();
  ASSERT_EQ(light_errors.size(), 1u);
  EXPECT_NE(light_errors[0].find("light mode"), std::string::npos);
}

TEST(ScenarioValidate, FaultPlanRoundTripsThroughBuilder) {
  // Valid plan: survives build() and lands in the scenario field-for-field.
  const runner::Scenario s = api::ScenarioBuilder()
                                 .servers(7)
                                 .fault_drop(0, 1, 0.25, 1.0, 2.0)
                                 .fault_partition({1, 2}, 0.5, 3.0, /*symmetric=*/false)
                                 .fault_delay(250, 0.0, 4.0)
                                 .fault_crash(3, 1.0, 2.5, /*wipe=*/true)
                                 .fault_crash(4, 1.0)  // never restarts
                                 .build();
  ASSERT_EQ(s.faults.faults.size(), 5u);
  EXPECT_EQ(s.faults.faults[0].kind, sim::FaultKind::kDrop);
  EXPECT_DOUBLE_EQ(s.faults.faults[0].probability, 0.25);
  EXPECT_EQ(s.faults.faults[1].kind, sim::FaultKind::kPartition);
  EXPECT_EQ(s.faults.faults[1].group, (std::vector<sim::NodeId>{1, 2}));
  EXPECT_FALSE(s.faults.faults[1].symmetric);
  EXPECT_EQ(s.faults.faults[2].kind, sim::FaultKind::kDelaySpike);
  EXPECT_EQ(s.faults.faults[2].extra_delay, sim::from_millis(250));
  EXPECT_EQ(s.faults.faults[3].kind, sim::FaultKind::kCrash);
  EXPECT_TRUE(s.faults.faults[3].wipe_state);
  EXPECT_EQ(s.faults.faults[3].end, sim::from_seconds(2.5));
  EXPECT_FALSE(s.faults.faults[4].heals());

  // Malformed plans refuse to build.
  EXPECT_THROW(api::ScenarioBuilder().servers(4).fault_crash(4, 1.0).build(),
               std::invalid_argument);
  EXPECT_THROW(api::ScenarioBuilder().fault_drop(0, 1, 2.0, 1.0, 2.0).build(),
               std::invalid_argument);
  EXPECT_THROW(api::ScenarioBuilder().fault_delay(100, 3.0, 1.0).build(),
               std::invalid_argument);
  EXPECT_THROW(
      api::ScenarioBuilder().servers(4).fault_partition({0, 1, 2, 3}, 0, 1).build(),
      std::invalid_argument);
}

TEST(ScenarioBuilder, BuildsValidatedScenarios) {
  const runner::Scenario s = api::ScenarioBuilder()
                                 .algorithm("compresschain")
                                 .servers(10)
                                 .faults(3)
                                 .rate(5'000)
                                 .collector(200)
                                 .add_seconds(10)
                                 .horizon_seconds(100)
                                 .byzantine_corrupt_proofs(9)
                                 .seed(42)
                                 .build();
  EXPECT_EQ(s.algorithm, runner::Algorithm::kCompresschain);
  EXPECT_EQ(s.n, 10u);
  EXPECT_EQ(s.f_value(), 3u);
  EXPECT_DOUBLE_EQ(s.sending_rate, 5'000.0);
  EXPECT_EQ(s.collector_limit, 200u);
  EXPECT_EQ(s.byz_corrupt_proofs, std::vector<std::uint32_t>{9});
  EXPECT_EQ(s.seed, 42u);
}

TEST(ScenarioBuilder, RejectsInvalidCombinations) {
  EXPECT_THROW(api::ScenarioBuilder().servers(4).faults(3).build(),
               std::invalid_argument);
  EXPECT_THROW(api::ScenarioBuilder().rate(0).build(), std::invalid_argument);
  EXPECT_THROW(api::ScenarioBuilder().servers(4).committee(5).build(),
               std::invalid_argument);
  EXPECT_THROW(api::ScenarioBuilder().algorithm("merklechain").build(),
               std::invalid_argument);
  EXPECT_THROW(api::ScenarioBuilder().servers(4).byzantine_fake_hashes(4).build(),
               std::invalid_argument);
}

}  // namespace
}  // namespace setchain
