// Sustained-load soak of a live 4-node TCP cluster on the event-loop
// transport: a QuorumClient pushes a workload an order of magnitude beyond
// the conformance tests through real sockets, and afterwards the transport
// counters must show a clean run — zero framing errors, zero dropped
// frames, send queues bounded well under the drop limit — and the cluster
// state must still pass the full P1-P9 conformance battery against the
// deterministic sim reference.
#include <gtest/gtest.h>

#include <atomic>
#include <thread>

#include "api/quorum_client.hpp"
#include "net/remote_node.hpp"
#include "net/tcp.hpp"
#include "net_fixture.hpp"

namespace setchain::net {
namespace {

using namespace setchain::net::testing;
using namespace std::chrono_literals;

constexpr std::uint32_t kWorkload = 160;

NodeHostConfig soak_config() {
  NodeHostConfig cfg;
  cfg.n = 4;
  cfg.f = 1;
  cfg.algorithm = runner::Algorithm::kHashchain;
  cfg.seed = 42;
  // Tighter timers than the conformance tests: more epochs, more batch
  // exchange round trips, more frames per element — a denser soak.
  cfg.collector_limit = 8;
  cfg.collector_timeout = sim::from_millis(40);
  cfg.block_interval = sim::from_millis(40);
  cfg.sync_interval = sim::from_millis(150);
  return cfg;
}

TEST(NetSoak, SustainedLoadStaysCleanAndConformant) {
  const NodeHostConfig cfg = soak_config();
  crypto::Pki pki(cfg.seed);
  for (crypto::ProcessId p = 0; p < cfg.n + cfg.client_slots; ++p) {
    pki.register_process(p);
  }

  std::vector<std::unique_ptr<TcpTransport>> transports;
  std::vector<std::unique_ptr<sim::Simulation>> sims;
  std::vector<std::unique_ptr<NodeHost>> hosts;
  std::vector<std::string> peer_addrs;
  const std::uint64_t cluster = NodeHost::cluster_id_of(cfg);
  for (std::uint32_t i = 0; i < cfg.n; ++i) {
    TcpConfig tc;
    tc.self = i;
    tc.n = cfg.n;
    tc.cluster = cluster;
    tc.listen_port = 0;
    tc.peers = peer_addrs;
    tc.peers.resize(cfg.n);
    transports.push_back(std::make_unique<TcpTransport>(tc));
    peer_addrs.push_back("127.0.0.1:" +
                         std::to_string(transports[i]->listen_port()));
  }
  for (std::uint32_t i = 0; i < cfg.n; ++i) {
    NodeHostConfig c = cfg;
    c.id = i;
    sims.push_back(std::make_unique<sim::Simulation>());
    hosts.push_back(std::make_unique<NodeHost>(c, *sims[i], *transports[i]));
  }

  std::atomic<bool> stop{false};
  std::vector<std::thread> pumps;
  for (std::uint32_t i = 0; i < cfg.n; ++i) {
    hosts[i]->start();
    transports[i]->start();
  }
  for (std::uint32_t i = 0; i < cfg.n; ++i) {
    pumps.emplace_back([&, i] { hosts[i]->run_realtime(stop); });
  }

  std::vector<std::unique_ptr<RemoteNode>> stubs;
  for (std::uint32_t i = 0; i < cfg.n; ++i) {
    TcpRpcChannel::Config ch;
    ch.host = "127.0.0.1";
    ch.port = transports[i]->listen_port();
    ch.client_id = cfg.n;
    ch.cluster = cluster;
    stubs.push_back(std::make_unique<RemoteNode>(
        std::make_unique<TcpRpcChannel>(ch), i, 3000ms));
  }
  api::QuorumClient client = api::make_quorum_client(
      stubs, pki, cfg.f, core::Fidelity::kFull, api::WritePolicy::kAll);

  const auto elements = make_workload(cfg, kWorkload, pki);
  std::vector<core::ElementId> accepted;
  for (const auto& e : elements) {
    const auto r = client.add(e);
    EXPECT_TRUE(r.ok) << "add refused everywhere for " << e.id;
    if (r.ok) accepted.push_back(e.id);
  }
  ASSERT_EQ(accepted.size(), elements.size());

  // Drain: the f+1-agreed view covers the workload and proof traffic has
  // fully settled on every node.
  const auto deadline = std::chrono::steady_clock::now() + 120s;
  const auto wait_for = [&](const std::function<bool()>& pred) {
    while (std::chrono::steady_clock::now() < deadline) {
      if (pred()) return true;
      std::this_thread::sleep_for(100ms);
    }
    return pred();
  };
  ASSERT_TRUE(wait_for([&] {
    const auto view = client.get();
    for (const auto id : accepted) {
      if (!view.contains(id)) return false;
    }
    return view.epoch > 0;
  })) << "quorum view never covered the soak workload";
  ASSERT_TRUE(wait_for([&] {
    const auto view = client.get();
    for (auto& stub : stubs) {
      for (std::uint64_t e = 1; e <= view.epoch; ++e) {
        if (stub->proofs_for_epoch(e).size() < cfg.f + 1) return false;
      }
    }
    return true;
  })) << "epoch proofs never drained to every node";

  stop.store(true);
  for (auto& t : pumps) {
    if (t.joinable()) t.join();
  }
  for (auto& t : transports) t->stop();

  // A soak is only a pass if the wire stayed clean the whole way through.
  for (std::uint32_t i = 0; i < cfg.n; ++i) {
    const auto c = transports[i]->counters();
    EXPECT_EQ(c.decode_errors, 0u) << "node " << i;
    EXPECT_EQ(c.send_drops, 0u) << "node " << i;
    EXPECT_EQ(c.send_drops_peer, 0u) << "node " << i;
    EXPECT_EQ(c.send_drops_client, 0u) << "node " << i;
    EXPECT_EQ(c.send_drops_peer + c.send_drops_client, c.send_drops)
        << "node " << i;
    EXPECT_GT(c.frames_sent, static_cast<std::uint64_t>(kWorkload)) << "node " << i;
    // Bounded backpressure: traffic queued (peak > 0) but never came near
    // the drop threshold.
    EXPECT_GT(c.send_queue_peak, 0u) << "node " << i;
    EXPECT_LT(c.send_queue_peak, TcpConfig{}.send_queue_limit / 2) << "node " << i;
  }

  // The usual white-box epilogue: P1-P9 against the sim reference.
  const ReferenceRun reference = run_reference(cfg, elements);
  std::unordered_set<core::ElementId> created(accepted.begin(), accepted.end());
  std::vector<const core::SetchainServer*> servers;
  for (const auto& h : hosts) servers.push_back(&h->server());
  assert_cluster_matches_reference(servers, accepted, created,
                                   hosts[0]->params(), hosts[0]->pki(),
                                   reference, "hashchain/soak");
}

}  // namespace
}  // namespace setchain::net
