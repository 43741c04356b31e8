// Durable restart of a live 4-node TCP cluster: every node runs with a data
// directory, gets killed hard (pump stopped, sockets closed, host object
// DESTROYED — all in-memory state gone), and is rebooted from disk through
// NodeHost::recover(). The rolling test restarts each node in turn while the
// others keep serving; the whole-quorum test kills all four at once — the
// case no amount of peer catch-up can pass, only durable storage can.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <thread>

#include "api/quorum_client.hpp"
#include "net/remote_node.hpp"
#include "net/tcp.hpp"
#include "net_fixture.hpp"
#include "storage/storage.hpp"

namespace setchain::net {
namespace {

using namespace setchain::net::testing;
using namespace std::chrono_literals;

struct DurableCluster {
  static NodeHostConfig make_config(runner::Algorithm algo,
                                    runner::LedgerMode mode,
                                    std::uint64_t snapshot_epochs) {
    NodeHostConfig cfg;
    cfg.n = 4;
    cfg.f = 1;
    cfg.algorithm = algo;
    cfg.seed = 42;
    cfg.collector_limit = 6;
    cfg.collector_timeout = sim::from_millis(100);
    cfg.block_interval = sim::from_millis(80);
    cfg.sync_interval = sim::from_millis(200);
    cfg.ledger_mode = mode;
    cfg.snapshot_epochs = snapshot_epochs;
    if (mode == runner::LedgerMode::kConsensus) {
      cfg.timeout_propose = sim::from_millis(800);
      cfg.retry_interval = sim::from_millis(200);
    }
    return cfg;
  }

  NodeHostConfig cfg;
  std::string root;  ///< temp data root; node i persists in root/node<i>
  std::vector<std::string> peer_addrs;
  std::vector<std::uint16_t> ports;
  std::vector<std::unique_ptr<storage::Storage>> stores;
  std::vector<std::unique_ptr<sim::Simulation>> sims;
  std::vector<std::unique_ptr<TcpTransport>> transports;
  std::vector<std::unique_ptr<NodeHost>> hosts;
  std::vector<std::thread> pumps;
  std::vector<std::unique_ptr<std::atomic<bool>>> stops;
  /// Ledger height right after recover(), BEFORE the pump starts — the only
  /// race-free read of a live node's height the test thread gets.
  std::vector<std::uint64_t> recovered_height;
  bool stopped = false;
  crypto::Pki pki;

  DurableCluster(runner::Algorithm algo, runner::LedgerMode mode,
                 std::uint64_t snapshot_epochs)
      : cfg(make_config(algo, mode, snapshot_epochs)), pki(cfg.seed) {
    for (crypto::ProcessId p = 0; p < cfg.n + cfg.client_slots; ++p) {
      pki.register_process(p);
    }
    char tmpl[] = "/tmp/setchain_restart_XXXXXX";
    root = ::mkdtemp(tmpl);

    stores.resize(cfg.n);
    sims.resize(cfg.n);
    transports.resize(cfg.n);
    hosts.resize(cfg.n);
    pumps.resize(cfg.n);
    recovered_height.resize(cfg.n, 0);
    for (std::uint32_t i = 0; i < cfg.n; ++i) {
      stops.push_back(std::make_unique<std::atomic<bool>>(false));
    }

    // First boot binds ephemeral ports in id order; restarts re-bind the
    // SAME port (SO_REUSEADDR), so peers and clients redial successfully.
    const std::uint64_t cluster = NodeHost::cluster_id_of(cfg);
    for (std::uint32_t i = 0; i < cfg.n; ++i) {
      TcpConfig tc;
      tc.self = i;
      tc.n = cfg.n;
      tc.cluster = cluster;
      tc.listen_port = 0;
      tc.peers = peer_addrs;  // ids 0..i-1: exactly the dial targets
      tc.peers.resize(cfg.n);
      transports[i] = std::make_unique<TcpTransport>(tc);
      ports.push_back(transports[i]->listen_port());
      peer_addrs.push_back("127.0.0.1:" + std::to_string(ports[i]));
    }
    for (std::uint32_t i = 0; i < cfg.n; ++i) {
      open_storage(i);
      make_host(i);
      run_node(i);
    }
  }

  void open_storage(std::uint32_t i) {
    storage::StorageConfig sc;
    sc.dir = root + "/node" + std::to_string(i);
    // In-process "SIGKILL" never loses the page cache, so kOff keeps the
    // suite fast without weakening what the test proves (state survives the
    // death of every in-memory object, not a power cut).
    sc.fsync = storage::FsyncMode::kOff;
    std::string err;
    stores[i] = storage::Storage::open(sc, &err);
    ASSERT_NE(stores[i], nullptr) << err;
  }

  void make_host(std::uint32_t i) {
    NodeHostConfig c = cfg;
    c.id = i;
    sims[i] = std::make_unique<sim::Simulation>();
    hosts[i] = std::make_unique<NodeHost>(c, *sims[i], *transports[i],
                                          stores[i].get());
    std::string err;
    ASSERT_TRUE(hosts[i]->recover(&err)) << "node " << i << ": " << err;
    recovered_height[i] = hosts[i]->ledger().height();
  }

  void run_node(std::uint32_t i) {
    hosts[i]->start();
    transports[i]->start();
    stops[i]->store(false);
    std::atomic<bool>* stop = stops[i].get();
    pumps[i] = std::thread([this, i, stop] { hosts[i]->run_realtime(*stop); });
  }

  /// Hard kill: pump stopped, sockets closed, and — unlike the plain
  /// tcp_cluster_test kill — the host, ledger, server, simulation and
  /// storage objects are all destroyed. Nothing survives but the data dir.
  /// Returns the ledger height at death (read after the pump joined, so
  /// it is race-free).
  std::uint64_t kill_node(std::uint32_t i) {
    if (!stops[i]->exchange(true) && pumps[i].joinable()) pumps[i].join();
    const std::uint64_t h = hosts[i]->ledger().height();
    transports[i]->stop();
    hosts[i].reset();
    transports[i].reset();
    sims[i].reset();
    stores[i].reset();
    return h;
  }

  /// Reboot a killed node from its data directory, on its original port.
  void restart_node(std::uint32_t i) {
    TcpConfig tc;
    tc.self = i;
    tc.n = cfg.n;
    tc.cluster = NodeHost::cluster_id_of(cfg);
    tc.listen_host = "127.0.0.1";
    tc.listen_port = ports[i];
    tc.peers = peer_addrs;
    transports[i] = std::make_unique<TcpTransport>(tc);
    open_storage(i);
    make_host(i);
    if (::testing::Test::HasFatalFailure()) return;
    run_node(i);
  }

  void shutdown() {
    if (stopped) return;
    stopped = true;
    for (auto& s : stops) s->store(true);
    for (auto& t : pumps) {
      if (t.joinable()) t.join();
    }
    for (auto& t : transports) {
      if (t != nullptr) t->stop();
    }
  }

  ~DurableCluster() {
    shutdown();
    if (!root.empty()) {
      const std::string cmd = "rm -rf '" + root + "'";
      (void)std::system(cmd.c_str());
    }
  }

  api::QuorumClient client(std::vector<std::unique_ptr<RemoteNode>>& stubs) {
    const std::uint64_t cluster = NodeHost::cluster_id_of(cfg);
    for (std::uint32_t i = 0; i < cfg.n; ++i) {
      TcpRpcChannel::Config ch;
      ch.host = "127.0.0.1";
      ch.port = ports[i];
      ch.client_id = cfg.n;
      ch.cluster = cluster;
      stubs.push_back(std::make_unique<RemoteNode>(
          std::make_unique<TcpRpcChannel>(ch), i, 3000ms));
    }
    return api::make_quorum_client(stubs, pki, cfg.f, core::Fidelity::kFull,
                                   api::WritePolicy::kAll);
  }

  std::vector<const core::SetchainServer*> servers() const {
    std::vector<const core::SetchainServer*> out;
    for (const auto& h : hosts) out.push_back(&h->server());
    return out;
  }
};

bool wait_until(const std::function<bool()>& pred,
                std::chrono::seconds budget = 60s) {
  const auto deadline = std::chrono::steady_clock::now() + budget;
  while (std::chrono::steady_clock::now() < deadline) {
    if (pred()) return true;
    std::this_thread::sleep_for(100ms);
  }
  return pred();
}

void add_all(api::QuorumClient& client, const std::vector<core::Element>& elements,
             std::size_t begin, std::size_t end,
             std::vector<core::ElementId>& accepted) {
  for (std::size_t i = begin; i < end; ++i) {
    const auto r = client.add(elements[i]);
    EXPECT_TRUE(r.ok) << "add refused everywhere for " << elements[i].id;
    if (r.ok) accepted.push_back(elements[i].id);
  }
}

bool view_covers(api::QuorumClient& client,
                 const std::vector<core::ElementId>& accepted) {
  const auto view = client.get();
  for (const auto id : accepted) {
    if (!view.contains(id)) return false;
  }
  return view.epoch > 0;
}

// Each node of a live cluster is killed (object graph destroyed) and
// rebooted from its data directory in turn, mid-workload, sequencer
// included. The cluster must end fully converged with the consolidated set
// of a never-crashed reference run.
TEST(RestartCluster, RollingRestartEveryNode) {
  DurableCluster cl(runner::Algorithm::kHashchain,
                    runner::LedgerMode::kFixedSequencer,
                    /*snapshot_epochs=*/2);
  if (::testing::Test::HasFatalFailure()) return;

  const auto elements = make_workload(cl.cfg, 24, cl.pki);
  std::vector<core::ElementId> accepted;

  for (std::uint32_t round = 0; round < cl.cfg.n; ++round) {
    // A fresh client per phase: the previous one may hold channels into a
    // node that has since been rebooted (they would heal, but fresh stubs
    // make each phase's adds deterministic).
    std::vector<std::unique_ptr<RemoteNode>> stubs;
    api::QuorumClient client = cl.client(stubs);
    add_all(client, elements, round * 6, (round + 1) * 6, accepted);
    ASSERT_TRUE(wait_until([&] { return view_covers(client, accepted); }))
        << "round " << round << " never converged";
    // Commit this phase's epoch proofs before killing: a node dying with
    // its own proof tx in flight loses it for good (its retransmission
    // state is volatile), and successive rounds could push one epoch
    // below the f+1 the final drain check demands.
    ASSERT_TRUE(wait_until([&] {
      const auto view = client.get();
      for (auto& stub : stubs) {
        for (std::uint64_t e = 1; e <= view.epoch; ++e) {
          if (stub->proofs_for_epoch(e).size() < cl.cfg.f + 1) return false;
        }
      }
      return true;
    })) << "round " << round << " proofs never drained";

    const std::uint64_t h_pre = cl.kill_node(round);
    cl.restart_node(round);
    if (::testing::Test::HasFatalFailure()) return;
    // The reboot resumed from disk, not from height 0, and recovered
    // exactly what the dead process had applied.
    EXPECT_GT(cl.recovered_height[round], 0u) << "node " << round;
    EXPECT_EQ(cl.recovered_height[round], h_pre) << "node " << round;
  }

  // Tail of the workload with everyone alive, then full-drain convergence:
  // quorum view covers everything and every node serves f+1 proofs for
  // every agreed epoch.
  std::vector<std::unique_ptr<RemoteNode>> stubs;
  api::QuorumClient client = cl.client(stubs);
  ASSERT_EQ(accepted.size(), elements.size());
  ASSERT_TRUE(wait_until([&] { return view_covers(client, accepted); }))
      << "cluster never converged after the last reboot";
  ASSERT_TRUE(wait_until([&] {
    const auto view = client.get();
    for (auto& stub : stubs) {
      for (std::uint64_t e = 1; e <= view.epoch; ++e) {
        if (stub->proofs_for_epoch(e).size() < cl.cfg.f + 1) return false;
      }
    }
    return true;
  })) << "epoch proofs never drained to every node";

  const auto verdict = client.verify(accepted.front());
  EXPECT_TRUE(verdict.committed);
  EXPECT_GE(verdict.valid_proofs, cl.cfg.f + 1);

  cl.shutdown();
  const ReferenceRun reference = run_reference(cl.cfg, elements);
  std::unordered_set<core::ElementId> created(accepted.begin(), accepted.end());
  assert_cluster_matches_reference(cl.servers(), accepted, created,
                                   cl.hosts[0]->params(), cl.hosts[0]->pki(),
                                   reference, "hashchain/rolling-restart");
}

// The whole quorum dies at once — every host object destroyed — and reboots
// from disk. Without durable storage the first workload half would be gone
// (no surviving peer to sync from); with it, the rebooted cluster must
// still serve the old elements, accept new ones, and match the
// never-crashed reference. Also pins down tail-only replay: with a
// 1-epoch snapshot cadence, recovery must replay strictly fewer WAL blocks
// than the chain height.
TEST(RestartCluster, WholeQuorumRestart) {
  DurableCluster cl(runner::Algorithm::kHashchain,
                    runner::LedgerMode::kFixedSequencer,
                    /*snapshot_epochs=*/1);
  if (::testing::Test::HasFatalFailure()) return;

  const auto elements = make_workload(cl.cfg, 24, cl.pki);
  std::vector<core::ElementId> accepted;

  {
    std::vector<std::unique_ptr<RemoteNode>> stubs;
    api::QuorumClient client = cl.client(stubs);
    add_all(client, elements, 0, 12, accepted);
    ASSERT_TRUE(wait_until([&] { return view_covers(client, accepted); }))
        << "pre-kill workload never converged";
    // Drain epoch proofs to the ledger BEFORE the kill. A whole-quorum
    // simultaneous crash is outside the paper's ≤f fault model: every
    // node's in-flight proof tx (and its retransmission state) dies at
    // once, so an epoch caught mid-publish could stay below f+1 proofs
    // forever. Committed proofs are in the WAL and survive.
    ASSERT_TRUE(wait_until([&] {
      const auto view = client.get();
      for (auto& stub : stubs) {
        for (std::uint64_t e = 1; e <= view.epoch; ++e) {
          if (stub->proofs_for_epoch(e).size() < cl.cfg.f + 1) return false;
        }
      }
      return true;
    })) << "pre-kill epoch proofs never drained to every node";
  }
  // Every node must have compacted at least once before the kill, so the
  // recovery-counter assertions below measure snapshot + tail replay and
  // not a full-log replay that happens to pass. Polled via the filesystem
  // (list_snapshots is a pure directory scan) — reading the live Storage
  // counters from the test thread would race with the pump.
  ASSERT_TRUE(wait_until([&] {
    for (std::uint32_t i = 0; i < cl.cfg.n; ++i) {
      const auto snaps =
          storage::list_snapshots(cl.root + "/node" + std::to_string(i));
      if (snaps.empty()) return false;
    }
    return true;
  })) << "snapshot cadence never fired on every node";

  std::vector<std::uint64_t> h_pre(cl.cfg.n);
  for (std::uint32_t i = 0; i < cl.cfg.n; ++i) h_pre[i] = cl.kill_node(i);
  for (std::uint32_t i = 0; i < cl.cfg.n; ++i) {
    cl.restart_node(i);
    if (::testing::Test::HasFatalFailure()) return;
  }

  for (std::uint32_t i = 0; i < cl.cfg.n; ++i) {
    const storage::RecoveryStats* r = cl.hosts[i]->recovery();
    ASSERT_NE(r, nullptr);
    EXPECT_TRUE(r->snapshot_loaded) << "node " << i;
    EXPECT_GT(r->snapshot_height, 0u) << "node " << i;
    // Tail-only replay: the snapshot covered a prefix, the WAL only the gap.
    EXPECT_LT(r->wal_blocks_replayed, h_pre[i]) << "node " << i;
    EXPECT_EQ(r->snapshot_height + r->wal_blocks_replayed,
              cl.recovered_height[i])
        << "node " << i;
    EXPECT_EQ(cl.recovered_height[i], h_pre[i]) << "node " << i;
  }

  // The rebooted cluster still holds the pre-kill workload (nothing but the
  // data dirs survived) and accepts the second half.
  std::vector<std::unique_ptr<RemoteNode>> stubs;
  api::QuorumClient client = cl.client(stubs);
  ASSERT_TRUE(wait_until([&] { return view_covers(client, accepted); }))
      << "rebooted cluster lost the pre-kill workload";
  add_all(client, elements, 12, 24, accepted);
  ASSERT_EQ(accepted.size(), elements.size());
  ASSERT_TRUE(wait_until([&] { return view_covers(client, accepted); }))
      << "rebooted cluster never consolidated the post-restart workload";
  ASSERT_TRUE(wait_until([&] {
    const auto view = client.get();
    for (auto& stub : stubs) {
      for (std::uint64_t e = 1; e <= view.epoch; ++e) {
        if (stub->proofs_for_epoch(e).size() < cl.cfg.f + 1) return false;
      }
    }
    return true;
  })) << "epoch proofs never drained to every node";

  const auto verdict = client.verify(accepted.front());
  EXPECT_TRUE(verdict.committed);
  EXPECT_GE(verdict.valid_proofs, cl.cfg.f + 1);

  cl.shutdown();
  const ReferenceRun reference = run_reference(cl.cfg, elements);
  std::unordered_set<core::ElementId> created(accepted.begin(), accepted.end());
  assert_cluster_matches_reference(cl.servers(), accepted, created,
                                   cl.hosts[0]->params(), cl.hosts[0]->pki(),
                                   reference, "hashchain/whole-quorum-restart");
}

// Consensus-mode durability: the voting ledger archives committed proposal
// payloads; a whole-quorum restart must resume from the recovered height
// and keep committing (round state is volatile by design — only committed
// blocks persist).
TEST(RestartCluster, ConsensusWholeQuorumRestart) {
  DurableCluster cl(runner::Algorithm::kVanilla, runner::LedgerMode::kConsensus,
                    /*snapshot_epochs=*/1);
  if (::testing::Test::HasFatalFailure()) return;

  const auto elements = make_workload(cl.cfg, 16, cl.pki);
  std::vector<core::ElementId> accepted;
  {
    std::vector<std::unique_ptr<RemoteNode>> stubs;
    api::QuorumClient client = cl.client(stubs);
    add_all(client, elements, 0, 8, accepted);
    ASSERT_TRUE(wait_until([&] { return view_covers(client, accepted); }))
        << "pre-kill workload never converged";
    // Same rationale as WholeQuorumRestart: commit every epoch's proofs
    // before the all-node kill so none are lost beyond the f bound.
    ASSERT_TRUE(wait_until([&] {
      const auto view = client.get();
      for (auto& stub : stubs) {
        for (std::uint64_t e = 1; e <= view.epoch; ++e) {
          if (stub->proofs_for_epoch(e).size() < cl.cfg.f + 1) return false;
        }
      }
      return true;
    })) << "pre-kill epoch proofs never drained to every node";
  }

  std::vector<std::uint64_t> h_pre(cl.cfg.n);
  for (std::uint32_t i = 0; i < cl.cfg.n; ++i) h_pre[i] = cl.kill_node(i);
  for (std::uint32_t i = 0; i < cl.cfg.n; ++i) {
    cl.restart_node(i);
    if (::testing::Test::HasFatalFailure()) return;
    EXPECT_EQ(cl.recovered_height[i], h_pre[i]) << "node " << i;
    EXPECT_GT(cl.recovered_height[i], 0u) << "node " << i;
  }

  std::vector<std::unique_ptr<RemoteNode>> stubs;
  api::QuorumClient client = cl.client(stubs);
  ASSERT_TRUE(wait_until([&] { return view_covers(client, accepted); }))
      << "rebooted consensus cluster lost the pre-kill workload";
  add_all(client, elements, 8, 16, accepted);
  ASSERT_EQ(accepted.size(), elements.size());
  ASSERT_TRUE(wait_until([&] { return view_covers(client, accepted); }, 90s))
      << "rebooted consensus cluster never committed new work";
  ASSERT_TRUE(wait_until([&] {
    const auto view = client.get();
    for (auto& stub : stubs) {
      for (std::uint64_t e = 1; e <= view.epoch; ++e) {
        if (stub->proofs_for_epoch(e).size() < cl.cfg.f + 1) return false;
      }
    }
    return true;
  })) << "epoch proofs never drained to every node";

  cl.shutdown();
  const ReferenceRun reference = run_reference(cl.cfg, elements);
  std::unordered_set<core::ElementId> created(accepted.begin(), accepted.end());
  assert_cluster_matches_reference(cl.servers(), accepted, created,
                                   cl.hosts[0]->params(), cl.hosts[0]->pki(),
                                   reference, "vanilla/consensus-restart");
}

}  // namespace
}  // namespace setchain::net
