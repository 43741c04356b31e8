#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "load/fleet.hpp"
#include "net/node_host.hpp"
#include "net/tcp.hpp"
#include "sim/simulation.hpp"
#include "storage/storage.hpp"

namespace commitbench {

namespace sc = setchain;

/// Storage counters summed over the nodes of a durable cluster.
struct StorageTotals {
  std::uint64_t fsyncs = 0;
  std::uint64_t wal_bytes = 0;
  std::uint64_t snapshots = 0;
};

/// Result of reopening every node's data directory after shutdown.
struct RecoveryCheck {
  bool ok = true;
  std::string error;
  std::vector<double> ms;            ///< NodeHost::recover() time per node
  std::uint64_t min_epoch = 0;       ///< lowest epoch any node recovered to
};

/// A 4-node in-process cluster over real TCP, assembled from the daemon's
/// parts: TcpTransport, NodeHost and, for a durable cluster, Storage::open
/// with the daemon's defaults (load::LocalCluster cannot attach storage).
class Cluster {
 public:
  /// An empty `data_dir` runs every node in memory. Otherwise each node
  /// keeps its WAL and snapshots under `data_dir`/node<i>, removed again
  /// when the cluster is destroyed.
  Cluster(const sc::net::NodeHostConfig& cfg, std::string data_dir);
  ~Cluster();
  Cluster(const Cluster&) = delete;
  Cluster& operator=(const Cluster&) = delete;

  void start();
  /// Stop every node thread and transport (idempotent).
  void shutdown();
  std::vector<sc::load::Target> targets() const;
  std::uint64_t cluster_id() const { return cluster_; }
  /// Transport counters summed across nodes.
  sc::net::ITransport::Counters counters_total() const;
  /// Storage counters summed across nodes (zero in memory).
  StorageTotals storage_totals() const;
  /// Shut down, then reopen each durable node from disk with
  /// NodeHost::recover(), as after a process restart. In memory there is
  /// nothing to reopen and the result holds no node.
  RecoveryCheck recover_all();

 private:
  sc::net::NodeHostConfig node_cfg(std::uint32_t i) const;
  std::unique_ptr<sc::net::TcpTransport> make_transport(
      std::uint32_t i, const std::vector<std::string>& peer_addrs) const;
  std::unique_ptr<sc::storage::Storage> open_store(std::uint32_t i) const;

  sc::net::NodeHostConfig cfg_;
  std::string root_;  ///< empty = in memory
  std::uint64_t cluster_ = 0;
  std::vector<std::unique_ptr<sc::storage::Storage>> stores_;  ///< empty in memory
  std::vector<std::unique_ptr<sc::sim::Simulation>> sims_;
  std::vector<std::unique_ptr<sc::net::TcpTransport>> transports_;
  std::vector<std::unique_ptr<sc::net::NodeHost>> hosts_;
  std::atomic<bool> stop_{false};
  std::vector<std::thread> pumps_;  // last: joined before the hosts go away
};

}  // namespace commitbench
