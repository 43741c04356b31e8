#include "cluster.hpp"

#include <algorithm>
#include <filesystem>
#include <stdexcept>

#include "trace.hpp"

namespace commitbench {

Cluster::Cluster(const sc::net::NodeHostConfig& cfg, std::string data_dir)
    : cfg_(cfg), root_(std::move(data_dir)) {
  cluster_ = sc::net::NodeHost::cluster_id_of(cfg_);
  if (!root_.empty()) std::filesystem::remove_all(root_);
  std::vector<std::string> peer_addrs;
  for (std::uint32_t i = 0; i < cfg_.n; ++i) {
    transports_.push_back(make_transport(i, peer_addrs));
    peer_addrs.push_back("127.0.0.1:" + std::to_string(transports_[i]->listen_port()));
  }
  for (std::uint32_t i = 0; i < cfg_.n; ++i) {
    if (!root_.empty()) stores_.push_back(open_store(i));
    sims_.push_back(std::make_unique<sc::sim::Simulation>());
    hosts_.push_back(std::make_unique<sc::net::NodeHost>(
        node_cfg(i), *sims_[i], *transports_[i], stores_.empty() ? nullptr : stores_[i].get()));
    std::string err;
    if (!hosts_[i]->recover(&err)) {  // a no-op in memory
      throw std::runtime_error("fresh node " + std::to_string(i) + ": " + err);
    }
  }
}

Cluster::~Cluster() {
  shutdown();
  hosts_.clear();
  transports_.clear();
  sims_.clear();
  stores_.clear();
  if (!root_.empty()) {
    std::error_code ec;
    std::filesystem::remove_all(root_, ec);
  }
}

void Cluster::start() {
  for (std::uint32_t i = 0; i < cfg_.n; ++i) {
    hosts_[i]->start();
    transports_[i]->start();
  }
  for (std::uint32_t i = 0; i < cfg_.n; ++i) {
    pumps_.emplace_back([this, i] { hosts_[i]->run_realtime(stop_); });
  }
}

void Cluster::shutdown() {
  if (stop_.exchange(true)) return;
  for (auto& t : pumps_) {
    if (t.joinable()) t.join();
  }
  for (auto& t : transports_) t->stop();
}

std::vector<sc::load::Target> Cluster::targets() const {
  std::vector<sc::load::Target> out;
  for (const auto& t : transports_) out.push_back({"127.0.0.1", t->listen_port()});
  return out;
}

sc::net::ITransport::Counters Cluster::counters_total() const {
  sc::net::ITransport::Counters total;
  for (const auto& t : transports_) {
    const auto c = t->counters();
    total.frames_sent += c.frames_sent;
    total.bytes_sent += c.bytes_sent;
    total.frames_received += c.frames_received;
    total.bytes_received += c.bytes_received;
    total.send_drops += c.send_drops;
    total.send_drops_peer += c.send_drops_peer;
    total.send_drops_client += c.send_drops_client;
    total.decode_errors += c.decode_errors;
    total.reconnects += c.reconnects;
    total.send_queue_peak = std::max(total.send_queue_peak, c.send_queue_peak);
  }
  return total;
}

StorageTotals Cluster::storage_totals() const {
  StorageTotals t;
  for (const auto& s : stores_) {
    t.fsyncs += s->wal_counters().fsyncs;
    t.wal_bytes += s->wal_counters().bytes_appended;
    t.snapshots += s->snapshots_written();
  }
  return t;
}

RecoveryCheck Cluster::recover_all() {
  shutdown();
  RecoveryCheck out;
  for (std::uint32_t i = 0; i < stores_.size(); ++i) {
    // Everything but the data directory dies, as in a process restart.
    hosts_[i].reset();
    transports_[i].reset();
    sims_[i].reset();
    stores_[i].reset();
    auto store = open_store(i);
    auto transport = make_transport(i, {});
    sc::sim::Simulation sim;
    sc::net::NodeHost host(node_cfg(i), sim, *transport, store.get());
    std::string err;
    const std::int64_t t0 = now_ns();
    const bool ok = host.recover(&err);
    out.ms.push_back(static_cast<double>(now_ns() - t0) * 1e-6);
    if (!ok) {
      out.ok = false;
      out.error += "node " + std::to_string(i) + ": " + err + "; ";
    }
    const std::uint64_t epoch = host.server().get().epoch;
    out.min_epoch = i == 0 ? epoch : std::min(out.min_epoch, epoch);
  }
  return out;
}

sc::net::NodeHostConfig Cluster::node_cfg(std::uint32_t i) const {
  sc::net::NodeHostConfig c = cfg_;
  c.id = i;
  return c;
}

std::unique_ptr<sc::net::TcpTransport> Cluster::make_transport(
    std::uint32_t i, const std::vector<std::string>& peer_addrs) const {
  sc::net::TcpConfig tc;
  tc.self = i;
  tc.n = cfg_.n;
  tc.cluster = cluster_;
  tc.listen_port = 0;
  tc.peers = peer_addrs;  // ids below i: exactly the dial targets
  tc.peers.resize(cfg_.n);
  return std::make_unique<sc::net::TcpTransport>(tc);
}

std::unique_ptr<sc::storage::Storage> Cluster::open_store(std::uint32_t i) const {
  sc::storage::StorageConfig scfg;  // the daemon's defaults
  scfg.dir = root_ + "/node" + std::to_string(i);
  std::string err;
  auto s = sc::storage::Storage::open(scfg, &err);
  if (s == nullptr) throw std::runtime_error("storage " + scfg.dir + ": " + err);
  return s;
}

}  // namespace commitbench
