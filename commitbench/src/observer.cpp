#include "observer.hpp"

#include "cpu.hpp"

namespace commitbench {

std::vector<std::unique_ptr<sc::net::RemoteNode>> connect_nodes(
    const std::vector<sc::load::Target>& targets, std::uint64_t cluster,
    sc::crypto::ProcessId client_id) {
  std::vector<std::unique_ptr<sc::net::RemoteNode>> nodes;
  for (std::size_t i = 0; i < targets.size(); ++i) {
    sc::net::TcpRpcChannel::Config cc;
    cc.host = targets[i].host;
    cc.port = targets[i].port;
    cc.client_id = client_id;
    cc.cluster = cluster;
    nodes.push_back(std::make_unique<sc::net::RemoteNode>(
        std::make_unique<sc::net::TcpRpcChannel>(cc),
        static_cast<sc::crypto::ProcessId>(i)));
  }
  return nodes;
}

Observer::Observer(Config cfg, const sc::crypto::Pki& pki, Tracer& tracer,
                   std::function<bool(sc::core::ElementId)> tracked)
    : cfg_(std::move(cfg)), pki_(pki), tracer_(tracer), tracked_(std::move(tracked)) {
  nodes_ = connect_nodes(cfg_.targets, cfg_.cluster, cfg_.client_id);
  std::vector<sc::api::ISetchainNode*> ptrs;
  for (const auto& n : nodes_) ptrs.push_back(n.get());
  qc_ = std::make_unique<sc::api::QuorumClient>(sc::api::make_quorum_client(
      std::move(ptrs), pki_, cfg_.f, sc::core::Fidelity::kFull));
}

Observer::~Observer() { stop(); }

void Observer::start() {
  stop_.store(false);
  thread_ = std::thread([this] { run(); });
}

void Observer::stop() {
  stop_.store(true);
  if (thread_.joinable()) thread_.join();
}

void Observer::run() {
  tid_.store(this_thread_id());
  while (!stop_.load()) {
    const auto next = Clock::now() + kPollInterval;
    poll_once();
    std::this_thread::sleep_until(next);
  }
}

void Observer::poll_once() {
  Tracer::Scope poll(tracer_, "observer.poll");
  sc::api::QuorumClient::View view;
  {
    Tracer::Scope s(tracer_, "api.get");
    view = qc_->get();
  }
  ++get_calls_;
  max_masked_ = std::max(max_masked_, view.masked_nodes);
  const std::int64_t adopted = now_ns();

  // Re-read epochs must match what was adopted before; new ones are taken.
  const std::size_t known = std::min(epochs_.size(), view.history.size());
  for (std::size_t i = 0; i < known; ++i) {
    const auto& rec = view.history[i];
    if (rec.hash != epochs_[i].hash || rec.ids != epochs_[i].ids) history_changed_ = true;
  }
  for (std::size_t i = epochs_.size(); i < view.history.size(); ++i) {
    ObservedEpoch oe;
    oe.number = view.history[i].number;
    oe.hash = view.history[i].hash;
    oe.ids = view.history[i].ids;
    oe.adopted_ns = adopted;
    epochs_.push_back(std::move(oe));
  }

  const std::size_t quorum = cfg_.f + 1;
  while (first_uncommitted_ < epochs_.size()) {
    ObservedEpoch& oe = epochs_[first_uncommitted_];
    for (std::size_t i = 0; i < nodes_.size() && oe.signers.size() < quorum; ++i) {
      if (qc_->node_status(i) == sc::api::NodeStatus::kEquivocating) continue;
      const std::vector<sc::core::EpochProof>* proofs = nullptr;
      {
        Tracer::Scope s(tracer_, "api.proofs", oe.number);
        proofs = &nodes_[i]->proofs_for_epoch(oe.number);
      }
      ++oe.proof_rpcs;
      for (const auto& p : *proofs) {
        if (p.epoch != oe.number || oe.signers.contains(p.server)) continue;
        bool ok = false;
        {
          Tracer::Scope s(tracer_, "crypto.valid_proof", oe.number);
          ok = sc::core::valid_proof(p, oe.hash, pki_, sc::core::Fidelity::kFull);
        }
        if (ok) oe.signers.insert(p.server);
      }
    }
    if (oe.signers.size() < quorum) break;
    oe.committed_ns = now_ns();
    std::uint64_t tracked = 0;
    for (const auto id : oe.ids) tracked += tracked_(id) ? 1 : 0;
    committed_tracked_.fetch_add(tracked);
    committed_epoch_.store(oe.number);
    ++first_uncommitted_;
  }
}

}  // namespace commitbench
