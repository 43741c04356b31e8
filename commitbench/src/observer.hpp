#pragma once

#include <sys/types.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <set>
#include <thread>
#include <vector>

#include "api/quorum_client.hpp"
#include "core/proofs.hpp"
#include "crypto/pki.hpp"
#include "load/fleet.hpp"
#include "net/remote_node.hpp"
#include "trace.hpp"

namespace commitbench {

namespace sc = setchain;

/// One RPC stub per node, the way any remote client reaches the cluster.
std::vector<std::unique_ptr<sc::net::RemoteNode>> connect_nodes(
    const std::vector<sc::load::Target>& targets, std::uint64_t cluster,
    sc::crypto::ProcessId client_id);

/// An f+1-agreed epoch as the observer saw it.
struct ObservedEpoch {
  std::uint64_t number = 0;
  sc::core::EpochHash hash{};
  std::vector<sc::core::ElementId> ids;
  std::int64_t adopted_ns = 0;     ///< first get() that adopted it
  std::int64_t committed_ns = -1;  ///< f+1 valid proofs held; -1 = not yet
  std::set<sc::crypto::ProcessId> signers;  ///< distinct valid proof signers
  std::uint32_t proof_rpcs = 0;
};

/// The benchmark's light client: a QuorumClient::get() loop that adopts
/// f+1-agreed epochs, plus proofs_for_epoch calls that collect f+1 valid
/// epoch-proofs from distinct servers per adopted epoch (the paper's commit
/// point). It sees the cluster only through the client RPC surface.
///
/// Commits are checked in epoch order: the first adopted epoch still short
/// of f+1 signers ends a poll, so an epoch is never reported committed
/// before an earlier one. Proofs reach the ledger in epoch order, so this
/// costs at most one poll interval on an out-of-order proof.
class Observer {
 public:
  struct Config {
    std::vector<sc::load::Target> targets;
    std::uint64_t cluster = 0;
    std::uint32_t f = 1;
    sc::crypto::ProcessId client_id = 0;
  };

  /// A light client's cadence. Faster polling makes the observer itself a
  /// load that grows with history: every get() has each node serialize its
  /// whole state. At 250 ms, commit p50 also varied about twice as much
  /// from run to run as at 500 ms.
  static constexpr std::chrono::milliseconds kPollInterval{500};

  /// `tracked(id)` selects the ids counted by committed_tracked(); it is
  /// called from the observer thread and must be safe to call there.
  /// `pki` and `tracer` must outlive the observer.
  Observer(Config cfg, const sc::crypto::Pki& pki, Tracer& tracer,
           std::function<bool(sc::core::ElementId)> tracked);
  ~Observer();
  Observer(const Observer&) = delete;
  Observer& operator=(const Observer&) = delete;

  /// Poll on a thread of its own until stop().
  void start();
  void stop();
  /// One round: get(), adopt new epochs, collect proofs. Call directly only
  /// while no thread runs.
  void poll_once();

  /// Tracked ids in committed epochs so far (any thread).
  std::uint64_t committed_tracked() const { return committed_tracked_.load(); }
  /// Highest epoch committed so far (any thread).
  std::uint64_t committed_epoch() const { return committed_epoch_.load(); }
  /// Observer thread id once started, 0 before.
  pid_t thread_id() const { return tid_.load(); }

  // Read after stop().
  const std::vector<ObservedEpoch>& epochs() const { return epochs_; }
  std::size_t max_masked() const { return max_masked_; }
  /// An adopted epoch later read back with another hash or contents.
  bool history_changed() const { return history_changed_; }
  std::uint64_t get_calls() const { return get_calls_; }

 private:
  void run();

  Config cfg_;
  const sc::crypto::Pki& pki_;
  Tracer& tracer_;
  std::function<bool(sc::core::ElementId)> tracked_;
  std::vector<std::unique_ptr<sc::net::RemoteNode>> nodes_;
  std::unique_ptr<sc::api::QuorumClient> qc_;

  std::vector<ObservedEpoch> epochs_;
  std::size_t first_uncommitted_ = 0;  ///< index into epochs_
  std::size_t max_masked_ = 0;
  bool history_changed_ = false;
  std::uint64_t get_calls_ = 0;

  std::atomic<std::uint64_t> committed_tracked_{0};
  std::atomic<std::uint64_t> committed_epoch_{0};
  std::atomic<pid_t> tid_{0};
  std::atomic<bool> stop_{false};
  std::thread thread_;  // last: joined before the members it uses go away
};

}  // namespace commitbench
