#pragma once

#include <chrono>
#include <memory>
#include <optional>
#include <string>

#include "api/node.hpp"
#include "net/loopback.hpp"
#include "net/wire.hpp"

namespace setchain::net {

/// Blocking request/response channel from a client to ONE node. One call in
/// flight at a time (QuorumClient is sequential); the response to a call is
/// the next frame the node sends on this channel.
class IRpcChannel {
 public:
  virtual ~IRpcChannel() = default;

  /// Send one `type` frame and wait for the node's reply. nullopt on
  /// timeout or a dead/unreachable connection — the caller treats the node
  /// as unreachable for this call (it may recover later).
  virtual std::optional<wire::Frame> call(wire::MsgType type, codec::ByteView payload,
                                          std::chrono::milliseconds timeout) = 0;
};

/// Real-socket channel: lazily connects (and re-connects after failures),
/// introduces itself with a client Hello, then speaks framed RPC.
class TcpRpcChannel final : public IRpcChannel {
 public:
  struct Config {
    std::string host = "127.0.0.1";
    std::uint16_t port = 0;
    std::uint64_t client_id = 0;  ///< PKI process id of this client
    std::uint64_t cluster = 0;    ///< wire::cluster_id of the deployment
  };
  explicit TcpRpcChannel(Config cfg) : cfg_(std::move(cfg)) {}
  ~TcpRpcChannel() override;

  TcpRpcChannel(const TcpRpcChannel&) = delete;
  TcpRpcChannel& operator=(const TcpRpcChannel&) = delete;

  std::optional<wire::Frame> call(wire::MsgType type, codec::ByteView payload,
                                  std::chrono::milliseconds timeout) override;

 private:
  /// Non-blocking connect + client Hello, all bounded by `deadline`: a
  /// silent/blackholed peer costs at most the caller's RPC timeout.
  bool ensure_connected(std::chrono::steady_clock::time_point deadline);
  void disconnect();

  Config cfg_;
  int fd_ = -1;
};

/// Loopback channel for in-process wire-protocol clusters: frames travel
/// through the LoopbackHub and the shared simulation is pumped (in small
/// virtual-time slices) until the reply lands. `timeout` is interpreted in
/// VIRTUAL time — deterministic like everything else on the hub.
class LoopbackRpcChannel final : public IRpcChannel {
 public:
  /// `hub` must outlive the channel (tests own both).
  LoopbackRpcChannel(LoopbackHub& hub, std::uint32_t target_node);
  /// Unregisters the endpoint: a reply still queued in the simulation
  /// after a timed-out call is dropped by the hub instead of invoking a
  /// handler whose captures are gone.
  ~LoopbackRpcChannel() override;

  std::optional<wire::Frame> call(wire::MsgType type, codec::ByteView payload,
                                  std::chrono::milliseconds timeout) override;

 private:
  LoopbackHub& hub_;
  std::uint32_t target_;
  EndpointId endpoint_;
  std::optional<wire::Frame> pending_;
};

/// TCP/loopback-backed ISetchainNode: the client-side stub that lets
/// QuorumClient (and everything else written against the node interface)
/// talk to a live cluster unchanged.
///
/// Stateless apart from RPC bookkeeping: snapshot(from) is one RPC, and the
/// records it returns are owned by the snapshot itself (one page of a
/// large read; QuorumClient asks for the next). A node that fails to
/// answer within the RPC timeout serves the same empty reads/refusals a
/// crashed in-process server does — unreachable and down are
/// indistinguishable to a client, as in the paper's model.
class RemoteNode final : public api::ISetchainNode {
 public:
  RemoteNode(std::unique_ptr<IRpcChannel> channel, crypto::ProcessId node_id,
             std::chrono::milliseconds rpc_timeout = std::chrono::milliseconds(2000));

  bool add(core::Element e) override;
  api::NodeSnapshot snapshot(std::uint64_t from_epoch) const override;
  const std::vector<core::EpochProof>& proofs_for_epoch(
      std::uint64_t epoch_number) const override;
  std::uint64_t epoch() const override;
  crypto::ProcessId node_id() const override { return node_id_; }

  std::uint64_t rpc_failures() const { return failures_; }
  /// Epoch-proofs this stub holds on behalf of callers: those of the last
  /// proofs_for_epoch answer only, whatever the history read so far.
  std::size_t cached_proofs() const { return proofs_.size(); }

 private:
  std::optional<wire::Frame> call(wire::MsgType type, codec::ByteView payload) const;

  std::unique_ptr<IRpcChannel> channel_;
  crypto::ProcessId node_id_;
  std::chrono::milliseconds timeout_;

  // RPC bookkeeping (mutable: reads are RPCs). proofs_for_epoch returns a
  // reference, so the proofs of its last answer live here: one slot,
  // valid until the next proofs_for_epoch call on this stub.
  mutable std::uint64_t next_req_ = 1;
  mutable std::uint64_t failures_ = 0;
  mutable std::vector<core::EpochProof> proofs_;
};

}  // namespace setchain::net
