#include "net/remote_node.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <limits>

namespace setchain::net {

// ---------------------------------------------------------------------- TCP

namespace {

using Clock = std::chrono::steady_clock;

/// Milliseconds left until `deadline`, clamped to >= 0 (poll timeout arg).
int remaining_ms(Clock::time_point deadline) {
  const auto left =
      std::chrono::duration_cast<std::chrono::milliseconds>(deadline - Clock::now());
  if (left.count() <= 0) return 0;
  if (left.count() > std::numeric_limits<int>::max()) return std::numeric_limits<int>::max();
  return static_cast<int>(left.count());
}

/// Write all of `frame` to a non-blocking socket before `deadline`.
bool send_all(int fd, const codec::Bytes& frame, Clock::time_point deadline) {
  std::size_t off = 0;
  while (off < frame.size()) {
    const ssize_t w = ::send(fd, frame.data() + off, frame.size() - off, MSG_NOSIGNAL);
    if (w > 0) {
      off += static_cast<std::size_t>(w);
      continue;
    }
    if (w < 0 && errno == EINTR) continue;
    if (w < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      const int wait = remaining_ms(deadline);
      if (wait == 0) return false;  // deadline: a stuck peer must not block us
      pollfd p{fd, POLLOUT, 0};
      const int r = ::poll(&p, 1, wait);
      if (r < 0 && errno == EINTR) continue;
      if (r <= 0) return false;
      continue;
    }
    return false;
  }
  return true;
}

}  // namespace

TcpRpcChannel::~TcpRpcChannel() { disconnect(); }

void TcpRpcChannel::disconnect() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

bool TcpRpcChannel::ensure_connected(Clock::time_point deadline) {
  if (fd_ >= 0) return true;
  // Non-blocking end to end: connect() against a silent or blackholed
  // address must surface as a clean per-call timeout, never hang the
  // client for the kernel's minutes-long default.
  const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK, 0);
  if (fd < 0) return false;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(cfg_.port);
  if (::inet_pton(AF_INET, cfg_.host.c_str(), &addr.sin_addr) != 1) {
    ::close(fd);
    return false;
  }
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    if (errno != EINPROGRESS) {
      ::close(fd);
      return false;
    }
    for (;;) {
      const int wait = remaining_ms(deadline);
      pollfd p{fd, POLLOUT, 0};
      const int r = ::poll(&p, 1, wait);
      if (r < 0 && errno == EINTR) continue;
      if (r <= 0) {  // timeout (or poll failure): report unreachable
        ::close(fd);
        return false;
      }
      break;
    }
    int err = 0;
    socklen_t len = sizeof(err);
    if (::getsockopt(fd, SOL_SOCKET, SO_ERROR, &err, &len) != 0 || err != 0) {
      ::close(fd);
      return false;
    }
  }
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));

  wire::Hello h;
  h.role = wire::kRoleClient;
  h.sender = cfg_.client_id;
  h.cluster = cfg_.cluster;
  const codec::Bytes frame =
      wire::encode_frame(wire::MsgType::kHello, wire::encode_hello(h));
  if (!send_all(fd, frame, deadline)) {
    ::close(fd);
    return false;
  }
  fd_ = fd;
  return true;
}

std::optional<wire::Frame> TcpRpcChannel::call(wire::MsgType type,
                                               codec::ByteView payload,
                                               std::chrono::milliseconds timeout) {
  using clock = Clock;
  const auto deadline = clock::now() + timeout;
  if (!ensure_connected(deadline)) return std::nullopt;

  const codec::Bytes frame = wire::encode_frame(type, payload);
  if (!send_all(fd_, frame, deadline)) {
    disconnect();  // stream state unknown: next call reconnects fresh
    return std::nullopt;
  }

  wire::FrameReader reader;
  std::uint8_t buf[64 * 1024];
  for (;;) {
    wire::Frame f;
    const auto s = reader.next(f);
    if (s == wire::DecodeStatus::kOk) return f;
    if (s != wire::DecodeStatus::kNeedMore) {
      disconnect();  // framing violation: the stream can never resync
      return std::nullopt;
    }
    const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
        deadline - clock::now());
    if (left.count() <= 0) {
      disconnect();  // a late reply would desync call/response pairing
      return std::nullopt;
    }
    pollfd p{fd_, POLLIN, 0};
    const int r = ::poll(&p, 1, static_cast<int>(left.count()));
    if (r < 0 && errno == EINTR) continue;
    if (r <= 0) {
      disconnect();
      return std::nullopt;
    }
    const ssize_t got = ::recv(fd_, buf, sizeof(buf), 0);
    if (got < 0 && (errno == EINTR || errno == EAGAIN || errno == EWOULDBLOCK)) {
      continue;  // spurious wakeup on the non-blocking socket
    }
    if (got <= 0) {
      disconnect();
      return std::nullopt;
    }
    reader.feed(codec::ByteView(buf, static_cast<std::size_t>(got)));
  }
}

// ----------------------------------------------------------------- loopback

LoopbackRpcChannel::LoopbackRpcChannel(LoopbackHub& hub, std::uint32_t target_node)
    : hub_(hub), target_(target_node) {
  endpoint_ = hub_.register_client(
      [this](EndpointId, wire::Frame&& f) { pending_ = std::move(f); });
}

LoopbackRpcChannel::~LoopbackRpcChannel() { hub_.unregister_client(endpoint_); }

std::optional<wire::Frame> LoopbackRpcChannel::call(wire::MsgType type,
                                                    codec::ByteView payload,
                                                    std::chrono::milliseconds timeout) {
  pending_.reset();
  if (!hub_.route(endpoint_, target_, type, payload)) return std::nullopt;
  sim::Simulation& sim = hub_.simulation();
  const sim::Time deadline =
      sim.now() + sim::from_millis(static_cast<double>(timeout.count()));
  // Pump the shared simulation in small virtual slices until the reply (or
  // the virtual deadline): node handlers, ledger timers, and our delivery
  // all run inside these events — fully deterministic.
  while (!pending_ && sim.now() < deadline) {
    sim.run_until(sim.now() + sim::from_millis(1));
  }
  auto out = std::move(pending_);
  pending_.reset();
  return out;
}

// --------------------------------------------------------------- RemoteNode

RemoteNode::RemoteNode(std::unique_ptr<IRpcChannel> channel, crypto::ProcessId node_id,
                       std::chrono::milliseconds rpc_timeout)
    : channel_(std::move(channel)), node_id_(node_id), timeout_(rpc_timeout) {}

std::optional<wire::Frame> RemoteNode::call(wire::MsgType type,
                                            codec::ByteView payload) const {
  auto f = channel_->call(type, payload, timeout_);
  if (!f) ++failures_;
  return f;
}

bool RemoteNode::add(core::Element e) {
  wire::AddRequest req;
  req.req_id = next_req_++;
  req.element = std::move(e);
  const auto f = call(wire::MsgType::kAddRequest, wire::encode_add_request(req));
  if (!f || f->type != wire::MsgType::kAddResponse) return false;
  const auto resp = wire::parse_add_response(f->payload);
  return resp && resp->req_id == req.req_id && resp->accepted;
}

api::NodeSnapshot RemoteNode::snapshot(std::uint64_t from_epoch) const {
  const wire::SnapshotRequest req{next_req_++, std::max<std::uint64_t>(from_epoch, 1)};
  const auto f =
      call(wire::MsgType::kSnapshotRequest, wire::encode_snapshot_request(req));
  if (!f || f->type != wire::MsgType::kSnapshotResponse) return {};
  auto resp = wire::parse_snapshot_response(f->payload);
  if (!resp || resp->req_id != req.req_id || resp->from_epoch != req.from_epoch) {
    return {};
  }
  auto records =
      std::make_shared<const std::vector<core::EpochRecord>>(std::move(resp->records));
  api::NodeSnapshot snap;
  snap.epoch = resp->epoch;
  snap.prefix_digest = resp->prefix_digest;
  snap.records = *records;
  snap.owner = std::move(records);
  return snap;
}

const std::vector<core::EpochProof>& RemoteNode::proofs_for_epoch(
    std::uint64_t epoch_number) const {
  static const std::vector<core::EpochProof> kNoProofs;
  const wire::ProofsRequest req{next_req_++, epoch_number};
  const auto f = call(wire::MsgType::kProofsRequest, wire::encode_proofs_request(req));
  if (!f || f->type != wire::MsgType::kProofsResponse) return kNoProofs;
  auto resp = wire::parse_proofs_response(f->payload);
  if (!resp || resp->req_id != req.req_id) return kNoProofs;
  // One slot: the reference stays valid until the next call on this stub,
  // which is all ISetchainNode promises; memory stays flat however many
  // epochs a long-lived client reads.
  proofs_ = std::move(resp->proofs);
  return proofs_;
}

std::uint64_t RemoteNode::epoch() const {
  const wire::EpochRequest req{next_req_++};
  const auto f = call(wire::MsgType::kEpochRequest, wire::encode_epoch_request(req));
  if (!f || f->type != wire::MsgType::kEpochResponse) return 0;
  const auto resp = wire::parse_epoch_response(f->payload);
  if (!resp || resp->req_id != req.req_id) return 0;
  return resp->epoch;
}

}  // namespace setchain::net
