#include "load/fleet.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>

namespace setchain::load {

namespace {
constexpr int kMaxEvents = 512;

std::chrono::steady_clock::duration from_seconds_d(double s) {
  return std::chrono::duration_cast<std::chrono::steady_clock::duration>(
      std::chrono::duration<double>(s));
}

/// epoll_wait with a sub-millisecond timeout. epoll_wait's whole
/// milliseconds would truncate the gap to the next open-loop arrival
/// (usually < 1 ms) to 0 and spin the fleet thread on a full core;
/// epoll_pwait2 sleeps the exact gap. Kernels without it (before 5.11) get
/// the gap rounded up to a millisecond: a late arrival, never a spin.
int epoll_wait_for(int epfd, std::vector<epoll_event>& evs,
                   std::chrono::steady_clock::duration timeout) {
  const auto ns = std::chrono::duration_cast<std::chrono::nanoseconds>(timeout).count();
  timespec ts{};
  ts.tv_sec = static_cast<time_t>(ns / 1'000'000'000);
  ts.tv_nsec = static_cast<long>(ns % 1'000'000'000);
  const int n = ::epoll_pwait2(epfd, evs.data(), static_cast<int>(evs.size()), &ts, nullptr);
  if (n >= 0 || errno != ENOSYS) return n;
  const auto ms = std::chrono::ceil<std::chrono::milliseconds>(timeout).count();
  return ::epoll_wait(epfd, evs.data(), static_cast<int>(evs.size()), static_cast<int>(ms));
}
}  // namespace

PooledElementSource::PooledElementSource(const std::vector<core::Element>& pool,
                                         std::uint32_t sessions)
    : pool_(pool), stride_(sessions == 0 ? 1 : sessions), cursor_(stride_) {
  for (std::size_t s = 0; s < cursor_.size(); ++s) cursor_[s] = s;
}

const core::Element* PooledElementSource::next(std::uint32_t session) {
  const std::size_t s = session % stride_;
  if (cursor_[s] >= pool_.size()) return nullptr;
  const core::Element* e = &pool_[cursor_[s]];
  cursor_[s] += stride_;
  ++consumed_;
  return e;
}

/// One client session's state machine. Owned (and only touched) by the
/// fleet thread; epoll events carry a raw pointer back to it.
struct LoadFleet::Session {
  std::uint32_t idx = 0;
  int fd = -1;
  enum class State : std::uint8_t { kIdle, kConnecting, kRunning, kDead };
  State state = State::kIdle;
  std::uint32_t events = 0;  ///< currently-registered epoll interest
  std::uint32_t dial_attempts = 0;
  std::uint64_t next_req = 1;
  /// Open-loop arrivals waiting for window space, stamped with their
  /// schedule time (latency is charged from here, not from the send).
  std::deque<Clock::time_point> pending;
  std::unordered_map<std::uint64_t, Clock::time_point> in_flight;
  net::wire::FrameReader reader;
  codec::Bytes outbuf;
  std::size_t out_off = 0;
};

LoadFleet::LoadFleet(FleetConfig cfg) : cfg_(std::move(cfg)), rbuf_(64 * 1024) {
  epoll_fd_ = ::epoll_create1(0);
  sessions_.reserve(cfg_.sessions);
  for (std::uint32_t i = 0; i < cfg_.sessions; ++i) {
    auto s = std::make_unique<Session>();
    s->idx = i;
    s->in_flight.reserve(cfg_.window * 2);
    sessions_.push_back(std::move(s));
  }
}

LoadFleet::~LoadFleet() {
  close();
  if (epoll_fd_ >= 0) ::close(epoll_fd_);
}

void LoadFleet::update_interest(Session& s) {
  if (s.fd < 0) return;
  std::uint32_t want = EPOLLIN;
  if (s.state == Session::State::kConnecting || !s.outbuf.empty()) {
    want |= EPOLLOUT;
  }
  if (want == s.events) return;
  epoll_event ev{};
  ev.events = want;
  ev.data.ptr = &s;
  ::epoll_ctl(epoll_fd_, s.events == 0 ? EPOLL_CTL_ADD : EPOLL_CTL_MOD, s.fd, &ev);
  s.events = want;
}

bool LoadFleet::start_dial(Session& s) {
  const Target& t = cfg_.targets[s.idx % cfg_.targets.size()];
  s.fd = ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK, 0);
  if (s.fd < 0) return false;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(t.port);
  const char* host = t.host == "localhost" ? "127.0.0.1" : t.host.c_str();
  if (::inet_pton(AF_INET, host, &addr.sin_addr) != 1) {
    ::close(s.fd);
    s.fd = -1;
    return false;
  }
  ++s.dial_attempts;
  const int rc = ::connect(s.fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr));
  if (rc != 0 && errno != EINPROGRESS) {
    ::close(s.fd);
    s.fd = -1;
    return false;
  }
  s.state = Session::State::kConnecting;
  s.events = 0;
  update_interest(s);
  return true;
}

void LoadFleet::finish_dial(Session& s) {
  int err = 0;
  socklen_t len = sizeof(err);
  if (::getsockopt(s.fd, SOL_SOCKET, SO_ERROR, &err, &len) != 0 || err != 0) {
    // Dial failed (most likely an overflowed accept queue under a mass
    // connect): back to idle for a retry while the deadline allows.
    ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, s.fd, nullptr);
    ::close(s.fd);
    s.fd = -1;
    s.events = 0;
    s.state = Session::State::kIdle;
    return;
  }
  const int one = 1;
  ::setsockopt(s.fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  net::wire::Hello h;
  h.role = net::wire::kRoleClient;
  h.sender = 0;  // informational; the transport assigns the endpoint id
  h.cluster = cfg_.cluster;
  s.outbuf = net::wire::encode_frame(net::wire::MsgType::kHello,
                                     net::wire::encode_hello(h));
  s.out_off = 0;
  s.state = Session::State::kRunning;
  ++alive_;
  flush(s, nullptr);
  update_interest(s);
}

std::uint32_t LoadFleet::connect() {
  if (epoll_fd_ < 0 || cfg_.targets.empty()) return 0;
  const auto deadline = Clock::now() + from_seconds_d(cfg_.connect_timeout_s);
  std::vector<epoll_event> evs(kMaxEvents);
  std::size_t next_idle = 0;
  for (;;) {
    // Top up the in-flight dial window.
    std::uint32_t connecting = 0;
    for (const auto& s : sessions_) {
      if (s->state == Session::State::kConnecting) ++connecting;
    }
    bool any_idle = false;
    for (std::size_t scan = 0; scan < sessions_.size(); ++scan) {
      if (connecting >= cfg_.connect_batch) break;
      Session& s = *sessions_[next_idle];
      next_idle = (next_idle + 1) % sessions_.size();
      if (s.state != Session::State::kIdle) continue;
      if (s.dial_attempts >= 5) continue;  // give up on this slot
      if (start_dial(s)) {
        ++connecting;
      }
      any_idle = true;
    }
    bool idle_left = false;
    for (const auto& s : sessions_) {
      if (s->state == Session::State::kIdle && s->dial_attempts < 5) idle_left = true;
    }
    if (connecting == 0 && !idle_left) break;
    if (Clock::now() >= deadline) break;
    const int n = ::epoll_wait(epoll_fd_, evs.data(), kMaxEvents, 20);
    for (int i = 0; i < n; ++i) {
      auto* s = static_cast<Session*>(evs[i].data.ptr);
      if (s->state == Session::State::kConnecting &&
          (evs[i].events & (EPOLLOUT | EPOLLERR | EPOLLHUP))) {
        finish_dial(*s);
      } else if (s->state == Session::State::kRunning &&
                 (evs[i].events & EPOLLOUT)) {
        flush(*s, nullptr);
        update_interest(*s);
      }
    }
    (void)any_idle;
  }
  // Anything still mid-dial at the deadline is dead for this run.
  for (auto& sp : sessions_) {
    Session& s = *sp;
    if (s.state == Session::State::kConnecting || s.state == Session::State::kIdle) {
      if (s.fd >= 0) {
        ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, s.fd, nullptr);
        ::close(s.fd);
        s.fd = -1;
      }
      s.state = Session::State::kDead;
    }
  }
  return alive_;
}

void LoadFleet::kill(Session& s, PhaseStats* st, bool decode_error) {
  if (s.state == Session::State::kDead) return;
  if (s.state == Session::State::kRunning && alive_ > 0) --alive_;
  if (st != nullptr) {
    if (decode_error) ++st->decode_errors;
    else ++st->io_errors;
  }
  if (s.fd >= 0) {
    ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, s.fd, nullptr);
    ::close(s.fd);
    s.fd = -1;
  }
  s.events = 0;
  s.state = Session::State::kDead;
  s.outbuf.clear();
  s.out_off = 0;
}

bool LoadFleet::flush(Session& s, PhaseStats* st) {
  if (s.state != Session::State::kRunning) return false;
  while (s.out_off < s.outbuf.size()) {
    const ssize_t w = ::send(s.fd, s.outbuf.data() + s.out_off,
                             s.outbuf.size() - s.out_off,
                             MSG_NOSIGNAL | MSG_DONTWAIT);
    if (w < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) {
        update_interest(s);  // arm EPOLLOUT
        return false;
      }
      kill(s, st, /*decode_error=*/false);
      return false;
    }
    s.out_off += static_cast<std::size_t>(w);
  }
  s.outbuf.clear();
  s.out_off = 0;
  update_interest(s);  // disarm EPOLLOUT
  return true;
}

void LoadFleet::read_acks(Session& s, PhaseStats& st, Clock::time_point now) {
  if (s.state != Session::State::kRunning) return;
  for (;;) {
    const ssize_t got = ::recv(s.fd, rbuf_.data(), rbuf_.size(), MSG_DONTWAIT);
    if (got == 0) {
      kill(s, &st, /*decode_error=*/false);
      return;
    }
    if (got < 0) {
      if (errno == EINTR) continue;
      if (errno != EAGAIN && errno != EWOULDBLOCK) {
        kill(s, &st, /*decode_error=*/false);
      }
      return;
    }
    s.reader.feed(codec::ByteView(rbuf_.data(), static_cast<std::size_t>(got)));
    net::wire::FrameView f;
    while (s.reader.next_view(f) == net::wire::DecodeStatus::kOk) {
      if (f.type != net::wire::MsgType::kAddResponse) continue;
      const auto resp = net::wire::parse_add_response(f.payload);
      if (!resp) continue;
      const auto it = s.in_flight.find(resp->req_id);
      if (it == s.in_flight.end()) continue;  // ack from a previous phase
      ++st.acked;
      if (resp->accepted) ++st.accepted;
      const auto lat =
          std::chrono::duration_cast<std::chrono::microseconds>(now - it->second)
              .count();
      st.latency_us.record(lat > 0 ? static_cast<std::uint64_t>(lat) : 0);
      s.in_flight.erase(it);
    }
    if (s.reader.failed()) {
      kill(s, &st, /*decode_error=*/true);
      return;
    }
    if (static_cast<std::size_t>(got) < rbuf_.size()) return;  // drained
  }
}

void LoadFleet::pump(Session& s, IElementSource& source, PhaseStats& st,
                     bool closed_loop) {
  if (s.state != Session::State::kRunning) return;
  if (!s.outbuf.empty() && !flush(s, &st)) return;  // still backpressured
  while (s.state == Session::State::kRunning &&
         s.in_flight.size() < cfg_.window) {
    Clock::time_point stamp;
    if (closed_loop) {
      stamp = Clock::now();
    } else if (!s.pending.empty()) {
      stamp = s.pending.front();
    } else {
      return;
    }
    const core::Element* e = source.next(s.idx);
    if (e == nullptr) return;  // supply exhausted; arrivals park in pending
    if (!closed_loop) s.pending.pop_front();
    net::wire::AddRequest req;
    req.req_id = s.next_req++;
    req.element = *e;
    net::wire::encode_frame_into(s.outbuf, net::wire::MsgType::kAddRequest,
                                 net::wire::encode_add_request(req));
    s.out_off = 0;
    st.outbuf_peak = std::max<std::uint64_t>(st.outbuf_peak, s.outbuf.size());
    s.in_flight.emplace(req.req_id, stamp);
    ++st.sent;
    if (closed_loop) ++st.offered;  // closed loop: offered == sent
    if (!flush(s, &st)) return;     // finish this frame before the next
  }
}

LoadFleet::Session* LoadFleet::pick_session() {
  if (alive_ == 0) return nullptr;
  for (std::size_t scan = 0; scan < sessions_.size(); ++scan) {
    Session& s = *sessions_[rr_];
    rr_ = (rr_ + 1) % sessions_.size();
    if (s.state == Session::State::kRunning) return &s;
  }
  return nullptr;
}

PhaseStats LoadFleet::run_phase(IElementSource& source,
                                const ArrivalConfig& arrival_cfg,
                                double duration_s) {
  PhaseStats st;
  ArrivalProcess arrival(arrival_cfg);
  const bool open = arrival.open_loop();
  const auto t0 = Clock::now();
  const auto t_end = t0 + from_seconds_d(duration_s);
  const auto to_tp = [&](double s) { return t0 + from_seconds_d(s); };
  Clock::time_point next_arr{};
  if (open) next_arr = to_tp(arrival.next());

  if (!open) {
    for (auto& s : sessions_) pump(*s, source, st, /*closed_loop=*/true);
  }

  std::vector<epoll_event> evs(kMaxEvents);
  for (;;) {
    const auto now = Clock::now();
    if (now >= t_end) break;
    if (open) {
      // Offer every due arrival. The schedule is independent of cluster
      // health: when no session can absorb an arrival it is shed, not
      // deferred — deferral would silently convert the run to closed loop.
      while (next_arr <= now) {
        ++st.offered;
        Session* s = pick_session();
        if (s == nullptr || s->pending.size() >= cfg_.max_pending) {
          ++st.shed;
        } else {
          s->pending.push_back(next_arr);
          st.queue_peak =
              std::max<std::uint64_t>(st.queue_peak, s->pending.size());
          pump(*s, source, st, /*closed_loop=*/false);
        }
        next_arr = to_tp(arrival.next());
      }
    }
    const auto horizon = open ? std::min(next_arr, t_end) : t_end;
    const Clock::duration gap = std::clamp<Clock::duration>(
        horizon - Clock::now(), Clock::duration::zero(), std::chrono::milliseconds(10));
    const int n = epoll_wait_for(epoll_fd_, evs, gap);
    const auto t_rx = Clock::now();
    for (int i = 0; i < n; ++i) {
      auto* s = static_cast<Session*>(evs[i].data.ptr);
      if (evs[i].events & (EPOLLIN | EPOLLERR | EPOLLHUP)) {
        read_acks(*s, st, t_rx);
      }
      if (s->state == Session::State::kRunning) {
        // Acks freed window space (or EPOLLOUT cleared backpressure):
        // immediately refill so the window, not the event cadence, is the
        // throughput bound.
        pump(*s, source, st, /*closed_loop=*/!open);
      }
    }
  }

  // Grace window: collect in-flight acks so tail latency is not truncated.
  const auto t_drain = Clock::now() + from_seconds_d(cfg_.drain_s);
  for (;;) {
    bool waiting = false;
    for (const auto& s : sessions_) {
      if (s->state == Session::State::kRunning &&
          (!s->in_flight.empty() || !s->outbuf.empty())) {
        waiting = true;
        break;
      }
    }
    if (!waiting || Clock::now() >= t_drain) break;
    const int n = ::epoll_wait(epoll_fd_, evs.data(), kMaxEvents, 10);
    const auto t_rx = Clock::now();
    for (int i = 0; i < n; ++i) {
      auto* s = static_cast<Session*>(evs[i].data.ptr);
      if (evs[i].events & (EPOLLIN | EPOLLERR | EPOLLHUP)) {
        read_acks(*s, st, t_rx);
      }
      if (s->state == Session::State::kRunning && !s->outbuf.empty()) {
        flush(*s, &st);  // let a half-written frame finish
      }
    }
  }

  st.wall_s = std::chrono::duration<double>(Clock::now() - t0).count();
  for (auto& sp : sessions_) {
    Session& s = *sp;
    st.pending_end += s.pending.size();
    st.in_flight_end += s.in_flight.size();
    s.pending.clear();
    s.in_flight.clear();
  }
  st.sessions_alive = alive_;
  return st;
}

void LoadFleet::close() {
  for (auto& sp : sessions_) {
    Session& s = *sp;
    if (s.fd >= 0) {
      if (epoll_fd_ >= 0) ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, s.fd, nullptr);
      ::close(s.fd);
      s.fd = -1;
    }
    s.events = 0;
    if (s.state != Session::State::kDead) s.state = Session::State::kDead;
  }
  alive_ = 0;
}

std::uint32_t LoadFleet::sessions_alive() const { return alive_; }

}  // namespace setchain::load
