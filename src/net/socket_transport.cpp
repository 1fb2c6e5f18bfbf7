#include "net/socket_transport.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstring>
#include <vector>

#include "common/error.h"
#include "net/wire.h"
#include "obs/metrics.h"

namespace desword::net {

namespace {

obs::Counter& frames_sent() {
  static obs::Counter& c = obs::metric("net.frame.sent");
  return c;
}

obs::Counter& frames_received() {
  static obs::Counter& c = obs::metric("net.frame.received");
  return c;
}

obs::Counter& frames_dropped() {
  static obs::Counter& c = obs::metric("net.frame.dropped");
  return c;
}

obs::Counter& link_stats_evictions() {
  static obs::Counter& c = obs::metric("net.link_stats.evictions");
  return c;
}

obs::Counter& timers_armed() {
  static obs::Counter& c = obs::metric("net.timer.armed");
  return c;
}

obs::Counter& timers_cancelled() {
  static obs::Counter& c = obs::metric("net.timer.cancelled");
  return c;
}

obs::Counter& timers_fired() {
  static obs::Counter& c = obs::metric("net.timer.fired");
  return c;
}

std::uint64_t steady_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

void set_nonblocking(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags < 0 || ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) < 0) {
    throw ProtocolError("fcntl(O_NONBLOCK) failed");
  }
}

/// Parses "host:port" into a IPv4 sockaddr. Returns false on bad input.
bool parse_address(const std::string& address, sockaddr_in& out) {
  const auto colon = address.rfind(':');
  if (colon == std::string::npos) return false;
  const std::string host = address.substr(0, colon);
  const int port = std::atoi(address.c_str() + colon + 1);
  if (port <= 0 || port > 65535) return false;
  std::memset(&out, 0, sizeof(out));
  out.sin_family = AF_INET;
  out.sin_port = htons(static_cast<std::uint16_t>(port));
  return ::inet_pton(AF_INET, host.c_str(), &out.sin_addr) == 1;
}

}  // namespace

SocketTransport::SocketTransport(SocketTransportOptions options)
    : options_(std::move(options)), epoch_ns_(steady_ns()) {
  listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd_ < 0) throw ProtocolError("socket() failed");
  const int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(options_.port);
  if (::inet_pton(AF_INET, options_.bind_host.c_str(), &addr.sin_addr) != 1) {
    ::close(listen_fd_);
    throw ProtocolError("bad bind host: " + options_.bind_host);
  }
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) <
          0 ||
      ::listen(listen_fd_, 64) < 0) {
    ::close(listen_fd_);
    throw ProtocolError("bind/listen on " + options_.bind_host + ":" +
                        std::to_string(options_.port) + " failed: " +
                        std::strerror(errno));
  }
  set_nonblocking(listen_fd_);
  if (::pipe(wake_pipe_) < 0) {
    ::close(listen_fd_);
    throw ProtocolError("pipe() for post() wakeup failed");
  }
  set_nonblocking(wake_pipe_[0]);
  set_nonblocking(wake_pipe_[1]);
  sockaddr_in bound{};
  socklen_t len = sizeof(bound);
  ::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&bound), &len);
  char host[INET_ADDRSTRLEN] = {0};
  ::inet_ntop(AF_INET, &bound.sin_addr, host, sizeof(host));
  local_address_ =
      std::string(host) + ":" + std::to_string(ntohs(bound.sin_port));
}

SocketTransport::~SocketTransport() {
  for (auto& [fd, conn] : connections_) ::close(fd);
  if (listen_fd_ >= 0) ::close(listen_fd_);
  if (wake_pipe_[0] >= 0) ::close(wake_pipe_[0]);
  if (wake_pipe_[1] >= 0) ::close(wake_pipe_[1]);
}

void SocketTransport::post(std::function<void()> fn) {
  if (!fn) return;
  {
    MutexLock lk(posted_mu_);
    posted_.push_back(std::move(fn));
  }
  // A full pipe (EAGAIN) is fine: a wakeup byte is already pending.
  const char byte = 1;
  [[maybe_unused]] const ssize_t n = ::write(wake_pipe_[1], &byte, 1);
}

std::size_t SocketTransport::run_posted() {
  std::size_t ran = 0;
  for (;;) {
    std::deque<std::function<void()>> batch;
    {
      MutexLock lk(posted_mu_);
      if (posted_.empty()) return ran;
      batch.swap(posted_);
    }
    for (auto& fn : batch) {
      fn();
      ++ran;
    }
  }
}

void SocketTransport::register_node(const NodeId& id, Handler handler) {
  if (id.empty()) throw ProtocolError("node id must be non-empty");
  if (!handler) throw ProtocolError("node handler must be callable");
  if (!handlers_.emplace(id, std::move(handler)).second) {
    throw ProtocolError("duplicate node id: " + id);
  }
}

void SocketTransport::unregister_node(const NodeId& id) {
  if (handlers_.erase(id) == 0) {
    throw ProtocolError("unknown node id: " + id);
  }
}

bool SocketTransport::has_node(const NodeId& id) const {
  return handlers_.find(id) != handlers_.end();
}

std::uint64_t SocketTransport::now() const {
  return (steady_ns() - epoch_ns_) / 1000000u;
}

Transport::TimerId SocketTransport::set_timer(std::uint64_t delay_ms,
                                              TimerFn fn) {
  if (!fn) throw ProtocolError("timer callback must be callable");
  const TimerId id = next_timer_id_++;
  timers_.emplace(id, Timer{now() + delay_ms, std::move(fn)});
  timers_armed().add();
  return id;
}

void SocketTransport::cancel_timer(TimerId id) {
  if (timers_.erase(id) > 0) timers_cancelled().add();
}

LinkStats& SocketTransport::touch_stats(const LinkKey& key) const {
  const auto it = stats_.find(key);
  if (it != stats_.end()) {
    stats_lru_.splice(stats_lru_.begin(), stats_lru_, it->second.pos);
    return it->second.stats;
  }
  if (options_.max_tracked_links > 0 &&
      stats_.size() >= options_.max_tracked_links) {
    const auto victim = stats_.find(stats_lru_.back());
    DESWORD_CHECK(victim != stats_.end(), "link-stats LRU out of sync");
    const LinkStats& s = victim->second.stats;
    evicted_total_.messages_sent += s.messages_sent;
    evicted_total_.messages_dropped += s.messages_dropped;
    evicted_total_.bytes_sent += s.bytes_sent;
    stats_.erase(victim);
    stats_lru_.pop_back();
    link_stats_evictions().add();
  }
  stats_lru_.push_front(key);
  const auto [ins, inserted] =
      stats_.emplace(key, TrackedLink{LinkStats{}, stats_lru_.begin()});
  DESWORD_CHECK(inserted, "link-stats entry resurrected during insert");
  return ins->second.stats;
}

void SocketTransport::learn_peer(const NodeId& peer, int fd) {
  if (peer.empty()) return;
  const auto it = peer_connections_.find(peer);
  if (it != peer_connections_.end() && it->second == fd) return;
  peer_connections_[peer] = fd;
  const auto conn = connections_.find(fd);
  if (conn != connections_.end() && conn->second.peer.empty()) {
    conn->second.peer = peer;
  }
}

SocketTransport::Connection* SocketTransport::connection_for(
    const NodeId& to) {
  const auto known = peer_connections_.find(to);
  if (known != peer_connections_.end()) {
    const auto it = connections_.find(known->second);
    if (it != connections_.end()) return &it->second;
    peer_connections_.erase(known);
  }
  if (!options_.resolve) return nullptr;
  const std::optional<std::string> address = options_.resolve(to);
  if (!address.has_value()) return nullptr;
  sockaddr_in addr{};
  if (!parse_address(*address, addr)) return nullptr;
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return nullptr;
  set_nonblocking(fd);
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  const int rc =
      ::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr));
  if (rc < 0 && errno != EINPROGRESS) {
    ::close(fd);
    return nullptr;
  }
  Connection conn;
  conn.fd = fd;
  conn.connecting = rc < 0;
  conn.peer = to;
  auto [it, inserted] = connections_.emplace(fd, std::move(conn));
  DESWORD_CHECK(inserted, "connection fd already tracked");
  peer_connections_[to] = fd;
  return &it->second;
}

bool SocketTransport::send(const NodeId& from, const NodeId& to,
                           const std::string& type, Bytes payload) {
  LinkStats& stats = touch_stats({from, to});
  stats.messages_sent += 1;
  stats.bytes_sent += payload.size();
  frames_sent().add();

  Envelope env{from, to, type, std::move(payload), 0};
  if (has_node(to)) {  // loopback: deliver on the next poll
    local_queue_.push_back(std::move(env));
    return true;
  }
  Connection* conn = connection_for(to);
  if (conn == nullptr) {
    // Unresolvable peer or synchronously refused connect (on loopback a
    // connect() to a closed port fails immediately with ECONNREFUSED): the
    // drop is *known* at send time, so report it — the caller may charge a
    // retry right away instead of waiting out a retransmission timeout.
    stats.messages_dropped += 1;
    frames_dropped().add();
    return false;
  }
  const Bytes frame = encode_frame(env);
  conn->outbuf.insert(conn->outbuf.end(), frame.begin(), frame.end());
  if (!conn->connecting) flush_output(*conn);  // opportunistic write
  return true;
}

void SocketTransport::close_connection(int fd) {
  const auto it = connections_.find(fd);
  if (it == connections_.end()) return;
  if (!it->second.peer.empty()) {
    const auto peer = peer_connections_.find(it->second.peer);
    if (peer != peer_connections_.end() && peer->second == fd) {
      peer_connections_.erase(peer);
    }
  }
  ::close(fd);
  connections_.erase(it);
}

std::size_t SocketTransport::drain_input(Connection& conn) {
  std::size_t delivered = 0;
  std::size_t consumed = 0;
  try {
    while (true) {
      const std::optional<Envelope> env =
          try_decode_frame(conn.inbuf, consumed);
      if (!env.has_value()) break;
      // Decoder contract: a decoded frame consumed its length prefix and at
      // most the buffered bytes, otherwise the erase below would be UB.
      DESWORD_CHECK(consumed >= 4 && consumed <= conn.inbuf.size(),
                    "frame decoder consumed out-of-range byte count");
      conn.inbuf.erase(conn.inbuf.begin(),
                       conn.inbuf.begin() +
                           static_cast<std::ptrdiff_t>(consumed));
      learn_peer(env->from, conn.fd);
      const auto handler = handlers_.find(env->to);
      if (handler != handlers_.end()) {
        Envelope delivery = *env;
        delivery.deliver_at = now();
        frames_received().add();
        handler->second(delivery);
        ++delivered;
      }
      // No handler: not addressed to this process — dropped (the sender's
      // retransmission path recovers if it mattered).
    }
  } catch (const SerializationError&) {
    // Corrupt stream (bad frame length or body): the connection is
    // unrecoverable, drop it.
    close_connection(conn.fd);
  }
  return delivered;
}

bool SocketTransport::flush_output(Connection& conn) {
  while (!conn.outbuf.empty()) {
    const ssize_t n = ::send(conn.fd, conn.outbuf.data(), conn.outbuf.size(),
                             MSG_NOSIGNAL);
    if (n > 0) {
      conn.outbuf.erase(conn.outbuf.begin(),
                        conn.outbuf.begin() + n);
      continue;
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) return false;
    return false;  // hard error: reaped by the next poll round
  }
  return true;
}

std::optional<std::uint64_t> SocketTransport::next_timer_deadline() const {
  std::optional<std::uint64_t> earliest;
  for (const auto& [id, timer] : timers_) {
    if (!earliest.has_value() || timer.deadline_ms < *earliest) {
      earliest = timer.deadline_ms;
    }
  }
  return earliest;
}

std::size_t SocketTransport::fire_due_timers() {
  const std::uint64_t t = now();
  std::vector<TimerId> due;
  for (const auto& [id, timer] : timers_) {
    if (timer.deadline_ms <= t) due.push_back(id);
  }
  std::size_t fired = 0;
  for (const TimerId id : due) {
    const auto it = timers_.find(id);
    if (it == timers_.end()) continue;  // cancelled by an earlier callback
    TimerFn fn = std::move(it->second.fn);
    timers_.erase(it);
    fn();
    ++fired;
    timers_fired().add();
  }
  return fired;
}

std::size_t SocketTransport::poll(int timeout_ms) {
  bind_loop_thread();
  std::size_t events = 0;

  // Executor completions first: they were owed before anything newly
  // readable, and typically queue the sends serviced below.
  events += run_posted();

  // Loopback deliveries next: they are already due.
  while (!local_queue_.empty()) {
    Envelope env = std::move(local_queue_.front());
    local_queue_.pop_front();
    const auto handler = handlers_.find(env.to);
    if (handler != handlers_.end()) {
      env.deliver_at = now();
      frames_received().add();
      handler->second(env);
      ++events;
    }
  }
  events += fire_due_timers();

  // Cap the wait so a due timer is never delayed by a quiet socket.
  int wait_ms = events > 0 ? 0 : timeout_ms;
  if (const auto deadline = next_timer_deadline(); deadline.has_value()) {
    const std::uint64_t t = now();
    const std::uint64_t until =
        *deadline > t ? *deadline - t : 0;
    if (wait_ms < 0 || static_cast<std::uint64_t>(wait_ms) > until) {
      wait_ms = static_cast<int>(until);
    }
  }

  std::vector<pollfd> fds;
  fds.push_back(pollfd{listen_fd_, POLLIN, 0});
  fds.push_back(pollfd{wake_pipe_[0], POLLIN, 0});
  for (auto& [fd, conn] : connections_) {
    short interest = POLLIN;
    if (!conn.outbuf.empty() || conn.connecting) interest |= POLLOUT;
    fds.push_back(pollfd{fd, interest, 0});
  }
  const int ready = ::poll(fds.data(), fds.size(), wait_ms);
  if (ready < 0 && errno != EINTR) {
    throw ProtocolError("poll() failed");
  }

  // post() wakeup: swallow the pending bytes, then run the completions.
  if (fds[1].revents & POLLIN) {
    char buf[64];
    while (::read(wake_pipe_[0], buf, sizeof(buf)) > 0) {
    }
    events += run_posted();
  }

  // Accept new peers.
  if (fds[0].revents & POLLIN) {
    while (true) {
      const int fd = ::accept(listen_fd_, nullptr, nullptr);
      if (fd < 0) break;
      set_nonblocking(fd);
      const int one = 1;
      ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
      Connection conn;
      conn.fd = fd;
      connections_.emplace(fd, std::move(conn));
    }
  }

  // Service connections. Handlers may add/close connections mid-loop, so
  // re-resolve every fd from the snapshot before touching it.
  for (std::size_t i = 2; i < fds.size(); ++i) {
    const auto it = connections_.find(fds[i].fd);
    if (it == connections_.end()) continue;
    Connection& conn = it->second;
    if (fds[i].revents & POLLOUT) {
      if (conn.connecting) {
        int err = 0;
        socklen_t len = sizeof(err);
        ::getsockopt(conn.fd, SOL_SOCKET, SO_ERROR, &err, &len);
        if (err != 0) {
          close_connection(conn.fd);
          continue;
        }
        conn.connecting = false;
      }
      flush_output(conn);
    }
    if (fds[i].revents & POLLIN) {
      char buf[65536];
      while (true) {
        const ssize_t n = ::recv(conn.fd, buf, sizeof(buf), 0);
        if (n > 0) {
          conn.inbuf.insert(conn.inbuf.end(), buf, buf + n);
          continue;
        }
        if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
        // Orderly close or hard error: deliver what we have, then reap.
        events += drain_input(conn);
        close_connection(fds[i].fd);
        break;
      }
      if (connections_.find(fds[i].fd) != connections_.end()) {
        events += drain_input(conn);
      }
      continue;
    }
    if (fds[i].revents & (POLLERR | POLLHUP | POLLNVAL)) {
      close_connection(fds[i].fd);
    }
  }

  events += fire_due_timers();
  return events;
}

bool SocketTransport::flush(int timeout_ms) {
  // Negative timeout = block until drained. The old body clamped negative
  // values to 0, so the documented `-1` sentinel returned false on the
  // very first iteration with bytes still buffered.
  const bool unbounded = timeout_ms < 0;
  const std::uint64_t deadline =
      unbounded ? 0 : now() + static_cast<std::uint64_t>(timeout_ms);
  while (true) {
    bool pending = false;
    for (const auto& [fd, conn] : connections_) {
      if (!conn.outbuf.empty() || conn.connecting) pending = true;
    }
    if (!pending) return true;
    if (!unbounded && now() >= deadline) return false;
    poll(10);
  }
}

const LinkStats& SocketTransport::stats(const NodeId& from,
                                        const NodeId& to) const {
  // Lookup-only. The old body went through touch_stats(), so *reading* an
  // unknown link inserted it into the LRU and — once the table was at
  // max_tracked_links — evicted a live link's counters into the aggregate.
  // A diagnostics sweep could thus destroy exactly the per-link detail it
  // was trying to report. Observers get a canonical zero record instead.
  static const LinkStats kZero;
  const auto it = stats_.find({from, to});
  return it == stats_.end() ? kZero : it->second.stats;
}

LinkStats SocketTransport::total_stats() const {
  LinkStats total = evicted_total_;
  for (const auto& [link, tracked] : stats_) {
    const LinkStats& s = tracked.stats;
    total.messages_sent += s.messages_sent;
    total.messages_dropped += s.messages_dropped;
    total.bytes_sent += s.bytes_sent;
  }
  return total;
}

}  // namespace desword::net
