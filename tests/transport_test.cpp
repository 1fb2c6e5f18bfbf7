// Transport-layer tests: wire framing, SimTransport timer semantics, the
// real TCP SocketTransport on loopback, and the protocol stack surviving a
// crashed (deregistered) peer through its retransmission timers.
#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/error.h"
#include "desword/scenario.h"
#include "net/socket_transport.h"
#include "net/transport.h"
#include "net/wire.h"
#include "obs/metrics.h"

namespace desword::net {
namespace {

Envelope make_env(std::string from, std::string to, std::string type,
                  Bytes payload) {
  Envelope env;
  env.from = std::move(from);
  env.to = std::move(to);
  env.type = std::move(type);
  env.payload = std::move(payload);
  return env;
}

// ---------------------------------------------------------------------------
// Wire framing
// ---------------------------------------------------------------------------

TEST(WireTest, EnvelopeRoundTrip) {
  const Envelope env = make_env("alice", "bob", "query_request",
                                Bytes{0x00, 0x01, 0xff, 0x7f});
  const Envelope back = decode_envelope(encode_envelope(env));
  EXPECT_EQ(back.from, "alice");
  EXPECT_EQ(back.to, "bob");
  EXPECT_EQ(back.type, "query_request");
  EXPECT_EQ(back.payload, env.payload);
}

TEST(WireTest, EnvelopeRejectsTrailingBytes) {
  Bytes body = encode_envelope(make_env("a", "b", "t", Bytes{1, 2, 3}));
  body.push_back(0x00);
  EXPECT_THROW(decode_envelope(body), SerializationError);
}

TEST(WireTest, FrameRoundTripAndConsumed) {
  const Envelope env = make_env("a", "b", "t", Bytes(100, 0xab));
  const Bytes frame = encode_frame(env);
  std::size_t consumed = 0;
  const std::optional<Envelope> got = try_decode_frame(frame, consumed);
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(consumed, frame.size());
  EXPECT_EQ(got->payload, env.payload);
}

TEST(WireTest, IncompleteFrameYieldsNothing) {
  const Bytes frame = encode_frame(make_env("a", "b", "t", Bytes(32, 1)));
  for (std::size_t cut = 0; cut < frame.size(); ++cut) {
    std::size_t consumed = 77;
    const Bytes partial(frame.begin(),
                        frame.begin() + static_cast<std::ptrdiff_t>(cut));
    EXPECT_FALSE(try_decode_frame(partial, consumed).has_value());
    EXPECT_EQ(consumed, 0u);
  }
}

TEST(WireTest, TwoFramesDecodeSequentially) {
  Bytes buffer = encode_frame(make_env("a", "b", "first", Bytes{1}));
  const Bytes second = encode_frame(make_env("a", "b", "second", Bytes{2}));
  buffer.insert(buffer.end(), second.begin(), second.end());

  std::size_t consumed = 0;
  const auto one = try_decode_frame(buffer, consumed);
  ASSERT_TRUE(one.has_value());
  EXPECT_EQ(one->type, "first");
  buffer.erase(buffer.begin(),
               buffer.begin() + static_cast<std::ptrdiff_t>(consumed));

  const auto two = try_decode_frame(buffer, consumed);
  ASSERT_TRUE(two.has_value());
  EXPECT_EQ(two->type, "second");
  EXPECT_EQ(consumed, buffer.size());
}

TEST(WireTest, OversizedLengthPrefixThrows) {
  // A hostile length prefix must fail fast, not allocate 4 GiB.
  Bytes buffer = {0xff, 0xff, 0xff, 0xff, 0x00};
  std::size_t consumed = 0;
  EXPECT_THROW(try_decode_frame(buffer, consumed), SerializationError);
}

// ---------------------------------------------------------------------------
// SimTransport
// ---------------------------------------------------------------------------

TEST(SimTransportTest, DeliversLikeUnderlyingNetwork) {
  Network network;
  SimTransport transport(network);
  std::vector<std::string> seen;
  transport.register_node("a", [&](const Envelope& env) {
    seen.push_back(env.type);
    if (env.type == "ping") transport.send("a", "b", "pong", Bytes{});
  });
  transport.register_node("b", [&](const Envelope& env) {
    seen.push_back(env.type);
  });
  transport.send("b", "a", "ping", Bytes(10, 0));
  EXPECT_EQ(transport.poll(), 2u);  // ping + pong
  EXPECT_EQ(seen, (std::vector<std::string>{"ping", "pong"}));
  EXPECT_EQ(transport.stats("b", "a").bytes_sent, 10u);
  EXPECT_EQ(transport.total_stats().messages_sent, 2u);
}

TEST(SimTransportTest, TimersFireOnlyAtQuiescenceInArmingOrder) {
  Network network;
  SimTransport transport(network);
  std::vector<int> fired;
  transport.register_node("a", [](const Envelope&) {});

  transport.set_timer(5, [&] { fired.push_back(2); });
  // Later timer armed first in *this* poll round? No: arming order is id
  // order, and the shorter delay below must NOT jump the queue — the sim
  // fires at quiescence in arming order, by design.
  transport.set_timer(1, [&] { fired.push_back(1); });
  transport.send("a", "a", "m", Bytes{});

  // First poll: a message is in flight, so it delivers and NO timer fires.
  EXPECT_EQ(transport.poll(), 1u);
  EXPECT_TRUE(fired.empty());
  EXPECT_EQ(transport.pending_timers(), 2u);

  // Queue drained: all pending timers fire, in arming order.
  EXPECT_EQ(transport.poll(), 2u);
  EXPECT_EQ(fired, (std::vector<int>{2, 1}));
  EXPECT_EQ(transport.pending_timers(), 0u);
}

TEST(SimTransportTest, CancelledTimerNeverFires) {
  Network network;
  SimTransport transport(network);
  bool fired = false;
  const Transport::TimerId id = transport.set_timer(1, [&] { fired = true; });
  transport.cancel_timer(id);
  EXPECT_EQ(transport.poll(), 0u);
  EXPECT_FALSE(fired);
}

TEST(SimTransportTest, TimerHandlerMayRearm) {
  Network network;
  SimTransport transport(network);
  int fires = 0;
  std::function<void()> tick = [&] {
    if (++fires < 3) transport.set_timer(1, tick);
  };
  transport.set_timer(1, tick);
  // Each quiescent poll fires the snapshot of then-pending timers only.
  EXPECT_EQ(transport.poll(), 1u);
  EXPECT_EQ(transport.poll(), 1u);
  EXPECT_EQ(transport.poll(), 1u);
  EXPECT_EQ(transport.poll(), 0u);
  EXPECT_EQ(fires, 3);
}

TEST(SimTransportTest, TimerHandlerMayCancelSibling) {
  // Regression: a callback cancelling a later timer in the SAME firing
  // round must win — the snapshot loop re-checks liveness per id instead
  // of firing a stale copy of the handler.
  Network network;
  SimTransport transport(network);
  std::vector<int> fired;
  Transport::TimerId sibling = 0;
  transport.set_timer(1, [&] {
    fired.push_back(1);
    transport.cancel_timer(sibling);
  });
  sibling = transport.set_timer(1, [&] { fired.push_back(2); });
  EXPECT_EQ(transport.poll(), 1u);
  EXPECT_EQ(fired, std::vector<int>{1});
  EXPECT_EQ(transport.pending_timers(), 0u);
  EXPECT_EQ(transport.poll(), 0u);  // the cancelled sibling stays dead
  EXPECT_EQ(fired, std::vector<int>{1});
}

TEST(SimTransportTest, TimerArmedInCallbackDefersEvenWithZeroDelay) {
  // Regression: the firing round snapshots the then-pending ids, so a
  // timer armed *inside* a due-timer callback — even with delay 0 — must
  // wait for the next quiescent round, not piggyback on this one.
  Network network;
  SimTransport transport(network);
  std::vector<int> fired;
  transport.set_timer(1, [&] {
    fired.push_back(1);
    transport.set_timer(0, [&] { fired.push_back(2); });
  });
  EXPECT_EQ(transport.poll(), 1u);
  EXPECT_EQ(fired, std::vector<int>{1}) << "the child timer must defer";
  EXPECT_EQ(transport.pending_timers(), 1u);
  EXPECT_EQ(transport.poll(), 1u);
  EXPECT_EQ(fired, (std::vector<int>{1, 2}));
}

TEST(SimTransportTest, TimerArmedThenCancelledInsideCallbackNeverFires) {
  // Regression: arm-then-cancel within one due-timer callback (the shape
  // of a handler that re-arms a retransmission and then settles in the
  // same dispatch) must leave nothing behind — not fire this round, not
  // fire a later one, not leak a pending timer.
  Network network;
  SimTransport transport(network);
  std::vector<int> fired;
  transport.set_timer(1, [&] {
    fired.push_back(1);
    const Transport::TimerId child =
        transport.set_timer(0, [&] { fired.push_back(2); });
    transport.cancel_timer(child);
  });
  EXPECT_EQ(transport.poll(), 1u);
  EXPECT_EQ(transport.pending_timers(), 0u);
  EXPECT_EQ(transport.poll(), 0u);
  EXPECT_EQ(fired, std::vector<int>{1});
}

TEST(SimTransportTest, TimerSendingTrafficEndsFiringRound) {
  // Regression: once a timer callback queues a message the network is no
  // longer quiescent, so the remaining snapshot timers must wait for the
  // next quiescent round instead of firing behind in-flight traffic (a
  // retransmission timer must not fire "concurrently" with the reply it
  // just requested).
  Network network;
  SimTransport transport(network);
  std::vector<std::string> order;
  transport.register_node("a", [&](const Envelope& env) {
    order.push_back("deliver:" + env.type);
  });
  transport.set_timer(1, [&] {
    order.push_back("timer1");
    transport.send("a", "a", "probe", Bytes{});
  });
  transport.set_timer(1, [&] { order.push_back("timer2"); });

  // Round 1: timer1 fires and queues traffic — the round ends immediately,
  // timer2 is deferred.
  EXPECT_EQ(transport.poll(), 1u);
  EXPECT_EQ(order, std::vector<std::string>{"timer1"});
  EXPECT_EQ(transport.pending_timers(), 1u);

  // Round 2: the queued message delivers (deliveries preempt timers).
  EXPECT_EQ(transport.poll(), 1u);
  EXPECT_EQ(order,
            (std::vector<std::string>{"timer1", "deliver:probe"}));

  // Round 3: quiescent again, the deferred timer finally fires.
  EXPECT_EQ(transport.poll(), 1u);
  EXPECT_EQ(order.back(), "timer2");
}

// ---------------------------------------------------------------------------
// SocketTransport (TCP loopback)
// ---------------------------------------------------------------------------

/// Polls both endpoints until `done` or ~5 s of wall clock passed.
template <typename Pred>
bool pump_until(SocketTransport& a, SocketTransport& b, Pred done) {
  const std::uint64_t deadline = a.now() + 5000;
  while (a.now() < deadline) {
    a.poll(10);
    b.poll(10);
    if (done()) return true;
  }
  return done();
}

TEST(SocketTransportTest, LoopbackPingPong) {
  SocketTransport server{SocketTransportOptions{}};
  SocketTransportOptions client_options;
  client_options.resolve =
      [&](const NodeId& node) -> std::optional<std::string> {
    if (node == "server") return server.local_address();
    return std::nullopt;
  };
  SocketTransport client(std::move(client_options));

  std::optional<Envelope> request;
  std::optional<Envelope> reply;
  server.register_node("server", [&](const Envelope& env) {
    request = env;
    // Reply rides the inbound connection: the server has no resolver.
    server.send("server", env.from, "pong", Bytes{9, 9});
  });
  client.register_node("client", [&](const Envelope& env) { reply = env; });

  client.send("client", "server", "ping", Bytes{1, 2, 3});
  ASSERT_TRUE(
      pump_until(client, server, [&] { return reply.has_value(); }));

  ASSERT_TRUE(request.has_value());
  EXPECT_EQ(request->from, "client");
  EXPECT_EQ(request->payload, (Bytes{1, 2, 3}));
  EXPECT_EQ(reply->from, "server");
  EXPECT_EQ(reply->type, "pong");
  EXPECT_EQ(reply->payload, (Bytes{9, 9}));

  EXPECT_EQ(client.stats("client", "server").messages_sent, 1u);
  EXPECT_EQ(client.stats("client", "server").messages_dropped, 0u);
  EXPECT_EQ(server.stats("server", "client").messages_sent, 1u);
}

TEST(SocketTransportTest, LocalLoopbackDelivery) {
  // Two nodes on the SAME transport short-circuit through the local queue.
  SocketTransport transport{SocketTransportOptions{}};
  std::optional<Envelope> got;
  transport.register_node("a", [&](const Envelope&) {});
  transport.register_node("b", [&](const Envelope& env) { got = env; });
  transport.send("a", "b", "hello", Bytes{7});
  transport.poll(0);
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(got->from, "a");
  EXPECT_EQ(got->payload, Bytes{7});
}

TEST(SocketTransportTest, UnresolvablePeerDropsAndCounts) {
  SocketTransport transport{SocketTransportOptions{}};  // no resolver at all
  transport.register_node("a", [](const Envelope&) {});
  EXPECT_NO_THROW(transport.send("a", "ghost", "m", Bytes(5, 0)));
  EXPECT_EQ(transport.stats("a", "ghost").messages_sent, 1u);
  EXPECT_EQ(transport.stats("a", "ghost").messages_dropped, 1u);
  EXPECT_EQ(transport.stats("a", "ghost").bytes_sent, 5u);
}

TEST(SocketTransportTest, TimersFireOnRealClock) {
  SocketTransport transport{SocketTransportOptions{}};
  std::vector<int> fired;
  transport.set_timer(10, [&] { fired.push_back(1); });
  const Transport::TimerId cancelled =
      transport.set_timer(10, [&] { fired.push_back(2); });
  transport.cancel_timer(cancelled);

  const std::uint64_t t0 = transport.now();
  while (fired.empty() && transport.now() < t0 + 5000) transport.poll(20);
  EXPECT_EQ(fired, std::vector<int>{1});

  // The cancelled timer stays dead even after its deadline passed.
  while (transport.now() < t0 + 60) transport.poll(20);
  EXPECT_EQ(fired, std::vector<int>{1});
}

TEST(SocketTransportTest, NegativeFlushTimeoutBlocksUntilDrained) {
  // Regression: flush() clamped negative timeouts to 0, so the documented
  // "-1 = block until drained" sentinel returned false immediately while
  // the connect was still in flight and bytes sat buffered.
  SocketTransport server{SocketTransportOptions{}};
  SocketTransportOptions client_options;
  client_options.resolve =
      [&](const NodeId& node) -> std::optional<std::string> {
    if (node == "server") return server.local_address();
    return std::nullopt;
  };
  SocketTransport client(std::move(client_options));

  std::optional<Envelope> got;
  server.register_node("server", [&](const Envelope& env) { got = env; });
  client.register_node("client", [](const Envelope&) {});

  // A payload large enough to outlive the first partial write, sent while
  // the non-blocking connect is still completing — flush(-1) must ride it
  // all the way out instead of bailing on the first loop iteration.
  client.send("client", "server", "bulk", Bytes(1 << 20, 0xab));
  EXPECT_TRUE(client.flush(-1));

  const std::uint64_t deadline = server.now() + 5000;
  while (!got.has_value() && server.now() < deadline) server.poll(10);
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(got->payload.size(), std::size_t{1} << 20);
}

}  // namespace
}  // namespace desword::net

// ---------------------------------------------------------------------------
// Protocol over transports: crashed-peer regression
// ---------------------------------------------------------------------------

namespace desword::protocol {
namespace {

TEST(TransportProtocolTest, QuerySurvivesCrashedParticipant) {
  ScenarioConfig config;
  config.proxy.edb = zkedb::EdbConfig{4, 8, 512, "p256"};
  Scenario scenario(supplychain::SupplyChainGraph::paper_example(), config);

  supplychain::DistributionConfig dist;
  dist.initial = "v0";
  dist.products = supplychain::make_products(1, 1, 4);
  dist.seed = 42;
  scenario.run_task("task-1", dist);

  // Pick a product whose path has an intermediate hop, then crash that hop.
  const supplychain::ProductId product = dist.products[0];
  const auto* path = scenario.path_of(product);
  ASSERT_NE(path, nullptr);
  ASSERT_GE(path->size(), 2u);
  const std::string& victim = (*path)[1];
  scenario.network().unregister_node(victim);

  // The old pump() threw on sends to dead nodes; now the drop is counted,
  // the session's retransmission timer expires and the victim is reported
  // as unresponsive instead of the proxy dying.
  const QueryOutcome outcome =
      scenario.proxy().run_query(product, ProductQuality::kGood);
  EXPECT_FALSE(outcome.complete);
  EXPECT_TRUE(outcome.has_violation(victim, ViolationType::kNoResponse));
  EXPECT_LT(scenario.proxy().reputation(victim), 0.0);
  EXPECT_GT(scenario.network().stats(scenario.proxy().id(), victim)
                .messages_dropped,
            0u);
}

TEST(TransportProtocolTest, DeadPeerFastFailsOverSockets) {
  // Regression for the retransmission loop burning a full timeout per
  // attempt on a peer the transport KNOWS is gone. Over real sockets a
  // deregistered peer refuses at send time, so after the first timeout
  // every remaining retry must be charged immediately: the verdict lands
  // in ~one retransmit_base of wall clock, not max_retries of them.
  net::SocketTransport socket{net::SocketTransportOptions{}};
  const auto crs_cache = std::make_shared<CrsCache>();
  ProxyConfig config;
  config.edb = zkedb::EdbConfig{4, 6, 512, "p256"};
  config.retransmit_base = 400;
  config.retransmit_cap = 400;
  config.max_retries = 5;
  ProxyDeps deps;
  deps.crs_cache = crs_cache;
  Proxy proxy("proxy", socket, std::move(deps), config);

  const auto graph = supplychain::SupplyChainGraph::paper_example();
  std::map<std::string, std::unique_ptr<Participant>> participants;
  for (const ParticipantId& id : graph.participants()) {
    participants.emplace(
        id, std::make_unique<Participant>(
                id, socket, "proxy", ParticipantDeps{.crs_cache = crs_cache}));
  }

  supplychain::DistributionConfig dist;
  dist.initial = "v0";
  dist.products = supplychain::make_products(1, 1, 2);
  dist.seed = 42;
  const auto truth = supplychain::run_distribution(graph, dist);
  for (const ParticipantId& id : truth.involved) {
    Participant& p = *participants.at(id);
    p.load_database(truth.databases.at(id));
    TaskSetup setup;
    setup.task_id = "task-1";
    setup.initial = dist.initial;
    setup.involved = truth.involved;
    for (const auto& [parent, children] : truth.used_edges) {
      if (parent == id) setup.children.assign(children.begin(), children.end());
      if (children.count(id) > 0) setup.parents.push_back(parent);
    }
    for (const auto& [product, path] : truth.paths) {
      for (std::size_t i = 0; i + 1 < path.size(); ++i) {
        if (path[i] == id) setup.shipments[product] = path[i + 1];
      }
    }
    p.begin_task(setup);
  }
  participants.at(dist.initial)->initiate_task("task-1");
  // Everyone shares one transport, so the whole phase short-circuits
  // through the local loopback queue — pump until the list lands.
  const std::uint64_t setup_deadline = socket.now() + 30000;
  while (proxy.task_list("task-1") == nullptr &&
         socket.now() < setup_deadline) {
    socket.poll(10);
  }
  ASSERT_NE(proxy.task_list("task-1"), nullptr);

  const supplychain::ProductId product = dist.products[0];
  const auto& path = truth.paths.at(product);
  ASSERT_GE(path.size(), 2u);
  const std::string victim = path[1];
  socket.unregister_node(victim);

  const std::uint64_t refused_before =
      obs::metric("net.retransmit.refused").value();
  const std::uint64_t t0 = socket.now();
  const QueryOutcome outcome =
      proxy.run_query(product, ProductQuality::kGood);
  const std::uint64_t elapsed = socket.now() - t0;

  EXPECT_FALSE(outcome.complete);
  EXPECT_TRUE(outcome.has_violation(victim, ViolationType::kNoResponse));
  EXPECT_GE(obs::metric("net.retransmit.refused").value() - refused_before,
            static_cast<std::uint64_t>(config.max_retries - 1));
  // Old behavior: (max_retries + 1) timeouts = 2400 ms of silence. New:
  // one armed timeout, then the refused redials burn the budget inline.
  EXPECT_LT(elapsed, 1800u)
      << "dead-peer detection must not wait out every retry timer";
}

}  // namespace
}  // namespace desword::protocol
