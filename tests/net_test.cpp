#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "common/error.h"
#include "net/network.h"
#include "obs/metrics.h"

namespace desword::net {
namespace {

TEST(NetworkTest, DeliversMessages) {
  Network net;
  std::vector<std::string> received;
  net.register_node("a", [](const Envelope&) {});
  net.register_node("b", [&](const Envelope& env) {
    received.push_back(env.type + ":" + string_of(env.payload));
  });
  net.send("a", "b", "hello", bytes_of("x"));
  net.send("a", "b", "hello", bytes_of("y"));
  EXPECT_EQ(net.run(), 2u);
  EXPECT_EQ(received, (std::vector<std::string>{"hello:x", "hello:y"}));
}

TEST(NetworkTest, DeliversInSendOrder) {
  // The network is a lossless FIFO: every frame takes one tick, and a frame
  // a handler queues goes behind the frames already in flight.
  Network net;
  std::vector<std::pair<std::string, std::uint64_t>> order;
  net.register_node("a", [](const Envelope&) {});
  net.register_node("b", [&](const Envelope& env) {
    order.emplace_back(env.type, env.deliver_at);
    if (env.type == "first") net.send("a", "b", "from-handler", {});
  });
  net.send("a", "b", "first", {});
  net.send("a", "b", "second", {});
  net.send("a", "b", "third", {});
  EXPECT_EQ(net.run(), 4u);
  EXPECT_EQ(order, (std::vector<std::pair<std::string, std::uint64_t>>{
                       {"first", 1}, {"second", 1}, {"third", 1},
                       {"from-handler", 2}}));
  EXPECT_EQ(net.now(), 2u);
}

TEST(NetworkTest, HandlersCanReply) {
  Network net;
  std::string got;
  net.register_node("client", [&](const Envelope& env) {
    got = string_of(env.payload);
  });
  net.register_node("server", [&](const Envelope& env) {
    net.send("server", env.from, "pong", env.payload);
  });
  net.send("client", "server", "ping", bytes_of("42"));
  net.run();
  EXPECT_EQ(got, "42");
}

TEST(NetworkTest, ByteAccounting) {
  Network net;
  net.register_node("a", [](const Envelope&) {});
  net.register_node("b", [](const Envelope&) {});
  net.send("a", "b", "m", Bytes(100, 0));
  net.send("a", "b", "m", Bytes(28, 0));
  net.run();
  EXPECT_EQ(net.stats("a", "b").bytes_sent, 128u);
  EXPECT_EQ(net.total_stats().bytes_sent, 128u);
}

TEST(NetworkTest, UnknownRecipientDropsAndCounts) {
  // A crashed / never-registered peer must not take the sender down: the
  // message is silently dropped and shows up in the drop counter. The
  // sender's retransmission and no-response
  // machinery deal with the silence.
  Network net;
  net.register_node("a", [](const Envelope&) {});
  EXPECT_NO_THROW(net.send("a", "ghost", "m", Bytes(7, 0)));
  EXPECT_EQ(net.run(), 0u);
  EXPECT_EQ(net.stats("a", "ghost").messages_sent, 1u);
  EXPECT_EQ(net.stats("a", "ghost").messages_dropped, 1u);
  EXPECT_EQ(net.stats("a", "ghost").bytes_sent, 7u);
  EXPECT_EQ(net.total_stats().messages_dropped, 1u);
}

TEST(NetworkTest, DuplicateRegistrationThrows) {
  Network net;
  net.register_node("a", [](const Envelope&) {});
  EXPECT_THROW(net.register_node("a", [](const Envelope&) {}), Error);
}

TEST(NetworkTest, UnregisteredReceiverLosesMessage) {
  Network net;
  int delivered = 0;
  net.register_node("a", [](const Envelope&) {});
  net.register_node("b", [&](const Envelope&) { ++delivered; });
  const std::uint64_t dropped_before = obs::metric("net.frame.dropped").value();
  net.send("a", "b", "m", {});
  net.unregister_node("b");
  net.run();
  EXPECT_EQ(delivered, 0);
  // The in-flight loss is counted, so sent - dropped is still deliveries.
  EXPECT_EQ(net.stats("a", "b").messages_sent, 1u);
  EXPECT_EQ(net.stats("a", "b").messages_dropped, 1u);
  EXPECT_EQ(obs::metric("net.frame.dropped").value() - dropped_before, 1u);
}

TEST(NetworkTest, MaxStepsBoundsDelivery) {
  Network net;
  net.register_node("a", [](const Envelope&) {});
  net.register_node("b", [](const Envelope&) {});
  for (int i = 0; i < 5; ++i) net.send("a", "b", "m", {});
  EXPECT_EQ(net.run(2), 2u);
  EXPECT_EQ(net.pending(), 3u);
  net.run();
  EXPECT_EQ(net.pending(), 0u);
}

}  // namespace
}  // namespace desword::net
