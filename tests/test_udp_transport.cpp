// UdpTransport + UdpSocketSet + SwarmRunner over real loopback sockets.
// Everything binds ephemeral kernel-assigned ports (port 0), so the suite is
// parallel-safe; on platforms without the socket backend every test skips.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#if defined(__linux__)
#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#endif

#include "net/swarm_runner.hpp"
#include "net/udp_socket.hpp"
#include "net/udp_transport.hpp"
#include "sim/rng.hpp"

namespace {

using namespace ag;
using net::Gf256Packet;

#define REQUIRE_SOCKETS()                                          \
  if (!net::UdpSocketSet::available()) {                           \
    GTEST_SKIP() << "UDP socket backend unavailable on this OS";   \
  }

struct Received {
  net::NodeId from, to;
  Gf256Packet pkt;
};

// Every frame these tests send is tagged generation 0.
struct Collector {
  std::vector<Received>* out;
  void operator()(net::NodeId from, net::NodeId to, std::uint32_t generation,
                  const Gf256Packet& p) const {
    EXPECT_EQ(generation, 0u);
    out->push_back({from, to, p});
  }
};

Gf256Packet make_packet(std::size_t k, std::size_t len, std::uint64_t seed) {
  sim::Rng rng(seed);
  Gf256Packet p;
  p.coeffs.resize(k);
  p.payload.resize(len);
  for (auto& c : p.coeffs) c = static_cast<std::uint8_t>(rng.uniform(256));
  for (auto& s : p.payload) s = static_cast<std::uint8_t>(rng.uniform(256));
  return p;
}

// Two local nodes, one transport: send 0 -> 1 over the kernel and drain.
TEST(UdpTransport, LoopbackSendDrainDeliversVerbatim) {
  REQUIRE_SOCKETS();
  const std::size_t k = 4, len = 3;
  net::UdpSocketSet socks;
  ASSERT_TRUE(socks.open_loopback(2));
  net::EndpointTable table(2);
  for (std::size_t v = 0; v < 2; ++v) {
    table.set(static_cast<net::NodeId>(v), {net::kLoopbackAddr, socks.port(v)});
  }
  net::UdpTransport<Gf256Packet> t(socks, table, {0, 1}, k, len);

  const Gf256Packet sent = make_packet(k, len, 1);
  t.send_generation(0, 1, 0, sent);
  ASSERT_TRUE(t.wait_readable(2000));
  std::vector<Received> got;
  t.drain_generations(Collector{&got});
  ASSERT_EQ(got.size(), 1u);
  EXPECT_EQ(got[0].from, 0u);
  EXPECT_EQ(got[0].to, 1u);
  EXPECT_EQ(got[0].pkt.coeffs, sent.coeffs);
  EXPECT_EQ(got[0].pkt.payload, sent.payload);

  const auto& s = t.stats();
  EXPECT_EQ(s.messages_sent, 1u);
  EXPECT_EQ(s.messages_delivered, 1u);
  EXPECT_EQ(s.decode_failures, 0u);
  EXPECT_EQ(s.recv_errors, 0u) << "clean loopback exchange must not count errors";
  EXPECT_GT(s.bytes_sent, net::kHeaderBytes);
  EXPECT_EQ(s.bytes_sent, s.bytes_received);
}

#if defined(__linux__)
// A hard receive failure must be counted, not conflated with "socket is
// dry".  Deterministic recipe: connect() the UDP socket to a port that was
// just closed, send into it, and the kernel queues the ICMP
// port-unreachable as ECONNREFUSED on the next recvfrom (connected UDP
// sockets report bounced sends; Linux loopback generates the ICMP
// synchronously).
TEST(UdpSocketSet, HardRecvErrorsCountedNotSilentlyDry) {
  REQUIRE_SOCKETS();
  net::UdpSocketSet socks;
  ASSERT_TRUE(socks.open_loopback(1));
  EXPECT_EQ(socks.recv_errors(), 0u);

  // Reserve a loopback port, then free it so nothing listens there.
  std::uint16_t dead_port = 0;
  {
    net::UdpSocketSet tmp;
    ASSERT_TRUE(tmp.open_loopback(1));
    dead_port = tmp.port(0);
  }
  sockaddr_in dst{};
  dst.sin_family = AF_INET;
  dst.sin_addr.s_addr = htonl(net::kLoopbackAddr);
  dst.sin_port = htons(dead_port);
  ASSERT_EQ(::connect(socks.fd(0), reinterpret_cast<const sockaddr*>(&dst),
                      sizeof(dst)),
            0);
  const std::uint8_t probe[4] = {1, 2, 3, 4};
  ASSERT_EQ(::send(socks.fd(0), probe, sizeof(probe), 0),
            static_cast<ssize_t>(sizeof(probe)));

  // The pending error makes the socket "readable" (EPOLLERR); recv_one must
  // consume it as an error, deliver nothing, and count it.
  net::UdpSocketSet::Datagram meta;
  std::vector<std::uint8_t> buf;
  bool got = false;
  for (int i = 0; i < 50 && socks.recv_errors() == 0; ++i) {
    socks.wait_readable(100);
    got = socks.recv_one(meta, buf);
  }
  EXPECT_FALSE(got);
  EXPECT_GE(socks.recv_errors(), 1u);
}
#endif  // __linux__

// Hostile datagrams: garbage, shape mismatch, and unknown senders are all
// counted and dropped; none reach the protocol and nothing crashes.
TEST(UdpTransport, MalformedAndForeignDatagramsCountedNotDelivered) {
  REQUIRE_SOCKETS();
  const std::size_t k = 4, len = 3;
  net::UdpSocketSet socks;
  ASSERT_TRUE(socks.open_loopback(2));
  net::EndpointTable table(2);
  for (std::size_t v = 0; v < 2; ++v) {
    table.set(static_cast<net::NodeId>(v), {net::kLoopbackAddr, socks.port(v)});
  }
  net::UdpTransport<Gf256Packet> t(socks, table, {0, 1}, k, len);

  // 1. Raw garbage from a known endpoint (node 0's socket).
  const std::uint8_t junk[5] = {1, 2, 3, 4, 5};
  ASSERT_TRUE(socks.send_to(0, table.of(1), junk, sizeof(junk)));
  // 2. A well-formed frame of the WRONG shape (k+1) from node 0.
  std::vector<std::uint8_t> frame;
  net::encode_into(make_packet(k + 1, len, 2), k + 1, frame);
  ASSERT_TRUE(socks.send_to(0, table.of(1), frame.data(), frame.size()));
  // 3. A well-formed frame from a STRANGER socket not in the table.
  net::UdpSocketSet stranger;
  ASSERT_TRUE(stranger.open_loopback(1));
  net::encode_into(make_packet(k, len, 3), k, frame);
  ASSERT_TRUE(stranger.send_to(0, table.of(1), frame.data(), frame.size()));

  std::vector<Received> got;
  Collector c{&got};
  for (int i = 0; i < 50 && t.stats().decode_failures < 3; ++i) {
    t.wait_readable(100);
    t.drain_generations(c);
  }
  EXPECT_TRUE(got.empty());
  EXPECT_EQ(t.stats().decode_failures, 3u);
  EXPECT_EQ(t.stats().messages_delivered, 0u);
}

TEST(UdpTransport, ControlFramesRideTheSideInbox) {
  REQUIRE_SOCKETS();
  net::UdpSocketSet socks;
  ASSERT_TRUE(socks.open_loopback(2));
  net::EndpointTable table(2);
  for (std::size_t v = 0; v < 2; ++v) {
    table.set(static_cast<net::NodeId>(v), {net::kLoopbackAddr, socks.port(v)});
  }
  net::UdpTransport<Gf256Packet> t(socks, table, {0, 1}, 4, 3);

  net::ControlFrame cf;
  cf.sender = 0;
  cf.data = {0x0f, 0xf0};
  t.send_control(0, 1, cf);

  std::vector<Received> got;
  Collector c{&got};
  std::vector<net::ControlFrame> ctrl;
  for (int i = 0; i < 50 && ctrl.empty(); ++i) {
    t.wait_readable(100);
    t.drain_generations(c);
    auto batch = t.take_control();
    ctrl.insert(ctrl.end(), batch.begin(), batch.end());
  }
  EXPECT_TRUE(got.empty()) << "control frames must not reach the protocol";
  ASSERT_EQ(ctrl.size(), 1u);
  EXPECT_EQ(ctrl[0].sender, 0u);
  EXPECT_EQ(ctrl[0].data, cf.data);
  EXPECT_EQ(t.stats().messages_delivered, 0u);
}

// The synthetic channel drops BEFORE the sendto: loss injection works over
// real sockets too, and the drop accounting matches SimTransport's.
TEST(UdpTransport, SyntheticChannelLossAppliesBeforeTheWire) {
  REQUIRE_SOCKETS();
  net::UdpSocketSet socks;
  ASSERT_TRUE(socks.open_loopback(2));
  net::EndpointTable table(2);
  for (std::size_t v = 0; v < 2; ++v) {
    table.set(static_cast<net::NodeId>(v), {net::kLoopbackAddr, socks.port(v)});
  }
  net::UdpTransport<Gf256Packet> t(socks, table, {0, 1}, 4, 3);
  t.set_channel(sim::Channel::lossy(1.0, 1));  // drop everything

  const Gf256Packet pkt = make_packet(4, 3, 4);
  std::vector<Received> got;
  Collector c{&got};
  for (int i = 0; i < 10; ++i) t.send_generation(0, 1, 0, pkt);
  t.wait_readable(50);
  t.drain_generations(c);
  EXPECT_TRUE(got.empty());
  EXPECT_EQ(t.stats().messages_sent, 10u);
  EXPECT_EQ(t.stats().messages_dropped, 10u);
  EXPECT_EQ(t.stats().bytes_sent, 0u);
}

// Runs the swarm driver with all cfg.n nodes on one in-process socket set.
net::SwarmRunnerReport run_in_process(const net::SwarmRunnerConfig& cfg) {
  net::UdpSocketSet socks;
  if (!socks.open_loopback(cfg.n)) {
    ADD_FAILURE() << "cannot bind " << cfg.n << " loopback sockets";
    return {};
  }
  net::EndpointTable table(cfg.n);
  std::vector<net::NodeId> local;
  for (std::size_t v = 0; v < cfg.n; ++v) {
    table.set(static_cast<net::NodeId>(v), {net::kLoopbackAddr, socks.port(v)});
    local.push_back(static_cast<net::NodeId>(v));
  }
  net::UdpTransport<Gf256Packet> t(socks, table, local, cfg.stream.generation_size,
                                   cfg.stream.payload_len);
  return net::run_stream_swarm(t, cfg);
}

// Full SwarmRunner in one process: 8 nodes on one socket set, single-source
// dissemination to full rank everywhere with byte-verified payloads -- the
// one-shot file as one generation of k = 8 blocks, all injected at once.
TEST(SwarmRunner, InProcessLoopbackSwarmCompletesAndVerifies) {
  REQUIRE_SOCKETS();
  net::SwarmRunnerConfig cfg;
  cfg.n = 8;
  cfg.stream.generation_size = 8;
  cfg.stream.window = 1;
  cfg.stream.total_messages = 8;
  cfg.stream.inject_per_round = 8;
  cfg.stream.payload_len = 8;
  cfg.stream.source = 0;
  cfg.seed = 20260807;
  cfg.timeout_ms = 30000;

  const net::SwarmRunnerReport rep = run_in_process(cfg);
  EXPECT_TRUE(rep.completed);
  EXPECT_TRUE(rep.payload_ok);
  EXPECT_GT(rep.ticks, 0u);
  EXPECT_EQ(rep.transport.decode_failures, 0u);
  EXPECT_GT(rep.transport.messages_delivered, 0u);
}

// Several generations through a window of 2 with a ragged last generation
// (14 = 4 + 4 + 4 + 2 messages), under every scheduling policy: every
// local node delivers every real message, byte-verified, in order.
TEST(SwarmRunner, InProcessMultiGenerationStreamDeliversUnderEveryPolicy) {
  REQUIRE_SOCKETS();
  for (const auto policy : {coding::GenPolicy::Sequential, coding::GenPolicy::RoundRobin,
                            coding::GenPolicy::RarestFirst}) {
    SCOPED_TRACE(std::string(coding::to_string(policy)));
    net::SwarmRunnerConfig cfg;
    cfg.n = 8;
    cfg.stream.generation_size = 4;
    cfg.stream.window = 2;
    cfg.stream.policy = policy;
    cfg.stream.total_messages = 14;
    cfg.stream.payload_len = 8;
    cfg.seed = 20260807;
    cfg.timeout_ms = 30000;

    const net::SwarmRunnerReport rep = run_in_process(cfg);
    EXPECT_TRUE(rep.completed);
    EXPECT_TRUE(rep.payload_ok);
    EXPECT_EQ(rep.delivered_messages, 14u * 8u);
    EXPECT_EQ(rep.transport.decode_failures, 0u);
  }
}

}  // namespace
