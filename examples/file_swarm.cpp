// P2P file swarm: one seed holds a file split into k blocks; peers gossip
// RLNC combinations until everyone can reassemble the file -- the paper's
// k-dissemination problem with a single source, and the original motivation
// for algebraic gossip in Deb et al.
//
// Two drivers share this binary, selected by argv[1] or AG_TRANSPORT:
//
//   (default / AG_TRANSPORT=sim)  Deterministic simulation: 96 peers on a
//     sparse random-regular overlay, RLNC vs the classic "random block"
//     uncoded swarm, with byte-for-byte reassembly at the farthest peer.
//
//   swarm / AG_TRANSPORT=udp, stream   A REAL multi-process swarm on
//     loopback UDP: the launcher binds one socket per node (port 0, so the
//     kernel assigns free ports racelessly), forks worker processes that
//     inherit their nodes' descriptors, and every worker runs
//     net::run_stream_swarm over a net::UdpTransport -- wire
//     frames carrying generation ids, epoll, gossiped per-node delivery
//     watermarks -- until every node has delivered, byte-verified, every
//     message.  `swarm` is the one-shot file: one generation of k blocks
//     injected at once (window 1).  `stream` injects a message stream
//     coded in generations (src/coding/) with a bounded in-flight window.
//       file_swarm swarm [--n 16] [--k 32] [--payload 32] [--procs 4]
//                        [--seed 7] [--timeout-ms 60000]
//       file_swarm stream [--n 8] [--gen 16] [--window 4]
//                         [--policy sequential|round_robin|rarest_first]
//                         [--payload 32] [--messages 96] [--rate 1]
//                         [--procs 4] [--seed 7] [--timeout-ms 60000]
//     Numeric flags take plain base-10 digits; anything else (empty, signs,
//     trailing junk, overflow) prints usage and exits 2.
#include <algorithm>
#include <cerrno>
#include <cinttypes>
#include <climits>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "core/decoders.hpp"
#include "core/dissemination.hpp"
#include "core/uncoded_gossip.hpp"
#include "core/uniform_ag.hpp"
#include "graph/algorithms.hpp"
#include "graph/generators.hpp"
#include "net/swarm_runner.hpp"
#include "net/udp_socket.hpp"
#include "net/udp_transport.hpp"
#include "sim/engine.hpp"

#if defined(__linux__)
#include <sys/wait.h>
#include <unistd.h>
#endif

namespace {

int run_sim_demo() {
  using namespace ag;

  const std::size_t peers = 96;
  const std::size_t degree = 4;   // sparse overlay: each peer knows 4 others
  const std::size_t k = 64;       // file blocks
  const std::size_t block = 32;   // bytes per block (GF(256) symbols)

  const graph::Graph overlay = graph::make_random_regular(peers, degree, 99);
  std::printf("swarm: %zu peers, %zu-regular overlay, D=%u\n", peers, degree,
              graph::diameter(overlay));
  std::printf("file: %zu blocks x %zu bytes, seeded at peer 0\n\n", k, block);

  core::AgConfig cfg;
  cfg.payload_len = block;
  sim::Rng rng(7);

  core::UniformAG<core::Gf256Decoder> coded(overlay, core::single_source(k, 0), cfg);
  const auto coded_res = sim::run(coded, rng, 1000000);

  core::UncodedConfig ucfg;
  core::UncodedGossip uncoded(overlay, core::single_source(k, 0), ucfg);
  const auto uncoded_res = sim::run(uncoded, rng, 1000000);

  std::printf("%-30s %8llu rounds\n", "RLNC swarm complete in",
              static_cast<unsigned long long>(coded_res.rounds));
  std::printf("%-30s %8llu rounds\n", "uncoded swarm complete in",
              static_cast<unsigned long long>(uncoded_res.rounds));
  std::printf("%-30s %8.2f\n", "coding gain",
              static_cast<double>(uncoded_res.rounds) /
                  static_cast<double>(coded_res.rounds));

  // Reassemble the file at the peer farthest from the seed and verify.
  const auto dist = graph::bfs_distances(overlay, 0);
  graph::NodeId far = 0;
  for (graph::NodeId v = 0; v < peers; ++v) {
    if (dist[v] != graph::kUnreachable && dist[v] > dist[far]) far = v;
  }
  std::vector<std::uint8_t> file;
  file.reserve(k * block);
  for (std::size_t i = 0; i < k; ++i) {
    const auto blk = coded.swarm().node(far).decoded_message(i);
    file.insert(file.end(), blk.begin(), blk.end());
  }
  std::vector<std::uint8_t> want;
  want.reserve(k * block);
  for (std::size_t i = 0; i < k; ++i) {
    const auto blk = core::RlncSwarm<core::Gf256Decoder>::expected_payload(i, block);
    want.insert(want.end(), blk.begin(), blk.end());
  }
  const bool ok = file == want;
  std::printf("\nreassembly at farthest peer %u (%u hops from seed): %s (%zu bytes)\n",
              far, dist[far], ok ? "OK" : "FAILED", file.size());
  std::printf("lower bound sanity: k/2 = %zu rounds (Theorem 3 counting argument)\n",
              k / 2);
  return ok ? 0 : 1;
}

// Both UDP subcommands run net::run_stream_swarm.  `swarm` is the paper's
// one-shot file: one generation of k blocks, all injected on the first tick.
struct SwarmArgs {
  bool stream = false;
  std::uint64_t n = 16;
  std::uint64_t gen = 32;        // messages per generation (`swarm --k`)
  std::uint64_t window = 1;      // generations in flight
  ag::coding::GenPolicy policy = ag::coding::GenPolicy::Sequential;
  std::uint64_t payload = 32;
  std::uint64_t messages = 32;
  std::uint64_t rate = 32;       // messages injected per tick at the source
  std::uint64_t procs = 4;
  std::uint64_t seed = 7;
  std::uint64_t timeout_ms = 60000;
};

SwarmArgs stream_defaults() {
  SwarmArgs a;
  a.stream = true;
  a.n = 8;
  a.gen = 16;
  a.window = 4;
  a.messages = 96;
  a.rate = 1;
  return a;
}

// Strict base-10 count: digits only (no sign, no whitespace), no trailing
// junk, no overflow.
bool parse_count(const char* s, std::uint64_t& out) {
  if (*s < '0' || *s > '9') return false;
  errno = 0;
  char* end = nullptr;
  const unsigned long long v = std::strtoull(s, &end, 10);
  if (errno == ERANGE || *end != '\0') return false;
  out = v;
  return true;
}

bool parse_swarm_args(int argc, char** argv, SwarmArgs& a) {
  struct Flag {
    const char* name;
    std::uint64_t* value;
  };
  std::vector<Flag> flags = {{"--n", &a.n},
                             {"--payload", &a.payload},
                             {"--procs", &a.procs},
                             {"--seed", &a.seed},
                             {"--timeout-ms", &a.timeout_ms}};
  if (a.stream) {
    flags.insert(flags.end(), {{"--gen", &a.gen},
                               {"--window", &a.window},
                               {"--messages", &a.messages},
                               {"--rate", &a.rate}});
  } else {
    flags.push_back({"--k", &a.gen});
  }
  for (int i = 0; i < argc; i += 2) {
    if (i + 1 >= argc) return false;
    const std::string key = argv[i];
    const char* val = argv[i + 1];
    if (a.stream && key == "--policy") {
      if (!ag::coding::parse_policy(val, a.policy)) return false;
      continue;
    }
    const auto f = std::find_if(flags.begin(), flags.end(),
                                [&](const Flag& fl) { return key == fl.name; });
    if (f == flags.end() || !parse_count(val, *f->value)) return false;
  }
  if (!a.stream) a.messages = a.rate = a.gen;
  return a.n >= 2 && a.gen >= 1 && a.window >= 1 && a.rate >= 1 &&
         a.procs >= 1 && a.procs <= a.n && a.timeout_ms <= INT_MAX;
}

#if defined(__linux__)

// One worker's life: adopt its nodes' inherited sockets, run the swarm to
// cluster-wide completion, exit 0 iff done and every message verified.
[[noreturn]] void worker_main(ag::net::UdpSocketSet& parent_set,
                              const ag::net::EndpointTable& table,
                              const SwarmArgs& a, std::size_t worker) {
  using namespace ag;
  std::vector<net::NodeId> mine;
  std::vector<int> fds;
  for (std::size_t v = 0; v < a.n; ++v) {
    if (v % a.procs == worker) {
      mine.push_back(static_cast<net::NodeId>(v));
      fds.push_back(parent_set.fd(v));
    } else {
      ::close(parent_set.fd(v));
    }
  }
  parent_set.forget_sockets();

  net::UdpSocketSet socks;
  if (!socks.adopt(fds)) _exit(2);
  net::UdpTransport<net::Gf256Packet> transport(socks, table, mine, a.gen, a.payload);
  net::SwarmRunnerConfig cfg;
  cfg.n = a.n;
  cfg.stream.generation_size = a.gen;
  cfg.stream.window = a.window;
  cfg.stream.policy = a.policy;
  cfg.stream.payload_len = a.payload;
  cfg.stream.inject_per_round = a.rate;
  cfg.stream.total_messages = a.messages;
  cfg.seed = a.seed;
  cfg.timeout_ms = static_cast<int>(a.timeout_ms);
  const net::SwarmRunnerReport rep = net::run_stream_swarm(transport, cfg);
  const sim::TransportStats& t = rep.transport;
  std::printf("worker %zu (%zu nodes): %s in %" PRIu64 " ticks, %" PRIu64
              " messages delivered, %" PRIu64 " stale frames\n"
              "worker %zu stats: %" PRIu64 " delivered, %" PRIu64 " dropped, %" PRIu64
              " decode failures, %" PRIu64 " recv errors\n",
              worker, mine.size(), rep.ok() ? "stream delivered+verified" : "FAILED",
              rep.ticks, rep.delivered_messages, rep.stale_packets, worker,
              t.messages_delivered, t.messages_dropped, t.decode_failures,
              t.recv_errors);
  std::fflush(stdout);
  _exit(rep.ok() ? 0 : 1);
}

int run_udp_swarm(const SwarmArgs& a) {
  using namespace ag;
  net::UdpSocketSet all;
  if (!all.open_loopback(a.n)) {
    std::fprintf(stderr, "file_swarm: cannot bind %" PRIu64 " loopback sockets\n", a.n);
    return 1;
  }
  net::EndpointTable table(a.n);
  for (std::size_t v = 0; v < a.n; ++v) {
    const std::uint16_t port = all.port(v);
    if (port == 0) {
      std::fprintf(stderr, "file_swarm: getsockname failed for node %zu\n", v);
      return 1;
    }
    table.set(static_cast<net::NodeId>(v), net::Endpoint{net::kLoopbackAddr, port});
  }
  std::printf("udp %s: n=%" PRIu64 " nodes over %" PRIu64 " processes, %" PRIu64
              " messages x %" PRIu64 " bytes in generations of %" PRIu64
              " (window %" PRIu64 ", %s), GF(256), loopback ports %u..\n",
              a.stream ? "stream" : "swarm", a.n, a.procs, a.messages, a.payload, a.gen,
              a.window, coding::to_string(a.policy).data(), table.of(0).port);
  std::fflush(stdout);

  std::vector<pid_t> kids;
  for (std::size_t w = 0; w < a.procs; ++w) {
    const pid_t pid = ::fork();
    if (pid < 0) {
      std::fprintf(stderr, "file_swarm: fork failed\n");
      return 1;
    }
    if (pid == 0) worker_main(all, table, a, w);  // never returns
    kids.push_back(pid);
  }
  all.close_all();  // workers own their descriptors now

  bool ok = true;
  for (const pid_t pid : kids) {
    int status = 0;
    if (::waitpid(pid, &status, 0) != pid ||
        !WIFEXITED(status) || WEXITSTATUS(status) != 0) {
      ok = false;
    }
  }
  std::printf("udp %s: %s\n", a.stream ? "stream" : "swarm",
              ok ? "all workers delivered the stream in order" : "FAILED");
  return ok ? 0 : 1;
}

#else

int run_udp_swarm(const SwarmArgs&) {
  std::fprintf(stderr, "file_swarm: udp swarm modes require Linux\n");
  return 1;
}

#endif

}  // namespace

int main(int argc, char** argv) {
  const char* env = std::getenv("AG_TRANSPORT");
  const bool want_stream = argc > 1 && std::strcmp(argv[1], "stream") == 0;
  const bool want_swarm = argc > 1 && std::strcmp(argv[1], "swarm") == 0;
  if (!want_stream && !want_swarm && (env == nullptr || std::strcmp(env, "udp") != 0)) {
    return run_sim_demo();
  }

  SwarmArgs a = want_stream ? stream_defaults() : SwarmArgs{};
  const int flag_start = want_stream || want_swarm ? 2 : 1;
  if (!parse_swarm_args(argc - flag_start, argv + flag_start, a)) {
    std::fprintf(stderr,
                 a.stream
                     ? "usage: file_swarm stream [--n N] [--gen G] [--window W]\n"
                       "                         [--policy sequential|round_robin|"
                       "rarest_first]\n"
                       "                         [--payload BYTES] [--messages M]\n"
                       "                         [--rate R] [--procs P] [--seed S]\n"
                       "                         [--timeout-ms MS]\n"
                     : "usage: file_swarm swarm [--n N] [--k K] [--payload BYTES]\n"
                       "                        [--procs P] [--seed S] "
                       "[--timeout-ms MS]\n");
    return 2;
  }
  return run_udp_swarm(a);
}
