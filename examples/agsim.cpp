// agsim -- command-line driver for the gossip simulator.
//
// Run any protocol of the library on any built-in graph family (or a file)
// without writing code.  Prints a one-line CSV-ish record per run plus a
// summary, so it slots into scripts and notebooks.
//
// Usage examples:
//   agsim --graph barbell --n 64 --protocol tag-brr --k 64 --runs 10
//   agsim --graph grid --rows 8 --cols 16 --protocol uniform-ag --k 32
//         --time async --dir push --seed 7   (one line)
//   agsim --graph complete --n 32 --protocol uncoded --k 32
//   agsim --graph barbell --n 32 --protocol tag-is --k 10 --dot tree.dot
//   agsim --edge-list my_graph.txt --protocol uniform-ag --k 8
//   agsim --graph complete --n 100000 --protocol uniform-ag --k 32
//         --rank-only --implicit --runs 1    (large-n scaling path)
//
// Protocols: uniform-ag | tag-brr | tag-unif | tag-is | uncoded | brr | is
// (brr / is run the spanning-tree protocols standalone).
//
// Decoder switches (uniform-ag only):
//   --gf2        bit-packed GF(2) full decoder instead of GF(256)
//   --rank-only  coefficient-only rank tracker over GF(2) in a pooled
//                structure-of-arrays store: no payload arena, the memory
//                footprint that makes n >= 100k runs possible.  Stopping
//                rounds are EXACTLY those of --gf2 on the same seed.
//   --implicit   serve complete/barbell topologies implicitly (O(1) memory,
//                no edge materialisation); required for clique families at
//                n where the Theta(n^2) edge set cannot be stored.
//
// Byzantine scenarios (uniform-ag and uncoded):
//   --byzantine F   a fraction F of nodes (at least one) forge every message
//                   they originate; insert-time verification is armed
//                   automatically.  AG_BYZANTINE=F is the env equivalent.
//   --attack M      rank-waste | malformed | garbage | equivocate (default)
//   Note a message initially owned ONLY by a Byzantine node is unrecoverable
//   (its owner lies on every send); use --placement source with an honest
//   source when you need completion rather than inflation measurements.
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/byzantine.hpp"
#include "core/decoders.hpp"
#include "core/dissemination.hpp"
#include "core/sharded_round.hpp"
#include "core/stp_policies.hpp"
#include "core/stp_protocol.hpp"
#include "core/swarm_storage.hpp"
#include "core/tag.hpp"
#include "core/uncoded_gossip.hpp"
#include "core/uniform_ag.hpp"
#include "graph/algorithms.hpp"
#include "graph/generators.hpp"
#include "graph/io.hpp"
#include "linalg/rank_tracker.hpp"
#include "sim/adversary.hpp"
#include "sim/engine.hpp"
#include "sim/topology.hpp"
#include "stats/summary.hpp"

namespace {

using namespace ag;

struct Options {
  std::string graph = "grid";
  std::string edge_list_path;
  std::size_t n = 64;
  std::size_t rows = 8, cols = 8;
  std::size_t cliques = 2;
  double er_p = 0.15;
  std::size_t reg_d = 4;
  std::string protocol = "uniform-ag";
  std::size_t k = 16;
  std::string time = "sync";
  std::string dir = "exchange";
  std::string placement = "uniform";  // uniform | all-to-all | source
  graph::NodeId source = 0;
  std::size_t payload = 0;
  double drop = 0.0;
  std::size_t runs = 5;
  std::uint64_t seed = 1;
  std::uint64_t max_rounds = 10000000;
  std::string dot_path;  // write the built spanning tree (TAG/STP runs)
  bool gf2 = false;        // uniform-ag over the bit-packed GF(2) decoder
  bool rank_only = false;  // uniform-ag over the pooled rank-only tracker
  bool implicit_topo = false;  // complete/barbell served without edge storage
  std::size_t shards = 0;   // --shards: intra-run sharded engine (0 = AG_SHARDS)
  bool shards_set = false;  // sharding switches engines, so it must be explicit
  double byzantine = 0.0;   // --byzantine: Byzantine node fraction (0 = off)
  bool byzantine_set = false;  // the flag wins over the AG_BYZANTINE env knob
  std::string attack = "equivocate";  // --attack: forgery family
  double radius = 0.3;      // --radius: geometric connection radius
  std::size_t pa_m = 2;     // --pa-m: preferential-attachment edges per node
};

[[noreturn]] void usage(const char* msg) {
  if (msg) std::fprintf(stderr, "agsim: %s\n\n", msg);
  std::fprintf(stderr,
               "usage: agsim [--graph FAMILY|--edge-list FILE] [family params]\n"
               "             --protocol P [--k K] [--time sync|async]\n"
               "             [--dir push|pull|exchange|broadcast]\n"
               "             [--placement uniform|all-to-all|source]\n"
               "             [--source NODE] [--payload SYMBOLS] [--drop P]\n"
               "             [--runs R] [--seed S] [--max-rounds M] [--dot FILE]\n"
               "             [--gf2] [--rank-only] [--implicit] [--shards S]\n"
               "             [--byzantine F] [--attack M]\n"
               "families : path cycle complete grid torus bintree star hypercube\n"
               "           barbell clique-chain lollipop er random-regular ring-chords\n"
               "           geometric (--radius R) pref-attach (--pa-m M)\n"
               "protocols: uniform-ag tag-brr tag-unif tag-is uncoded brr is\n"
               "scaling  : --gf2 (bit-packed decoder), --rank-only (no payload arena,\n"
               "           pooled storage; rounds == --gf2 exactly), --implicit\n"
               "           (complete/barbell without edge storage; uniform-ag only),\n"
               "           --shards S (intra-run sharded engine, uniform-ag sync only;\n"
               "           rounds are identical for every S, S=0 reads AG_SHARDS)\n"
               "byzantine: --byzantine F (fraction of forging nodes, at least one;\n"
               "           AG_BYZANTINE=F is the env equivalent; uniform-ag/uncoded,\n"
               "           arms insert-time verification), --attack rank-waste|\n"
               "           malformed|garbage|equivocate (default equivocate)\n");
  std::exit(2);
}

graph::Graph build_graph(const Options& o) {
  if (!o.edge_list_path.empty()) {
    std::ifstream in(o.edge_list_path);
    if (!in) usage("cannot open edge list file");
    try {
      return graph::from_edge_list(in);
    } catch (const std::invalid_argument& e) {
      usage(e.what());
    }
  }
  if (o.graph == "path") return graph::make_path(o.n);
  if (o.graph == "cycle") return graph::make_cycle(o.n);
  if (o.graph == "complete") return graph::make_complete(o.n);
  if (o.graph == "grid") return graph::make_grid(o.rows, o.cols);
  if (o.graph == "torus") return graph::make_torus(o.rows, o.cols);
  if (o.graph == "bintree") return graph::make_binary_tree(o.n);
  if (o.graph == "star") return graph::make_star(o.n);
  if (o.graph == "hypercube") {
    std::size_t dim = 0;
    while ((std::size_t{1} << dim) < o.n) ++dim;
    return graph::make_hypercube(dim);
  }
  if (o.graph == "barbell") return graph::make_barbell(o.n);
  if (o.graph == "clique-chain")
    return graph::make_clique_chain(o.cliques, o.n / o.cliques);
  if (o.graph == "lollipop") return graph::make_lollipop(o.n, o.n / 2);
  if (o.graph == "er") return graph::make_erdos_renyi(o.n, o.er_p, o.seed);
  if (o.graph == "random-regular")
    return graph::make_random_regular(o.n, o.reg_d, o.seed);
  if (o.graph == "ring-chords")
    return graph::make_ring_with_chords(o.n, o.n / 4, o.seed);
  if (o.graph == "geometric")
    return graph::make_random_geometric(o.n, o.radius, o.seed);
  if (o.graph == "pref-attach")
    return graph::make_preferential_attachment(o.n, o.pa_m, o.seed);
  usage("unknown graph family");
}

sim::AttackMode parse_attack(const std::string& s) {
  if (s == "rank-waste") return sim::AttackMode::RankWaste;
  if (s == "malformed") return sim::AttackMode::MalformedCoeffs;
  if (s == "garbage") return sim::AttackMode::GarbagePayload;
  if (s == "equivocate") return sim::AttackMode::Equivocate;
  usage("unknown --attack (rank-waste|malformed|garbage|equivocate)");
}

// Fraction-based membership: the per-scenario node draw comes from the
// adversary's own stream, so the honest protocol stream is untouched.
sim::AdversaryConfig byzantine_config(const Options& o) {
  sim::AdversaryConfig a;
  a.fraction = o.byzantine;
  a.mode = parse_attack(o.attack);
  a.seed = o.seed;
  return a;
}

core::Placement build_placement(const Options& o, std::size_t n, sim::Rng& rng) {
  if (o.placement == "all-to-all") return core::all_to_all(n);
  if (o.placement == "source") return core::single_source(o.k, o.source);
  return core::uniform_distinct(o.k, n, rng);
}

struct RunRecord {
  double rounds = 0;
  double tree_round = -1;
  double wire_mbits = 0;
  std::uint64_t forged = 0;    // sends whose content the adversary replaced
  std::uint64_t rejected = 0;  // receives the verification hook / guards refused
  bool decoded = true;
};

// The topology a uniform-ag run queries: implicit O(1) views for the clique
// families under --implicit, a StaticTopology over the built graph otherwise
// (g outlives the protocol; it lives in main).
std::unique_ptr<sim::TopologyView> make_view(const Options& o, const graph::Graph* g) {
  if (o.implicit_topo) {
    if (o.graph == "complete") return std::make_unique<sim::CompleteTopology>(o.n);
    if (o.graph == "barbell") return std::make_unique<sim::BarbellTopology>(o.n);
    usage("--implicit supports --graph complete|barbell");
  }
  return std::make_unique<sim::StaticTopology>(*g);
}

// One uniform-ag run over decoder D with storage policy Store.
template <typename D, typename Store = core::VectorNodeStore<D>>
RunRecord run_uniform_ag(const Options& o, std::unique_ptr<sim::TopologyView> topo,
                         std::size_t n, sim::Rng& rng, const core::AgConfig& cfg) {
  const auto placement = build_placement(o, n, rng);
  core::UniformAG<D, Store> proto(std::move(topo), placement, cfg);
  const sim::AdversarialTransport<typename D::packet_type>* tp = nullptr;
  if (o.byzantine > 0.0) {
    auto adv = std::make_shared<sim::Adversary>(n, byzantine_config(o));
    tp = core::attach_adversary<typename D::packet_type>(
        proto, std::move(adv),
        core::ByzantineShape{o.k, proto.swarm().node(0).payload_length()});
  }
  const auto res = sim::run(proto, rng, o.max_rounds);
  RunRecord rec;
  rec.rounds = static_cast<double>(res.rounds);
  rec.wire_mbits = proto.wire_bits() / 1e6;
  if (tp) rec.forged = tp->forged_sends();
  rec.rejected = proto.swarm().malformed_receives();
  rec.decoded = res.completed;
  return rec;
}

// One uniform-ag run on the intra-run sharded engine (core/sharded_round.hpp).
// Stopping rounds are identical for every shard count, so --shards changes
// wall-clock only; note the engine is its own stream reference (shards=1),
// not stream-compatible with the classic serial engine above.
template <typename D, typename Store = core::VectorNodeStore<D>>
RunRecord run_sharded_uniform_ag(const Options& o,
                                 std::unique_ptr<sim::TopologyView> topo,
                                 std::size_t n, sim::Rng& rng,
                                 const core::AgConfig& cfg, std::uint64_t run) {
  const auto placement = build_placement(o, n, rng);
  core::ShardedUniformAG<D, Store> proto(std::move(topo), placement, cfg, o.seed,
                                         run, o.shards);
  const auto res = proto.run(o.max_rounds);
  RunRecord rec;
  rec.rounds = static_cast<double>(res.rounds);
  rec.wire_mbits = proto.wire_bits() / 1e6;
  rec.decoded = res.completed;
  return rec;
}

Options parse(int argc, char** argv) {
  Options o;
  auto need = [&](int& i) -> const char* {
    if (i + 1 >= argc) usage("missing value for option");
    return argv[++i];
  };
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "--graph") o.graph = need(i);
    else if (a == "--edge-list") o.edge_list_path = need(i);
    else if (a == "--n") o.n = std::stoul(need(i));
    else if (a == "--rows") o.rows = std::stoul(need(i));
    else if (a == "--cols") o.cols = std::stoul(need(i));
    else if (a == "--cliques") o.cliques = std::stoul(need(i));
    else if (a == "--er-p") o.er_p = std::stod(need(i));
    else if (a == "--reg-d") o.reg_d = std::stoul(need(i));
    else if (a == "--protocol") o.protocol = need(i);
    else if (a == "--k") o.k = std::stoul(need(i));
    else if (a == "--time") o.time = need(i);
    else if (a == "--dir") o.dir = need(i);
    else if (a == "--placement") o.placement = need(i);
    else if (a == "--source") o.source = static_cast<graph::NodeId>(std::stoul(need(i)));
    else if (a == "--payload") o.payload = std::stoul(need(i));
    else if (a == "--drop") o.drop = std::stod(need(i));
    else if (a == "--runs") o.runs = std::stoul(need(i));
    else if (a == "--seed") o.seed = std::stoull(need(i));
    else if (a == "--max-rounds") o.max_rounds = std::stoull(need(i));
    else if (a == "--dot") o.dot_path = need(i);
    else if (a == "--shards") { o.shards = std::stoul(need(i)); o.shards_set = true; }
    else if (a == "--byzantine") { o.byzantine = std::stod(need(i)); o.byzantine_set = true; }
    else if (a == "--attack") o.attack = need(i);
    else if (a == "--radius") o.radius = std::stod(need(i));
    else if (a == "--pa-m") o.pa_m = std::stoul(need(i));
    else if (a == "--gf2") o.gf2 = true;
    else if (a == "--rank-only") o.rank_only = true;
    else if (a == "--implicit") o.implicit_topo = true;
    else if (a == "--help" || a == "-h") usage(nullptr);
    else usage(("unknown option: " + a).c_str());
  }
  // Env equivalent of --byzantine, same discipline as AG_SHARDS/AG_THREADS:
  // an unparseable or out-of-range value is a loud error, never a silent 0.
  if (!o.byzantine_set) {
    if (const char* env = std::getenv("AG_BYZANTINE")) {
      char* end = nullptr;
      const double f = std::strtod(env, &end);
      if (end == env || *end != '\0' || !(f >= 0.0) || f > 1.0) {
        usage("AG_BYZANTINE must be a fraction in [0, 1]");
      }
      o.byzantine = f;
    }
  }
  if (o.byzantine < 0.0 || o.byzantine > 1.0) {
    usage("--byzantine must be a fraction in [0, 1]");
  }
  (void)parse_attack(o.attack);  // reject bad --attack values up front
  return o;
}

}  // namespace

int main(int argc, char** argv) {
  const Options o = parse(argc, argv);
  if ((o.gf2 || o.rank_only || o.implicit_topo) && o.protocol != "uniform-ag") {
    usage("--gf2/--rank-only/--implicit apply to --protocol uniform-ag only");
  }
  if (o.gf2 && o.rank_only) usage("--gf2 and --rank-only are exclusive");
  if (o.shards_set && o.protocol != "uniform-ag") {
    usage("--shards applies to --protocol uniform-ag only");
  }
  if (o.shards_set && o.time == "async") {
    usage("--shards requires --time sync (async serialises on a global "
          "activation order)");
  }
  if (o.rank_only && o.payload > 0) {
    usage("--rank-only stores no payload (drop --payload); rank evolution is "
          "payload-independent, so stopping rounds are unaffected");
  }
  if (o.byzantine > 0.0 && o.protocol != "uniform-ag" && o.protocol != "uncoded") {
    usage("--byzantine applies to --protocol uniform-ag|uncoded");
  }
  if (o.byzantine > 0.0 && o.shards_set) {
    usage("--byzantine decorates the classic transport seam; drop --shards");
  }

  // Under --implicit the clique families are served analytically: no edge
  // materialisation (a complete graph at n = 100k would need ~40 GB of
  // adjacency), connectivity holds by construction, and D is known.
  std::optional<graph::Graph> g;
  if (!o.implicit_topo) g = build_graph(o);
  const std::size_t n = g ? g->node_count() : o.n;
  if (g && !graph::is_connected(*g)) usage("graph is not connected");
  if (o.k > n && o.placement == "uniform") usage("k > n requires --placement source");

  const sim::TimeModel tm =
      o.time == "async" ? sim::TimeModel::Asynchronous : sim::TimeModel::Synchronous;
  const sim::Direction dir = o.dir == "push"        ? sim::Direction::Push
                             : o.dir == "pull"      ? sim::Direction::Pull
                             : o.dir == "broadcast" ? sim::Direction::Broadcast
                                                    : sim::Direction::Exchange;

  if (g) {
    std::printf("# graph=%s %s D=%u | protocol=%s k=%zu time=%s dir=%s drop=%.2f\n",
                o.graph.c_str(), g->summary().c_str(), graph::diameter(*g),
                o.protocol.c_str(), o.k, o.time.c_str(), o.dir.c_str(), o.drop);
  } else {
    std::printf("# graph=%s(implicit) n=%zu D=%d | protocol=%s%s k=%zu time=%s "
                "dir=%s drop=%.2f\n",
                o.graph.c_str(), n, o.graph == "complete" ? 1 : 3,
                o.protocol.c_str(), o.rank_only ? "(rank-only)" : "", o.k,
                o.time.c_str(), o.dir.c_str(), o.drop);
  }
  if (o.byzantine > 0.0) {
    // Membership is deterministic in (seed, n), so the per-run adversaries all
    // pick these same nodes; print them so an honest --source can be chosen.
    const sim::Adversary probe(n, byzantine_config(o));
    std::printf("# byzantine members (%zu):", probe.byzantine_count());
    for (const auto v : probe.members()) std::printf(" %u", static_cast<unsigned>(v));
    std::printf("\n");
  }
  std::printf("run,rounds,tree_round,wire_Mbits,forged,rejected,decoded\n");

  std::vector<double> all_rounds;
  std::uint64_t total_forged = 0, total_rejected = 0;
  bool all_ok = true;
  for (std::size_t r = 0; r < o.runs; ++r) {
    sim::Rng rng = sim::Rng::for_run(o.seed, r);
    RunRecord rec;

    core::AgConfig cfg;
    cfg.time_model = tm;
    cfg.direction = dir;
    cfg.payload_len = o.payload;
    cfg.drop_probability = o.drop;
    cfg.drop_seed = o.seed * 1000 + r;
    // Forged frames must never reach a decoder's elimination path.
    cfg.verify_inserts = o.byzantine > 0.0;

    if (o.protocol == "uniform-ag" && o.shards_set) {
      auto topo = make_view(o, g ? &*g : nullptr);
      if (o.rank_only) {
        rec = run_sharded_uniform_ag<linalg::BitRankTracker, core::BitRankStore>(
            o, std::move(topo), n, rng, cfg, r);
      } else if (o.gf2) {
        rec = run_sharded_uniform_ag<core::Gf2Decoder>(o, std::move(topo), n, rng,
                                                       cfg, r);
      } else {
        rec = run_sharded_uniform_ag<core::Gf256Decoder>(o, std::move(topo), n,
                                                         rng, cfg, r);
      }
    } else if (o.protocol == "uniform-ag") {
      auto topo = make_view(o, g ? &*g : nullptr);
      if (o.rank_only) {
        rec = run_uniform_ag<linalg::BitRankTracker, core::BitRankStore>(
            o, std::move(topo), n, rng, cfg);
      } else if (o.gf2) {
        rec = run_uniform_ag<core::Gf2Decoder>(o, std::move(topo), n, rng, cfg);
      } else {
        rec = run_uniform_ag<core::Gf256Decoder>(o, std::move(topo), n, rng, cfg);
      }
    } else if (o.protocol == "tag-brr" || o.protocol == "tag-unif") {
      const auto placement = build_placement(o, n, rng);
      core::BroadcastStpConfig stp;
      stp.comm = o.protocol == "tag-brr" ? core::CommModel::RoundRobin
                                         : core::CommModel::Uniform;
      core::Tag<core::Gf256Decoder, core::BroadcastStpPolicy> proto(*g, placement, cfg,
                                                                    stp, rng);
      const auto res = sim::run(proto, rng, o.max_rounds);
      rec.rounds = static_cast<double>(res.rounds);
      rec.tree_round = static_cast<double>(proto.tree_complete_round());
      rec.wire_mbits = proto.wire_bits() / 1e6;
      rec.decoded = res.completed;
      if (!o.dot_path.empty() && r == 0) {
        std::ofstream out(o.dot_path);
        out << graph::to_dot(*g, proto.policy().tree());
      }
    } else if (o.protocol == "tag-is") {
      const auto placement = build_placement(o, n, rng);
      core::IsStpConfig stp;
      core::Tag<core::Gf256Decoder, core::IsStpPolicy> proto(*g, placement, cfg, stp,
                                                             rng);
      const auto res = sim::run(proto, rng, o.max_rounds);
      rec.rounds = static_cast<double>(res.rounds);
      rec.tree_round = static_cast<double>(proto.tree_complete_round());
      rec.wire_mbits = proto.wire_bits() / 1e6;
      rec.decoded = res.completed;
      if (!o.dot_path.empty() && r == 0) {
        std::ofstream out(o.dot_path);
        out << graph::to_dot(*g, proto.policy().tree());
      }
    } else if (o.protocol == "uncoded") {
      const auto placement = build_placement(o, n, rng);
      core::UncodedConfig ucfg;
      ucfg.time_model = tm;
      ucfg.direction = dir;
      ucfg.drop_probability = o.drop;
      core::UncodedGossip proto(*g, placement, ucfg);
      const sim::AdversarialTransport<std::uint32_t>* tp = nullptr;
      if (o.byzantine > 0.0) {
        auto adv = std::make_shared<sim::Adversary>(n, byzantine_config(o));
        tp = core::attach_adversary<std::uint32_t>(proto, std::move(adv),
                                                   core::ByzantineShape{o.k, 0});
      }
      const auto res = sim::run(proto, rng, o.max_rounds);
      rec.rounds = static_cast<double>(res.rounds);
      if (tp) rec.forged = tp->forged_sends();
      rec.rejected = proto.rejected_receives();
      rec.decoded = res.completed;
    } else if (o.protocol == "brr") {
      core::BroadcastStpConfig stp;
      stp.comm = core::CommModel::RoundRobin;
      stp.origin = o.source;
      core::StpProtocol<core::BroadcastStpPolicy> proto(tm, *g, stp, rng);
      const auto res = sim::run(proto, rng, o.max_rounds);
      rec.rounds = static_cast<double>(res.rounds);
      rec.tree_round = static_cast<double>(proto.tree_complete_round());
      rec.wire_mbits = proto.wire_bits() / 1e6;
      rec.decoded = res.completed;
      if (!o.dot_path.empty() && r == 0) {
        std::ofstream out(o.dot_path);
        out << graph::to_dot(*g, proto.policy().tree());
      }
    } else if (o.protocol == "is") {
      core::IsStpConfig stp;
      stp.root = o.source;
      core::StpProtocol<core::IsStpPolicy> proto(tm, *g, stp, rng);
      const auto res = sim::run(proto, rng, o.max_rounds);
      rec.rounds = static_cast<double>(res.rounds);
      rec.tree_round = static_cast<double>(proto.tree_complete_round());
      rec.wire_mbits = proto.wire_bits() / 1e6;
      rec.decoded = res.completed;
    } else {
      usage("unknown protocol");
    }

    all_rounds.push_back(rec.rounds);
    total_forged += rec.forged;
    total_rejected += rec.rejected;
    all_ok = all_ok && rec.decoded;
    std::printf("%zu,%.0f,%.0f,%.3f,%llu,%llu,%s\n", r, rec.rounds, rec.tree_round,
                rec.wire_mbits, static_cast<unsigned long long>(rec.forged),
                static_cast<unsigned long long>(rec.rejected),
                rec.decoded ? "yes" : "NO");
  }

  const auto s = ag::stats::summarize(all_rounds);
  std::printf("# summary: mean=%.1f median=%.1f min=%.0f max=%.0f stddev=%.1f%s\n",
              s.mean, s.median, s.min, s.max, s.stddev,
              all_ok ? "" : "  [SOME RUNS DID NOT COMPLETE]");
  if (o.byzantine > 0.0) {
    std::printf("# byzantine: fraction=%.2f attack=%s forged=%llu rejected=%llu\n",
                o.byzantine, o.attack.c_str(),
                static_cast<unsigned long long>(total_forged),
                static_cast<unsigned long long>(total_rejected));
  }
  return all_ok ? 0 : 1;
}
