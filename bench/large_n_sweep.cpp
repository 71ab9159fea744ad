// E18 -- Large-n scaling sweep: rank-only decoding + compact swarm arenas.
//
// The paper's headline bound, O((k + log n + D) * Delta) rounds for uniform
// AG on ANY graph (Theorem 1), is an asymptotic claim -- yet a full decoder
// per node (O(k^2) coefficients + O(k * payload) arena, a handful of heap
// blocks each) stalls sweeps around a few hundred nodes.  This harness runs
// the rank-only path (linalg/rank_tracker.hpp + the pooled SoA stores of
// core/swarm_storage.hpp + implicit/CSR topologies) at n up to 100k and
// checks two things:
//
//   1. EXACTNESS.  On overlapping small-n configurations the rank-only
//      stopping rounds equal the full-decoder stopping rounds EXACTLY (same
//      RNG stream, same insert verdicts) -- including full-on-explicit-graph
//      vs rank-only-on-implicit-topology, which also pins the implicit
//      views' index-to-neighbor maps end to end.
//
//   2. SCALE.  Stopping rounds, decoder memory, peak RSS and decoder
//      throughput (insert attempts per second) across complete / grid /
//      barbell at n in {1k, 10k, 100k} (x AG_BENCH_SCALE).  The barbell tier
//      tops out at 10k by default: its Theta(k * n) bottleneck rounds make
//      n = 100k a many-hour single run (raise AG_BENCH_SCALE to go there
//      deliberately).  The complete-graph row at the top tier is the
//      acceptance configuration: n = 100k, k = 32 must fit in < 8 GiB.
//
// Everything funnels through the parallel experiment runner (AG_THREADS),
// and the JSON artifact (AG_BENCH_JSON) captures the tables plus peak RSS.
// AG_BENCH_FAMILY=complete|grid|barbell restricts Part 2 to one family (an
// hour-scale sweep should be resumable per family); progress goes to stderr
// as each row lands.
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.hpp"
#include "core/decoders.hpp"
#include "core/dissemination.hpp"
#include "core/sharded_round.hpp"
#include "core/swarm_storage.hpp"
#include "core/uniform_ag.hpp"
#include "graph/csr_graph.hpp"
#include "graph/generators.hpp"
#include "linalg/rank_tracker.hpp"
#include "sim/engine.hpp"
#include "sim/topology.hpp"

namespace {

using namespace ag;

constexpr std::uint64_t kSeed = 1815;

// Topology factory: a fresh view per run (the protocol owns its view).
using TopoFactory = std::function<std::unique_ptr<sim::TopologyView>()>;

core::AgConfig sync_cfg() {
  core::AgConfig cfg;  // synchronous EXCHANGE, no payload: the Table 1 setup
  return cfg;
}

// Full GF(2) decoder on an explicit graph (the pre-scaling configuration).
std::vector<double> rounds_full(const graph::Graph& g, std::size_t k,
                                std::size_t runs, std::uint64_t budget) {
  return agbench::stopping_rounds(
      [&](sim::Rng& rng) {
        const auto pl = core::uniform_distinct(k, g.node_count(), rng);
        return core::UniformAG<core::Gf2Decoder>(g, pl, sync_cfg());
      },
      runs, kSeed, budget);
}

// Rank-only pooled tracker on any topology view.
std::vector<double> rounds_rank(const TopoFactory& topo, std::size_t n,
                                std::size_t k, std::size_t runs,
                                std::uint64_t budget) {
  return agbench::stopping_rounds(
      [&](sim::Rng& rng) {
        const auto pl = core::uniform_distinct(k, n, rng);
        return core::UniformAG<linalg::BitRankTracker, core::BitRankStore>(
            topo(), pl, sync_cfg());
      },
      runs, kSeed, budget);
}

struct Probe {
  std::uint64_t rounds = 0;
  double rows_per_sec = 0;     // decoder insert attempts per wall second
  double decoder_mib = 0;      // pooled decoder-state footprint
};

// One instrumented rank-only run (run index 0) for throughput and footprint.
Probe probe_rank(const TopoFactory& topo, std::size_t n, std::size_t k,
                 std::uint64_t budget) {
  sim::Rng rng = sim::Rng::for_run(kSeed, 0);
  const auto pl = core::uniform_distinct(k, n, rng);
  core::UniformAG<linalg::BitRankTracker, core::BitRankStore> proto(topo(), pl,
                                                                    sync_cfg());
  const auto t0 = std::chrono::steady_clock::now();
  const auto res = sim::run(proto, rng, budget);
  const double secs =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
  Probe p;
  p.rounds = res.rounds;
  const auto inserts =
      proto.swarm().helpful_receives() + proto.swarm().useless_receives();
  p.rows_per_sec = secs > 0 ? static_cast<double>(inserts) / secs : 0;
  p.decoder_mib =
      static_cast<double>(proto.swarm().decoder_memory_bytes()) / (1024.0 * 1024.0);
  return p;
}

bool vectors_equal(const std::vector<double>& a, const std::vector<double>& b) {
  return a == b;
}

}  // namespace

int main() {
  agbench::print_header(
      "E18 -- large-n scaling: rank-only decoding + compact swarm arenas",
      "rank-only stopping rounds equal the full decoder's exactly; uniform AG "
      "sweeps reach n = 100k (complete/grid; barbell capped by its Theta(k*n) "
      "rounds) under 8 GiB peak RSS");

  const double s = agbench::scale();
  const std::size_t runs = agbench::seeds();

  // -------------------------------------------------------------------------
  // Part 1: exactness on overlapping small-n configurations.
  // -------------------------------------------------------------------------
  agbench::Table eq({"config", "decoder", "rounds (per run)", "exact match"});
  bool all_exact = true;
  struct EqCase {
    std::string name;
    graph::Graph g;
    TopoFactory topo;
    std::size_t k;
  };
  std::vector<EqCase> cases;
  cases.push_back({"complete n=64 (implicit)", graph::make_complete(64),
                   [] { return std::make_unique<sim::CompleteTopology>(64); }, 16});
  cases.push_back({"barbell n=32 (implicit)", graph::make_barbell(32),
                   [] { return std::make_unique<sim::BarbellTopology>(32); }, 8});
  {
    graph::Graph grid = graph::make_grid(8, 8);
    graph::CsrGraph csr(grid);
    cases.push_back({"grid 8x8 (CSR)", std::move(grid),
                     [csr] { return std::make_unique<sim::CsrTopology>(csr); }, 16});
  }
  for (const auto& c : cases) {
    const auto full = rounds_full(c.g, c.k, runs, 1000000);
    const auto rank = rounds_rank(c.topo, c.g.node_count(), c.k, runs, 1000000);
    const bool ok = vectors_equal(full, rank);
    all_exact = all_exact && ok;
    std::string rvals;
    for (double r : rank) {
      if (!rvals.empty()) rvals += ' ';
      rvals += agbench::fmt(r, 0);
    }
    eq.add_row({c.name, "full==rank", rvals, ok ? "yes" : "NO"});
  }
  eq.print();
  agbench::verdict(all_exact,
                   "rank-only path reproduces full-decoder stopping rounds "
                   "exactly (incl. implicit topologies vs explicit graphs)");

  // -------------------------------------------------------------------------
  // Part 2: scaling table.
  // -------------------------------------------------------------------------
  agbench::Table t({"family", "n", "k", "runs", "mean rounds", "rows/s",
                    "decoder MiB", "peak RSS MiB"});

  struct Row {
    std::string family;
    std::string summary;  // recorded into the JSON artifact when the row runs
    std::size_t n;
    TopoFactory topo;
    std::uint64_t budget;
  };
  auto scaled = [s](std::size_t n) {
    return std::max<std::size_t>(64, static_cast<std::size_t>(std::lround(
                                         static_cast<double>(n) * s)));
  };
  // Filter BEFORE constructing rows: a complete-only or barbell-only sweep
  // must not pay for (or report) the n ~ 100k explicit grid build.
  const char* family_filter = std::getenv("AG_BENCH_FAMILY");
  auto family_enabled = [&](const char* name) {
    return family_filter == nullptr || *family_filter == '\0' ||
           std::string(family_filter) == name;
  };
  std::vector<Row> rows;
  if (family_enabled("complete")) {
    for (const std::size_t base : {1000u, 10000u, 100000u}) {
      const std::size_t n = scaled(base);
      rows.push_back({"complete", "complete(implicit) n=" + std::to_string(n), n,
                      [n] { return std::make_unique<sim::CompleteTopology>(n); },
                      200000});
    }
  }
  if (family_enabled("grid")) {
    for (const std::size_t base : {1000u, 10000u, 100000u}) {
      const auto side = static_cast<std::size_t>(
          std::lround(std::sqrt(static_cast<double>(scaled(base)))));
      const std::size_t n = side * side;
      // Sparse family: materialise once, freeze to CSR, share across runs.
      graph::CsrGraph csr(graph::make_grid(side, side));
      std::string summary = "grid(CSR) " + csr.summary();
      rows.push_back({"grid", std::move(summary), n,
                      [csr] { return std::make_unique<sim::CsrTopology>(csr); },
                      2000000});
    }
  }
  // Barbell rounds grow as Theta(k * n): cap the default tier at 10k so the
  // harness finishes in minutes; AG_BENCH_SCALE extends it deliberately.
  if (family_enabled("barbell")) {
    for (const std::size_t base : {1000u, 4000u, 10000u}) {
      const std::size_t n = scaled(base);
      rows.push_back({"barbell", "barbell(implicit) n=" + std::to_string(n), n,
                      [n] { return std::make_unique<sim::BarbellTopology>(n); },
                      20000000});
    }
  }

  bool rss_ok = true;
  const double rss_budget_mib = 8.0 * 1024.0;
  for (const auto& row : rows) {
    agbench::record_graph(row.summary);
    const std::size_t k = std::min<std::size_t>(32, row.n / 2);
    // Keep the top tiers affordable: one run at n >= 50k, a quarter of the
    // seeds at n >= 5k, the full seed count below that.
    const std::size_t r =
        row.n >= 50000 ? 1 : row.n >= 5000 ? std::max<std::size_t>(1, runs / 4) : runs;
    // The probe IS run 0: at r == 1 its rounds are the whole sweep, so skip
    // the redundant second execution of an identical run.
    const auto pr = probe_rank(row.topo, row.n, k, row.budget);
    const auto rounds = r == 1 ? std::vector<double>{static_cast<double>(pr.rounds)}
                               : rounds_rank(row.topo, row.n, k, r, row.budget);
    const double rss_mib =
        static_cast<double>(agbench::peak_rss_bytes()) / (1024.0 * 1024.0);
    rss_ok = rss_ok && rss_mib < rss_budget_mib;
    t.add_row({row.family, agbench::fmt_int(row.n), agbench::fmt_int(k),
               agbench::fmt_int(r), agbench::fmt(agbench::mean(rounds), 1),
               agbench::fmt(pr.rows_per_sec / 1e6, 2) + "M",
               agbench::fmt(pr.decoder_mib, 1), agbench::fmt(rss_mib, 0)});
    std::fprintf(stderr, "[large_n_sweep] %s n=%zu done: %.0f rounds, %.0f MiB RSS\n",
                 row.family.c_str(), row.n, agbench::mean(rounds), rss_mib);
  }
  t.print();
  std::string rss_note = "every configuration stayed under 8 GiB peak RSS";
  if (family_enabled("complete")) {
    rss_note = "every configuration (incl. complete n=" +
               agbench::fmt_int(scaled(100000)) + ", k=32) stayed under 8 GiB peak RSS";
  }
  agbench::verdict(rss_ok, rss_note);

  // -------------------------------------------------------------------------
  // Part 3: intra-run sharding (core/sharded_round.hpp) on the acceptance
  // configuration -- complete graph at the top tier, k = 32, GF(2) rank-only
  // pools, at 1, 2, 4 and 8 shards.  Two checks: the shard-count invariance
  // (stopping rounds and a checksum of every node's finish round at each
  // count == at 1 shard, a hard failure whenever violated) and wall-clock
  // speedup.  The >= 3x speedup gate at 8 shards only arms on a full-scale
  // run with >= 8 hardware threads; smoke scales and small machines still
  // measure and report, so the invariance check never goes untested.
  // -------------------------------------------------------------------------
  bool shard_rounds_ok = true;
  bool shard_speed_ok = true;
  if (family_enabled("complete")) {
    const std::size_t sn = scaled(100000);
    const std::size_t sk = std::min<std::size_t>(32, sn / 2);
    sim::Rng prng(kSeed);
    const auto spl = core::uniform_distinct(sk, sn, prng);
    agbench::record_graph("sharded complete(implicit) n=" + std::to_string(sn));

    struct ShardedRun {
      sim::RunResult res;
      double secs = 0;
      std::uint64_t finish_sum = 0;  // order-sensitive checksum of finish rounds
    };
    auto timed = [&](std::size_t shards) {
      core::ShardedUniformAG<linalg::BitRankTracker, core::BitRankStore> proto(
          std::make_unique<sim::CompleteTopology>(sn), spl, sync_cfg(), kSeed,
          0, shards);
      ShardedRun r;
      const auto t0 = std::chrono::steady_clock::now();
      r.res = proto.run(200000);
      r.secs = std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
                   .count();
      for (std::size_t v = 0; v < sn; ++v) {
        r.finish_sum = r.finish_sum * 0x100000001B3ull +
                       proto.swarm().finish_round(static_cast<graph::NodeId>(v));
      }
      return r;
    };
    agbench::Table st({"shards", "rounds", "finish checksum", "seconds", "speedup"});
    ShardedRun serial;
    double speedup = 0;  // at 8 shards
    for (const std::size_t shards : {1u, 2u, 4u, 8u}) {
      const ShardedRun r = timed(shards);
      if (shards == 1) serial = r;
      const double sp = r.secs > 0 ? serial.secs / r.secs : 0;
      if (shards == 8) speedup = sp;
      char sum[24];
      std::snprintf(sum, sizeof sum, "%016llx",
                    static_cast<unsigned long long>(r.finish_sum));
      st.add_row({agbench::fmt_int(shards), agbench::fmt_int(r.res.rounds), sum,
                  agbench::fmt(r.secs, 2), agbench::fmt(sp, 2) + "x"});
      shard_rounds_ok = shard_rounds_ok && r.res.completed &&
                        r.res.rounds == serial.res.rounds &&
                        r.finish_sum == serial.finish_sum;
    }
    st.print();

    agbench::verdict(shard_rounds_ok,
                     "sharded engine determinism: stopping rounds and per-node "
                     "finish rounds at 2, 4 and 8 shards == at 1 shard (complete n=" +
                         agbench::fmt_int(sn) + ", k=" + agbench::fmt_int(sk) + ")");
    const std::size_t hw = std::thread::hardware_concurrency();
    const bool gate_arms = sn >= 100000 && hw >= 8;
    shard_speed_ok = !gate_arms || speedup >= 3.0;
    agbench::verdict(shard_speed_ok,
                     gate_arms
                         ? "sharded speedup >= 3x at 8 shards on the full-scale "
                           "acceptance configuration"
                         : "sharded speedup measured (gate not armed: needs "
                           "full scale and >= 8 hardware threads)");
  }
  return (all_exact && rss_ok && shard_rounds_ok && shard_speed_ok) ? 0 : 1;
}
