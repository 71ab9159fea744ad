// E19 -- Byzantine resilience (extension beyond the paper's model).
//
// The paper assumes honest nodes.  Here a fixed set of Byzantine nodes
// forges every message it originates (sim/adversary.hpp families: rank-waste
// combinations, malformed coefficient vectors, garbage payloads, per-send
// equivocation) while insert-time verification (linalg/verify.hpp) guards
// every honest decoder.  The claim under test: verification rejects 100% of
// the structurally invalid injections, honest nodes still reach full rank
// and decode, and the stopping time inflates only modestly -- a Byzantine
// node is no worse than a silent one, because any forged frame is either
// rejected by the hook (malformed / garbage) or absorbed as a zero-progress
// redundant combination (rank-waste).
//
// Placement discipline: the single source is node 0 and the Byzantine set is
// {1..m}, so every message stays recoverable (a message owned ONLY by a liar
// is unrecoverable -- its owner lies on every send; that regime is a
// protocol impossibility, not a measurement).
#include <cstdio>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "core/byzantine.hpp"
#include "core/decoders.hpp"
#include "core/dissemination.hpp"
#include "core/uniform_ag.hpp"
#include "graph/generators.hpp"
#include "sim/adversary.hpp"
#include "sim/engine.hpp"

namespace {

using namespace ag;

struct Cell {
  std::vector<double> rounds;
  std::uint64_t forged = 0;
  std::uint64_t rejected = 0;
  bool all_completed = true;
  bool all_decoded = true;
  bool accounting_ok = true;
};

// One (fraction, attack) cell: `runs` adversarial runs with coupled seeds.
// The adversary is attached per run, so forged/rejected tallies are summed
// over the cell.
Cell run_cell(const graph::Graph& g, std::size_t k, double fraction,
              sim::AttackMode mode, std::uint64_t seed, std::size_t runs,
              std::uint64_t budget) {
  const std::size_t n = g.node_count();
  Cell cell;
  for (std::size_t r = 0; r < runs; ++r) {
    sim::Rng rng = sim::Rng::for_run(seed, r);
    core::AgConfig cfg;
    cfg.verify_inserts = fraction > 0.0;
    const auto placement = core::single_source(k, 0);
    core::UniformAG<core::Gf2Decoder> proto(g, placement, cfg);

    std::uint64_t expect_rejected = 0;
    if (fraction > 0.0) {
      std::size_t m = static_cast<std::size_t>(fraction * static_cast<double>(n));
      if (m == 0) m = 1;
      sim::AdversaryConfig acfg;
      for (std::size_t v = 1; v <= m; ++v) {
        acfg.nodes.push_back(static_cast<graph::NodeId>(v));
      }
      acfg.mode = mode;
      acfg.seed = seed + r;
      auto adv = std::make_shared<sim::Adversary>(n, acfg);
      core::attach_adversary<linalg::BitPacket>(
          proto, std::move(adv),
          core::ByzantineShape{k, proto.swarm().node(0).payload_length()});
    }

    const auto res = sim::run(proto, rng, budget);
    cell.rounds.push_back(static_cast<double>(res.rounds));
    cell.all_completed = cell.all_completed && res.completed;
    const std::uint64_t forged = proto.forged_sends();
    const std::uint64_t rejected = proto.swarm().malformed_receives();
    cell.forged += forged;
    cell.rejected += rejected;

    // Exact per-run accounting: with no loss every forged send is delivered
    // exactly once, so the hook's tally must tile the forgery count.
    switch (mode) {
      case sim::AttackMode::MalformedCoeffs:
      case sim::AttackMode::GarbagePayload:
        expect_rejected = forged;
        if (rejected != expect_rejected) cell.accounting_ok = false;
        break;
      case sim::AttackMode::RankWaste:
        // Well-formed zero combinations: the decoder absorbs them as
        // redundant; the malformed tally must stay silent.
        if (rejected != 0) cell.accounting_ok = false;
        break;
      case sim::AttackMode::Equivocate:
        // 2/3 of the per-send family draws are malformed families.
        if (forged > 8 && (rejected == 0 || rejected >= forged)) {
          cell.accounting_ok = false;
        }
        break;
    }

    if (res.completed) {
      for (graph::NodeId v = 0; v < n; ++v) {
        for (std::size_t i = 0; i < k; ++i) {
          if (!proto.swarm().decodes_correctly(v, i)) cell.all_decoded = false;
        }
      }
    }
  }
  return cell;
}

}  // namespace

int main() {
  agbench::print_header(
      "E19 | Byzantine resilience (extension; adversarial injection)",
      "insert-time verification rejects 100% of forged frames; honest stopping "
      "time inflates only modestly with the Byzantine fraction");

  const std::size_t n =
      std::max<std::size_t>(16, static_cast<std::size_t>(32 * agbench::scale()));
  const std::size_t k = n / 2;
  const auto g = graph::make_complete(n);
  agbench::record_graph(g.summary());
  const std::size_t runs = agbench::seeds();
  const std::uint64_t budget = 1000000;

  const std::pair<sim::AttackMode, const char*> kModes[] = {
      {sim::AttackMode::RankWaste, "rank-waste"},
      {sim::AttackMode::MalformedCoeffs, "malformed"},
      {sim::AttackMode::GarbagePayload, "garbage"},
      {sim::AttackMode::Equivocate, "equivocate"},
  };

  agbench::Table table({"byz frac", "attack", "rounds", "inflation", "forged",
                        "rejected", "ok"});

  const Cell base =
      run_cell(g, k, 0.0, sim::AttackMode::Equivocate, 1701, runs, budget);
  const double base_mean = agbench::mean(base.rounds);
  table.add_row({"0.00", "-", agbench::fmt(base_mean), "1.00", "0", "0",
                 base.all_completed && base.all_decoded ? "yes" : "NO"});

  bool ok = base.all_completed && base.all_decoded;
  double worst_inflation = 1.0;
  for (const double fraction : {0.10, 0.25}) {
    for (const auto& [mode, name] : kModes) {
      const Cell c = run_cell(g, k, fraction, mode, 1701, runs, budget);
      const double m = agbench::mean(c.rounds);
      const double inflation = m / base_mean;
      if (inflation > worst_inflation) worst_inflation = inflation;
      const bool cell_ok =
          c.all_completed && c.all_decoded && c.accounting_ok && c.forged > 0;
      ok = ok && cell_ok;
      table.add_row({agbench::fmt(fraction, 2), name, agbench::fmt(m),
                     agbench::fmt(inflation, 2), agbench::fmt_int(c.forged),
                     agbench::fmt_int(c.rejected), cell_ok ? "yes" : "NO"});
    }
  }
  table.print();

  // A Byzantine node should cost no more than its silence: at fraction f the
  // honest gossip loses ~f of its pairings, so inflation stays a small
  // constant -- nowhere near the unbounded damage an unguarded decoder
  // would take from malformed rows.
  const bool bounded = worst_inflation <= 3.0;
  std::printf("\nworst inflation at byz<=0.25: %.2fx (bound 3.0x)\n",
              worst_inflation);
  agbench::verdict(ok && bounded,
                   "all forged frames rejected or absorbed, every honest run "
                   "completes and decodes, stopping-time inflation stays small");
  return 0;
}
