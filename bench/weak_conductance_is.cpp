// E9 -- Section 6's thesis, measured: *weak* conductance, not conductance,
// predicts IS (and hence TAG+IS) performance.
//
// Per family we print: conductance Phi (sweep bound), global min cut,
// community structure, weak conductance estimate Phi_c, and the standalone
// IS full-spreading time.  The barbell and clique chains have Phi -> 0 but
// large Phi_c and a fast IS; the cycle has both small -> IS is slow; the
// complete graph has both large -> IS is fast.  Conductance alone would
// mispredict the barbell.
#include <cmath>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "core/stp_policies.hpp"
#include "core/stp_protocol.hpp"
#include "core/experiment.hpp"
#include "graph/analysis.hpp"
#include "graph/generators.hpp"
#include "sim/engine.hpp"

int main() {
  using namespace ag;
  agbench::print_header(
      "E9 | Section 6: weak conductance predicts IS performance (conductance does not)",
      "barbell/clique-chain: Phi ~ 0 but Phi_c large -> IS polylog; cycle: both "
      "small -> IS slow; complete: both large -> IS fast");

  const std::size_t n = 64;
  struct Fam {
    std::string name;
    graph::Graph g;
    double c;  // community-count parameter for Phi_c
  };
  std::vector<Fam> fams;
  fams.push_back({"barbell", graph::make_barbell(n), 2});
  fams.push_back({"clique-chain x4", graph::make_clique_chain(4, n / 4), 4});
  fams.push_back({"complete", graph::make_complete(n), 2});
  fams.push_back({"cycle", graph::make_cycle(n), 2});
  fams.push_back({"2 cliques, 2 bridges", [&] {
                    graph::GraphBuilder g(graph::make_barbell(n));
                    g.add_edge(0, static_cast<graph::NodeId>(n - 1));
                    return g.build();
                  }(), 2});

  agbench::Table table({"graph", "Phi (sweep)", "min cut", "#communities",
                        "Phi_c estimate", "t(IS) rounds", "t(IS)/log^2 n"});
  const double log2n = std::log2(static_cast<double>(n));
  std::vector<double> phis, ts;
  bool shape_ok = true;
  double t_barbell = 0, t_cycle = 0;
  for (const auto& f : fams) {
    const double phi = graph::conductance_sweep(f.g);
    const auto cut = graph::stoer_wagner_min_cut(f.g);
    const auto cs = graph::detect_communities(f.g);
    const double phic = graph::weak_conductance_estimate(f.g, f.c);
    const auto rounds = agbench::stopping_rounds(
        [&](sim::Rng& rng) {
          core::IsStpConfig cfg;
          return core::StpProtocol<core::IsStpPolicy>(sim::TimeModel::Synchronous,
                                                      f.g, cfg, rng);
        },
        agbench::seeds(), 1300, 10000000);
    const double t = agbench::mean(rounds);
    if (f.name == "barbell") t_barbell = t;
    if (f.name == "cycle") t_cycle = t;
    table.add_row({f.name, agbench::fmt(phi, 4), agbench::fmt_int(cut),
                   agbench::fmt_int(cs.count), agbench::fmt(phic, 4),
                   agbench::fmt(t, 1), agbench::fmt(t / (log2n * log2n), 2)});
  }
  table.print();

  shape_ok = t_barbell * 3 < t_cycle;
  std::printf("\nbarbell IS time %.1f << cycle IS time %.1f although the barbell's "
              "conductance is far worse --\nweak conductance is the right predictor, "
              "as Section 6 argues.\n", t_barbell, t_cycle);
  agbench::verdict(shape_ok,
                   "IS is fast exactly on the large-weak-conductance graphs and slow "
                   "where Phi_c is small, independent of plain conductance");
  return 0;
}
