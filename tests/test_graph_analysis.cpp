// Graph-analysis substrate tests: conductance (exact vs sweep), Stoer-Wagner
// min cut on known families, community detection, and the weak-conductance
// estimate that drives Section 6's experiments.
#include <gtest/gtest.h>

#include <cmath>

#include "graph/analysis.hpp"
#include "graph/generators.hpp"

namespace {

using namespace ag::graph;

TEST(ConductanceTest, ExactOnTinyKnownGraphs) {
  // Path of 4: best cut is the middle edge: cut=1, vol each side=3: 1/3.
  EXPECT_NEAR(conductance_exact(make_path(4)), 1.0 / 3.0, 1e-12);
  // K4: every nontrivial cut has conductance 1 (cut(S)=|S|(4-|S|),
  // vol(S)=3|S|; min at |S|=2: 4/6) -- compute and compare to brute value.
  EXPECT_NEAR(conductance_exact(make_complete(4)), 4.0 / 6.0, 1e-12);
  // Barbell of 8 (two K4 + bridge): cut the bridge: 1 / (2*6+1) = 1/13.
  EXPECT_NEAR(conductance_exact(make_barbell(8)), 1.0 / 13.0, 1e-12);
}

TEST(ConductanceTest, ExactRejectsLargeGraphs) {
  EXPECT_THROW(conductance_exact(make_path(30)), std::invalid_argument);
}

TEST(ConductanceTest, SweepIsAValidUpperBoundAndTightOnStructure) {
  for (std::size_t n : {8u, 12u, 16u}) {
    const auto g = make_barbell(n);
    const double exact = conductance_exact(g);
    const double sweep = conductance_sweep(g);
    EXPECT_GE(sweep, exact - 1e-12) << "n=" << n;
    // The Fiedler sweep finds the bridge on a barbell.
    EXPECT_NEAR(sweep, exact, 1e-9) << "n=" << n;
  }
}

TEST(ConductanceTest, SweepOrdersFamiliesCorrectly) {
  // Expander-ish > cycle > barbell at the same n.
  const double phi_complete = conductance_sweep(make_complete(32));
  const double phi_cycle = conductance_sweep(make_cycle(32));
  const double phi_barbell = conductance_sweep(make_barbell(32));
  EXPECT_GT(phi_complete, phi_cycle);
  EXPECT_GT(phi_cycle, phi_barbell);
}

TEST(SubsetConductanceTest, HandMadeSet) {
  const auto g = make_path(4);  // edges 0-1, 1-2, 2-3; degrees 1,2,2,1
  std::vector<bool> s{true, true, false, false};
  // cut = 1 (edge 1-2); vol(S) = 3, vol(rest) = 3.
  EXPECT_NEAR(subset_conductance(g, s), 1.0 / 3.0, 1e-12);
}

TEST(MinCutTest, KnownFamilies) {
  EXPECT_EQ(stoer_wagner_min_cut(make_path(10)), 1u);
  EXPECT_EQ(stoer_wagner_min_cut(make_cycle(10)), 2u);
  EXPECT_EQ(stoer_wagner_min_cut(make_complete(8)), 7u);
  EXPECT_EQ(stoer_wagner_min_cut(make_barbell(16)), 1u);
  EXPECT_EQ(stoer_wagner_min_cut(make_grid(4, 4)), 2u);
  EXPECT_EQ(stoer_wagner_min_cut(make_hypercube(4)), 4u);
  EXPECT_EQ(stoer_wagner_min_cut(make_binary_tree(15)), 1u);
}

TEST(MinCutTest, TwoBridgeBarbell) {
  GraphBuilder b(make_barbell(16));
  b.add_edge(0, 15);  // second bridge
  EXPECT_EQ(stoer_wagner_min_cut(b.build()), 2u);
}

TEST(CommunityTest, BarbellSplitsInTwo) {
  const auto g = make_barbell(24);
  const auto cs = detect_communities(g);
  EXPECT_EQ(cs.count, 2u);
  EXPECT_EQ(cs.sizes[0], 12u);
  EXPECT_EQ(cs.sizes[1], 12u);
  // All left-clique nodes share a community.
  for (NodeId v = 1; v < 12; ++v) EXPECT_EQ(cs.community[v], cs.community[0]);
  EXPECT_NE(cs.community[0], cs.community[12]);
}

TEST(CommunityTest, CliqueChainSplitsPerClique) {
  const auto g = make_clique_chain(4, 8);
  const auto cs = detect_communities(g);
  EXPECT_EQ(cs.count, 4u);
  for (auto s : cs.sizes) EXPECT_EQ(s, 8u);
}

TEST(CommunityTest, CompleteGraphIsOneCommunity) {
  const auto cs = detect_communities(make_complete(16));
  EXPECT_EQ(cs.count, 1u);
}

TEST(CommunityTest, TriangleFreeGraphShattersAsExpected) {
  // Grid edges all have zero common neighbors -> every edge is cut-like ->
  // every node its own community.  That makes Phi_c degenerate (0), which is
  // correct: a grid has no dense communities in the [5] sense.
  const auto cs = detect_communities(make_grid(4, 4));
  EXPECT_EQ(cs.count, 16u);
}

TEST(WeakConductanceTest, LargeOnBarbellSmallOnCycle) {
  const auto barbell = make_barbell(32);
  const auto cycle = make_cycle(32);
  const double wb = weak_conductance_estimate(barbell, 2.0);
  const double wc = weak_conductance_estimate(cycle, 2.0);
  // Barbell: communities are K16; induced conductance is Theta(1).
  EXPECT_GT(wb, 0.3);
  // Cycle: shattered communities of size 1 < n/2: estimate reports 0.
  EXPECT_EQ(wc, 0.0);
}

TEST(WeakConductanceTest, CliqueChainNeedsLargeEnoughC) {
  const auto g = make_clique_chain(4, 8);  // communities of size n/4
  EXPECT_EQ(weak_conductance_estimate(g, 2.0), 0.0);  // n/2 > 8: too small
  EXPECT_GT(weak_conductance_estimate(g, 4.0), 0.3);  // n/4 == 8: qualifies
}

TEST(WeakConductanceTest, ConductanceMispredictsBarbellWeakDoesNot) {
  // The Section 6 punchline as a single assertion: the barbell's conductance
  // is tiny but its weak conductance is large.
  const auto g = make_barbell(32);
  EXPECT_LT(conductance_sweep(g), 0.02);
  EXPECT_GT(weak_conductance_estimate(g, 2.0), 0.3);
}

}  // namespace
