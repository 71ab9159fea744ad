// The simulation driver: realises the two time models over any protocol.
//
// A protocol P must provide:
//   std::size_t node_count() const;
//   sim::TimeModel time_model() const;        // must match the run
//   void on_activate(NodeId v, Rng& rng);     // the node's single action
//   void end_round();                          // sync barrier (flush inbox)
//   bool finished() const;                     // O(1)!
//
// Synchronous round: every node activates once (activation order within the
// round is irrelevant because deliveries are buffered), then the barrier.
// Asynchronous: one uniformly random node per timeslot, deliveries immediate,
// n timeslots reported as one round.  Stopping times are reported in rounds
// in both models, matching how the paper states every bound.
#pragma once

#include <concepts>
#include <cstdint>

#include "graph/graph.hpp"
#include "sim/rng.hpp"
#include "sim/time_model.hpp"

namespace ag::sim {

using graph::NodeId;

template <typename P>
concept GossipProtocol = requires(P p, const P cp, NodeId v, Rng& rng) {
  { cp.node_count() } -> std::convertible_to<std::size_t>;
  { cp.time_model() } -> std::same_as<TimeModel>;
  { p.on_activate(v, rng) };
  { p.end_round() };
  { cp.finished() } -> std::convertible_to<bool>;
};

struct RunResult {
  bool completed = false;       // false iff the round budget ran out
  std::uint64_t rounds = 0;     // stopping time in rounds (ceil for async)
  std::uint64_t timeslots = 0;  // async: exact slots; sync: rounds * n
};

// run() with a per-round observer: `observe(round_index)` is called after
// every completed round (in both time models), letting callers record state
// time series (rank evolution, completion counts) without touching the
// protocols.  `observe` must not mutate the protocol.
template <GossipProtocol P, typename Observer>
RunResult run_traced(P& proto, Rng& rng, std::uint64_t max_rounds, Observer&& observe) {
  const auto n = static_cast<std::uint64_t>(proto.node_count());
  RunResult res;
  if (n == 0 || proto.finished()) {
    res.completed = true;
    return res;
  }

  if (proto.time_model() == TimeModel::Synchronous) {
    for (std::uint64_t r = 0; r < max_rounds; ++r) {
      for (NodeId v = 0; v < n; ++v) proto.on_activate(v, rng);
      proto.end_round();
      observe(r + 1);
      if (proto.finished()) {
        res.completed = true;
        res.rounds = r + 1;
        res.timeslots = (r + 1) * n;
        return res;
      }
    }
    res.rounds = max_rounds;
    res.timeslots = max_rounds * n;
    return res;
  }

  const std::uint64_t max_slots = max_rounds * n;
  for (std::uint64_t slot = 0; slot < max_slots; ++slot) {
    const auto v = static_cast<NodeId>(rng.uniform(n));
    proto.on_activate(v, rng);
    if ((slot + 1) % n == 0) {
      proto.end_round();
      observe((slot + 1) / n);
    }
    if (proto.finished()) {
      res.completed = true;
      res.timeslots = slot + 1;
      res.rounds = (slot + n) / n;
      return res;
    }
  }
  res.rounds = max_rounds;
  res.timeslots = max_slots;
  return res;
}

// run_traced without an observer.
template <GossipProtocol P>
RunResult run(P& proto, Rng& rng, std::uint64_t max_rounds) {
  return run_traced(proto, rng, max_rounds, [](std::uint64_t) {});
}

}  // namespace ag::sim
