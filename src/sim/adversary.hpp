/// \file
/// Byzantine adversary policy: WHICH nodes lie and HOW they lie --
/// protocol- and packet-agnostic.  sim::Mailbox::set_adversary makes them
/// lie: it rewrites every message a member sends before the transport sees
/// it.
///
/// This is the sim-layer half of the adversarial scenario subsystem (ROADMAP
/// item 5).  The sim layer cannot name decoder packet types (the layer DAG
/// forbids sim -> linalg), so everything here is generic over the mailbox
/// message type `Msg`: the concrete forgery -- building a rank-wasting
/// combination, scrambling a coefficient vector -- is a callback supplied by
/// core/byzantine.hpp, which sits above both layers.
///
/// Determinism contract (same discipline as sim::Channel): the adversary owns
/// its OWN Rng stream, seeded at construction via Rng::for_stream with a
/// dedicated stream id.  Membership selection and every forgery draw come
/// from that stream and from nothing else, and honest traffic consumes zero
/// adversary draws.  Crucially the mailbox REPLACES message content after
/// the honest protocol has already produced it, so the honest partner/coding
/// draw sequence is byte-identical with and without an adversary attached --
/// the golden stopping-round traces cannot shift when --byzantine is off,
/// and an adversarial run is itself fully determined by (seed, config).
///
/// Attack families (mirrors the taxonomy in linalg/verify.hpp):
///   RankWaste       -- replace the payload equation with the all-zero
///                      combination: well-formed, dependent against EVERY
///                      receiver state, so it can never advance rank.
///   MalformedCoeffs -- structurally invalid coefficient vector (wrong
///                      length / out-of-range symbols / dirty spare bits).
///   GarbagePayload  -- shape-violating payload stuffed with random junk.
///   Equivocate      -- per-send uniform choice among the three families, so
///                      a BROADCAST fan-out shows different peers different
///                      (and differently hostile) frames.
#pragma once

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "graph/graph.hpp"
#include "sim/rng.hpp"
#include "util/urbg.hpp"

namespace ag::sim {

/// How a Byzantine node corrupts the traffic it originates.
enum class AttackMode : std::uint8_t {
  RankWaste,        ///< all-zero combinations: dependent against any state
  MalformedCoeffs,  ///< structurally invalid coefficient vectors
  GarbagePayload,   ///< shape-violating payloads full of junk
  Equivocate,       ///< per-send random family; BROADCAST peers disagree
};

inline const char* attack_mode_name(AttackMode m) noexcept {
  switch (m) {
    case AttackMode::RankWaste: return "rank-waste";
    case AttackMode::MalformedCoeffs: return "malformed-coeffs";
    case AttackMode::GarbagePayload: return "garbage-payload";
    case AttackMode::Equivocate: return "equivocate";
  }
  return "?";
}

/// Scenario description: either an explicit node set or a fraction of the
/// population (rounded down, at least one node when fraction > 0).
struct AdversaryConfig {
  double fraction = 0.0;             ///< Byzantine share of n; ignored if nodes set
  std::vector<graph::NodeId> nodes;  ///< explicit membership (wins when non-empty)
  AttackMode mode = AttackMode::Equivocate;
  std::uint64_t seed = 0;            ///< adversary stream seed (own stream)
};

/// Membership bitmap + the adversary's private randomness.
class Adversary {
 public:
  Adversary(std::size_t n, const AdversaryConfig& cfg)
      : mode_(cfg.mode),
        byzantine_(n, 0),
        rng_(Rng::for_stream(cfg.seed, kAdversaryStream)) {
    if (!cfg.nodes.empty()) {
      for (const auto v : cfg.nodes) {
        assert(v < n);
        if (v < n && !byzantine_[v]) {
          byzantine_[v] = 1;
          members_.push_back(v);
        }
      }
    } else if (cfg.fraction > 0.0 && n > 0) {
      std::size_t m = static_cast<std::size_t>(cfg.fraction * static_cast<double>(n));
      if (m == 0) m = 1;
      if (m > n) m = n;
      // Portable partial Fisher-Yates over the node ids, drawn from the
      // adversary's own stream (membership is part of the scenario, not of
      // the honest protocol's randomness).
      std::vector<graph::NodeId> ids(n);
      for (std::size_t i = 0; i < n; ++i) ids[i] = static_cast<graph::NodeId>(i);
      for (std::size_t i = 0; i < m; ++i) {
        const std::size_t j = i + util::uniform_below(rng_, n - i);
        std::swap(ids[i], ids[j]);
        byzantine_[ids[i]] = 1;
        members_.push_back(ids[i]);
      }
    }
  }

  AttackMode mode() const noexcept { return mode_; }
  bool is_byzantine(graph::NodeId v) const noexcept {
    return v < byzantine_.size() && byzantine_[v] != 0;
  }
  std::size_t byzantine_count() const noexcept { return members_.size(); }
  const std::vector<graph::NodeId>& members() const noexcept { return members_; }

  /// The forge stream.  Only forgery callbacks may draw from it.
  Rng& rng() noexcept { return rng_; }

  /// Resolves Equivocate into a concrete family for one send; fixed modes
  /// consume no draws.
  AttackMode draw_family() noexcept {
    if (mode_ != AttackMode::Equivocate) return mode_;
    switch (util::uniform_below(rng_, 3)) {
      case 0: return AttackMode::RankWaste;
      case 1: return AttackMode::MalformedCoeffs;
      default: return AttackMode::GarbagePayload;
    }
  }

 private:
  // Dedicated stream id, far outside the per-node id space used by the
  // sharded runner, so the adversary stream never collides with a node's.
  static constexpr std::uint64_t kAdversaryStream = 0xADBEEF5Cull << 32;

  AttackMode mode_;
  std::vector<std::uint8_t> byzantine_;
  std::vector<graph::NodeId> members_;
  Rng rng_;
};

}  // namespace ag::sim
