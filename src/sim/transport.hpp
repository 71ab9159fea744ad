/// \file
/// SimTransport: the one in-process message path every protocol's sends and
/// round barriers go through.
///
/// Protocols never talk to it directly -- they inherit from sim::Mailbox
/// (mailbox.hpp), which holds a SimTransport by value and forwards every
/// send/barrier to it.  It realises the synchronous model's delivery rule,
/// "information received in the current round is available for sending only
/// at the beginning of the next round" (Section 2), with buffered slot-pool
/// delivery, delivers immediately under the asynchronous model, and injects
/// loss via sim::Channel.  The golden stopping-round traces pin its
/// behaviour byte for byte.
///
/// Delivery callbacks are taken per call and never stored: protocol objects
/// move, and a stored callback into one would dangle.
///
/// Determinism clause: SimTransport consumes randomness only through its
/// Channel (which has its OWN seeded stream and draws exactly once per send
/// attempt when lossy, never when ideal), so loss injection cannot shift
/// partner selection or coding coefficients.
#pragma once

#include <cstdint>
#include <unordered_set>
#include <utility>
#include <vector>

#include "graph/graph.hpp"
#include "sim/channel.hpp"
#include "sim/time_model.hpp"

namespace ag::sim {

using graph::NodeId;

/// Aggregate message counters.  The byte counters stay zero for
/// SimTransport (nothing is serialized); net::UdpTransport fills them.
struct TransportStats {
  std::uint64_t messages_sent = 0;     ///< send() calls (pre-loss)
  std::uint64_t messages_dropped = 0;  ///< lost to the Channel / send errors
  std::uint64_t messages_delivered = 0;
  std::uint64_t bytes_sent = 0;
  std::uint64_t bytes_received = 0;
  std::uint64_t decode_failures = 0;  ///< malformed frames rejected (wire transports)
  std::uint64_t recv_errors = 0;      ///< hard receive failures, e.g. ECONNREFUSED
                                      ///< bounced off a dead peer (wire transports;
                                      ///< distinct from "nothing readable")
};

/// Allocation behaviour: the synchronous inbox is a slot pool.  Buffered
/// envelopes are never destroyed at the barrier -- only a cursor is reset --
/// so a message type with heap buffers (coded packets) reuses its capacity
/// round after round and the steady state allocates nothing.  The
/// asynchronous path delivers by const reference without any copy at all.
///
/// The optional per-round same-sender filter implements the simplifying
/// assumption in the proof of Theorem 1 ("if a node receives 2 messages from
/// the same node at the same round, it will discard the second one").  Off
/// by default; the benches use it to measure how conservative the
/// assumption is.
template <typename Msg>
class SimTransport {
 public:
  SimTransport(TimeModel tm, bool discard_same_sender_per_round)
      : tm_(tm), discard_same_sender_(discard_same_sender_per_round) {}

  TimeModel time_model() const noexcept { return tm_; }

  /// Offers one message.  Synchronous: copied (or, for an rvalue, moved)
  /// into a pooled slot until drain().  Asynchronous: `deliver(from, to,
  /// msg)` runs before this returns, on the caller's object in place.
  template <typename M, typename Deliver>
  void send(NodeId from, NodeId to, M&& msg, Deliver&& deliver) {
    ++stats_.messages_sent;
    if (!channel_.admits(from, to)) {
      ++stats_.messages_dropped;
      return;
    }
    if (tm_ == TimeModel::Synchronous) {
      Envelope& e = next_slot();
      e.from = from;
      e.to = to;
      e.msg = std::forward<M>(msg);
    } else {
      ++stats_.messages_delivered;
      deliver(from, to, std::as_const(msg));
    }
  }

  /// Round barrier: applies buffered messages in send order, then resets
  /// the slot cursor (slots stay alive so their buffers are reused next
  /// round).  No-op under the asynchronous model.
  template <typename Deliver>
  void drain(Deliver&& deliver) {
    if (inbox_used_ == 0) return;
    if (discard_same_sender_) {
      seen_pairs_.clear();
      for (std::size_t i = 0; i < inbox_used_; ++i) {
        const Envelope& e = inbox_[i];
        const std::uint64_t key = (static_cast<std::uint64_t>(e.from) << 32) | e.to;
        if (!seen_pairs_.insert(key).second) continue;
        ++stats_.messages_delivered;
        deliver(e.from, e.to, e.msg);
      }
    } else {
      for (std::size_t i = 0; i < inbox_used_; ++i) {
        const Envelope& e = inbox_[i];
        ++stats_.messages_delivered;
        deliver(e.from, e.to, e.msg);
      }
    }
    inbox_used_ = 0;
  }

  const TransportStats& stats() const noexcept { return stats_; }

  void set_channel(Channel ch) { channel_ = std::move(ch); }
  const Channel& channel() const noexcept { return channel_; }

 private:
  struct Envelope {
    NodeId from = 0;
    NodeId to = 0;
    Msg msg{};
  };

  Envelope& next_slot() {
    if (inbox_used_ == inbox_.size()) inbox_.emplace_back();
    return inbox_[inbox_used_++];
  }

  TimeModel tm_;
  bool discard_same_sender_;
  std::vector<Envelope> inbox_;  // slot pool; first inbox_used_ are live
  std::size_t inbox_used_ = 0;
  std::unordered_set<std::uint64_t> seen_pairs_;
  TransportStats stats_;
  Channel channel_;  // ideal unless set_channel is called
};

}  // namespace ag::sim
