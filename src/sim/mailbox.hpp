// CRTP mailbox: binds a protocol's delivery semantics to the one in-process
// message path, a SimTransport held by value (sim/transport.hpp).
//
// In the synchronous model "information received in the current round is
// available for sending only at the beginning of the next round" (Section 2).
// The transport realises that by buffering every send during a round and
// applying the whole batch at the round barrier; in the asynchronous model
// messages are applied immediately (one transaction per timeslot, nothing
// else is concurrent).  Derived classes implement
// `deliver(NodeId from, NodeId to, const Msg&)`; the Mailbox builds the
// delivery callable afresh at every call, so protocol objects stay movable
// (the transport never stores a callback into them).
//
// An optional Byzantine adversary (sim/adversary.hpp) rewrites every message
// a Byzantine node originates before it enters the transport.  The concrete
// forgery is a callback supplied by core/byzantine.hpp, since sim cannot
// name packet types; honest sends pay one null check.
#pragma once

#include <cassert>
#include <cstdint>
#include <functional>
#include <memory>
#include <utility>

#include "graph/graph.hpp"
#include "sim/adversary.hpp"
#include "sim/channel.hpp"
#include "sim/rng.hpp"
#include "sim/time_model.hpp"
#include "sim/transport.hpp"

namespace ag::sim {

using graph::NodeId;

template <typename Derived, typename Msg>
class Mailbox {
 public:
  /// Mutates a Byzantine sender's message in place, drawing only from the
  /// given (adversary-owned) stream.
  using Forge = std::function<void(Rng&, AttackMode, NodeId to, Msg&)>;

  Mailbox(TimeModel tm, bool discard_same_sender_per_round)
      : transport_(tm, discard_same_sender_per_round) {}

  TimeModel time_model() const noexcept { return transport_.time_model(); }

  std::uint64_t messages_sent() const noexcept { return transport_.stats().messages_sent; }
  std::uint64_t messages_dropped() const noexcept {
    return transport_.stats().messages_dropped;
  }

  // Failure injection lives in the Channel (sim/channel.hpp): every send is
  // offered to the channel, which may drop it with a global or per-edge
  // probability.  RLNC tolerates this gracefully -- a lost coded packet is
  // statistically interchangeable with the next one -- which the robustness
  // bench (E10) quantifies.
  void set_channel(Channel ch) { transport_.set_channel(std::move(ch)); }
  const Channel& channel() const noexcept { return transport_.channel(); }

  // Convenience for the common global-loss case; stream-identical to the
  // retired drop_probability/drop_rng members.
  void set_drop_probability(double p, std::uint64_t seed) {
    transport_.set_channel(Channel::lossy(p, seed));
  }

  const TransportStats& transport_stats() const noexcept { return transport_.stats(); }

  // Makes the adversary's members lie: each message one of them sends is
  // forged (a fresh family draw per send, so a BROADCAST fan-out forges each
  // copy independently) and counted.  PULL and EXCHANGE replies are sent
  // with `from = responder`, so a Byzantine responder's replies are forged
  // too.  The adversary draws only from its own stream, so honest traffic is
  // stream-identical with and without one.  Call before the first send.
  void set_adversary(std::shared_ptr<Adversary> adversary, Forge forge) {
    assert(adversary != nullptr && forge);
    adversary_ = std::move(adversary);
    forge_ = std::move(forge);
  }

  // Messages whose content the adversary replaced.
  std::uint64_t forged_sends() const noexcept { return forged_sends_; }

 protected:
  // Send from a caller-owned buffer the caller may reuse afterwards.
  // Asynchronous: delivered in place, no copy.  Synchronous: copy-assigned
  // into a pooled envelope slot (vector capacity inside Msg is reused).
  void send(NodeId from, NodeId to, const Msg& msg) {
    if (adversary_ && adversary_->is_byzantine(from)) {
      Msg forged = msg;
      forge(to, forged);
      transport_.send(from, to, std::move(forged), deliver_to_derived());
      return;
    }
    transport_.send(from, to, msg, deliver_to_derived());
  }

  // Rvalue variant for callers handing over ownership.
  void send(NodeId from, NodeId to, Msg&& msg) {
    if (adversary_ && adversary_->is_byzantine(from)) forge(to, msg);
    transport_.send(from, to, std::move(msg), deliver_to_derived());
  }

  // Called at the synchronous round barrier; applies buffered messages in
  // send order.  No-op under the asynchronous model.
  void flush_inbox() { transport_.drain(deliver_to_derived()); }

 private:
  // `this` is captured only for the duration of one transport call.
  auto deliver_to_derived() {
    return [this](NodeId from, NodeId to, const Msg& msg) {
      static_cast<Derived*>(this)->deliver(from, to, msg);
    };
  }

  void forge(NodeId to, Msg& msg) {
    forge_(adversary_->rng(), adversary_->draw_family(), to, msg);
    ++forged_sends_;
  }

  SimTransport<Msg> transport_;
  std::shared_ptr<Adversary> adversary_;  // null: every node is honest
  Forge forge_;
  std::uint64_t forged_sends_ = 0;
};

}  // namespace ag::sim
