/// \file
/// UdpTransport: coded frames over real nonblocking UDP sockets.
///
/// One UdpSocketSet socket per locally hosted node; every send serializes
/// the packet through the wire format (net/wire.hpp) and every
/// received datagram is decode-verified before the driver sees it -- a
/// malformed or shape-mismatched frame increments stats().decode_failures
/// and is dropped, never delivered and never fatal.  Sender identity comes
/// from a reverse EndpointTable lookup on the datagram's source address;
/// frames from unknown endpoints are rejected the same way.
///
/// Delivery rules:
///   - send_generation() transmits immediately (UDP has no round barrier);
///     drain_generations() delivers whatever is readable right now, in
///     kernel arrival order.  Loopback datagrams to self still arrive
///     through a drain.
///   - Delivery callbacks are borrowed per call, never stored.
///   - set_channel() is honored as SYNTHETIC loss on top of the real link:
///     a non-admitting channel drops the frame before the sendto.  Useful
///     for loss-injection tests over loopback (which otherwise never drops).
///
/// Control frames (the swarm driver's watermark gossip) ride the same
/// sockets with WireField::Control; they are queued on a side inbox during
/// a drain and handed to the driver via take_control() -- a queue instead
/// of a stored callback, keeping the no-stored-callback rule.
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "net/endpoint.hpp"
#include "net/udp_socket.hpp"
#include "net/wire.hpp"
#include "sim/transport.hpp"

namespace ag::net {

template <typename Msg>
class UdpTransport {
 public:
  /// \param socks        bound sockets, one per entry of `local_nodes`
  ///                     (socket i belongs to node local_nodes[i]); borrowed,
  ///                     must outlive the transport
  /// \param table        endpoints of ALL n nodes in the swarm
  /// \param local_nodes  the nodes this process hosts
  /// \param k            coefficient count every frame must declare
  /// \param payload_len  payload symbol count every frame must declare
  UdpTransport(UdpSocketSet& socks, EndpointTable table,
               std::vector<NodeId> local_nodes, std::size_t k, std::size_t payload_len)
      : socks_(socks),
        table_(std::move(table)),
        local_nodes_(std::move(local_nodes)),
        k_(k),
        payload_len_(payload_len) {
    slot_of_.assign(table_.size(), kNoSlot);
    for (std::size_t s = 0; s < local_nodes_.size(); ++s) {
      slot_of_[local_nodes_[s]] = s;
    }
  }

  /// Sends a coded frame tagged with a wire-header generation id.
  void send_generation(NodeId from, NodeId to, std::uint32_t generation,
                       const Msg& msg) {
    ++stats_.messages_sent;
    if (!channel_.admits(from, to)) {
      ++stats_.messages_dropped;
      return;
    }
    const std::size_t len = encode_into(msg, k_, tx_buf_, generation);
    if (send_frame(from, to, len)) stats_.bytes_sent += len;
  }

  /// Delivers whatever is readable right now, in kernel arrival order, as
  /// `deliver(from, to, generation, msg)`.  Control frames are queued on
  /// the side inbox for take_control().
  template <typename Fn>
  void drain_generations(Fn&& deliver) {
    UdpSocketSet::Datagram meta;
    while (socks_.recv_one(meta, rx_buf_)) {
      stats_.bytes_received += rx_buf_.size();
      const NodeId to = local_nodes_[meta.socket];
      const NodeId from = table_.node_of(meta.src);
      if (from == kUnknownNode) {
        ++stats_.decode_failures;
        continue;
      }
      const std::span<const std::uint8_t> frame(rx_buf_);
      WireHeader h;
      if (read_header(frame, h) == DecodeStatus::Ok && h.field == WireField::Control) {
        ControlFrame cf;
        if (decode_control(frame, cf) == DecodeStatus::Ok) {
          control_inbox_.push_back(std::move(cf));
        } else {
          ++stats_.decode_failures;
        }
        continue;
      }
      if (decode_into(frame, k_, payload_len_, rx_pkt_, h) != DecodeStatus::Ok) {
        ++stats_.decode_failures;
        continue;
      }
      ++stats_.messages_delivered;
      deliver(from, to, h.generation, rx_pkt_);
    }
    // The socket set counts hard recvfrom failures (ECONNREFUSED etc.)
    // across every drain; mirror the running total into the stats surface.
    stats_.recv_errors = socks_.recv_errors();
  }

  const sim::TransportStats& stats() const noexcept { return stats_; }

  void set_channel(sim::Channel ch) { channel_ = std::move(ch); }
  const sim::Channel& channel() const noexcept { return channel_; }

  /// Sends a control frame from a local node.  Not subject to the synthetic
  /// channel (control traffic is the driver's, not the protocol's).
  void send_control(NodeId from, NodeId to, const ControlFrame& f) {
    const std::size_t len = encode_control(f, tx_buf_);
    if (send_frame(from, to, len)) stats_.bytes_sent += len;
  }

  /// Control frames received since the last call (queued by
  /// drain_generations()).
  std::vector<ControlFrame> take_control() {
    std::vector<ControlFrame> out;
    out.swap(control_inbox_);
    return out;
  }

  /// Blocks up to timeout_ms for traffic; lets drivers idle without spinning.
  bool wait_readable(int timeout_ms) { return socks_.wait_readable(timeout_ms); }

  const std::vector<NodeId>& local_nodes() const noexcept { return local_nodes_; }
  const EndpointTable& endpoints() const noexcept { return table_; }

 private:
  static constexpr std::size_t kNoSlot = ~std::size_t{0};

  bool send_frame(NodeId from, NodeId to, std::size_t len) {
    const std::size_t slot = from < slot_of_.size() ? slot_of_[from] : kNoSlot;
    if (slot == kNoSlot || to >= table_.size() ||
        !socks_.send_to(slot, table_.of(to), tx_buf_.data(), len)) {
      ++stats_.messages_dropped;
      return false;
    }
    return true;
  }

  UdpSocketSet& socks_;
  EndpointTable table_;
  std::vector<NodeId> local_nodes_;      // socket slot -> node
  std::vector<std::size_t> slot_of_;     // node -> socket slot (kNoSlot if remote)
  std::size_t k_;
  std::size_t payload_len_;
  std::vector<std::uint8_t> tx_buf_, rx_buf_;  // reused frame scratch
  Msg rx_pkt_{};                               // reused decode target
  std::vector<ControlFrame> control_inbox_;
  sim::TransportStats stats_;
  sim::Channel channel_;  // synthetic loss on top of the real link
};

}  // namespace ag::net
