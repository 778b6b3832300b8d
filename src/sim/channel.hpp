// Unidirectional channel: static wiring only. The engine meters bandwidth
// from the packed output-port record (token bucket in word 0, see
// Network's port-record layout), and in-flight flits and credits live in
// the Simulator's timing wheel, which preserves per-channel FIFO order
// because latency is constant per channel.
#pragma once

#include <cstdint>

#include "common/types.hpp"
#include "sim/flit.hpp"

namespace sldf::sim {

struct Channel {
  // --- static wiring (set by the topology builder) ---
  NodeId src = kInvalidNode;
  NodeId dst = kInvalidNode;
  PortIx src_port = kInvalidPort;  ///< Output-port index at src.
  PortIx dst_port = kInvalidPort;  ///< Input-port index at dst.
  std::uint8_t latency = 1;        ///< Pipeline depth in cycles (>= 1).
  /// Bandwidth is width_num/width_den flits per cycle. Fractional widths
  /// model chiplet-boundary edges carrying n/4 links spread over the
  /// boundary routers (e.g. 3/4 flit/cycle per router pair for n=6).
  std::uint16_t width_num = 1;
  std::uint16_t width_den = 1;
  LinkType type = LinkType::OnChip;
};

}  // namespace sldf::sim
