// Simulated outputs of the full-size workloads at the default seed. The
// engine is deterministic, so every run at that seed must reproduce them
// bit for bit. A run prints its own values as `expect ...` lines in this
// syntax; a change that alters the simulation on purpose regenerates the
// table from them.
#pragma once

#include <cstdint>
#include <vector>

inline constexpr std::uint64_t kDefaultSeed = 1;

struct ExpectedPoint {
  const char* workload;
  double rate;
  std::uint64_t cycles_run;
  std::uint64_t flit_hops;
  std::uint64_t delivered_total;
  double avg_latency;
  double p99_latency;
  double accepted;
};

struct ExpectedClosed {
  const char* workload;
  std::uint64_t cycles;
  std::uint64_t packets;
  bool completed;
};

// {workload, offered, cycles_run, flit_hops, delivered_total, avg latency,
//  p99 latency, accepted}, in point order.
inline const std::vector<ExpectedPoint> kExpectedPoints = {
    {"sat-radix16-sh4", 0x1.ccccccccccccdp-1, 600, 7755264, 72657, 0x1.4435cd1258445p+7, 0x1.8dp+8, 0x1.992d0a12d0a13p-2},
};

// {workload, completion cycles, packets, completed}.
inline const std::vector<ExpectedClosed> kExpectedClosed = {
    {"reqreply-radix16", 1997303, 160000, true},
};
