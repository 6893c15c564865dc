// Host facts printed with every run, and the bandwidth probe the computed
// SpMV bandwidth is read against.
#pragma once

#include <cstdint>
#include <string>

namespace perfbench {

struct HostInfo {
  unsigned nproc = 0;
  long l1d_bytes = 0, l2_bytes = 0, l3_bytes = 0;  // 0 when unknown
  std::string compiler;
  std::string build_type;
};

HostInfo host_info();

/// Peak resident set of this process so far, MiB (getrusage).
double peak_rss_mib();

struct TriadResult {
  double gbps = 0.0;       // median of the timed passes
  double array_mib = 0.0;  // size of each of the three arrays
  int threads = 0;
};

/// STREAM-style triad a = b + s*c on `threads` threads, each array at least
/// four times the last-level cache (or 64 MiB when it is unknown).
TriadResult triad_probe(const HostInfo& host, int threads);

}  // namespace perfbench
