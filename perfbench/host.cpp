#include "host.hpp"

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <memory>
#include <thread>
#include <vector>

#include "harness.hpp"
#include "trace.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {

HostInfo host_info() {
  HostInfo h;
  h.nproc = std::thread::hardware_concurrency();
  h.l1d_bytes = std::max(0L, sysconf(_SC_LEVEL1_DCACHE_SIZE));
  h.l2_bytes = std::max(0L, sysconf(_SC_LEVEL2_CACHE_SIZE));
  h.l3_bytes = std::max(0L, sysconf(_SC_LEVEL3_CACHE_SIZE));
#if defined(__clang__)
  h.compiler = std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
  h.compiler = std::string("gcc ") + __VERSION__;
#else
  h.compiler = "unknown";
#endif
  h.build_type = PERFBENCH_BUILD_TYPE;
  return h;
}

double peak_rss_mib() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

TriadResult triad_probe(const HostInfo& host, int threads) {
  const std::size_t llc = static_cast<std::size_t>(
      host.l3_bytes > 0 ? host.l3_bytes : std::max(host.l2_bytes, 16L << 20));
  const std::size_t n = 4 * llc / sizeof(double);
  // Plain new[]: each thread first-touches its own slice below.
  std::unique_ptr<double[]> a(new double[n]), b(new double[n]), c(new double[n]);
  const auto slice = [&](int t) {
    return std::make_pair(n * static_cast<std::size_t>(t) / threads,
                          n * static_cast<std::size_t>(t + 1) / threads);
  };
  const auto parallel = [&](auto&& body) {
    std::vector<std::thread> pool;
    for (int t = 0; t < threads; ++t) {
      pool.emplace_back([&, t] {
        const auto [lo, hi] = slice(t);
        body(lo, hi);
      });
    }
    for (auto& th : pool) th.join();
  };
  parallel([&](std::size_t lo, std::size_t hi) {
    for (std::size_t i = lo; i < hi; ++i) a[i] = 0.0, b[i] = 1.0, c[i] = 2.0;
  });
  const double s = 3.0;
  std::vector<double> gbps;
  for (int pass = 0; pass < 5; ++pass) {
    const std::int64_t t0 = now_ns();
    parallel([&](std::size_t lo, std::size_t hi) {
      for (std::size_t i = lo; i < hi; ++i) a[i] = b[i] + s * c[i];
    });
    const double secs = static_cast<double>(now_ns() - t0) * 1e-9;
    gbps.push_back(3.0 * static_cast<double>(n * sizeof(double)) / secs * 1e-9);
  }
  volatile double sink = a[n / 2];  // keeps the stores observable
  (void)sink;
  TriadResult r;
  r.gbps = median(gbps);
  r.array_mib = static_cast<double>(n * sizeof(double)) / (1024.0 * 1024.0);
  r.threads = threads;
  return r;
}

}  // namespace perfbench
