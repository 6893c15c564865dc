// Tests for util::TaskPool (CTest label `pool`): exactly-once coverage
// under concurrent stealing, bit-identical deterministic reductions across
// thread counts, exception propagation out of worker chunks, pool reuse,
// the serial/nested fallbacks, and the pool's integration with the ODIN
// reductions (CommConfig::threads) and the obs metrics registry.
#include <gtest/gtest.h>

#include <atomic>
#include <bit>
#include <cstdint>
#include <stdexcept>
#include <vector>

#include "comm/runner.hpp"
#include "obs/metrics.hpp"
#include "odin/dist_array.hpp"
#include "odin/expr.hpp"
#include "util/exec_space.hpp"
#include "util/task_pool.hpp"

namespace pc = pyhpc::comm;
namespace od = pyhpc::odin;
namespace pu = pyhpc::util;
namespace px = pyhpc::util::exec;

namespace {

// Scoped thread-count override; restores the previous default on exit so
// tests cannot leak a pool size into each other.
class ThreadScope {
 public:
  explicit ThreadScope(int threads)
      : saved_(pu::TaskPool::thread_default()) {
    pu::TaskPool::set_thread_default(threads);
  }
  ~ThreadScope() { pu::TaskPool::set_thread_default(saved_); }

 private:
  int saved_;
};

// Deterministic "nasty" doubles whose sum depends on association order —
// the payload for the bit-equality tests.
std::vector<double> nasty_values(std::size_t n) {
  std::vector<double> v(n);
  std::uint64_t s = 0x9e3779b97f4a7c15ull;
  for (std::size_t i = 0; i < n; ++i) {
    s ^= s << 13;
    s ^= s >> 7;
    s ^= s << 17;
    const double mag = static_cast<double>(s % 1000003);
    v[i] = (i % 2 == 0 ? mag : -mag) * (1.0 + 1e-9 * static_cast<double>(i));
  }
  return v;
}

}  // namespace

TEST(TaskPool, ParallelForCoversEveryIndexExactlyOnce) {
  ThreadScope scope(4);
  constexpr std::int64_t kN = 200000;
  std::vector<std::atomic<int>> hits(kN);
  for (auto& h : hits) h.store(0, std::memory_order_relaxed);
  // Small grain -> many chunks -> heavy concurrent stealing.
  pu::parallel_for(0, kN, 512, [&](std::int64_t lo, std::int64_t hi) {
    for (std::int64_t i = lo; i < hi; ++i) {
      hits[static_cast<std::size_t>(i)].fetch_add(1, std::memory_order_relaxed);
    }
  });
  for (std::int64_t i = 0; i < kN; ++i) {
    ASSERT_EQ(hits[static_cast<std::size_t>(i)].load(), 1) << "index " << i;
  }
}

TEST(TaskPool, ParallelForHonorsSubrangeBounds) {
  ThreadScope scope(3);
  constexpr std::int64_t kBegin = 1000, kEnd = 54321;
  std::atomic<std::int64_t> total{0};
  std::atomic<std::int64_t> min_seen{kEnd}, max_seen{kBegin};
  pu::parallel_for(kBegin, kEnd, 777, [&](std::int64_t lo, std::int64_t hi) {
    total.fetch_add(hi - lo, std::memory_order_relaxed);
    std::int64_t cur = min_seen.load();
    while (lo < cur && !min_seen.compare_exchange_weak(cur, lo)) {
    }
    cur = max_seen.load();
    while (hi > cur && !max_seen.compare_exchange_weak(cur, hi)) {
    }
  });
  EXPECT_EQ(total.load(), kEnd - kBegin);
  EXPECT_EQ(min_seen.load(), kBegin);
  EXPECT_EQ(max_seen.load(), kEnd);
}

TEST(TaskPool, ReduceBitIdenticalAcrossThreadCounts) {
  const auto v = nasty_values(100000);
  const std::int64_t n = static_cast<std::int64_t>(v.size());
  auto run_sum = [&] {
    return px::transform_reduce(
        px::Space::kTaskPool, 0, n, 257, 0.0,
        [&](std::int64_t lo, std::int64_t hi) {
          double a = 0.0;
          for (std::int64_t i = lo; i < hi; ++i) {
            a += v[static_cast<std::size_t>(i)];
          }
          return a;
        },
        [](double a, double b) { return a + b; });
  };
  double reference = 0.0;
  {
    ThreadScope scope(1);
    reference = run_sum();
  }
  for (int threads : {2, 4, 7}) {
    ThreadScope scope(threads);
    const double got = run_sum();
    EXPECT_EQ(std::bit_cast<std::uint64_t>(got),
              std::bit_cast<std::uint64_t>(reference))
        << "threads=" << threads;
  }
}

TEST(TaskPool, ReduceEmptyRangeReturnsIdentity) {
  ThreadScope scope(4);
  const double got = px::transform_reduce(
      px::Space::kTaskPool, 5, 5, 100, -1.25,
      [](std::int64_t, std::int64_t) { return 0.0; },
      [](double a, double b) { return a + b; });
  EXPECT_DOUBLE_EQ(got, -1.25);
}

TEST(TaskPool, ExceptionPropagatesFromWorkerChunk) {
  ThreadScope scope(4);
  EXPECT_THROW(
      pu::parallel_for(0, 100000, 128,
                       [](std::int64_t lo, std::int64_t) {
                         if (lo == 50048) throw std::runtime_error("boom");
                       }),
      std::runtime_error);
  // The pool survives a throwing region: the next region runs normally.
  std::atomic<std::int64_t> total{0};
  pu::parallel_for(0, 10000, 128, [&](std::int64_t lo, std::int64_t hi) {
    total.fetch_add(hi - lo, std::memory_order_relaxed);
  });
  EXPECT_EQ(total.load(), 10000);
}

TEST(TaskPool, PoolIsReusedAcrossRegions) {
  ThreadScope scope(4);
  auto& pool = pu::TaskPool::current();
  const auto before = pool.stats();
  std::atomic<std::int64_t> total{0};
  for (int round = 0; round < 10; ++round) {
    pool.parallel_for(0, 5000, 100, [&](std::int64_t lo, std::int64_t hi) {
      total.fetch_add(hi - lo, std::memory_order_relaxed);
    });
  }
  EXPECT_EQ(total.load(), 50000);
  const auto after = pool.stats();
  EXPECT_EQ(after.regions, before.regions + 10);
  EXPECT_EQ(after.tasks, before.tasks + 10 * 50);
}

TEST(TaskPool, TinyRangeFallsBackToSerial) {
  ThreadScope scope(4);
  auto& pool = pu::TaskPool::current();
  const auto before = pool.stats();
  std::int64_t covered = 0;
  pool.parallel_for(0, 10, 1000, [&](std::int64_t lo, std::int64_t hi) {
    covered += hi - lo;  // no atomics needed: runs inline on this thread
  });
  EXPECT_EQ(covered, 10);
  const auto after = pool.stats();
  EXPECT_EQ(after.serial_regions, before.serial_regions + 1);
  EXPECT_EQ(after.regions, before.regions);
}

TEST(TaskPool, NestedRegionsRunInlineWithoutDeadlock) {
  ThreadScope scope(4);
  constexpr std::int64_t kOuter = 8, kInner = 4096;
  std::vector<std::atomic<int>> hits(kOuter * kInner);
  for (auto& h : hits) h.store(0, std::memory_order_relaxed);
  pu::parallel_for(0, kOuter, 1, [&](std::int64_t olo, std::int64_t ohi) {
    for (std::int64_t o = olo; o < ohi; ++o) {
      // Inner parallel call from inside a region body: must degrade to
      // serial instead of waiting on the pool it is running on.
      pu::parallel_for(0, kInner, 256, [&, o](std::int64_t lo, std::int64_t hi) {
        for (std::int64_t i = lo; i < hi; ++i) {
          hits[static_cast<std::size_t>(o * kInner + i)].fetch_add(
              1, std::memory_order_relaxed);
        }
      });
    }
  });
  for (const auto& h : hits) ASSERT_EQ(h.load(), 1);
}

TEST(TaskPool, ConfiguredThreadsFollowsOverride) {
  {
    ThreadScope scope(6);
    EXPECT_EQ(pu::TaskPool::configured_threads(), 6);
    EXPECT_EQ(pu::TaskPool::current().threads(), 6);
  }
  {
    ThreadScope scope(2);
    EXPECT_EQ(pu::TaskPool::current().threads(), 2);
  }
}

TEST(TaskPool, PoolMetricsReachGlobalRegistry) {
  ThreadScope scope(4);
  auto& reg = pyhpc::obs::MetricsRegistry::global();
  const double regions_before = reg.value("pool.regions");
  pu::parallel_for(0, 100000, 1024, [](std::int64_t, std::int64_t) {});
  EXPECT_GE(reg.value("pool.regions"), regions_before + 1.0);
  EXPECT_GE(reg.value("pool.threads"), 4.0);
  EXPECT_TRUE(reg.has("pool.tasks"));
}

// ---- integration: ODIN reductions through CommConfig::threads -------------

TEST(TaskPoolOdin, DistArrayReductionsInvariantAcrossCommThreads) {
  struct Result {
    std::uint64_t sum, min, max, norm2, mean;
  };
  auto run_with_threads = [](int threads) {
    Result out{};
    pc::CommConfig config;
    config.threads = threads;
    pc::run(2, config, [&out](pc::Communicator& comm) {
      auto dist = od::Distribution::block(comm, od::Shape({40000}), 0);
      auto a = od::DistArray<double>::random(dist, /*seed=*/7);
      const Result r{std::bit_cast<std::uint64_t>(a.sum()),
                     std::bit_cast<std::uint64_t>(a.min()),
                     std::bit_cast<std::uint64_t>(a.max()),
                     std::bit_cast<std::uint64_t>(a.norm2()),
                     std::bit_cast<std::uint64_t>(a.mean())};
      if (comm.rank() == 0) out = r;
    });
    return out;
  };
  const Result serial = run_with_threads(1);
  for (int threads : {2, 4, 7}) {
    const Result par = run_with_threads(threads);
    EXPECT_EQ(par.sum, serial.sum) << "threads=" << threads;
    EXPECT_EQ(par.min, serial.min) << "threads=" << threads;
    EXPECT_EQ(par.max, serial.max) << "threads=" << threads;
    EXPECT_EQ(par.norm2, serial.norm2) << "threads=" << threads;
    EXPECT_EQ(par.mean, serial.mean) << "threads=" << threads;
  }
}

TEST(TaskPoolOdin, FusedReductionsMatchEagerAndStayDeterministic) {
  for (int threads : {1, 4}) {
    pc::CommConfig config;
    config.threads = threads;
    pc::run(2, config, [](pc::Communicator& comm) {
      auto dist = od::Distribution::block(comm, od::Shape({20000}), 0);
      auto x = od::DistArray<double>::random(dist, 3);
      auto y = od::DistArray<double>::random(dist, 4);
      const auto expr = od::lazy(x) * 2.0 + od::lazy(y);
      // Fused reductions agree with the materialized equivalents.
      auto eager = od::eval(expr);
      EXPECT_NEAR(od::sum(expr), eager.sum(), 1e-9);
      EXPECT_DOUBLE_EQ(od::min(expr), eager.min());
      EXPECT_DOUBLE_EQ(od::max(expr), eager.max());
      EXPECT_NEAR(od::mean(expr), eager.mean(), 1e-12);
    });
  }
}

TEST(TaskPoolOdin, EmptyArrayReductionSemanticsPreserved) {
  pc::CommConfig config;
  config.threads = 4;
  pc::run(2, config, [](pc::Communicator& comm) {
    auto dist = od::Distribution::block(comm, od::Shape({0}), 0);
    od::DistArray<double> a(dist);
    EXPECT_DOUBLE_EQ(a.sum(), 0.0);  // sum of nothing is 0
    EXPECT_THROW(a.min(), pyhpc::NumericalError);
    EXPECT_THROW(a.max(), pyhpc::NumericalError);
    EXPECT_THROW(a.mean(), pyhpc::NumericalError);
    const auto expr = od::lazy(a) * 2.0;
    EXPECT_DOUBLE_EQ(od::sum(expr), 0.0);
    EXPECT_THROW(od::min(expr), pyhpc::NumericalError);
    EXPECT_THROW(od::max(expr), pyhpc::NumericalError);
    EXPECT_THROW(od::mean(expr), pyhpc::NumericalError);
  });
}
