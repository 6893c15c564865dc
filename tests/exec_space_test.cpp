// Tests for util::exec (CTest label `exec`): exactly-once coverage under
// every backend, the determinism contract (bit-identical transform_reduce
// across backends AND thread counts on association-sensitive data),
// misaligned/empty/odd-length ranges through the SoA fast paths, exception
// propagation out of scheduled chunks, NaN/Inf agreement between the SIMD
// and serial spaces for min/max/mean, selection precedence
// (per-call > thread default > environment), and the exec.* backend
// counters. TSan-clean: the pool spaces schedule on the rank's TaskPool,
// which the `pool` label already keeps clean — these tests add no new
// sharing patterns.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <stdexcept>
#include <vector>

#include "comm/runner.hpp"
#include "obs/metrics.hpp"
#include "odin/dist_array.hpp"
#include "odin/expr.hpp"
#include "util/error.hpp"
#include "util/exec_space.hpp"
#include "util/task_pool.hpp"

namespace pc = pyhpc::comm;
namespace od = pyhpc::odin;
namespace pu = pyhpc::util;
namespace px = pyhpc::util::exec;

namespace {

constexpr px::Space kAllSpaces[] = {px::Space::kSerial, px::Space::kTaskPool,
                                    px::Space::kTaskPoolSimd};

// Scoped pool-width override; restores the previous default on exit.
class ThreadScope {
 public:
  explicit ThreadScope(int threads) : saved_(pu::TaskPool::thread_default()) {
    pu::TaskPool::set_thread_default(threads);
  }
  ~ThreadScope() { pu::TaskPool::set_thread_default(saved_); }

 private:
  int saved_;
};

// Scoped execution-space override (the per-thread default kernels resolve
// through when no explicit Space is passed).
class SpaceScope {
 public:
  explicit SpaceScope(px::Space space) { px::set_thread_default(space); }
  ~SpaceScope() { px::clear_thread_default(); }
};

// Deterministic doubles whose sum depends on association order — the
// payload for every bit-equality test below.
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

double reduce_sum(px::Space space, const std::vector<double>& v,
                  std::int64_t grain) {
  const double* d = v.data();
  return px::transform_reduce(
      space, 0, static_cast<std::int64_t>(v.size()), grain, 0.0,
      [d](std::int64_t lo, std::int64_t hi) {
        double a = 0.0;
        for (std::int64_t i = lo; i < hi; ++i) a += d[i];
        return a;
      },
      [](double a, double b) { return a + b; });
}

}  // namespace

// ---- coverage --------------------------------------------------------------

TEST(ExecSpace, ForEachElementBodyCoversEveryIndexExactlyOncePerBackend) {
  ThreadScope scope(4);
  constexpr std::int64_t kN = 100000;
  for (px::Space space : kAllSpaces) {
    std::vector<std::atomic<int>> hits(kN);
    px::for_each(space, 0, kN, 1024,
                 [&hits](std::int64_t i) { hits[i].fetch_add(1); });
    for (std::int64_t i = 0; i < kN; ++i) {
      ASSERT_EQ(hits[i].load(), 1) << px::space_name(space) << " i=" << i;
    }
  }
}

TEST(ExecSpace, ForEachChunkBodyCoversEveryIndexExactlyOncePerBackend) {
  ThreadScope scope(4);
  constexpr std::int64_t kN = 100000;
  for (px::Space space : kAllSpaces) {
    std::vector<std::atomic<int>> hits(kN);
    px::for_each(space, 0, kN, 1024,
                 [&hits](std::int64_t lo, std::int64_t hi) {
                   for (std::int64_t i = lo; i < hi; ++i) hits[i].fetch_add(1);
                 });
    for (std::int64_t i = 0; i < kN; ++i) {
      ASSERT_EQ(hits[i].load(), 1) << px::space_name(space) << " i=" << i;
    }
  }
}

TEST(ExecSpace, EmptyAndSingleElementAndOddRanges) {
  ThreadScope scope(4);
  for (px::Space space : kAllSpaces) {
    // Empty range: body never runs, identity comes back.
    px::for_each(space, 5, 5, 64, [](std::int64_t) { FAIL(); });
    EXPECT_EQ(px::transform_reduce(
                  space, 3, 3, 64, -1,
                  [](std::int64_t, std::int64_t) { return 99; },
                  [](int a, int b) { return a + b; }),
              -1);
    // Odd-length range not divisible by the grain, non-zero begin.
    std::vector<std::atomic<int>> hits(1001);
    px::for_each(space, 1, 1000, 7,
                 [&hits](std::int64_t i) { hits[i].fetch_add(1); });
    EXPECT_EQ(hits[0].load(), 0);
    EXPECT_EQ(hits[1000].load(), 0);
    for (std::int64_t i = 1; i < 1000; ++i) ASSERT_EQ(hits[i].load(), 1);
  }
}

// ---- determinism -----------------------------------------------------------

TEST(ExecSpace, ReduceBitIdenticalAcrossBackendsAndThreadCountsAndGrains) {
  const auto v = nasty_values(300001);
  for (std::int64_t grain : {64, 1000, 8192}) {
    double reference = 0.0;
    bool have_reference = false;
    for (int threads : {1, 2, 4, 8}) {
      ThreadScope scope(threads);
      for (px::Space space : kAllSpaces) {
        const double got = reduce_sum(space, v, grain);
        if (!have_reference) {
          reference = got;
          have_reference = true;
        }
        EXPECT_EQ(std::bit_cast<std::uint64_t>(got),
                  std::bit_cast<std::uint64_t>(reference))
            << px::space_name(space) << " threads=" << threads
            << " grain=" << grain;
      }
    }
  }
}

TEST(ExecSpace, ReduceMatchesTaskPoolParallelReduceBitForBit) {
  // Naive serial oracle of the reduction tree every space must reproduce:
  // fold each grain-sized chunk left to right, then merge the partials
  // level by level as (p0+p1) + (p2+p3) ..., carrying an odd tail up
  // unchanged.
  ThreadScope scope(4);
  const auto v = nasty_values(123457);
  const auto n = static_cast<std::int64_t>(v.size());
  const double* d = v.data();
  auto fold = [d](std::int64_t lo, std::int64_t hi) {
    double a = 0.0;
    for (std::int64_t i = lo; i < hi; ++i) a += d[i];
    return a;
  };
  std::vector<double> level;
  for (std::int64_t lo = 0; lo < n; lo += pu::kDefaultGrain) {
    level.push_back(fold(lo, std::min(n, lo + pu::kDefaultGrain)));
  }
  ASSERT_GT(level.size(), 2u);
  while (level.size() > 1) {
    std::vector<double> next;
    for (std::size_t i = 0; i < level.size(); i += 2) {
      next.push_back(i + 1 < level.size() ? level[i] + level[i + 1]
                                          : level[i]);
    }
    level = std::move(next);
  }
  const double oracle = level.front();
  for (px::Space space : kAllSpaces) {
    const double got =
        px::transform_reduce(space, 0, n, pu::kDefaultGrain, 0.0, fold,
                             [](double a, double b) { return a + b; });
    EXPECT_EQ(std::bit_cast<std::uint64_t>(got),
              std::bit_cast<std::uint64_t>(oracle))
        << px::space_name(space);
  }
}

TEST(ExecSpace, ElementwiseMapBitIdenticalAcrossBackends) {
  // sqrt/divide-heavy body: the kernels the SIMD space vectorizes hardest.
  ThreadScope scope(4);
  const auto v = nasty_values(65537);
  std::vector<double> ref(v.size());
  std::vector<double> out(v.size());
  auto f = [](double x) { return std::sqrt(std::abs(x)) / (1.0 + x * x); };
  px::map(px::Space::kSerial, v.data(), ref.data(),
          static_cast<std::int64_t>(v.size()), 4096, f);
  for (px::Space space : {px::Space::kTaskPool, px::Space::kTaskPoolSimd}) {
    std::fill(out.begin(), out.end(), 0.0);
    px::map(space, v.data(), out.data(), static_cast<std::int64_t>(v.size()),
            4096, f);
    for (std::size_t i = 0; i < v.size(); ++i) {
      ASSERT_EQ(std::bit_cast<std::uint64_t>(out[i]),
                std::bit_cast<std::uint64_t>(ref[i]))
          << px::space_name(space) << " i=" << i;
    }
  }
}

// ---- SoA fast path / alignment ---------------------------------------------

TEST(ExecSpace, MapAndZipHandleMisalignedViews) {
  // Offset views into an aligned allocation: every combination of
  // (aligned, misaligned) operand pointers must produce identical values.
  ThreadScope scope(4);
  constexpr std::int64_t kN = 10000;
  std::vector<double> a(kN + 8), b(kN + 8), out(kN + 8), ref(kN + 8);
  for (std::int64_t i = 0; i < kN + 8; ++i) {
    a[static_cast<std::size_t>(i)] = 0.25 * static_cast<double>(i) - 7.0;
    b[static_cast<std::size_t>(i)] = 1.0 + static_cast<double>(i % 13);
  }
  auto f2 = [](double x, double y) { return x / y + x * y; };
  for (std::size_t da : {0u, 1u, 3u}) {
    for (std::size_t db : {0u, 2u}) {
      px::zip(px::Space::kSerial, a.data() + da, b.data() + db, ref.data(),
              kN, 512, f2);
      px::zip(px::Space::kTaskPoolSimd, a.data() + da, b.data() + db,
              out.data(), kN, 512, f2);
      for (std::int64_t i = 0; i < kN; ++i) {
        ASSERT_EQ(std::bit_cast<std::uint64_t>(out[static_cast<std::size_t>(i)]),
                  std::bit_cast<std::uint64_t>(ref[static_cast<std::size_t>(i)]))
            << "da=" << da << " db=" << db << " i=" << i;
      }
    }
  }
  // In-place map on a misaligned view (transform()'s shape).
  auto g = [](double x) { return 3.0 * x - 1.0; };
  std::vector<double> c(a.begin(), a.end()), cref(a.begin(), a.end());
  px::map(px::Space::kSerial, cref.data() + 1, cref.data() + 1, kN, 512, g);
  px::map(px::Space::kTaskPoolSimd, c.data() + 1, c.data() + 1, kN, 512, g);
  EXPECT_EQ(c, cref);
}

// ---- exceptions ------------------------------------------------------------

TEST(ExecSpace, ExceptionFromBodyPropagatesUnderEveryBackend) {
  ThreadScope scope(4);
  for (px::Space space : kAllSpaces) {
    EXPECT_THROW(
        px::for_each(space, 0, 100000, 128,
                     [](std::int64_t i) {
                       if (i == 54321) throw std::runtime_error("boom");
                     }),
        std::runtime_error)
        << px::space_name(space);
    EXPECT_THROW(px::transform_reduce(
                     space, 0, 100000, 128, 0.0,
                     [](std::int64_t lo, std::int64_t) -> double {
                       if (lo >= 50000) throw std::runtime_error("boom");
                       return 1.0;
                     },
                     [](double a, double b) { return a + b; }),
                 std::runtime_error)
        << px::space_name(space);
  }
}

// ---- NaN / Inf agreement ---------------------------------------------------

TEST(ExecSpace, NanInfMinMaxMeanAgreeBetweenSimdAndSerial) {
  // Regression for the classic SIMD hazard: vectorized min/max/compare
  // can legally flip NaN propagation (minpd is not commutative in NaN
  // handling). Our contract says the SIMD space must agree with serial
  // bit for bit — on DistArray and fused-expression reductions too.
  ThreadScope scope(4);
  constexpr std::int64_t kN = 40000;
  std::vector<double> v(kN);
  for (std::int64_t i = 0; i < kN; ++i) {
    v[static_cast<std::size_t>(i)] = std::sin(0.01 * static_cast<double>(i));
  }
  v[7] = std::numeric_limits<double>::quiet_NaN();
  v[123] = std::numeric_limits<double>::infinity();
  v[20011] = -std::numeric_limits<double>::infinity();

  const double* d = v.data();
  auto min_fold = [d](std::int64_t lo, std::int64_t hi) {
    double a = d[lo];
    for (std::int64_t i = lo + 1; i < hi; ++i) a = std::min(a, d[i]);
    return a;
  };
  auto max_fold = [d](std::int64_t lo, std::int64_t hi) {
    double a = d[lo];
    for (std::int64_t i = lo + 1; i < hi; ++i) a = std::max(a, d[i]);
    return a;
  };
  auto sum_fold = [d](std::int64_t lo, std::int64_t hi) {
    double a = 0.0;
    for (std::int64_t i = lo; i < hi; ++i) a += d[i];
    return a;
  };
  auto results = [&](px::Space space) {
    const double mn = px::transform_reduce(
        space, 0, kN, 1024, std::numeric_limits<double>::max(), min_fold,
        [](double a, double b) { return std::min(a, b); });
    const double mx = px::transform_reduce(
        space, 0, kN, 1024, std::numeric_limits<double>::lowest(), max_fold,
        [](double a, double b) { return std::max(a, b); });
    const double mean =
        px::transform_reduce(space, 0, kN, 1024, 0.0, sum_fold,
                             [](double a, double b) { return a + b; }) /
        static_cast<double>(kN);
    return std::array<double, 3>{mn, mx, mean};
  };
  const auto serial = results(px::Space::kSerial);
  for (px::Space space : {px::Space::kTaskPool, px::Space::kTaskPoolSimd}) {
    const auto got = results(space);
    for (int k = 0; k < 3; ++k) {
      EXPECT_EQ(std::bit_cast<std::uint64_t>(got[static_cast<std::size_t>(k)]),
                std::bit_cast<std::uint64_t>(
                    serial[static_cast<std::size_t>(k)]))
          << px::space_name(space) << " k=" << k;
    }
  }
}

// ---- selection precedence --------------------------------------------------

TEST(ExecSpace, ParseAndNameRoundTrip) {
  EXPECT_EQ(px::parse_space("serial"), px::Space::kSerial);
  EXPECT_EQ(px::parse_space("pool"), px::Space::kTaskPool);
  EXPECT_EQ(px::parse_space("taskpool"), px::Space::kTaskPool);
  EXPECT_EQ(px::parse_space("simd"), px::Space::kTaskPoolSimd);
  EXPECT_EQ(px::parse_space("POOL+SIMD"), px::Space::kTaskPoolSimd);
  EXPECT_THROW(px::parse_space("gpu"), pyhpc::InvalidArgument);
  for (px::Space space : kAllSpaces) {
    EXPECT_EQ(px::parse_space(px::space_name(space)), space);
  }
}

TEST(ExecSpace, ThreadDefaultOverridesAndRestores) {
  const px::Space ambient = px::default_space();
  {
    SpaceScope scope(px::Space::kSerial);
    EXPECT_EQ(px::default_space(), px::Space::kSerial);
    {
      SpaceScope inner(px::Space::kTaskPoolSimd);
      EXPECT_EQ(px::default_space(), px::Space::kTaskPoolSimd);
    }
    // SpaceScope clears rather than restores — ambient comes back.
    EXPECT_EQ(px::default_space(), ambient);
  }
  EXPECT_EQ(px::default_space(), ambient);
}

TEST(ExecSpace, CommConfigInstallsSpacePerRankAndKernelsFollowIt) {
  // One world per backend: the same DistArray pipeline (ufunc-style map,
  // fused expression, reductions) must produce bit-identical results
  // whichever space CommConfig selects.
  std::array<double, 3> results[3];
  int idx = 0;
  for (px::Space space : kAllSpaces) {
    pc::CommConfig config;
    config.threads = 2;
    config.exec_space = space;
    auto& slot = results[idx++];
    pc::run(
        2, config,
        [&slot, space](pc::Communicator& comm) {
          EXPECT_EQ(px::default_space(), space);
          auto dist =
              od::Distribution::block(comm, od::Shape({std::int64_t{50000}}), 0);
          auto x = od::DistArray<double>::linspace(dist, 0.0, 5.0);
          auto y = x.map([](double v) { return std::sqrt(v) + 0.5 * v; });
          const double s = od::sum(2.0 * od::lazy(y) - od::lazy(x));
          const double n2 = y.norm2();
          const double mx = y.max();
          if (comm.rank() == 0) slot = {s, n2, mx};
        });
  }
  for (int k = 1; k < 3; ++k) {
    for (int j = 0; j < 3; ++j) {
      EXPECT_EQ(std::bit_cast<std::uint64_t>(
                    results[static_cast<std::size_t>(k)]
                           [static_cast<std::size_t>(j)]),
                std::bit_cast<std::uint64_t>(
                    results[0][static_cast<std::size_t>(j)]))
          << "space#" << k << " value#" << j;
    }
  }
}

// ---- observability ---------------------------------------------------------

TEST(ExecSpace, BackendCountersCountScheduledRegionsOnly) {
  ThreadScope scope(2);
  auto& reg = pyhpc::obs::MetricsRegistry::global();
  const auto snapshot = [&reg](const char* name) { return reg.value(name); };
  const double serial0 = snapshot("exec.serial");
  const double pool0 = snapshot("exec.pool");
  const double simd0 = snapshot("exec.simd");

  // Below one grain: inline, uncounted (the tiny-array rule).
  px::for_each(px::Space::kTaskPoolSimd, 0, 100, 8192, [](std::int64_t) {});
  EXPECT_EQ(snapshot("exec.simd"), simd0);

  std::vector<double> v(20000, 1.0);
  px::map(px::Space::kSerial, v.data(), v.data(), 20000, 1024,
          [](double x) { return x; });
  px::map(px::Space::kTaskPool, v.data(), v.data(), 20000, 1024,
          [](double x) { return x; });
  px::map(px::Space::kTaskPoolSimd, v.data(), v.data(), 20000, 1024,
          [](double x) { return x; });
  EXPECT_EQ(snapshot("exec.serial"), serial0 + 1.0);
  EXPECT_EQ(snapshot("exec.pool"), pool0 + 1.0);
  EXPECT_EQ(snapshot("exec.simd"), simd0 + 1.0);
}
