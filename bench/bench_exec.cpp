// Execution-space backend comparison on the three headline kernels —
// binary ufunc (hypot: sqrt-heavy, the SIMD showcase), fused expression
// evaluation, and CrsMatrix SpMV — each run under serial / pool /
// pool+SIMD (CommConfig::exec_space) × 1/2/4/8 pool threads. Per-element
// ns is items_processed / wall time in the JSON report; the PR 5 pool
// numbers (BENCH_PR5.json BM_*Threads, same sizes) are the comparison
// baseline.
//
// Sizes: one below a grain (4096 elements — the elementwise kernels take
// the serial fallback and pay no scheduling), one in-cache size (1<<17
// doubles = 1 MiB working set for a binary kernel — compute-bound, where
// vector width shows directly) and one streaming size (1<<20 —
// memory-bandwidth-bound, where SIMD converges toward parity because
// loads dominate). On a single-core host
// (the reference container) the thread axis is flat and the backend axis
// carries the claim; the exec.* counters are machine-independent.
//
// BM_ExecReduceDeterminism extends the PR 5 witness across the backend
// axis: DistArray::sum must return bit-identical doubles for every
// (space, threads) combination — the exec layer's determinism contract.
#include <benchmark/benchmark.h>

#include <bit>
#include <cstdint>
#include <cstdio>

#include "comm/runner.hpp"
#include "odin/expr.hpp"
#include "odin/ufunc.hpp"
#include "tpetra/crs_matrix.hpp"
#include "util/exec_space.hpp"

namespace pc = pyhpc::comm;
namespace od = pyhpc::odin;
namespace tp = pyhpc::tpetra;
namespace px = pyhpc::util::exec;

using Arr = od::DistArray<double>;
using MapT = tp::Map<>;
using MatD = tp::CrsMatrix<double>;
using VecD = tp::Vector<double>;
using LO = std::int32_t;
using GO = std::int64_t;

namespace {

constexpr px::Space kSpaces[] = {px::Space::kSerial, px::Space::kTaskPool,
                                 px::Space::kTaskPoolSimd};

pc::CommConfig configured(int threads, px::Space space) {
  pc::CommConfig config;
  config.threads = threads;
  config.exec_space = space;
  return config;
}

void annotate(benchmark::State& state, int threads, px::Space space) {
  state.counters["threads"] = threads;
  state.counters["space"] = static_cast<double>(space);
  state.SetLabel(px::space_name(space));
}

void BM_ExecUfunc(benchmark::State& state) {
  const od::index_t n = state.range(0);
  const int threads = static_cast<int>(state.range(1));
  const px::Space space = static_cast<px::Space>(state.range(2));
  pc::run(1, configured(threads, space), [&](pc::Communicator& comm) {
    auto dist = od::Distribution::block(comm, od::Shape({n}), 0);
    auto x = Arr::random(dist, 1);
    auto y = Arr::random(dist, 2);
    for (auto _ : state) {
      auto r = od::hypot(x, y);
      benchmark::DoNotOptimize(r.local_view().data());
    }
    state.SetItemsProcessed(state.iterations() * n);
    annotate(state, threads, space);
  });
}

void BM_ExecFused(benchmark::State& state) {
  const od::index_t n = state.range(0);
  const int threads = static_cast<int>(state.range(1));
  const px::Space space = static_cast<px::Space>(state.range(2));
  pc::run(1, configured(threads, space), [&](pc::Communicator& comm) {
    auto dist = od::Distribution::block(comm, od::Shape({n}), 0);
    auto x = Arr::random(dist, 1);
    auto y = Arr::random(dist, 2);
    for (auto _ : state) {
      auto r = od::eval(od::lazy(x) * 2.0 + od::lazy(y) * 3.0 + 1.0);
      benchmark::DoNotOptimize(r.local_view().data());
    }
    state.SetItemsProcessed(state.iterations() * n);
    annotate(state, threads, space);
  });
}

void BM_ExecSpmv(benchmark::State& state) {
  const GO n = state.range(0);
  const int threads = static_cast<int>(state.range(1));
  const px::Space space = static_cast<px::Space>(state.range(2));
  pc::run(1, configured(threads, space), [&](pc::Communicator& comm) {
    auto map = MapT::uniform(comm, n);
    MatD a(map);
    for (LO i = 0; i < map.num_local(); ++i) {
      const GO g = map.local_to_global(i);
      std::vector<GO> cols;
      std::vector<double> vals;
      if (g > 0) {
        cols.push_back(g - 1);
        vals.push_back(-1.0);
      }
      cols.push_back(g);
      vals.push_back(2.0);
      if (g + 1 < n) {
        cols.push_back(g + 1);
        vals.push_back(-1.0);
      }
      a.insert_global_values(g, cols, vals);
    }
    a.fill_complete();
    VecD x(map, 1.0), y(map);
    for (auto _ : state) {
      a.apply(x, y);
      benchmark::DoNotOptimize(y.local_view().data());
    }
    state.SetItemsProcessed(state.iterations() * n);
    annotate(state, threads, space);
  });
}

void backend_args(benchmark::internal::Benchmark* b) {
  for (std::int64_t n :
       {std::int64_t{4096}, std::int64_t{1} << 17, std::int64_t{1} << 20}) {
    for (int threads : {1, 2, 4, 8}) {
      for (px::Space space : kSpaces) {
        // The thread axis is meaningless for the serial space.
        if (space == px::Space::kSerial && threads != 1) continue;
        b->Args({n, threads, static_cast<std::int64_t>(space)});
      }
    }
  }
}

BENCHMARK(BM_ExecUfunc)->Apply(backend_args);
BENCHMARK(BM_ExecFused)->Apply(backend_args);
BENCHMARK(BM_ExecSpmv)->Apply(backend_args);

// Determinism witness across the backend axis: DistArray::sum (and a
// fused-expression sum) must be bit-identical for every (space, threads)
// pair. Lands in the JSON report as the exec_reduce_bit_identical counter.
void BM_ExecReduceDeterminism(benchmark::State& state) {
  const od::index_t n = 1 << 20;
  bool identical = true;
  std::uint64_t ref_sum = 0, ref_fused = 0;
  bool have_ref = false;
  for (auto _ : state) {
    for (int threads : {1, 2, 4, 7}) {
      for (px::Space space : kSpaces) {
        pc::run(1, configured(threads, space), [&](pc::Communicator& comm) {
          auto dist = od::Distribution::block(comm, od::Shape({n}), 0);
          auto x = Arr::random(dist, 42);
          const auto s = std::bit_cast<std::uint64_t>(x.sum());
          const auto f = std::bit_cast<std::uint64_t>(
              od::sum(od::lazy(x) * 0.5 + 1.0));
          if (!have_ref) {
            ref_sum = s;
            ref_fused = f;
            have_ref = true;
          } else if (s != ref_sum || f != ref_fused) {
            identical = false;
          }
        });
      }
    }
  }
  state.counters["exec_reduce_bit_identical"] = identical ? 1.0 : 0.0;
  std::fprintf(stderr,
               "BM_ExecReduceDeterminism: reductions bit-identical across "
               "{serial,pool,simd} x threads {1,2,4,7}: %s\n",
               identical ? "yes" : "NO");
}
BENCHMARK(BM_ExecReduceDeterminism)->Iterations(1);

}  // namespace

BENCHMARK_MAIN();
