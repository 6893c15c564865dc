// Execution-space layer: one kernel definition, three backends.
//
// Every node-local compute kernel (ufunc application, fused expression
// evaluation, reductions, SpMV row sweeps, preconditioner relaxation) is
// written once against two entry points — `for_each` and the
// deterministic `transform_reduce` — and dispatched to an ExecSpace
// backend at run time. This is the Kokkos-style separation the Trilinos
// follow-up papers attribute their portability to: call sites state
// *what* the kernel computes, the space decides *how* it is scheduled
// and whether the inner loop is vectorized. Adding a backend means
// touching this file, not the 30+ kernel call sites.
//
// Backends (enum Space; DESIGN.md §11 documents every enumerator):
//   kSerial       — inline on the calling thread, chunk by chunk. No pool,
//                   no worker threads, no scheduling overhead; the
//                   reference backend every other space must agree with.
//   kTaskPool     — the PR 5 work-stealing util::TaskPool with scalar
//                   inner loops; chunks of `grain` indices are dealt
//                   round-robin across lanes and rebalanced by stealing.
//   kTaskPoolSimd — TaskPool scheduling plus vectorized elementwise inner
//                   loops: `#pragma omp simd` bodies, a runtime-dispatched
//                   AVX2 variant on x86-64 hosts that support it, and an
//                   alignment-peeling structure-of-arrays fast path for
//                   kernels over contiguous unit-stride buffers.
//
// Body shapes. `for_each` accepts two body forms, distinguished at
// compile time:
//   body(i)      — element body: the backend owns the inner loop, so
//                  kTaskPoolSimd may vectorize it. Use for elementwise
//                  kernels (maps, zips, fused expression evaluation).
//   body(lo, hi) — chunk body: the call site owns the inner loop
//                  (row-blocked SpMV, map-merging folds). All spaces
//                  schedule chunk bodies identically; kTaskPoolSimd
//                  cannot vectorize through the opaque call.
//
// Determinism contract. `transform_reduce` executes the *same* fold and
// combine callables under every space: chunk boundaries depend only on
// `grain` (never on thread count or backend), each chunk is folded by the
// caller's `fold(lo, hi)` exactly as written, and chunk partials combine
// in a fixed-shape pairwise tree. Backends differ only in *which thread*
// runs each chunk, so reductions are bit-identical across all three spaces
// and every thread count by construction. Corollary: the SIMD backend never
// vectorizes a reduction fold (that would reorder the accumulation); it
// accelerates elementwise for_each bodies only.
//
// Elementwise value-identity. SIMD elementwise bodies compute the same
// per-element IEEE dataflow as the scalar loop: the build keeps FMA
// contraction impossible in the vector paths (the AVX2 target variant
// deliberately does not enable FMA), and +,-,*,/ and sqrt are exact under
// vectorization — so for_each results are bit-identical across spaces
// too, including NaN/Inf propagation.
//
// Selection. Explicit `Space` argument > per-thread default installed by
// comm::run from CommConfig::exec_space > the PYHPC_EXEC_SPACE
// environment variable ("serial" | "pool" | "simd") > kTaskPool.
//
// Observability. Kernels whose range exceeds one grain record an
// "exec.for_each" / "exec.reduce" span (category "exec") carrying
// space/n/grain args and bump the exec.serial / exec.pool / exec.simd
// backend counters; at-or-below one grain they run inline with zero
// instrumentation, exactly like the pool's serial fallback — tiny arrays
// stay free.
#pragma once

#include <cstdint>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "obs/trace.hpp"
#include "util/task_pool.hpp"

#if defined(PYHPC_HAS_OPENMP_SIMD)
#define PYHPC_SIMD_LOOP _Pragma("omp simd")
#define PYHPC_SIMD_LOOP_ALIGNED(...) \
  _Pragma(PYHPC_SIMD_STRINGIZE(omp simd aligned(__VA_ARGS__ : 64)))
#define PYHPC_SIMD_STRINGIZE(x) #x
#else
#define PYHPC_SIMD_LOOP
#define PYHPC_SIMD_LOOP_ALIGNED(...)
#endif

namespace pyhpc::util::exec {

/// The execution-space backends. DESIGN.md §11 carries the contract for
/// each enumerator (tools/check_docs.sh enforces that the table stays
/// complete when a backend is added).
enum class Space : std::uint8_t {
  kSerial = 0,
  kTaskPool = 1,
  kTaskPoolSimd = 2,
};

/// Stable lower-case name ("serial" / "pool" / "simd") — the spelling
/// PYHPC_EXEC_SPACE accepts and spans/counters report.
const char* space_name(Space space);

/// Parses a PYHPC_EXEC_SPACE spelling ("serial", "pool"/"taskpool",
/// "simd"/"pool+simd"); throws InvalidArgument on anything else.
Space parse_space(const std::string& name);

/// The space kernels use when no explicit Space is passed: the calling
/// thread's override (comm::run installs CommConfig::exec_space here for
/// each rank thread) if set, else PYHPC_EXEC_SPACE (read once), else
/// kTaskPool.
Space default_space();

/// Installs / clears the per-thread default (clear reverts to the
/// environment). Mirrors TaskPool::set_thread_default.
void set_thread_default(Space space);
void clear_thread_default();

/// True when the host CPU can run the AVX2 fast paths (cached lookup).
/// When false, kTaskPoolSimd still works — the portable `omp simd`
/// bodies simply compile at the build's baseline ISA.
bool simd_host_has_avx2();

/// Alignment the SoA fast paths peel to (one cache line; covers every
/// vector ISA the backends dispatch to).
inline constexpr std::size_t kSimdAlignment = 64;

template <class T>
inline bool simd_aligned(const T* p) {
  return reinterpret_cast<std::uintptr_t>(p) % kSimdAlignment == 0;
}

namespace detail {

/// Chunk bodies take (lo, hi); element bodies only (i). A chunk body is
/// also invocable with one argument only if someone writes a fully
/// variadic lambda — ruled out by checking two-arg invocability first.
template <class Body>
inline constexpr bool is_chunk_body_v =
    std::is_invocable_v<Body&, std::int64_t, std::int64_t>;

/// An exception leaving an `omp simd` region is std::terminate (OpenMP
/// forbids it, GCC enforces it) — so the vector paths only run bodies
/// the type system proves can't throw, and everything else takes the
/// scalar loop, out of which exceptions propagate normally. Mark hot
/// kernel lambdas `noexcept` to opt in to vectorization.
template <class Body>
inline constexpr bool is_noexcept_element_v =
    noexcept(std::declval<Body&>()(std::int64_t{}));

template <class T, class F>
inline constexpr bool is_noexcept_map_v =
    noexcept(std::declval<F&>()(std::declval<T>()));

template <class T, class F>
inline constexpr bool is_noexcept_zip_v =
    noexcept(std::declval<F&>()(std::declval<T>(), std::declval<T>()));

void count_region(Space space);  // exec.serial / exec.pool / exec.simd

/// One elementwise chunk, scalar loop (kSerial / kTaskPool inner body).
template <class Body>
inline void element_chunk_scalar(std::int64_t lo, std::int64_t hi,
                                 Body& body) {
  for (std::int64_t i = lo; i < hi; ++i) body(i);
}

/// One elementwise chunk, vectorized. The pragma tells the compiler the
/// iterations are independent (elementwise bodies are, by the for_each
/// element-body contract), so it vectorizes without runtime alias checks.
/// Potentially-throwing bodies run the plain loop instead (see
/// is_noexcept_element_v).
template <class Body>
inline void element_chunk_simd(std::int64_t lo, std::int64_t hi, Body& body) {
  if constexpr (is_noexcept_element_v<Body>) {
    PYHPC_SIMD_LOOP
    for (std::int64_t i = lo; i < hi; ++i) body(i);
  } else {
    for (std::int64_t i = lo; i < hi; ++i) body(i);
  }
}

#if defined(__x86_64__) && defined(__GNUC__)
#define PYHPC_SIMD_HAS_AVX2_TARGET 1
/// AVX2-target twin of element_chunk_simd: same source, compiled 4-wide.
/// target("avx2") does not enable FMA, so no contraction can appear here
/// that the scalar loop lacks — elementwise bit-identity holds.
template <class Body>
__attribute__((target("avx2"))) inline void element_chunk_avx2(
    std::int64_t lo, std::int64_t hi, Body& body) {
  if constexpr (is_noexcept_element_v<Body>) {
    PYHPC_SIMD_LOOP
    for (std::int64_t i = lo; i < hi; ++i) body(i);
  } else {
    for (std::int64_t i = lo; i < hi; ++i) body(i);
  }
}
#endif

/// Runs one chunk of an element body under the requested space.
template <class Body>
inline void run_element_chunk(Space space, std::int64_t lo, std::int64_t hi,
                              Body& body) {
  if (space == Space::kTaskPoolSimd) {
#if defined(PYHPC_SIMD_HAS_AVX2_TARGET)
    if (simd_host_has_avx2()) {
      element_chunk_avx2(lo, hi, body);
      return;
    }
#endif
    element_chunk_simd(lo, hi, body);
  } else {
    element_chunk_scalar(lo, hi, body);
  }
}

/// Shared scheduling: runs `chunk(lo, hi)` over [begin, end) in chunks of
/// `grain` — inline for kSerial, on the calling thread's TaskPool for the
/// pool spaces. `chunk` must be safe to invoke concurrently on disjoint
/// ranges.
template <class Chunk>
void schedule_chunks(Space space, std::int64_t begin, std::int64_t end,
                     std::int64_t grain, Chunk&& chunk) {
  if (space == Space::kSerial) {
    for (std::int64_t lo = begin; lo < end; lo += grain) {
      chunk(lo, std::min(end, lo + grain));
    }
  } else {
    util::parallel_for(begin, end, grain,
                       [&chunk](std::int64_t lo, std::int64_t hi) {
                         chunk(lo, hi);
                       });
  }
}

}  // namespace detail

/// Runs `body` over the half-open index range [begin, end), split into
/// chunks of at most `grain` indices, under `space` (see the body-shape
/// table at the top of this file). Blocks until every index was
/// processed; the first exception thrown by a chunk is rethrown.
template <class Body>
void for_each(Space space, std::int64_t begin, std::int64_t end,
              std::int64_t grain, Body&& body) {
  if (end <= begin) return;
  if (grain < 1) grain = 1;

  if (end - begin <= grain) {
    // One chunk: run inline, uninstrumented (same rule as the pool's
    // serial fallback — tiny kernels cost nothing). The SIMD inner loop
    // still applies: vectorization is per-chunk, not per-schedule.
    if constexpr (detail::is_chunk_body_v<Body>) {
      body(begin, end);
    } else {
      detail::run_element_chunk(space, begin, end, body);
    }
    return;
  }

  obs::Span span("exec.for_each", "exec");
  if (span.active()) {
    span.arg("space", space_name(space));
    span.arg("n", end - begin);
    span.arg("grain", grain);
  }
  detail::count_region(space);

  if constexpr (detail::is_chunk_body_v<Body>) {
    detail::schedule_chunks(space, begin, end, grain, body);
  } else {
    detail::schedule_chunks(space, begin, end, grain,
                            [space, &body](std::int64_t lo, std::int64_t hi) {
                              detail::run_element_chunk(space, lo, hi, body);
                            });
  }
}

/// Deterministic reduction over [begin, end): `fold(lo, hi) -> T`
/// computes one chunk's partial exactly as written (never vectorized —
/// see the determinism contract above), `combine(a, b)` merges partials
/// in a fixed-shape pairwise tree over the chunk sequence. Chunk
/// boundaries depend only on `grain`, and the same fold/combine code runs
/// under every space, so the result is bit-identical across backends and
/// thread counts. `identity` is returned for an empty range only; fold
/// seeds each chunk itself.
template <class T, class Fold, class Combine>
T transform_reduce(Space space, std::int64_t begin, std::int64_t end,
                   std::int64_t grain, T identity, Fold&& fold,
                   Combine&& combine) {
  if (end <= begin) return identity;
  if (grain < 1) grain = 1;
  const std::int64_t nchunks = (end - begin + grain - 1) / grain;
  if (nchunks == 1) return fold(begin, end);

  obs::Span span("exec.reduce", "exec");
  if (span.active()) {
    span.arg("space", space_name(space));
    span.arg("n", end - begin);
    span.arg("grain", grain);
  }
  detail::count_region(space);

  std::vector<T> partials(static_cast<std::size_t>(nchunks), identity);
  detail::schedule_chunks(
      space, begin, end, grain,
      [begin, grain, &partials, &fold](std::int64_t lo, std::int64_t hi) {
        partials[static_cast<std::size_t>((lo - begin) / grain)] =
            fold(lo, hi);
      });

  // Fixed-shape pairwise tree: (p0⊕p1) ⊕ (p2⊕p3) ... independent of how
  // chunks were scheduled onto lanes.
  std::vector<T> level = std::move(partials);
  while (level.size() > 1) {
    std::vector<T> next;
    next.reserve((level.size() + 1) / 2);
    for (std::size_t i = 0; i + 1 < level.size(); i += 2) {
      next.push_back(combine(std::move(level[i]), std::move(level[i + 1])));
    }
    if (level.size() % 2 == 1) next.push_back(std::move(level.back()));
    level = std::move(next);
  }
  return std::move(level.front());
}

// ---- SoA fast path ---------------------------------------------------------
//
// Typed elementwise kernels over contiguous unit-stride buffers: the
// layout every DistArray / Vector local view already has (separate flat
// scalar arrays — structure of arrays). Because the operand pointers are
// visible here, the SIMD backend can peel a scalar prologue until the
// output reaches a 64-byte boundary and run the remainder with an
// `aligned` hint. The rule for when a kernel may use these (DESIGN.md
// §11): every operand is a contiguous unit-stride scalar buffer. Any
// operand needing index translation — gathers through a column index,
// global-index arithmetic, map lookups — must use for_each instead.
// Vectorization additionally requires a `noexcept` functor (throwing
// ones run the scalar loop so exceptions propagate instead of hitting
// the omp-simd terminate rule).

namespace detail {

/// Indices to peel so that p + peel is kSimdAlignment-aligned; 0 when the
/// pointer can never reach the boundary on an element step (oversized or
/// non-power-of-two T), in which case the unaligned vector loop runs.
template <class T>
inline std::int64_t peel_count(const T* p, std::int64_t n) {
  if constexpr (sizeof(T) > kSimdAlignment ||
                kSimdAlignment % sizeof(T) != 0) {
    return 0;
  } else {
    const auto addr = reinterpret_cast<std::uintptr_t>(p);
    if (addr % sizeof(T) != 0) return 0;  // not even element-aligned
    const auto mis = addr % kSimdAlignment;
    if (mis == 0) return 0;
    const auto peel =
        static_cast<std::int64_t>((kSimdAlignment - mis) / sizeof(T));
    return peel < n ? peel : n;
  }
}

template <class T, class F>
inline void map_chunk_scalar(const T* in, T* out, std::int64_t lo,
                             std::int64_t hi, F& f) {
  for (std::int64_t i = lo; i < hi; ++i) out[i] = f(in[i]);
}

template <class T, class F>
inline void map_chunk_simd(const T* in, T* out, std::int64_t lo,
                           std::int64_t hi, F& f) {
  if constexpr (!is_noexcept_map_v<T, F>) {
    map_chunk_scalar(in, out, lo, hi, f);
    return;
  }
  std::int64_t i = lo;
  const std::int64_t peel = peel_count(out + lo, hi - lo);
  for (; i < lo + peel; ++i) out[i] = f(in[i]);
  if (simd_aligned(out + i) && simd_aligned(in + i)) {
    const T* ain = in + i;
    T* aout = out + i;
    const std::int64_t m = hi - i;
    PYHPC_SIMD_LOOP_ALIGNED(ain, aout)
    for (std::int64_t k = 0; k < m; ++k) aout[k] = f(ain[k]);
  } else {
    const std::int64_t start = i;
    PYHPC_SIMD_LOOP
    for (std::int64_t k = start; k < hi; ++k) out[k] = f(in[k]);
  }
}

#if defined(PYHPC_SIMD_HAS_AVX2_TARGET)
template <class T, class F>
__attribute__((target("avx2"))) inline void map_chunk_avx2(
    const T* in, T* out, std::int64_t lo, std::int64_t hi, F& f) {
  if constexpr (!is_noexcept_map_v<T, F>) {
    map_chunk_scalar(in, out, lo, hi, f);
    return;
  }
  std::int64_t i = lo;
  const std::int64_t peel = peel_count(out + lo, hi - lo);
  for (; i < lo + peel; ++i) out[i] = f(in[i]);
  if (simd_aligned(out + i) && simd_aligned(in + i)) {
    const T* ain = in + i;
    T* aout = out + i;
    const std::int64_t m = hi - i;
    PYHPC_SIMD_LOOP_ALIGNED(ain, aout)
    for (std::int64_t k = 0; k < m; ++k) aout[k] = f(ain[k]);
  } else {
    const std::int64_t start = i;
    PYHPC_SIMD_LOOP
    for (std::int64_t k = start; k < hi; ++k) out[k] = f(in[k]);
  }
}
#endif

template <class T, class F>
inline void zip_chunk_scalar(const T* a, const T* b, T* out, std::int64_t lo,
                             std::int64_t hi, F& f) {
  for (std::int64_t i = lo; i < hi; ++i) out[i] = f(a[i], b[i]);
}

template <class T, class F>
inline void zip_chunk_simd(const T* a, const T* b, T* out, std::int64_t lo,
                           std::int64_t hi, F& f) {
  if constexpr (!is_noexcept_zip_v<T, F>) {
    zip_chunk_scalar(a, b, out, lo, hi, f);
    return;
  }
  std::int64_t i = lo;
  const std::int64_t peel = peel_count(out + lo, hi - lo);
  for (; i < lo + peel; ++i) out[i] = f(a[i], b[i]);
  if (simd_aligned(out + i) && simd_aligned(a + i) && simd_aligned(b + i)) {
    const T* aa = a + i;
    const T* ab = b + i;
    T* aout = out + i;
    const std::int64_t m = hi - i;
    PYHPC_SIMD_LOOP_ALIGNED(aa, ab, aout)
    for (std::int64_t k = 0; k < m; ++k) aout[k] = f(aa[k], ab[k]);
  } else {
    const std::int64_t start = i;
    PYHPC_SIMD_LOOP
    for (std::int64_t k = start; k < hi; ++k) out[k] = f(a[k], b[k]);
  }
}

#if defined(PYHPC_SIMD_HAS_AVX2_TARGET)
template <class T, class F>
__attribute__((target("avx2"))) inline void zip_chunk_avx2(
    const T* a, const T* b, T* out, std::int64_t lo, std::int64_t hi, F& f) {
  if constexpr (!is_noexcept_zip_v<T, F>) {
    zip_chunk_scalar(a, b, out, lo, hi, f);
    return;
  }
  std::int64_t i = lo;
  const std::int64_t peel = peel_count(out + lo, hi - lo);
  for (; i < lo + peel; ++i) out[i] = f(a[i], b[i]);
  if (simd_aligned(out + i) && simd_aligned(a + i) && simd_aligned(b + i)) {
    const T* aa = a + i;
    const T* ab = b + i;
    T* aout = out + i;
    const std::int64_t m = hi - i;
    PYHPC_SIMD_LOOP_ALIGNED(aa, ab, aout)
    for (std::int64_t k = 0; k < m; ++k) aout[k] = f(aa[k], ab[k]);
  } else {
    const std::int64_t start = i;
    PYHPC_SIMD_LOOP
    for (std::int64_t k = start; k < hi; ++k) out[k] = f(a[k], b[k]);
  }
}
#endif

}  // namespace detail

/// SoA map: out[i] = f(in[i]) for i in [0, n). in == out is allowed
/// (in-place transform). `f` must be a pure elementwise function.
template <class T, class F>
void map(Space space, const T* in, T* out, std::int64_t n, std::int64_t grain,
         F&& f) {
  for_each(space, 0, n, grain,
           [space, in, out, &f](std::int64_t lo, std::int64_t hi) {
             if (space == Space::kTaskPoolSimd) {
#if defined(PYHPC_SIMD_HAS_AVX2_TARGET)
               if (simd_host_has_avx2()) {
                 detail::map_chunk_avx2(in, out, lo, hi, f);
                 return;
               }
#endif
               detail::map_chunk_simd(in, out, lo, hi, f);
             } else {
               detail::map_chunk_scalar(in, out, lo, hi, f);
             }
           });
}

/// SoA zip: out[i] = f(a[i], b[i]) for i in [0, n). out may alias a or b.
template <class T, class F>
void zip(Space space, const T* a, const T* b, T* out, std::int64_t n,
         std::int64_t grain, F&& f) {
  for_each(space, 0, n, grain,
           [space, a, b, out, &f](std::int64_t lo, std::int64_t hi) {
             if (space == Space::kTaskPoolSimd) {
#if defined(PYHPC_SIMD_HAS_AVX2_TARGET)
               if (simd_host_has_avx2()) {
                 detail::zip_chunk_avx2(a, b, out, lo, hi, f);
                 return;
               }
#endif
               detail::zip_chunk_simd(a, b, out, lo, hi, f);
             } else {
               detail::zip_chunk_scalar(a, b, out, lo, hi, f);
             }
           });
}

}  // namespace pyhpc::util::exec
