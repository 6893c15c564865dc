// Tests for the observability layer (trace recorder + metrics registry)
// and the PR's regression fixes: scalar/expr lazy operators, single-pass
// zip kAuto conforming, and empty-array reduction errors.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <new>
#include <string>
#include <type_traits>
#include <utility>

#include "comm/runner.hpp"
#include "galeri/gallery.hpp"
#include "obs/bridge.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "odin/dist_array.hpp"
#include "odin/expr.hpp"
#include "precond/amg.hpp"
#include "precond/preconditioner.hpp"
#include "teuchos/timer.hpp"

namespace pc = pyhpc::comm;
namespace od = pyhpc::odin;
namespace obs = pyhpc::obs;
namespace gl = pyhpc::galeri;
namespace pp = pyhpc::precond;
using od::index_t;
using Arr = od::DistArray<double>;
using pyhpc::NumericalError;

// ---- global allocation counter for the zero-allocation test ---------------
// Replacing ::operator new is binary-wide, so the counter simply ticks for
// every allocation anywhere in this test program.

namespace {
std::atomic<std::uint64_t> g_allocations{0};
}  // namespace

// GCC flags free() on new'd pointers, but these overrides pair malloc with
// free consistently — the diagnostic doesn't apply to a full replacement set.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
#endif
void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return ::operator new(size); }
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(size);
}
void* operator new[](std::size_t size, const std::nothrow_t& tag) noexcept {
  return ::operator new(size, tag);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept { std::free(p); }
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic pop
#endif

namespace {

// Tracing state is process-global; serialize every test through this
// fixture so one test's events never leak into another's assertions.
class ObsTest : public ::testing::Test {
 protected:
  void SetUp() override {
    obs::set_trace_enabled(false);
    obs::clear_trace();
    obs::set_thread_rank(0);
  }
  void TearDown() override {
    obs::set_trace_enabled(false);
    obs::clear_trace();
  }
};

#ifndef PYHPC_OBS_NO_TRACE

TEST_F(ObsTest, SpanNestingRecordsBothEvents) {
  obs::set_trace_enabled(true);
  {
    obs::Span outer("outer", "test");
    outer.arg("depth", static_cast<std::int64_t>(0));
    {
      obs::Span inner("inner", "test");
      inner.arg("depth", static_cast<std::int64_t>(1));
      inner.arg("label", "leaf");
    }
  }
  obs::set_trace_enabled(false);

  EXPECT_EQ(obs::trace_event_count(), 2u);
  const std::string json = obs::trace_json();
  // The inner span finishes (and is recorded) first.
  const auto inner_pos = json.find("\"name\":\"inner\"");
  const auto outer_pos = json.find("\"name\":\"outer\"");
  ASSERT_NE(inner_pos, std::string::npos);
  ASSERT_NE(outer_pos, std::string::npos);
  EXPECT_LT(inner_pos, outer_pos);
  EXPECT_NE(json.find("\"label\":\"leaf\""), std::string::npos);
}

TEST_F(ObsTest, JsonGoldenShape) {
  obs::set_trace_enabled(true);
  {
    obs::Span span("shape_check", "test");
    span.arg("count", static_cast<std::int64_t>(3));
    span.arg("ratio", 0.5);
  }
  obs::instant("marker", "test");
  obs::counter("queue", "test", 7.0);
  obs::set_trace_enabled(false);

  const std::string json = obs::trace_json();
  // Chrome trace_event envelope.
  EXPECT_EQ(json.rfind("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[", 0), 0u);
  EXPECT_EQ(json.back(), '}');
  // Complete span with duration and args.
  EXPECT_NE(json.find("\"name\":\"shape_check\",\"cat\":\"test\",\"ph\":\"X\""),
            std::string::npos);
  EXPECT_NE(json.find("\"dur\":"), std::string::npos);
  EXPECT_NE(json.find("\"args\":{\"count\":3,\"ratio\":0.5}"),
            std::string::npos);
  // Instant and counter phases.
  EXPECT_NE(json.find("\"ph\":\"i\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"C\""), std::string::npos);
  // Everything ran on the default rank.
  EXPECT_NE(json.find("\"tid\":0"), std::string::npos);
}

TEST_F(ObsTest, PerRankBufferIsolationUnderRunner) {
  obs::set_trace_enabled(true);
  pc::run(4, [](pc::Communicator& comm) {
    EXPECT_EQ(obs::thread_rank(), comm.rank());
    obs::Span span("rank_work", "test");
    span.arg("rank", static_cast<std::int64_t>(comm.rank()));
    comm.barrier();
  });
  obs::set_trace_enabled(false);

  const std::string json = obs::trace_json();
  for (int r = 0; r < 4; ++r) {
    EXPECT_NE(json.find("\"tid\":" + std::to_string(r)), std::string::npos)
        << "no events recorded for rank " << r;
  }
  EXPECT_NE(json.find("\"name\":\"barrier\""), std::string::npos);
}

TEST_F(ObsTest, DisabledModeAllocatesNothing) {
  obs::set_trace_enabled(false);
  const std::uint64_t before = g_allocations.load();
  for (int i = 0; i < 1000; ++i) {
    obs::Span span("hot", "test");
    span.arg("i", static_cast<std::int64_t>(i));
    span.arg("x", 0.5);
    span.arg("s", "literal");
    obs::instant("marker", "test");
    obs::counter("value", "test", 1.0);
  }
  const std::uint64_t after = g_allocations.load();
  EXPECT_EQ(after, before)
      << "disabled instrumentation must not touch the allocator";
}

TEST_F(ObsTest, WriteTraceProducesLoadableFile) {
  obs::set_trace_enabled(true);
  { obs::Span span("file_span", "test"); }
  obs::set_trace_enabled(false);

  const std::string path = ::testing::TempDir() + "obs_test_trace.json";
  ASSERT_TRUE(obs::write_trace(path));
  std::FILE* f = std::fopen(path.c_str(), "rb");
  ASSERT_NE(f, nullptr);
  std::string contents(1 << 12, '\0');
  const std::size_t n = std::fread(contents.data(), 1, contents.size(), f);
  std::fclose(f);
  contents.resize(n);
  EXPECT_EQ(contents, obs::trace_json());
  std::remove(path.c_str());
}

#endif  // PYHPC_OBS_NO_TRACE

// ---- metrics registry ------------------------------------------------------

TEST_F(ObsTest, MetricsRegistryKindsAndSnapshot) {
  obs::MetricsRegistry reg;
  reg.add("hits", 2.0);
  reg.add("hits", 3.0);
  reg.set("depth", 9.0);
  reg.set("depth", 4.0);
  reg.set_max("peak", 10.0);
  reg.set_max("peak", 7.0);

  EXPECT_DOUBLE_EQ(reg.value("hits"), 5.0);    // counter accumulates
  EXPECT_DOUBLE_EQ(reg.value("depth"), 4.0);   // gauge: last write wins
  EXPECT_DOUBLE_EQ(reg.value("peak"), 10.0);   // max-gauge keeps the max
  EXPECT_FALSE(reg.has("missing"));
  EXPECT_DOUBLE_EQ(reg.value("missing"), 0.0);

  const auto snap = reg.snapshot();
  ASSERT_EQ(snap.size(), 3u);  // name-sorted: depth, hits, peak
  EXPECT_EQ(snap[0].name, "depth");
  EXPECT_EQ(snap[0].kind, obs::MetricKind::kGauge);
  EXPECT_EQ(snap[1].name, "hits");
  EXPECT_EQ(snap[1].kind, obs::MetricKind::kCounter);
  EXPECT_EQ(snap[2].name, "peak");
  EXPECT_EQ(snap[2].kind, obs::MetricKind::kMaxGauge);

  const std::string json = obs::metrics_to_json(snap);
  EXPECT_NE(json.find("{\"name\":\"hits\",\"kind\":\"counter\",\"value\":5}"),
            std::string::npos);
  EXPECT_NE(json.find("\"kind\":\"max_gauge\""), std::string::npos);

  reg.reset();
  EXPECT_TRUE(reg.snapshot().empty());
}

TEST_F(ObsTest, RunnerFoldsCommStatsIntoGlobalRegistry) {
  auto& reg = obs::MetricsRegistry::global();
  reg.reset();
  pc::run(3, [](pc::Communicator& comm) {
    comm.barrier();
    (void)comm.allreduce_value(comm.rank(), std::plus<int>{});
  });
  // barrier (1) + allreduce (one collective — recursive doubling, no
  // reduce+broadcast split) on each of 3 ranks.
  EXPECT_DOUBLE_EQ(reg.value("comm.collectives"), 6.0);
  EXPECT_GT(reg.value("comm.coll_messages_sent"), 0.0);
  EXPECT_TRUE(reg.has("comm.mailbox_highwater_messages"));
}

TEST_F(ObsTest, UnifiedSnapshotMergesTimers) {
  auto& reg = obs::MetricsRegistry::global();
  reg.reset();
  pyhpc::teuchos::TimeMonitor::reset_all();
  {
    auto& t = pyhpc::teuchos::TimeMonitor::get("obs_test.phase");
    pyhpc::teuchos::ScopedTimer scoped(t);
  }
  reg.add("obs_test.counter", 1.0);

  const auto snap = obs::unified_snapshot(reg);
  bool saw_counter = false, saw_seconds = false, saw_count = false;
  for (const auto& m : snap) {
    if (m.name == "obs_test.counter") saw_counter = true;
    if (m.name == "timer.obs_test.phase.seconds") saw_seconds = true;
    if (m.name == "timer.obs_test.phase.count") saw_count = true;
  }
  EXPECT_TRUE(saw_counter);
  EXPECT_TRUE(saw_seconds);
  EXPECT_TRUE(saw_count);
  pyhpc::teuchos::TimeMonitor::reset_all();
}

// ---- regression: scalar/expr lazy operators --------------------------------

TEST_F(ObsTest, ScalarExprOperatorsAllOrders) {
  pc::run(2, [](pc::Communicator& comm) {
    auto dist = od::Distribution::block(comm, od::Shape({8}), 0);
    auto x = Arr::full(dist, 4.0);

    auto a = od::eval(2.0 + od::lazy(x));  // was: failed to compile
    auto b = od::eval(od::lazy(x) - 1.0);
    auto c = od::eval(10.0 - od::lazy(x));
    auto d = od::eval(od::lazy(x) / 2.0);
    auto e = od::eval(8.0 / od::lazy(x));
    for (double v : a.local_view()) EXPECT_DOUBLE_EQ(v, 6.0);
    for (double v : b.local_view()) EXPECT_DOUBLE_EQ(v, 3.0);
    for (double v : c.local_view()) EXPECT_DOUBLE_EQ(v, 6.0);
    for (double v : d.local_view()) EXPECT_DOUBLE_EQ(v, 2.0);
    for (double v : e.local_view()) EXPECT_DOUBLE_EQ(v, 2.0);

    // Non-commutative order matters: 10 - x != x - 10.
    auto f = od::eval(od::lazy(x) - 10.0);
    for (double v : f.local_view()) EXPECT_DOUBLE_EQ(v, -6.0);
  });
}

TEST_F(ObsTest, BinaryExprValueTypeUsesCommonType) {
  // A ScalarExpr<int> combined with a double array must evaluate as double,
  // whichever side the scalar sits on.
  using Leaf = od::detail::LeafExpr<double>;
  using IntScalar = od::detail::ScalarExpr<int>;
  using Mixed =
      decltype(pyhpc::odin::apply_binary(std::multiplies<double>{},
                                         std::declval<IntScalar>(),
                                         std::declval<Leaf>()));
  static_assert(std::is_same_v<Mixed::value_type, double>,
                "BinaryExpr::value_type must be the common type of both "
                "operands, not operand A's type alone");

  pc::run(2, [](pc::Communicator& comm) {
    auto dist = od::Distribution::block(comm, od::Shape({6}), 0);
    auto x = Arr::full(dist, 0.5);
    auto y = od::eval(od::constant(3) * od::lazy(x));
    static_assert(std::is_same_v<decltype(y), od::DistArray<double>>);
    for (double v : y.local_view()) EXPECT_DOUBLE_EQ(v, 1.5);
  });
}

// ---- regression: zip kAuto measures once, no recursion re-entry -----------

TEST_F(ObsTest, ZipAutoUsesTwoCollectives) {
  pc::run(4, [](pc::Communicator& comm) {
    const index_t n = 64;
    auto block = od::Distribution::block(comm, od::Shape({n}), 0);
    auto cyclic = od::Distribution::cyclic(comm, od::Shape({n}), 0);
    auto x = Arr::arange(od::Distribution(block), 0.0, 1.0);
    auto y = Arr::arange(od::Distribution(cyclic), 0.0, 2.0);

    comm.stats().reset();
    auto z = x.zip(y, std::plus<double>{}, od::ConformStrategy::kAuto);
    // One fused cost pass = a single two-element allreduce (one collective
    // now that allreduce runs recursive doubling, not reduce+broadcast) +
    // the redistribution alltoallv (1). The old path spent more: two
    // scalar allreduces plus the alltoallv.
    EXPECT_EQ(comm.stats().collectives, 2u)
        << "kAuto zip must measure both directions with one allreduce and "
           "redistribute directly";

    auto full = z.gather();
    for (index_t g = 0; g < n; ++g) {
      EXPECT_DOUBLE_EQ(full[static_cast<std::size_t>(g)],
                       3.0 * static_cast<double>(g));
    }
  });
}

#ifndef PYHPC_OBS_NO_TRACE
TEST_F(ObsTest, ZipAutoRecordsChosenStrategySpan) {
  obs::set_trace_enabled(true);
  pc::run(2, [](pc::Communicator& comm) {
    const index_t n = 32;
    auto block = od::Distribution::block(comm, od::Shape({n}), 0);
    auto cyclic = od::Distribution::cyclic(comm, od::Shape({n}), 0);
    auto x = Arr::full(od::Distribution(block), 1.0);
    auto y = Arr::full(od::Distribution(cyclic), 2.0);
    auto z = x.zip(y, std::plus<double>{}, od::ConformStrategy::kAuto);
    EXPECT_DOUBLE_EQ(z.sum(), 3.0 * static_cast<double>(n));
  });
  obs::set_trace_enabled(false);

  const std::string json = obs::trace_json();
  EXPECT_NE(json.find("\"name\":\"zip.auto_conform\""), std::string::npos);
  EXPECT_NE(json.find("\"cost_left\":"), std::string::npos);
  EXPECT_NE(json.find("\"cost_right\":"), std::string::npos);
  EXPECT_NE(json.find("\"chosen\":"), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"redistribute\""), std::string::npos);
}

// The set-up layer's spans: matrix fill, Import construction and the AMG
// and Jacobi preconditioner constructors, all in category "setup".
void build_setup_objects(pc::Communicator& comm) {
  const auto a = gl::laplace2d(comm, 12, 12);
  pp::AmgPreconditioner amg(a);
  pp::JacobiPreconditioner jacobi(a);
}

TEST_F(ObsTest, SetupSpansRecordedWhenTracing) {
  obs::set_trace_enabled(true);
  pc::run(2, build_setup_objects);
  obs::set_trace_enabled(false);

  const std::string json = obs::trace_json();
  for (const char* name :
       {"crs.fill_complete", "import.build", "amg.setup", "jacobi.setup"}) {
    EXPECT_NE(json.find(std::string("\"name\":\"") + name +
                        "\",\"cat\":\"setup\""),
              std::string::npos)
        << name;
  }
}

TEST_F(ObsTest, SetupSpansSilentWhenTracingOff) {
  pc::run(2, build_setup_objects);
  EXPECT_EQ(obs::trace_event_count(), 0u);
}
#endif  // PYHPC_OBS_NO_TRACE

// ---- regression: reductions on globally empty arrays -----------------------

TEST_F(ObsTest, EmptyArrayReductionsThrow) {
  pc::run(2, [](pc::Communicator& comm) {
    auto dist = od::Distribution::block(comm, od::Shape({0}), 0);
    Arr empty(dist);
    EXPECT_THROW((void)empty.min(), NumericalError);
    EXPECT_THROW((void)empty.max(), NumericalError);
    EXPECT_THROW((void)empty.mean(), NumericalError);
    EXPECT_THROW((void)empty.argmin(), NumericalError);
    // sum of nothing is a well-defined 0 — must keep working.
    EXPECT_DOUBLE_EQ(empty.sum(), 0.0);
  });
}

TEST_F(ObsTest, EmptyLocalRankReductionsStillWork) {
  // 3 elements over 4 ranks: one rank holds nothing but the reduction is
  // still over a non-empty global array.
  pc::run(4, [](pc::Communicator& comm) {
    auto dist = od::Distribution::block(comm, od::Shape({3}), 0);
    auto x = Arr::arange(od::Distribution(dist), 5.0, 1.0);  // 5, 6, 7
    EXPECT_DOUBLE_EQ(x.min(), 5.0);
    EXPECT_DOUBLE_EQ(x.max(), 7.0);
    EXPECT_DOUBLE_EQ(x.mean(), 6.0);
  });
}

}  // namespace
