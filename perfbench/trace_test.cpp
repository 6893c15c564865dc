// Self-time arithmetic of the benchmark's span recorder, on synthetic
// nested spans with known answers. Exits non-zero on the first mismatch.
#include <cstdio>
#include <vector>

#include "trace.hpp"

namespace pb = perfbench;

namespace {

int failures = 0;

void expect(const char* what, long long got, long long want) {
  if (got != want) {
    std::printf("FAIL %s: got %lld, want %lld\n", what, got, want);
    ++failures;
  }
}

pb::SpanRecord span(const char* name, int parent, std::int64_t begin,
                    std::int64_t end, std::int64_t op = 0) {
  return pb::SpanRecord{name, parent, op, begin, end};
}

}  // namespace

int main() {
  {
    // op [0,100) > solve [10,90) > apply [20,30) and [40,60); a leaf.
    const std::vector<pb::SpanRecord> s = {
        span("bench.op", -1, 0, 100), span("solvers.solve", 0, 10, 90),
        span("tpetra.apply", 1, 20, 30), span("tpetra.apply", 1, 40, 60),
        span("comm.barrier", 0, 95, 100)};
    const auto self = pb::self_times(s);
    expect("root self = 100 - 80 - 5", self[0], 15);
    expect("solve self = 80 - 10 - 20", self[1], 50);
    expect("leaf self = duration", self[2], 10);
    expect("leaf self = duration", self[3], 20);
    expect("barrier self", self[4], 5);
  }
  {
    // Overlapping children (two threads' work nested under one span) count
    // their union once; a child running past its parent is clipped.
    const std::vector<pb::SpanRecord> s = {
        span("bench.op", -1, 0, 50), span("odin.kernel", 0, 10, 30),
        span("odin.kernel", 0, 20, 40), span("odin.halo", 0, 45, 70)};
    const auto self = pb::self_times(s);
    expect("union of overlapping children", self[0], 50 - 30 - 5);
    expect("clipped child keeps its own duration", self[3], 25);
  }
  {
    // A span with no children; a zero-length child.
    const std::vector<pb::SpanRecord> s = {span("bench.op", -1, 5, 5),
                                           span("x.y", -1, 0, 10),
                                           span("x.z", 1, 4, 4)};
    const auto self = pb::self_times(s);
    expect("empty span", self[0], 0);
    expect("zero-length child covers nothing", self[1], 10);
  }
  {
    // breakdown(): per-layer self time of the measuring rank, the
    // per-rank maximum of a span, and counters summed over ranks.
    pb::ThreadLog r0, r1;
    r0.rank = 0;
    r1.rank = 1;
    r0.spans = {span("bench.op", -1, 0, 10'000'000, 7),
                span("tpetra.apply", 0, 0, 4'000'000, 7),
                span("comm.barrier", 0, 9'000'000, 10'000'000, 7)};
    r0.counters = {{"comm.p2p_msgs", 7, 3.0}};
    r1.spans = {span("bench.op", -1, 0, 10'000'000, 7),
                span("comm.barrier", 0, 4'000'000, 10'000'000, 7)};
    r1.counters = {{"comm.p2p_msgs", 7, 2.0}};
    const auto ops = pb::breakdown({r0, r1}, "bench.op", 0);
    expect("one op", static_cast<long long>(ops.size()), 1);
    expect("wall ms", static_cast<long long>(ops[0].wall_ms), 10);
    expect("unattributed ms", static_cast<long long>(ops[0].root_self_ms), 5);
    expect("tpetra self ms",
           static_cast<long long>(ops[0].layer_self_ms.at("tpetra")), 4);
    expect("barrier max over ranks",
           static_cast<long long>(ops[0].max_rank_incl_ms.at("comm.barrier")), 6);
    expect("counter summed over ranks",
           static_cast<long long>(ops[0].counters.at("comm.p2p_msgs")), 5);
  }
  std::printf("trace_test %s\n", failures == 0 ? "passed" : "FAILED");
  return failures == 0 ? 0 : 1;
}
