// Benchmark-owned tracing: spans recorded by the benchmark's own code around
// each call into a layer's public functions. They live in their own category
// ("perfbench") and their own in-memory buffers, so they never mix with the
// spans the library itself emits through obs::Span.
//
// A span name is "<layer>.<what>"; the layer is the text before the first
// dot. Every span of one op carries that op's id. A span's self time is its
// duration minus the part of its interval that its child spans cover.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct SpanRecord {
  const char* name = "";  // static string "<layer>.<what>"
  int parent = -1;        // index into the same thread's span list
  std::int64_t op = -1;   // id shared by every span of one op
  std::int64_t begin_ns = 0;
  std::int64_t end_ns = 0;
};

struct CounterRecord {
  const char* name = "";
  std::int64_t op = -1;
  double value = 0.0;
};

/// Everything one thread recorded. `rank` is the comm rank the thread runs,
/// `lane` tells apart several threads of one rank (service clients).
struct ThreadLog {
  int rank = 0;
  int lane = 0;
  std::vector<SpanRecord> spans;
  std::vector<CounterRecord> counters;
  std::vector<int> open;  // stack of open span indices
};

/// "tpetra" for "tpetra.apply".
std::string layer_of(const std::string& span_name);

/// Self time of every span in `spans` (one thread's list, parents before
/// children): duration minus the union of its children's intervals, each
/// clipped to the parent's interval.
std::vector<std::int64_t> self_times(const std::vector<SpanRecord>& spans);

// ---- recording (per thread) -------------------------------------------------

/// Starts a fresh log for the calling thread.
void bind_thread(int rank, int lane);
/// Sets the op the calling thread works on and whether it records spans.
void begin_op(std::int64_t op, bool traced);
/// Adds `value` to counter `name` of the calling thread's current op.
void count(const char* name, double value);

/// RAII span; records nothing unless the calling thread's op is traced.
class Scope {
 public:
  explicit Scope(const char* name);
  ~Scope();
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  ThreadLog* log_ = nullptr;
  int index_ = -1;
};

/// Moves out every log recorded since the last call. Call only after the
/// recording threads have joined.
std::vector<ThreadLog> take_logs();

// ---- analysis ---------------------------------------------------------------

/// Per-op breakdown of one measuring thread's op: the root span named
/// `root` gives the wall time; the other spans of the thread give self time
/// per layer and inclusive time and calls per span name. Counters and the
/// per-rank maximum of each span name are gathered over every thread.
struct OpBreakdown {
  std::int64_t op = -1;
  double wall_ms = 0.0;
  double root_self_ms = 0.0;  // time in no named layer
  std::map<std::string, double> layer_self_ms;
  std::map<std::string, double> incl_ms;
  std::map<std::string, int> calls;
  std::map<std::string, double> max_rank_incl_ms;
  std::map<std::string, double> counters;
};

std::vector<OpBreakdown> breakdown(const std::vector<ThreadLog>& logs,
                                   const char* root, int measuring_rank);

/// Writes a Chrome trace (JSON array of complete events, category
/// "perfbench"); timestamps relative to `t0_ns`.
void write_chrome_trace(const std::string& path,
                        const std::vector<ThreadLog>& logs,
                        std::int64_t t0_ns);

}  // namespace perfbench
