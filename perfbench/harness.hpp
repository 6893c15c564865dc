// Shared pieces of the four workloads: run settings, the result each
// workload hands back, seeded input generation, the closed op loop every
// SPMD workload runs, and the timing decorators around the solver stack.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "comm/communicator.hpp"
#include "precond/preconditioner.hpp"
#include "tpetra/operator.hpp"
#include "trace.hpp"

namespace perfbench {

struct RunConfig {
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;    // traced run: ops picked by trace_op record spans
  bool smoke = false;    // minimal sizes, one op, no scaling phase
  bool corrupt = false;  // smoke only: damage each result before its oracle
};

/// What a workload hands back to main(). Times are wall clock.
struct Result {
  int ranks = 0;  // ranks of the measured world
  std::vector<double> setup_s;       // one sample per world set up
  std::vector<double> op_ms;         // untraced ops of the measured world
  std::vector<double> traced_op_ms;  // traced ops (trace runs only)
  std::vector<double> paired_op_ms;  // the untraced op before each traced one
  double measure_s = 0.0;            // wall time of the op loops
  std::int64_t ops = 0;              // ops completed inside measure_s
  // Scaling baseline: op latencies and throughput at width 1 (one rank, or
  // one client), and the width the measured world adds.
  std::vector<double> base_op_ms;
  double base_ops_per_s = 0.0;
  double width = 1.0;
  bool scaling_by_throughput = false;
  std::int64_t attempted = 0;
  std::int64_t judged = 0;  // attempted ops whose outcome is recorded
  std::int64_t failed = 0;
  std::vector<std::string> failures;  // first few failure reasons
  std::vector<ThreadLog> logs;        // filled by main() after the run
  std::map<std::string, double> totals;  // per-op values not taken per op
  std::vector<std::string> notes;        // printed with the run context
};

/// Every failed op goes through here: counted, and its reason kept.
void record_failure(Result& r, const std::string& why);
/// After a world aborted: the op it was running failed.
void record_abort(Result& r, const std::string& why);

/// Deterministic value in [-1, 1) for element `index` of input stream
/// `stream` under `seed`; the same triple gives the same value anywhere.
double seeded_value(std::uint64_t seed, std::uint64_t stream,
                    std::uint64_t index);
/// Deterministic integer in [0, n) (same contract as seeded_value).
std::uint64_t seeded_index(std::uint64_t seed, std::uint64_t stream,
                           std::uint64_t index, std::uint64_t n);

double median(std::vector<double> v);
/// Nearest-rank percentile, q in [0, 1].
double percentile(std::vector<double> v, double q);

/// One op of an SPMD workload, run on every rank: does the timed work and
/// returns an oracle closure, evaluated after the op has closed (untimed,
/// collective), which returns an empty string when the op's output is
/// right and otherwise the reason it is not.
using OracleFn = std::function<std::string()>;
using OpFn = std::function<OracleFn(std::int64_t op)>;

/// TaskPool lanes per rank (CommConfig::threads) in every world, so the
/// runnable threads never exceed the 4 ranks.
constexpr int kPoolThreads = 1;
/// Measured worlds per run: setup_s is the median of their set-ups, and the
/// op loops share the measuring time between them.
constexpr int kRounds = 3;
/// Traced runs add a width-1 scaling baseline after the measured worlds,
/// for this share of the measuring time but at least kBaseOps ops.
constexpr double kBaseShare = 0.1;
constexpr std::int64_t kBaseOps = 5;
/// Traced ops per world (or per service client), which bounds the size of
/// the trace.
constexpr std::int64_t kMaxTracedOps = 500;

/// Whether op `i` of a traced run records spans: odd ops only, thinned to
/// at most kMaxTracedOps spread evenly over the measuring time, of which
/// the share `elapsed` has passed. The even op before each traced op is its
/// untraced pair, against which the tracing overhead is measured.
bool trace_op(std::int64_t i, std::int64_t traced_so_far, double elapsed);

/// Runs `body` on a fresh world of `ranks` rank threads, one pool lane
/// each. A world that aborts (an exception on any rank) fails the op it
/// was running; the run goes on.
void run_world(int ranks, Result& result,
               const std::function<void(pyhpc::comm::Communicator&)>& body);

/// Builds, on every rank of a fresh world, everything the workload reuses
/// across ops, and returns the op. `measured` is false for the width-1
/// baseline world.
using SetupFn =
    std::function<OpFn(pyhpc::comm::Communicator& comm, bool measured)>;

/// Runs an SPMD workload: kRounds worlds of `ranks` ranks, each set up by
/// `setup` and then driven in a closed loop — rank 0 starts the next op
/// only after the last one closed on every rank — for its share of
/// cfg.seconds; a traced run then adds the 1-rank baseline. Each op ends in
/// a barrier whose wait is the span comm.barrier. In a traced run the ops
/// trace_op picks record spans and per-rank CommStats deltas. Oracle verdicts are agreed
/// across ranks and counted into `result`.
void run_spmd(const RunConfig& cfg, int ranks, Result& result,
              const SetupFn& setup);

/// Runs `f` inside span `name` and returns what it returns.
template <class F>
auto timed(const char* name, F&& f) {
  Scope s(name);
  return f();
}

/// Spans tpetra.apply around each apply the solver makes.
class TimedOperator final : public pyhpc::tpetra::Operator<double> {
 public:
  explicit TimedOperator(const pyhpc::tpetra::Operator<double>& inner)
      : inner_(inner) {}
  void apply(const vector_type& x, vector_type& y) const override {
    Scope s("tpetra.apply");
    inner_.apply(x, y);
  }
  const map_type& domain_map() const override { return inner_.domain_map(); }
  const map_type& range_map() const override { return inner_.range_map(); }

 private:
  const pyhpc::tpetra::Operator<double>& inner_;
};

/// Spans precond.apply around each preconditioner application.
class TimedPreconditioner final : public pyhpc::precond::Preconditioner {
 public:
  explicit TimedPreconditioner(const pyhpc::precond::Preconditioner& inner)
      : inner_(inner) {}
  void apply(const pyhpc::precond::Vector& r,
             pyhpc::precond::Vector& z) const override {
    Scope s("precond.apply");
    inner_.apply(r, z);
  }
  std::string name() const override { return inner_.name(); }

 private:
  const pyhpc::precond::Preconditioner& inner_;
};

// Workloads (one file each).
Result run_poisson_cold(const RunConfig& cfg);
Result run_heat_transient(const RunConfig& cfg);
Result run_odin_analytics(const RunConfig& cfg);
Result run_service_mix(const RunConfig& cfg);

}  // namespace perfbench
