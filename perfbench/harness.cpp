#include "harness.hpp"

#include <algorithm>
#include <cmath>
#include <exception>
#include <functional>

#include "comm/runner.hpp"
#include "obs/metrics.hpp"

namespace perfbench {

namespace {

std::uint64_t mix64(std::uint64_t z) {
  z += 0x9e3779b97f4a7c15ULL;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

std::uint64_t seeded_bits(std::uint64_t seed, std::uint64_t stream,
                          std::uint64_t index) {
  return mix64(mix64(mix64(seed) ^ stream) ^ index);
}

double pool_tasks() {
  auto& reg = pyhpc::obs::MetricsRegistry::global();
  return reg.has("pool.tasks") ? reg.value("pool.tasks") : 0.0;
}

}  // namespace

void record_failure(Result& r, const std::string& why) {
  ++r.failed;
  if (r.failures.size() < 5) r.failures.push_back(why);
}

void record_abort(Result& r, const std::string& why) {
  if (r.attempted > r.judged) {
    r.judged = r.attempted;
    record_failure(r, why);
  }
}

double seeded_value(std::uint64_t seed, std::uint64_t stream,
                    std::uint64_t index) {
  // 53 random bits onto [-1, 1).
  return static_cast<double>(seeded_bits(seed, stream, index) >> 11) *
             (2.0 / 9007199254740992.0) -
         1.0;
}

std::uint64_t seeded_index(std::uint64_t seed, std::uint64_t stream,
                           std::uint64_t index, std::uint64_t n) {
  return seeded_bits(seed, stream, index) % n;
}

double median(std::vector<double> v) { return percentile(std::move(v), 0.5); }

double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(v.size())));
  return v[std::min(v.size() - 1, rank == 0 ? 0 : rank - 1)];
}

bool trace_op(std::int64_t i, std::int64_t traced_so_far, double elapsed) {
  return i % 2 == 1 &&
         static_cast<double>(traced_so_far) <
             static_cast<double>(kMaxTracedOps) * std::min(elapsed, 1.0) + 1.0;
}

void run_world(int ranks, Result& result,
               const std::function<void(pyhpc::comm::Communicator&)>& body) {
  pyhpc::comm::CommConfig config;
  config.threads = kPoolThreads;
  try {
    pyhpc::comm::run(ranks, config, [&](pyhpc::comm::Communicator& comm) {
      bind_thread(comm.rank(), 0);
      body(comm);
    });
  } catch (const std::exception& e) {
    record_abort(result, std::string("world aborted: ") + e.what());
  }
}

namespace {

struct LoopOutcome {
  double wall_s = 0.0;
  std::int64_t ops = 0;
};

// The closed loop of one world (see run_spmd). Rank 0 appends each op's
// latency to `op_ms`; when `may_trace` (the measured worlds of a traced
// run), a traced op's latency goes to result.traced_op_ms instead, and the
// op before it to result.paired_op_ms.
LoopOutcome op_loop(pyhpc::comm::Communicator& comm, const RunConfig& cfg,
                    double seconds, std::int64_t min_ops,
                    std::int64_t max_ops, std::int64_t op_base,
                    std::vector<double>& op_ms, bool may_trace,
                    Result& result, const OpFn& op) {
  LoopOutcome out;
  const bool root = comm.rank() == 0;
  const std::int64_t start = now_ns();
  const std::int64_t deadline =
      start + static_cast<std::int64_t>(seconds * 1e9);
  std::int64_t traced_so_far = 0;
  double last_untraced_ms = 0.0;
  for (std::int64_t i = 0;; ++i) {
    // Rank 0 decides whether the next op runs (1) and is traced (2).
    int go = 0;
    if (root) {
      const std::int64_t now = now_ns();
      if (i < max_ops && (i < min_ops || now < deadline)) {
        const double elapsed =
            seconds > 0 ? static_cast<double>(now - start) / (seconds * 1e9) : 1.0;
        go = may_trace && cfg.trace && trace_op(i, traced_so_far, elapsed) ? 2 : 1;
      }
    }
    go = comm.broadcast_value(go, 0);
    if (go == 0) break;
    if (root) ++result.attempted;

    const bool traced_op = go == 2;
    begin_op(op_base + i, traced_op);
    const pyhpc::comm::CommStats before = comm.stats();
    const double tasks_before = traced_op && root ? pool_tasks() : 0.0;
    const std::int64_t t0 = now_ns();
    OracleFn oracle;
    {
      Scope op_span("bench.op");
      // An exception here escapes comm::run, which aborts the world; the
      // workload counts the op in flight as failed.
      oracle = op(op_base + i);
      if (traced_op) {
        const auto& s = comm.stats();
        count("comm.p2p_msgs",
              static_cast<double>(s.p2p_messages_sent - before.p2p_messages_sent));
        count("comm.p2p_bytes",
              static_cast<double>(s.p2p_bytes_sent - before.p2p_bytes_sent));
        count("comm.coll_calls",
              static_cast<double>(s.collectives - before.collectives));
        count("comm.coll_bytes",
              static_cast<double>(s.coll_bytes_sent - before.coll_bytes_sent));
        count("comm.bytes_copied",
              static_cast<double>(s.bytes_copied - before.bytes_copied));
        if (root) count("util.pool_tasks", pool_tasks() - tasks_before);
      }
      Scope wait_span("comm.barrier");
      comm.barrier();
    }
    const std::int64_t t1 = now_ns();
    begin_op(-1, false);

    std::string why = oracle ? oracle() : std::string();
    const int bad = comm.allreduce_value(why.empty() ? 0 : 1, std::plus<int>{});
    if (!root) continue;
    const double ms = static_cast<double>(t1 - t0) * 1e-6;
    if (traced_op) {
      ++traced_so_far;
      result.traced_op_ms.push_back(ms);
      result.paired_op_ms.push_back(last_untraced_ms);
    } else {
      op_ms.push_back(ms);
      last_untraced_ms = ms;
    }
    ++out.ops;
    ++result.judged;
    if (bad != 0) {
      record_failure(result, why.empty() ? "oracle mismatch on another rank"
                                         : why);
    }
  }
  out.wall_s = static_cast<double>(now_ns() - start) * 1e-9;
  return out;
}

}  // namespace

void run_spmd(const RunConfig& cfg, int ranks, Result& result,
              const SetupFn& setup) {
  result.ranks = ranks;
  result.width = ranks;
  auto world = [&](int n, double seconds, std::int64_t min_ops,
                   std::int64_t max_ops, bool measured) {
    const std::int64_t base = result.attempted;  // op ids unique per run
    const std::int64_t t0 = now_ns();
    run_world(n, result, [&](pyhpc::comm::Communicator& comm) {
      const OpFn op = setup(comm, measured);
      comm.barrier();
      const bool root = comm.rank() == 0;
      if (root && measured) {
        result.setup_s.push_back(static_cast<double>(now_ns() - t0) * 1e-9);
      }
      const auto out = op_loop(
          comm, cfg, seconds, min_ops, max_ops, base,
          measured ? result.op_ms : result.base_op_ms, measured, result, op);
      if (root && measured) {
        result.measure_s += out.wall_s;
        result.ops += out.ops;
      }
    });
  };
  if (cfg.smoke) {
    world(ranks, 0.0, 1, 1, true);
    return;
  }
  for (int round = 0; round < kRounds; ++round) {
    world(ranks, cfg.seconds / kRounds, 1, INT64_MAX, true);
  }
  if (cfg.trace) world(1, cfg.seconds * kBaseShare, kBaseOps, INT64_MAX, false);
}

}  // namespace perfbench
