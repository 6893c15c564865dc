// service_mix: the driver/worker control plane. A 3-rank world (1 driver,
// 2 workers); on the driver rank 2 client Sessions each run a closed loop
// of rounds — create_full, create_full, axpy, block_solve, reduce_sum, then
// free_array x4 — on small arrays. One op is one round; the driver rank
// only joins the clients, so 2 clients + 2 workers = 4 runnable threads.
// Framing, acks, coalescing and SetupCache hits are the whole cost here.
#include <chrono>
#include <cmath>
#include <cstdint>
#include <iterator>
#include <thread>

#include "harness.hpp"
#include "obs/metrics.hpp"
#include "odin/service.hpp"

namespace perfbench {

namespace {

namespace od = pyhpc::odin;

constexpr int kRanks = 3;
constexpr int kClients = 2;
constexpr std::uint64_t kStreamSize = 41, kStreamV1 = 42, kStreamV2 = 43,
                        kStreamAlpha = 44;
// Array lengths drawn per round; repeats make the workers' Thomas
// factorizations SetupCache hits.
constexpr std::int64_t kSizes[] = {64, 96, 128, 160};
constexpr std::int64_t kSmokeSize = 8;

struct RoundInput {
  std::int64_t n;
  double v1, v2, alpha;
};

RoundInput round_input(std::uint64_t seed, bool smoke, int lane,
                       std::int64_t round) {
  const auto i = static_cast<std::uint64_t>(round) * kClients +
                 static_cast<std::uint64_t>(lane);
  return RoundInput{smoke ? kSmokeSize : kSizes[seeded_index(seed, kStreamSize, i, 4)],
                    seeded_value(seed, kStreamV1, i) + 2.0,
                    seeded_value(seed, kStreamV2, i) + 2.0,
                    seeded_value(seed, kStreamAlpha, i)};
}

// reduce_sum(block_solve(alpha*v1 + v2)) in closed form: each worker solves
// tridiag(-1, 2, -1) x = c 1 on its m-element block, whose solution
// x_i = c i (m + 1 - i) / 2 sums to c m (m + 1) (m + 2) / 12.
double expected_sum(const RoundInput& in, int workers) {
  const double c = in.alpha * in.v1 + in.v2;
  double total = 0.0;
  for (int w = 0; w < workers; ++w) {
    const double m = static_cast<double>(in.n / workers + (w < in.n % workers ? 1 : 0));
    total += c * m * (m + 1.0) * (m + 2.0) / 12.0;
  }
  return total;
}

double registry(const char* name) {
  auto& reg = pyhpc::obs::MetricsRegistry::global();
  return reg.has(name) ? reg.value(name) : 0.0;
}

// Counters taken over every measured round of the run.
struct Totals {
  double rounds = 0, payloads = 0, messages = 0, batches = 0, retries = 0,
         parks = 0, sheds = 0, hits = 0, misses = 0, p2p_msgs = 0,
         p2p_bytes = 0, coll_calls = 0, coll_bytes = 0, bytes_copied = 0;
};

struct Client {
  std::vector<double> op_ms, traced_op_ms, paired_op_ms;
  std::int64_t attempted = 0, failed = 0;
  std::vector<std::string> failures;
};

void run_client(od::Session& s, int lane, const RunConfig& cfg, bool traced_run,
                std::int64_t start, std::int64_t deadline,
                std::int64_t max_rounds, Client& out) {
  bind_thread(0, lane + 1);
  std::int64_t traced_so_far = 0;
  double last_untraced_ms = 0.0;
  for (std::int64_t round = 0; round < max_rounds; ++round) {
    const std::int64_t now = now_ns();
    if (now >= deadline) break;
    const RoundInput in = round_input(cfg.seed, cfg.smoke, lane, round);
    const bool traced =
        traced_run &&
        trace_op(round, traced_so_far,
                 static_cast<double>(now - start) /
                     static_cast<double>(deadline - start));
    begin_op(static_cast<std::int64_t>(lane) * 1000000000LL + round, traced);
    ++out.attempted;
    std::string why;
    const std::int64_t t0 = now_ns();
    try {
      Scope op("bench.op");
      auto submit = [](auto&& f) { return timed("service.submit", f); };
      const int x = submit([&] { return s.create_full(in.n, in.v1); });
      const int y = submit([&] { return s.create_full(in.n, in.v2); });
      const int z = submit([&] { return s.axpy(in.alpha, x, y); });
      const int w = submit([&] { return s.block_solve(z); });
      double got = timed("service.reduce_wait", [&] { return s.reduce_sum(w); });
      for (const int id : {x, y, z, w}) {
        submit([&] {
          s.free_array(id);
          return 0;
        });
      }
      if (cfg.corrupt) got += 1.0;
      const double want = expected_sum(in, kRanks - 1);
      if (!(std::abs(got - want) <= 1e-9 * std::abs(want))) {
        why = "reduce_sum " + std::to_string(got) + " vs closed form " +
              std::to_string(want);
      }
    } catch (const std::exception& e) {
      why = std::string("round threw: ") + e.what();
    }
    const double ms = static_cast<double>(now_ns() - t0) * 1e-6;
    if (traced) {
      ++traced_so_far;
      out.traced_op_ms.push_back(ms);
      out.paired_op_ms.push_back(last_untraced_ms);
    } else {
      out.op_ms.push_back(ms);
      last_untraced_ms = ms;
    }
    begin_op(-1, false);
    if (!why.empty()) {
      ++out.failed;
      if (out.failures.size() < 5) out.failures.push_back(why);
    }
  }
}

od::ServiceOptions service_options() {
  od::ServiceOptions o;
  o.driver.ack_timeout = std::chrono::milliseconds(60);
  o.driver.max_retries = 12;
  o.driver.reply_timeout = std::chrono::milliseconds(2000);
  return o;
}

void world(int clients, const RunConfig& cfg, double seconds,
           std::int64_t max_rounds, bool baseline, Result& r, Totals& tot) {
  const std::int64_t t0 = now_ns();
  run_world(kRanks, r, [&](pyhpc::comm::Communicator& comm) {
    od::ServiceContext svc(comm, service_options());
    if (!svc.is_driver()) {
      svc.worker_loop();
      return;
    }
    std::vector<od::Session> sessions;
    for (int c = 0; c < clients; ++c) sessions.push_back(svc.open_session());
    // Warm-up: one solve per array length fills the workers' factorization
    // cache, which every later round reuses.
    for (const std::int64_t n : cfg.smoke ? std::vector<std::int64_t>{kSmokeSize}
                                          : std::vector<std::int64_t>(
                                                std::begin(kSizes), std::end(kSizes))) {
      auto& s = sessions.front();
      const int x = s.create_full(n, 1.0);
      const int y = s.block_solve(x);
      s.reduce_sum(y);
      s.free_array(x);
      s.free_array(y);
    }
    if (!baseline) r.setup_s.push_back(static_cast<double>(now_ns() - t0) * 1e-9);

    const auto& stats = comm.stats();
    const auto stats0 = stats;
    const double payloads0 = static_cast<double>(svc.driver().payloads_sent());
    const double messages0 = static_cast<double>(svc.messages_submitted());
    const double batches0 = static_cast<double>(svc.batches_shipped());
    const double parks0 = static_cast<double>(svc.parks());
    const double sheds0 = static_cast<double>(svc.sheds());
    const double hits0 = registry("service.cache.hits");
    const double misses0 = registry("service.cache.misses");

    std::vector<Client> results(static_cast<std::size_t>(clients));
    const std::int64_t start = now_ns();
    const std::int64_t deadline = start + static_cast<std::int64_t>(seconds * 1e9);
    {
      std::vector<std::thread> threads;
      for (int c = 0; c < clients; ++c) {
        threads.emplace_back([&, c] {
          run_client(sessions[static_cast<std::size_t>(c)], c, cfg,
                     cfg.trace && !baseline, start, deadline, max_rounds,
                     results[static_cast<std::size_t>(c)]);
        });
      }
      for (auto& t : threads) t.join();
    }
    const double wall = static_cast<double>(now_ns() - start) * 1e-9;

    std::int64_t rounds = 0;
    for (const auto& c : results) {
      auto& sink = baseline ? r.base_op_ms : r.op_ms;
      sink.insert(sink.end(), c.op_ms.begin(), c.op_ms.end());
      r.traced_op_ms.insert(r.traced_op_ms.end(), c.traced_op_ms.begin(),
                            c.traced_op_ms.end());
      r.paired_op_ms.insert(r.paired_op_ms.end(), c.paired_op_ms.begin(),
                            c.paired_op_ms.end());
      rounds += static_cast<std::int64_t>(c.op_ms.size() + c.traced_op_ms.size());
      r.attempted += c.attempted;
      r.judged += c.attempted;
      r.failed += c.failed;
      for (const auto& f : c.failures) {
        if (r.failures.size() < 5) r.failures.push_back(f);
      }
    }
    if (baseline) {
      r.base_ops_per_s = static_cast<double>(rounds) / wall;
    } else {
      r.measure_s += wall;
      r.ops += rounds;
      tot.rounds += static_cast<double>(rounds);
      tot.payloads += static_cast<double>(svc.driver().payloads_sent()) - payloads0;
      tot.messages += static_cast<double>(svc.messages_submitted()) - messages0;
      tot.batches += static_cast<double>(svc.batches_shipped()) - batches0;
      tot.parks += static_cast<double>(svc.parks()) - parks0;
      tot.sheds += static_cast<double>(svc.sheds()) - sheds0;
      tot.hits += registry("service.cache.hits") - hits0;
      tot.misses += registry("service.cache.misses") - misses0;
      tot.retries += static_cast<double>(stats.retries - stats0.retries);
      tot.p2p_msgs += static_cast<double>(stats.p2p_messages_sent - stats0.p2p_messages_sent);
      tot.p2p_bytes += static_cast<double>(stats.p2p_bytes_sent - stats0.p2p_bytes_sent);
      tot.coll_calls += static_cast<double>(stats.collectives - stats0.collectives);
      tot.coll_bytes += static_cast<double>(stats.coll_bytes_sent - stats0.coll_bytes_sent);
      tot.bytes_copied += static_cast<double>(stats.bytes_copied - stats0.bytes_copied);
    }
    for (auto& s : sessions) s.close();
    svc.shutdown();
  });
}

}  // namespace

Result run_service_mix(const RunConfig& cfg) {
  Result r;
  r.ranks = kRanks;
  r.width = kClients;
  r.scaling_by_throughput = true;
  r.notes.push_back("1 driver + 2 workers, 2 client sessions in closed loops; "
                    "comm.* counts the driver rank's sends per round");
  Totals tot;
  if (cfg.smoke) {
    world(kClients, cfg, 60.0, 1, false, r, tot);
    return r;
  }
  const double share = cfg.seconds / kRounds;
  for (int round = 0; round < kRounds; ++round) {
    world(kClients, cfg, share, INT64_MAX, false, r, tot);
  }
  if (cfg.trace) {
    world(1, cfg, cfg.seconds * kBaseShare, INT64_MAX, true, r, tot);
  }

  const double rounds = std::max(1.0, tot.rounds);
  r.totals["driver.payloads_per_op"] = tot.payloads / rounds;
  r.totals["service.messages_per_payload"] =
      tot.batches > 0 ? tot.messages / tot.batches : 0.0;
  r.totals["driver.retransmits"] = tot.retries;
  r.totals["service.parks"] = tot.parks;
  r.totals["service.sheds"] = tot.sheds;
  r.totals["util.setup_cache_hit_rate"] =
      tot.hits + tot.misses > 0 ? tot.hits / (tot.hits + tot.misses) : 0.0;
  r.totals["comm.p2p_msgs"] = tot.p2p_msgs / rounds;
  r.totals["comm.p2p_bytes"] = tot.p2p_bytes / rounds;
  r.totals["comm.coll_calls"] = tot.coll_calls / rounds;
  r.totals["comm.coll_bytes"] = tot.coll_bytes / rounds;
  r.totals["comm.bytes_copied"] = tot.bytes_copied / rounds;
  return r;
}

}  // namespace perfbench
