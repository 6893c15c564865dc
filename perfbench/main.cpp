// perfbench — the repository benchmark. One process runs one workload for a
// fixed measuring time, checks every op against its oracle, and prints the
// end-to-end metrics (untraced run) or the per-layer metrics (traced run) as
// the last line of standard output, one JSON object.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1 [--out DIR]
//   perfbench --smoke            one op of every workload at minimal size,
//                                each oracle fed a good and a corrupted result
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "harness.hpp"
#include "host.hpp"

namespace pb = perfbench;

namespace {

struct Workload {
  const char* name;
  pb::Result (*run)(const pb::RunConfig&);
};

const Workload kWorkloads[] = {
    {"poisson_cold", pb::run_poisson_cold},
    {"heat_transient", pb::run_heat_transient},
    {"odin_analytics", pb::run_odin_analytics},
    {"service_mix", pb::run_service_mix},
};

// Layers named after the modules; self time outside all of them is
// reported as unattributed.
const char* kLayers[] = {"tpetra", "precond", "solvers", "seamless",
                         "odin",   "service", "comm"};

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload NAME --seed N "
               "--seconds S --trace 0|1 [--out DIR]\n       perfbench --smoke\n",
               why);
  std::exit(2);
}

std::string json_escape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += (c == '\n' || c == '\t') ? ' ' : c;
  }
  return out;
}

void print_context(const pb::HostInfo& h, const char* workload,
                   const pb::Result& r, std::uint64_t seed, bool trace) {
  std::printf(
      "# context {\"workload\":\"%s\",\"seed\":%llu,\"trace\":%d,"
      "\"nproc\":%u,\"l1d_bytes\":%ld,\"l2_bytes\":%ld,\"l3_bytes\":%ld,"
      "\"compiler\":\"%s\",\"build_type\":\"%s\",\"ranks\":%d,"
      "\"pool_threads\":%d}\n",
      workload, static_cast<unsigned long long>(seed), trace ? 1 : 0, h.nproc,
      h.l1d_bytes, h.l2_bytes, h.l3_bytes, json_escape(h.compiler).c_str(),
      h.build_type.c_str(), r.ranks, pb::kPoolThreads);
  for (const auto& note : r.notes) std::printf("# note %s\n", note.c_str());
}

void print_result(const pb::Result& r, const std::vector<Metric>& metrics) {
  const bool correct = r.failed == 0 && r.attempted >= 1;
  std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, "
              "\"metrics\": {",
              correct ? "true" : "false", static_cast<long long>(r.attempted),
              static_cast<long long>(r.failed));
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", metrics[i].name.c_str(), metrics[i].value,
                metrics[i].unit.c_str());
  }
  std::printf("}}\n");
}

std::vector<Metric> end_to_end(const pb::Result& r) {
  std::printf("# ops %zu op samples\n", r.op_ms.size());
  return {
      {"setup_s", pb::median(r.setup_s), "s"},
      {"op_p50_ms", pb::median(r.op_ms), "ms"},
      {"ops_per_s",
       r.measure_s > 0.0 ? static_cast<double>(r.ops) / r.measure_s : 0.0,
       "1/s"},
      {"peak_rss_mb", pb::peak_rss_mib(), "MiB"},
  };
}

// Work rate at full width over width times the rate at width 1: W1-W3 the
// same op on 1 rank against 4 ranks, service_mix 1 client against 2.
double scaling_eff(const pb::Result& r) {
  if (r.scaling_by_throughput) {
    const double full = static_cast<double>(r.ops) / r.measure_s;
    return full / (r.width * r.base_ops_per_s);
  }
  return pb::median(r.base_op_ms) / (r.width * pb::median(r.op_ms));
}

// Median over traced ops of one per-op value.
double per_op(const std::vector<pb::OpBreakdown>& ops,
              const std::function<double(const pb::OpBreakdown&)>& f) {
  std::vector<double> v;
  v.reserve(ops.size());
  for (const auto& b : ops) v.push_back(f(b));
  return pb::median(v);
}

double get(const std::map<std::string, double>& m, const std::string& k) {
  auto it = m.find(k);
  return it == m.end() ? 0.0 : it->second;
}

void print_layer_table(const char* workload,
                       const std::vector<pb::OpBreakdown>& ops) {
  const double wall = per_op(ops, [](const auto& b) { return b.wall_ms; });
  std::printf("# per-layer self time, %s: median per traced op over %zu ops "
              "(measuring rank), op wall %.3f ms\n",
              workload, ops.size(), wall);
  std::printf("#   %-14s %12s %8s\n", "layer", "self_ms", "share");
  for (const char* layer : kLayers) {
    const double ms =
        per_op(ops, [&](const auto& b) { return get(b.layer_self_ms, layer); });
    std::printf("#   %-14s %12.4f %7.1f%%\n", layer, ms,
                wall > 0 ? 100.0 * ms / wall : 0.0);
  }
  const double un = per_op(ops, [](const auto& b) { return b.root_self_ms; });
  std::printf("#   %-14s %12.4f %7.1f%%\n", "(unattributed)", un,
              wall > 0 ? 100.0 * un / wall : 0.0);
  std::map<std::string, bool> names;
  for (const auto& b : ops) {
    for (const auto& [n, ms] : b.incl_ms) names[n] = true;
  }
  std::printf("#   %-26s %12s %8s\n", "span", "incl_ms", "calls");
  for (const auto& [n, unused] : names) {
    const double ms = per_op(ops, [&](const auto& b) { return get(b.incl_ms, n); });
    const double calls = per_op(ops, [&](const auto& b) {
      auto it = b.calls.find(n);
      return it == b.calls.end() ? 0.0 : static_cast<double>(it->second);
    });
    std::printf("#   %-26s %12.4f %8.0f\n", n.c_str(), ms, calls);
  }
}

std::vector<Metric> per_layer(const char* workload, pb::Result& r,
                              const pb::HostInfo& host,
                              const std::string& out_dir, std::uint64_t seed) {
  const auto ops = pb::breakdown(r.logs, "bench.op", 0);
  if (!out_dir.empty()) {
    std::int64_t t0 = INT64_MAX;
    for (const auto& log : r.logs) {
      for (const auto& s : log.spans) t0 = std::min(t0, s.begin_ns);
    }
    const std::string path = out_dir + "/trace_" + workload + "_seed" +
                             std::to_string(seed) + ".json";
    pb::write_chrome_trace(path, r.logs, t0);
    std::printf("# chrome trace %s\n", path.c_str());
  }
  print_layer_table(workload, ops);

  // A value the workload measured outside the op loop (set-up phases, or
  // service counters taken over the whole loop) overrides the per-op one.
  auto value = [&](const std::string& name,
                   const std::function<double(const pb::OpBreakdown&)>& f) {
    auto it = r.totals.find(name);
    return it != r.totals.end() ? it->second : per_op(ops, f);
  };
  auto incl = [&](const char* span) {
    return [span](const pb::OpBreakdown& b) { return get(b.incl_ms, span); };
  };
  auto counter = [&](const char* c) {
    return [c](const pb::OpBreakdown& b) { return get(b.counters, c); };
  };
  auto calls = [](const char* span) {
    return [span](const pb::OpBreakdown& b) {
      auto it = b.calls.find(span);
      return it == b.calls.end() ? 0.0 : static_cast<double>(it->second);
    };
  };
  auto prefixed = [](const char* prefix) {
    return [p = std::string(prefix)](const pb::OpBreakdown& b) {
      double ms = 0.0;
      for (const auto& [n, v] : b.incl_ms) {
        if (n.rfind(p, 0) == 0) ms += v;
      }
      return ms;
    };
  };

  const double apply_ms = value("tpetra.apply_ms", incl("tpetra.apply"));
  const double apply_calls = value("tpetra.apply_calls", calls("tpetra.apply"));
  const double apply_bytes = get(r.totals, "tpetra.apply_bytes");
  const double redist_ms = value("odin.redistribute_ms",
                                 prefixed("odin.redistribute"));
  const double redist_elems = get(r.totals, "odin.redistributed_elements");
  const double untraced = pb::median(r.paired_op_ms);
  const double traced = pb::median(r.traced_op_ms);
  // The tail over every op of the measured worlds, traced or not.
  std::vector<double> all_ops = r.op_ms;
  all_ops.insert(all_ops.end(), r.traced_op_ms.begin(), r.traced_op_ms.end());
  const std::size_t n = all_ops.size();
  std::printf("# op_p90_ms over %zu ops, %zu beyond it\n", n,
              n - static_cast<std::size_t>(std::ceil(0.9 * static_cast<double>(n))));
  const auto triad = pb::triad_probe(host, static_cast<int>(host.nproc));
  std::printf("# host.triad: 3 arrays of %.1f MiB each, %d threads, LLC %.1f "
              "MiB; tpetra.apply_gbps is computed from nnz and vector "
              "lengths\n",
              triad.array_mib, triad.threads,
              static_cast<double>(host.l3_bytes) / (1024.0 * 1024.0));

  std::vector<Metric> m = {
      {"tpetra.insert_ms", value("tpetra.insert_ms", incl("tpetra.insert")), "ms"},
      {"tpetra.fill_complete_ms",
       value("tpetra.fill_complete_ms", incl("tpetra.fill_complete")), "ms"},
      {"tpetra.apply_ms", apply_ms, "ms"},
      {"tpetra.apply_calls", apply_calls, "count"},
      {"tpetra.apply_gbps",
       apply_ms > 0 ? apply_bytes * apply_calls / (apply_ms * 1e-3) * 1e-9 : 0.0,
       "GB/s"},
      {"precond.setup_ms", value("precond.setup_ms", incl("precond.setup")), "ms"},
      {"precond.apply_ms", value("precond.apply_ms", incl("precond.apply")), "ms"},
      {"solvers.solve_ms", value("solvers.solve_ms", incl("solvers.solve")), "ms"},
      {"solvers.iterations",
       value("solvers.iterations", counter("solvers.iterations")), "count"},
      {"seamless.compile_ms",
       value("seamless.compile_ms", incl("seamless.compile")), "ms"},
      {"seamless.call_ms", value("seamless.call_ms", incl("seamless.call")), "ms"},
      {"odin.redistribute_ms", redist_ms, "ms"},
      {"odin.redistribute_ns_per_elem",
       redist_elems > 0 ? redist_ms * 1e6 / redist_elems : 0.0, "ns/elem"},
      {"odin.kernel_ms", value("odin.kernel_ms", incl("odin.kernel")), "ms"},
      {"odin.halo_ms", value("odin.halo_ms", incl("odin.halo")), "ms"},
      {"odin.map_reduce_ms", value("odin.map_reduce_ms", incl("odin.map_reduce")),
       "ms"},
      {"comm.p2p_msgs", value("comm.p2p_msgs", counter("comm.p2p_msgs")), "count"},
      {"comm.p2p_bytes", value("comm.p2p_bytes", counter("comm.p2p_bytes")),
       "bytes"},
      {"comm.coll_calls", value("comm.coll_calls", counter("comm.coll_calls")),
       "count"},
      {"comm.coll_bytes", value("comm.coll_bytes", counter("comm.coll_bytes")),
       "bytes"},
      {"comm.bytes_copied",
       value("comm.bytes_copied", counter("comm.bytes_copied")), "bytes"},
      {"comm.barrier_wait_ms",
       per_op(ops,
              [](const auto& b) { return get(b.max_rank_incl_ms, "comm.barrier"); }),
       "ms"},
      {"util.pool_tasks", value("util.pool_tasks", counter("util.pool_tasks")),
       "count"},
      {"util.setup_cache_hit_rate", get(r.totals, "util.setup_cache_hit_rate"),
       "ratio"},
      {"service.submit_us",
       1e3 * per_op(ops, [](const auto& b) { return get(b.incl_ms, "service.submit"); }),
       "us"},
      {"service.reduce_wait_us",
       1e3 * per_op(ops,
                    [](const auto& b) { return get(b.incl_ms, "service.reduce_wait"); }),
       "us"},
      {"driver.payloads_per_op", get(r.totals, "driver.payloads_per_op"), "count"},
      {"service.messages_per_payload",
       get(r.totals, "service.messages_per_payload"), "ratio"},
      {"driver.retransmits", get(r.totals, "driver.retransmits"), "count"},
      {"service.parks", get(r.totals, "service.parks"), "count"},
      {"service.sheds", get(r.totals, "service.sheds"), "count"},
      {"obs.trace_overhead_frac", untraced > 0 ? traced / untraced - 1.0 : 0.0,
       "ratio"},
      {"host.triad_gbps", triad.gbps, "GB/s"},
      {"op_p90_ms", pb::percentile(all_ops, 0.9), "ms"},
      {"op.traced_p50_ms", traced, "ms"},
      {"scaling_eff", scaling_eff(r), "ratio"},
      {"op.attributed_frac",
       per_op(ops, [](const auto& b) {
         return b.wall_ms > 0 ? 1.0 - b.root_self_ms / b.wall_ms : 0.0;
       }),
       "ratio"},
      {"op.fail_frac",
       r.attempted > 0 ? static_cast<double>(r.failed) /
                             static_cast<double>(r.attempted)
                       : 0.0,
       "ratio"},
  };
  for (const char* layer : kLayers) {
    m.push_back({std::string("self.") + layer + "_ms",
                 per_op(ops, [&](const auto& b) { return get(b.layer_self_ms, layer); }),
                 "ms"});
  }
  m.push_back({"self.unattributed_ms",
               per_op(ops, [](const auto& b) { return b.root_self_ms; }), "ms"});
  return m;
}

int smoke() {
  int bad = 0;
  std::printf("# smoke: one op per workload at minimal size; each oracle must "
              "pass the real result and reject a corrupted one\n");
  for (const auto& w : kWorkloads) {
    for (const bool corrupt : {false, true}) {
      pb::RunConfig cfg;
      cfg.smoke = true;
      cfg.corrupt = corrupt;
      const pb::Result r = w.run(cfg);
      const bool ok = r.attempted >= 1 &&
                      (corrupt ? r.failed == r.attempted : r.failed == 0);
      bad += ok ? 0 : 1;
      std::printf("%-16s %-9s attempted=%lld failed=%lld %s%s%s\n", w.name,
                  corrupt ? "corrupted" : "clean",
                  static_cast<long long>(r.attempted),
                  static_cast<long long>(r.failed), ok ? "ok" : "WRONG",
                  r.failures.empty() ? "" : "  first failure: ",
                  r.failures.empty() ? "" : r.failures.front().c_str());
    }
  }
  std::printf("smoke %s\n", bad == 0 ? "passed" : "FAILED");
  return bad == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  std::setvbuf(stdout, nullptr, _IOLBF, 0);
  std::string workload, out_dir;
  pb::RunConfig cfg;
  bool have_seed = false, have_seconds = false, have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "--smoke") return smoke();
    if (i + 1 >= argc) usage(("missing value for " + a).c_str());
    const std::string v = argv[++i];
    if (a == "--workload") {
      workload = v;
    } else if (a == "--seed") {
      cfg.seed = std::strtoull(v.c_str(), nullptr, 10);
      have_seed = true;
    } else if (a == "--seconds") {
      cfg.seconds = std::strtod(v.c_str(), nullptr);
      have_seconds = cfg.seconds > 0.0;
    } else if (a == "--trace") {
      if (v != "0" && v != "1") usage("--trace takes 0 or 1");
      cfg.trace = v == "1";
      have_trace = true;
    } else if (a == "--out") {
      out_dir = v;
    } else {
      usage(("unknown argument " + a).c_str());
    }
  }
  if (!have_seed || !have_seconds || !have_trace) {
    usage("--seed, --seconds (> 0) and --trace are required");
  }
  const Workload* w = nullptr;
  for (const auto& cand : kWorkloads) {
    if (workload == cand.name) w = &cand;
  }
  if (w == nullptr) usage(("unknown workload '" + workload + "'").c_str());

  const pb::HostInfo host = pb::host_info();
  pb::Result r = w->run(cfg);
  r.logs = pb::take_logs();
  print_context(host, w->name, r, cfg.seed, cfg.trace);
  for (const auto& f : r.failures) std::printf("# failure %s\n", f.c_str());
  const auto metrics = cfg.trace ? per_layer(w->name, r, host, out_dir, cfg.seed)
                                 : end_to_end(r);
  print_result(r, metrics);
  return r.failed == 0 && r.attempted >= 1 ? 0 : 1;
}
