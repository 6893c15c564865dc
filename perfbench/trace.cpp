#include "trace.hpp"

#include <algorithm>
#include <cstdio>
#include <memory>
#include <mutex>
#include <stdexcept>

namespace perfbench {

namespace {

std::mutex g_logs_mu;
std::vector<std::unique_ptr<ThreadLog>> g_logs;  // guarded by g_logs_mu

thread_local ThreadLog* t_log = nullptr;
thread_local std::int64_t t_op = -1;
thread_local bool t_traced = false;

}  // namespace

std::string layer_of(const std::string& span_name) {
  return span_name.substr(0, span_name.find('.'));
}

std::vector<std::int64_t> self_times(const std::vector<SpanRecord>& spans) {
  std::vector<std::vector<std::pair<std::int64_t, std::int64_t>>> kids(
      spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const int p = spans[i].parent;
    if (p < 0) continue;
    if (static_cast<std::size_t>(p) >= i) {
      throw std::invalid_argument("self_times: parent recorded after child");
    }
    const auto& parent = spans[static_cast<std::size_t>(p)];
    const auto lo = std::max(spans[i].begin_ns, parent.begin_ns);
    const auto hi = std::min(spans[i].end_ns, parent.end_ns);
    if (hi > lo) kids[static_cast<std::size_t>(p)].emplace_back(lo, hi);
  }
  std::vector<std::int64_t> self(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    auto& iv = kids[i];
    std::sort(iv.begin(), iv.end());
    std::int64_t covered = 0;
    std::int64_t cur_lo = 0, cur_hi = 0;
    bool have = false;
    for (const auto& [lo, hi] : iv) {
      if (have && lo <= cur_hi) {
        cur_hi = std::max(cur_hi, hi);
        continue;
      }
      if (have) covered += cur_hi - cur_lo;
      cur_lo = lo;
      cur_hi = hi;
      have = true;
    }
    if (have) covered += cur_hi - cur_lo;
    self[i] = (spans[i].end_ns - spans[i].begin_ns) - covered;
  }
  return self;
}

void bind_thread(int rank, int lane) {
  auto log = std::make_unique<ThreadLog>();
  log->rank = rank;
  log->lane = lane;
  t_log = log.get();
  t_op = -1;
  t_traced = false;
  std::lock_guard<std::mutex> lock(g_logs_mu);
  g_logs.push_back(std::move(log));
}

void begin_op(std::int64_t op, bool traced) {
  t_op = op;
  t_traced = traced && t_log != nullptr;
}

void count(const char* name, double value) {
  if (!t_traced) return;
  t_log->counters.push_back(CounterRecord{name, t_op, value});
}

Scope::Scope(const char* name) {
  if (!t_traced) return;
  log_ = t_log;
  index_ = static_cast<int>(log_->spans.size());
  const int parent = log_->open.empty() ? -1 : log_->open.back();
  log_->spans.push_back(SpanRecord{name, parent, t_op, now_ns(), 0});
  log_->open.push_back(index_);
}

Scope::~Scope() {
  if (log_ == nullptr) return;
  log_->spans[static_cast<std::size_t>(index_)].end_ns = now_ns();
  log_->open.pop_back();
}

std::vector<ThreadLog> take_logs() {
  std::lock_guard<std::mutex> lock(g_logs_mu);
  std::vector<ThreadLog> out;
  out.reserve(g_logs.size());
  for (auto& log : g_logs) out.push_back(std::move(*log));
  g_logs.clear();
  return out;
}

std::vector<OpBreakdown> breakdown(const std::vector<ThreadLog>& logs,
                                   const char* root, int measuring_rank) {
  const std::string root_name = root;
  std::vector<OpBreakdown> out;
  std::map<std::int64_t, std::size_t> slot;  // op id -> index in out
  for (const auto& log : logs) {
    if (log.rank != measuring_rank) continue;
    const auto self = self_times(log.spans);
    for (std::size_t i = 0; i < log.spans.size(); ++i) {
      const auto& s = log.spans[i];
      if (root_name != s.name) continue;
      slot[s.op] = out.size();
      OpBreakdown b;
      b.op = s.op;
      b.wall_ms = static_cast<double>(s.end_ns - s.begin_ns) * 1e-6;
      b.root_self_ms = static_cast<double>(self[i]) * 1e-6;
      out.push_back(std::move(b));
    }
    for (std::size_t i = 0; i < log.spans.size(); ++i) {
      const auto& s = log.spans[i];
      if (root_name == s.name) continue;
      auto it = slot.find(s.op);
      if (it == slot.end()) continue;
      auto& b = out[it->second];
      b.layer_self_ms[layer_of(s.name)] += static_cast<double>(self[i]) * 1e-6;
      b.incl_ms[s.name] += static_cast<double>(s.end_ns - s.begin_ns) * 1e-6;
      b.calls[s.name] += 1;
    }
  }
  for (const auto& log : logs) {
    std::map<std::pair<std::int64_t, std::string>, double> incl;
    for (const auto& s : log.spans) {
      if (slot.count(s.op) == 0) continue;
      incl[{s.op, s.name}] += static_cast<double>(s.end_ns - s.begin_ns) * 1e-6;
    }
    for (const auto& [key, ms] : incl) {
      auto& m = out[slot[key.first]].max_rank_incl_ms[key.second];
      m = std::max(m, ms);
    }
    for (const auto& c : log.counters) {
      auto it = slot.find(c.op);
      if (it != slot.end()) out[it->second].counters[c.name] += c.value;
    }
  }
  return out;
}

void write_chrome_trace(const std::string& path,
                        const std::vector<ThreadLog>& logs,
                        std::int64_t t0_ns) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) throw std::runtime_error("cannot write " + path);
  std::fputs("[\n", f);
  bool first = true;
  for (std::size_t t = 0; t < logs.size(); ++t) {
    const auto& log = logs[t];
    const int tid = static_cast<int>(t);
    std::fprintf(f,
                 "%s{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":%d,"
                 "\"tid\":%d,\"args\":{\"name\":\"rank %d lane %d\"}}",
                 first ? "" : ",\n", log.rank, tid, log.rank, log.lane);
    first = false;
    for (const auto& s : log.spans) {
      std::fprintf(f,
                   ",\n{\"name\":\"%s\",\"cat\":\"perfbench\",\"ph\":\"X\","
                   "\"ts\":%.3f,\"dur\":%.3f,\"pid\":%d,\"tid\":%d,"
                   "\"args\":{\"op\":%lld,\"layer\":\"%s\"}}",
                   s.name, static_cast<double>(s.begin_ns - t0_ns) * 1e-3,
                   static_cast<double>(s.end_ns - s.begin_ns) * 1e-3,
                   log.rank, tid, static_cast<long long>(s.op),
                   layer_of(s.name).c_str());
    }
  }
  std::fputs("\n]\n", f);
  if (std::fclose(f) != 0) throw std::runtime_error("cannot write " + path);
}

}  // namespace perfbench
