// odin_analytics: one op is an ODIN data-analysis pass. Two seeded arrays
// arrive in block and cyclic layouts; a non-conformable add (kAuto conform,
// which redistributes one operand), hypot, a fused expression and a sum;
// shifted_diff on the block layout; the result redistributed back to
// cyclic; and a seeded event table through filter and a map_reduce
// group-by. Redistribution (index translation, alltoallv, result
// allocation) dominates here and is absent from the other workloads.
#include <bit>
#include <cmath>
#include <cstdint>
#include <map>

#include "harness.hpp"
#include "odin/dist_array.hpp"
#include "odin/expr.hpp"
#include "odin/slicing.hpp"
#include "odin/tabular.hpp"
#include "odin/ufunc.hpp"

namespace perfbench {

namespace {

namespace od = pyhpc::odin;
using Arr = od::DistArray<double>;

constexpr int kRanks = 4;
constexpr std::int64_t kMinAmount = 100;  // filter keeps amount >= this
constexpr std::uint64_t kStreamA = 31, kStreamB = 32, kStreamKey = 33,
                        kStreamAmount = 34;

struct Event {
  std::int64_t key;
  std::int64_t amount;
};

struct Agg {
  std::int64_t sum = 0;
  std::int64_t count = 0;
};

struct Sizes {
  std::int64_t n, events, keys;
};

// The serial reference of one element of the fused result, written with
// the same operations the kernels use so it matches bit for bit.
double fused_ref(std::uint64_t seed, std::int64_t g) {
  const double a = seeded_value(seed, kStreamA, static_cast<std::uint64_t>(g));
  const double b = seeded_value(seed, kStreamB, static_cast<std::uint64_t>(g));
  const double c = b + a;
  const double h = std::sqrt(c * c + b * b);
  return h * 0.5 + c;
}

Event event_at(std::uint64_t seed, const Sizes& z, std::int64_t i) {
  const auto u = static_cast<std::uint64_t>(i);
  return Event{static_cast<std::int64_t>(seeded_index(
                   seed, kStreamKey, u, static_cast<std::uint64_t>(z.keys))),
               static_cast<std::int64_t>(seeded_index(seed, kStreamAmount, u, 1000))};
}

// Everything one rank reuses across ops: layouts, inputs, and the serial
// references computed from the seed.
struct State {
  State(pyhpc::comm::Communicator& comm, const Sizes& z, std::uint64_t seed)
      : block(od::Distribution::block(comm, od::Shape({z.n}), 0)),
        cyclic(od::Distribution::cyclic(comm, od::Shape({z.n}), 0)),
        cyclic_diff(od::Distribution::cyclic(comm, od::Shape({z.n - 1}), 0)),
        a(Arr::fromfunction(cyclic, [seed](const auto& idx) {
          return seeded_value(seed, kStreamA, static_cast<std::uint64_t>(idx[0]));
        })),
        b(Arr::fromfunction(block, [seed](const auto& idx) {
          return seeded_value(seed, kStreamB, static_cast<std::uint64_t>(idx[0]));
        })),
        table(comm, events(comm, z, seed)) {
    // This rank's elements of the final cyclic result, the global sum,
    // and every group.
    const int me = comm.rank();
    ref_diff.resize(static_cast<std::size_t>(cyclic_diff.local_count()));
    for (std::size_t l = 0; l < ref_diff.size(); ++l) {
      const auto g = cyclic_diff.axis_global(0, me, static_cast<od::index_t>(l));
      ref_diff[l] = fused_ref(seed, g + 1) - fused_ref(seed, g);
    }
    for (std::int64_t g = 0; g < z.n; ++g) {
      const double e = fused_ref(seed, g);
      ref_sum += e;
      ref_abs += std::abs(e);
    }
    for (std::int64_t i = 0; i < z.events; ++i) {
      const Event ev = event_at(seed, z, i);
      if (ev.amount < kMinAmount) continue;
      auto& g = ref_groups[ev.key];
      g.sum += ev.amount;
      g.count += 1;
    }
  }

  static std::vector<Event> events(const pyhpc::comm::Communicator& comm,
                                   const Sizes& z, std::uint64_t seed) {
    const int p = comm.size(), me = comm.rank();
    std::vector<Event> mine;
    for (std::int64_t i = z.events * me / p; i < z.events * (me + 1) / p; ++i) {
      mine.push_back(event_at(seed, z, i));
    }
    return mine;
  }

  od::Distribution block, cyclic, cyclic_diff;
  Arr a, b;
  od::DistTable<Event> table;
  std::vector<double> ref_diff;
  double ref_sum = 0.0, ref_abs = 0.0;
  std::map<std::int64_t, Agg> ref_groups;
};

OracleFn pass(const State& st, const RunConfig& cfg) {
  // block + cyclic: kAuto moves the cheaper operand (a tie moves the right
  // one), so the result keeps the block layout.
  const Arr c = timed("odin.redistribute_conform", [&] { return st.b + st.a; });
  const Arr h = timed("odin.kernel", [&] { return od::hypot(c, st.b); });
  const Arr e = timed("odin.kernel",
                      [&] { return od::eval(od::lazy(h) * 0.5 + od::lazy(c)); });
  double total = timed("odin.kernel", [&] { return e.sum(); });
  const Arr d = timed("odin.halo", [&] { return od::shifted_diff(e); });
  auto back = std::make_shared<Arr>(timed(
      "odin.redistribute", [&] { return od::redistribute(d, st.cyclic_diff); }));
  auto groups = timed("odin.map_reduce", [&] {
    const auto kept =
        st.table.filter([](const Event& ev) { return ev.amount >= kMinAmount; });
    return od::map_reduce<std::int64_t, Agg>(
        kept,
        [](const Event& ev) {
          return std::pair<std::int64_t, Agg>(ev.key, Agg{ev.amount, 1});
        },
        [](Agg acc, const Agg& v) {
          acc.sum += v.sum;
          acc.count += v.count;
          return acc;
        });
  });
  auto& comm = st.block.comm();
  if (cfg.corrupt && comm.rank() == 0) {
    if (!back->local_view().empty()) back->local_view()[0] += 1.0;
    total += 1.0;
    if (!groups.empty()) groups.front().second.sum += 1;
  }
  return [&st, &comm, back, total, groups = std::move(groups)]() -> std::string {
    std::string why;
    const auto view = back->local_view();
    bool exact = view.size() == st.ref_diff.size();
    for (std::size_t l = 0; exact && l < view.size(); ++l) {
      exact = std::bit_cast<std::uint64_t>(view[l]) ==
              std::bit_cast<std::uint64_t>(st.ref_diff[l]);
    }
    if (!exact) why += "round trip differs from the serial reference; ";
    if (!(std::abs(total - st.ref_sum) <= 1e-10 * st.ref_abs)) {
      why += "sum " + std::to_string(total) + " vs " +
             std::to_string(st.ref_sum) + "; ";
    }
    bool same = true;
    for (const auto& [key, agg] : groups) {
      auto it = st.ref_groups.find(key);
      same = same && it != st.ref_groups.end() && it->second.sum == agg.sum &&
             it->second.count == agg.count;
    }
    const auto keys = comm.allreduce_value(
        static_cast<std::int64_t>(groups.size()), std::plus<std::int64_t>{});
    if (!same || keys != static_cast<std::int64_t>(st.ref_groups.size())) {
      why += "group-by differs from the serial reference; ";
    }
    return why;
  };
}

}  // namespace

Result run_odin_analytics(const RunConfig& cfg) {
  Result r;
  const Sizes z = cfg.smoke ? Sizes{64, 128, 8} : Sizes{1 << 18, 1 << 17, 4096};
  // Elements passing through redistribute per op: the conformed operand
  // and the differenced result going back to cyclic.
  r.totals["odin.redistributed_elements"] = static_cast<double>(2 * z.n - 1);
  r.notes.push_back("arrays of " + std::to_string(z.n) + " doubles, " +
                    std::to_string(z.events) + " events over " +
                    std::to_string(z.keys) + " keys");
  run_spmd(cfg, kRanks, r, [&](pyhpc::comm::Communicator& comm, bool) {
    auto st = std::make_shared<const State>(comm, z, cfg.seed);
    return OpFn([st, &cfg](std::int64_t) { return pass(*st, cfg); });
  });
  return r;
}

}  // namespace perfbench
