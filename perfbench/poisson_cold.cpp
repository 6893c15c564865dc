// poisson_cold: one op is a cold distributed solve of the 2D Poisson
// problem — assemble the 5-point Laplacian, build smoothed-aggregation AMG,
// run CG to 1e-8 with b = A x* for a seeded x*. Set-up work (assembly,
// fill_complete, AMG set-up) is nearly all of the op, so this is where the
// set-up layer shows.
#include <cmath>
#include <cstdint>
#include <memory>

#include "harness.hpp"
#include "precond/amg.hpp"
#include "solvers/krylov.hpp"
#include "tpetra/crs_matrix.hpp"

namespace perfbench {

namespace {

using Matrix = pyhpc::tpetra::CrsMatrix<double>;
using Map = pyhpc::tpetra::Map<>;
using Vector = pyhpc::tpetra::Vector<double>;

constexpr int kRanks = 4;
constexpr double kTol = 1e-8;
constexpr int kInputs = 4;  // distinct x* per world, used in turn
constexpr std::uint64_t kStreamX = 1;

// 5-point Laplacian row g of an nx-by-nx grid, Dirichlet boundary.
int stencil_row(std::int64_t g, std::int64_t nx, std::int64_t* cols,
                double* vals) {
  const std::int64_t i = g % nx, j = g / nx;
  int k = 0;
  cols[k] = g, vals[k++] = 4.0;
  if (i > 0) cols[k] = g - 1, vals[k++] = -1.0;
  if (i + 1 < nx) cols[k] = g + 1, vals[k++] = -1.0;
  if (j > 0) cols[k] = g - nx, vals[k++] = -1.0;
  if (j + 1 < nx) cols[k] = g + nx, vals[k++] = -1.0;
  return k;
}

struct Inputs {
  std::vector<std::vector<double>> xstar;  // global, one per input
  std::vector<std::vector<double>> b;      // this rank's rows of A x*
};

// The benchmark's own b = A x*, computed row by row from the stencil so the
// program receives only generated inputs.
Inputs make_inputs(const Map& map, std::int64_t nx, std::uint64_t seed) {
  Inputs in;
  const std::int64_t n = nx * nx;
  for (int k = 0; k < kInputs; ++k) {
    std::vector<double> xs(static_cast<std::size_t>(n));
    for (std::int64_t g = 0; g < n; ++g) {
      xs[static_cast<std::size_t>(g)] =
          seeded_value(seed, kStreamX + static_cast<std::uint64_t>(k),
                       static_cast<std::uint64_t>(g));
    }
    std::vector<double> b(static_cast<std::size_t>(map.num_local()));
    for (std::int32_t l = 0; l < map.num_local(); ++l) {
      std::int64_t cols[5];
      double vals[5];
      const int m = stencil_row(map.local_to_global(l), nx, cols, vals);
      double acc = 0.0;
      for (int e = 0; e < m; ++e) {
        acc += vals[e] * xs[static_cast<std::size_t>(cols[e])];
      }
      b[static_cast<std::size_t>(l)] = acc;
    }
    in.xstar.push_back(std::move(xs));
    in.b.push_back(std::move(b));
  }
  return in;
}

// One cold solve; returns the oracle over its result.
OracleFn cold_solve(const Map& map, std::int64_t nx, const Inputs& in,
                    std::int64_t op, const RunConfig& cfg) {
  const auto k = static_cast<std::size_t>(op % kInputs);
  auto a = std::make_shared<Matrix>(map);
  {
    Scope s("tpetra.insert");
    std::int64_t cols[5];
    double vals[5];
    for (std::int32_t l = 0; l < map.num_local(); ++l) {
      const std::int64_t g = map.local_to_global(l);
      const int m = stencil_row(g, nx, cols, vals);
      a->insert_global_values(g, std::span<const std::int64_t>(cols, m),
                              std::span<const double>(vals, m));
    }
  }
  {
    Scope s("tpetra.fill_complete");
    a->fill_complete();
  }
  auto b = std::make_shared<Vector>(map);
  std::copy(in.b[k].begin(), in.b[k].end(), b->local_view().begin());
  auto x = std::make_shared<Vector>(map, 0.0);
  pyhpc::solvers::SolveResult res;
  {
    std::unique_ptr<pyhpc::precond::AmgPreconditioner> amg;
    {
      Scope s("precond.setup");
      amg = std::make_unique<pyhpc::precond::AmgPreconditioner>(*a);
    }
    TimedOperator timed_a(*a);
    TimedPreconditioner timed_m(*amg);
    pyhpc::solvers::KrylovOptions opt;
    opt.tolerance = kTol;
    opt.record_history = false;
    Scope s("solvers.solve");
    res = pyhpc::solvers::cg_solve(timed_a, *b, *x, opt, &timed_m);
  }
  if (map.rank() == 0) count("solvers.iterations", res.iterations);
  if (cfg.corrupt && map.rank() == 0) (*x)[0] += 1.0;
  return [=, &in, &map]() -> std::string {
    // Error against x* and the true residual, both recomputed here.
    double e2 = 0.0, s2 = 0.0;
    for (std::int32_t l = 0; l < map.num_local(); ++l) {
      const double xs = in.xstar[k][static_cast<std::size_t>(
          map.local_to_global(l))];
      e2 += ((*x)[l] - xs) * ((*x)[l] - xs);
      s2 += xs * xs;
    }
    const double err =
        std::sqrt(map.comm().allreduce_value(e2, std::plus<double>{}) /
                  map.comm().allreduce_value(s2, std::plus<double>{}));
    Vector r(map);
    a->apply(*x, r);
    r.update(1.0, *b, -1.0);
    const double rel_res = r.norm2() / b->norm2();
    std::string why;
    if (!res.converged) why += "cg did not converge; ";
    if (!(rel_res <= 2.0 * kTol)) {
      why += "true residual " + std::to_string(rel_res) + "; ";
    }
    // cond(A) ~ 0.4 nx^2 bounds the error by cond * residual.
    if (!(err <= 0.5 * static_cast<double>(nx * nx) * kTol)) {
      why += "error vs x* " + std::to_string(err) + "; ";
    }
    return why;
  };
}

}  // namespace

Result run_poisson_cold(const RunConfig& cfg) {
  Result r;
  const std::int64_t nx = cfg.smoke ? 16 : 128;
  r.notes.push_back("grid " + std::to_string(nx) + "x" + std::to_string(nx) +
                    ", AMG + CG to 1e-8, cold (assembly + AMG set-up per op)");
  run_spmd(cfg, kRanks, r, [&](pyhpc::comm::Communicator& comm, bool) {
    auto map = std::make_shared<const Map>(Map::uniform(comm, nx * nx));
    auto in = std::make_shared<const Inputs>(make_inputs(*map, nx, cfg.seed));
    return OpFn([map, in, nx, &cfg](std::int64_t op) {
      return cold_solve(*map, nx, *in, op, cfg);
    });
  });
  return r;
}

}  // namespace perfbench
