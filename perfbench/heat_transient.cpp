// heat_transient: implicit 2D heat, (I + rL) u' = s(u), the paper's §V use
// case. Set-up assembles the matrix once, builds a Jacobi preconditioner
// and JIT-compiles the MiniPy source term s(u) = u - 0.1 u^3 through
// Seamless; one op is one time step — the JIT callback on the local
// segment, then a warm-started Jacobi-CG solve to 1e-8. Set-up does nothing
// per op, so kernel, collective and Seamless costs show here and set-up
// costs do not.
#include <cmath>
#include <cstdint>
#include <memory>

#include "harness.hpp"
#include "precond/preconditioner.hpp"
#include "seamless/seamless.hpp"
#include "solvers/krylov.hpp"
#include "tpetra/crs_matrix.hpp"

namespace perfbench {

namespace {

using Matrix = pyhpc::tpetra::CrsMatrix<double>;
using Map = pyhpc::tpetra::Map<>;
using Vector = pyhpc::tpetra::Vector<double>;
namespace sm = pyhpc::seamless;

constexpr int kRanks = 4;
constexpr double kTol = 1e-8;
constexpr double kR = 1.0;  // diffusion number dt / h^2
constexpr std::uint64_t kStreamU0 = 21;
constexpr std::int64_t kCycle = 8;  // steps before the state restarts

// F2's model, written in MiniPy.
const char* kModelSource =
    "def model(u, out):\n"
    "    for i in range(len(u)):\n"
    "        out[i] = u[i] - 0.1 * u[i] * u[i] * u[i]\n"
    "    return 0\n";

// u0: four fixed smooth sine modes with seeded amplitudes in [0.5, 1).
// Smooth data and fixed modes keep the cost of a step the same across
// seeds.
double initial_state(std::uint64_t seed, std::int64_t nx, std::int64_t g) {
  constexpr double kPi = 3.14159265358979323846;
  constexpr double kModes[][2] = {{1, 1}, {2, 1}, {1, 3}, {3, 2}};
  const double x = static_cast<double>(g % nx + 1) / static_cast<double>(nx + 1);
  const double y = static_cast<double>(g / nx + 1) / static_cast<double>(nx + 1);
  double u = 0.0;
  for (std::uint64_t k = 0; k < 4; ++k) {
    const double amp = 0.75 + 0.25 * seeded_value(seed, kStreamU0, k);
    u += amp * std::sin(kPi * kModes[k][0] * x) * std::sin(kPi * kModes[k][1] * y);
  }
  return u;
}

double ms_since(std::int64_t t) {
  return static_cast<double>(now_ns() - t) * 1e-6;
}

struct SetupTimes {
  std::vector<double> insert_ms, fill_ms, precond_ms, compile_ms;
};

// Everything one rank reuses across steps; heap-held so the preconditioner's
// reference to the matrix stays valid.
struct State {
  explicit State(const Map& m)
      : map(m), a(map), u0(map), u(map), s(map), x(map) {}
  Map map;
  Matrix a;
  std::unique_ptr<pyhpc::precond::JacobiPreconditioner> jacobi;
  std::unique_ptr<sm::Engine> engine;
  Vector u0, u, s, x;  // initial state, state, source term, next state
  std::int64_t steps = 0;
};

// Set-up on one rank: assembly, Jacobi, JIT compile, initial state.
// Returns the phase times in ms.
std::shared_ptr<State> set_up(pyhpc::comm::Communicator& comm, std::int64_t nx,
                              std::uint64_t seed, double (&phase_ms)[4]) {
  auto st = std::make_shared<State>(Map::uniform(comm, nx * nx));
  const Map& map = st->map;
  std::int64_t t = now_ns();
  for (std::int32_t l = 0; l < map.num_local(); ++l) {
    const std::int64_t g = map.local_to_global(l);
    const std::int64_t i = g % nx, j = g / nx;
    std::int64_t cols[5] = {g};
    double vals[5] = {1.0 + 4.0 * kR};
    int k = 1;
    if (i > 0) cols[k] = g - 1, vals[k++] = -kR;
    if (i + 1 < nx) cols[k] = g + 1, vals[k++] = -kR;
    if (j > 0) cols[k] = g - nx, vals[k++] = -kR;
    if (j + 1 < nx) cols[k] = g + nx, vals[k++] = -kR;
    st->a.insert_global_values(g, std::span<const std::int64_t>(cols, k),
                               std::span<const double>(vals, k));
  }
  phase_ms[0] = ms_since(t);
  t = now_ns();
  st->a.fill_complete();
  phase_ms[1] = ms_since(t);
  t = now_ns();
  st->jacobi = std::make_unique<pyhpc::precond::JacobiPreconditioner>(st->a);
  phase_ms[2] = ms_since(t);
  t = now_ns();
  st->engine = std::make_unique<sm::Engine>(kModelSource);
  st->engine->jit("model", {sm::JitType::kArray, sm::JitType::kArray});
  phase_ms[3] = ms_since(t);
  for (std::int32_t l = 0; l < map.num_local(); ++l) {
    st->u0[l] = initial_state(seed, nx, map.local_to_global(l));
  }
  return st;
}

// One time step; returns the oracle over the new state. Every kCycle steps
// the state restarts from u0: as the solution smooths, warm-started solves
// need fewer iterations, and the fixed cycle keeps the mix of step costs
// the same however many steps a run gets through.
OracleFn step(State& st, const RunConfig& cfg) {
  if (st.steps++ % kCycle == 0) st.u.update(1.0, st.u0, 0.0);
  {
    Scope c("seamless.call");
    auto view = [](Vector& v) {
      return sm::Value::of(
          sm::ArrayValue::view(v.local_view().data(), v.local_view().size()));
    };
    st.engine->run_jit("model", {view(st.u), view(st.s)});
  }
  {
    Scope c("tpetra.update");
    st.x.update(1.0, st.u, 0.0);  // warm start from the previous step
  }
  const TimedOperator timed_a(st.a);
  const TimedPreconditioner timed_m(*st.jacobi);
  pyhpc::solvers::KrylovOptions opt;
  opt.tolerance = kTol;
  opt.record_history = false;
  pyhpc::solvers::SolveResult res;
  {
    Scope c("solvers.solve");
    res = pyhpc::solvers::cg_solve(timed_a, st.s, st.x, opt, &timed_m);
  }
  const bool root = st.map.rank() == 0;
  if (root) count("solvers.iterations", res.iterations);
  std::swap(st.u, st.x);
  if (cfg.corrupt && root) st.u[0] += 1.0;
  return [&st, converged = res.converged]() -> std::string {
    // True residual of the new state, recomputed outside the solver.
    Vector resid(st.map);
    st.a.apply(st.u, resid);
    resid.update(1.0, st.s, -1.0);
    const double rel = resid.norm2() / st.s.norm2();
    std::string why;
    if (!converged) why += "cg did not converge; ";
    if (!(rel <= 2.0 * kTol)) why += "true residual " + std::to_string(rel);
    return why;
  };
}

}  // namespace

Result run_heat_transient(const RunConfig& cfg) {
  Result r;
  const std::int64_t nx = cfg.smoke ? 16 : 512;
  SetupTimes times;
  run_spmd(cfg, kRanks, r, [&](pyhpc::comm::Communicator& comm, bool measured) {
    double phase_ms[4];
    auto st = set_up(comm, nx, cfg.seed, phase_ms);
    const std::int64_t nnz = st->a.num_global_entries();
    if (comm.rank() == 0 && measured) {
      times.insert_ms.push_back(phase_ms[0]);
      times.fill_ms.push_back(phase_ms[1]);
      times.precond_ms.push_back(phase_ms[2]);
      times.compile_ms.push_back(phase_ms[3]);
      // Computed SpMV traffic: values + column ids, row pointers, x, y.
      r.totals["tpetra.apply_bytes"] = 12.0 * static_cast<double>(nnz) +
                                       3.0 * 8.0 * static_cast<double>(nx * nx);
    }
    return OpFn([st, &cfg](std::int64_t) { return step(*st, cfg); });
  });
  // Set-up phases happen once per world, so their per-layer values are the
  // median over worlds rather than per op.
  r.totals["tpetra.insert_ms"] = median(times.insert_ms);
  r.totals["tpetra.fill_complete_ms"] = median(times.fill_ms);
  r.totals["precond.setup_ms"] = median(times.precond_ms);
  r.totals["seamless.compile_ms"] = median(times.compile_ms);
  r.notes.push_back("grid " + std::to_string(nx) + "x" + std::to_string(nx) +
                    ", r = 1, Jacobi-CG to 1e-8; one SpMV touches " +
                    std::to_string(r.totals["tpetra.apply_bytes"] / (1024.0 * 1024.0)) +
                    " MiB (computed); it is LLC-resident when below l3_bytes");
  return r;
}

}  // namespace perfbench
