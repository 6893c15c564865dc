// Smoothed-aggregation algebraic multigrid V-cycle — the ML analogue from
// the paper's Table I ("ML — multi-level (algebraic multigrid)
// preconditioners").
//
// Pipeline per level (see DESIGN.md §5):
//  1. processor-local greedy distance-1 aggregation;
//  2. tentative piecewise-constant prolongator P0;
//  3. prolongator smoothing P = (I - omega D^{-1} A) P0 with
//     omega = 4/3 / lambda_max(D^{-1} A) (ML's default damping) — this is
//     what turns the weakly converging "unsmoothed aggregation" into a
//     proper multigrid method;
//  4. distributed Galerkin triple product A_c = P^T A P (ghost aggregate
//     ids and ghost P rows travel via the matrix's Import plan and an
//     alltoallv handshake; coarse contributions are routed to their owner);
//  5. damped-Jacobi pre/post smoothing, replicated dense-LU coarse solve.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "precond/preconditioner.hpp"
#include "tpetra/import_export.hpp"
#include "util/dense_lu.hpp"

namespace pyhpc::precond {

struct AmgOptions {
  int max_levels = 10;
  /// Stop coarsening when the global size drops to this or below.
  std::int64_t coarse_size = 32;
  int pre_smooth_sweeps = 1;
  int post_smooth_sweeps = 1;
  double jacobi_omega = 0.8;
  /// Prolongator damping as a multiple of 1/lambda_max(D^{-1}A); 0 disables
  /// smoothing (plain aggregation — exposed for the ablation bench).
  double prolongator_damping = 4.0 / 3.0;
};

class AmgPreconditioner final : public Preconditioner {
 public:
  explicit AmgPreconditioner(const Matrix& a, AmgOptions options = {});

  /// z := V-cycle(r) with zero initial guess. Collective.
  void apply(const Vector& r, Vector& z) const override;

  std::string name() const override { return "AMG"; }

  int num_levels() const { return static_cast<int>(levels_.size()); }

  /// Global unknown count per level (diagnostics / tests).
  std::vector<std::int64_t> level_sizes() const;

  /// Operator complexity: sum of nnz over levels / nnz(A). Collective.
  double operator_complexity() const;

  /// Read-only CSR of one level's prolongator: rows are this rank's fine
  /// rows, columns index `overlap_map` (diagnostics / tests).
  struct ProlongatorCsr {
    std::span<const std::int64_t> row_ptr;
    std::span<const LO> col;
    std::span<const double> val;
    const Map& overlap_map;
  };

  /// Operator of level `lvl` (level 0 is a copy of the fine matrix).
  const Matrix& level_matrix(int lvl) const {
    return *levels_.at(static_cast<std::size_t>(lvl)).a;
  }

  /// Prolongator from level `lvl + 1` to level `lvl`; the coarsest level
  /// has none.
  ProlongatorCsr prolongator(int lvl) const {
    const Prolongator& p = levels_.at(static_cast<std::size_t>(lvl)).p;
    require(p.overlap_map != nullptr,
            "AMG: the coarsest level has no prolongator");
    return {p.row_ptr, p.col, p.val, *p.overlap_map};
  }

 private:
  /// Distributed rectangular prolongator stored as a local CSR whose
  /// columns index an overlapping map of referenced coarse gids; data
  /// motion happens through one Import plan per level.
  struct Prolongator {
    std::vector<std::int64_t> row_ptr;  // fine local rows
    std::vector<LO> col;                // index into overlap map
    std::vector<double> val;
    std::shared_ptr<Map> overlap_map;   // referenced coarse gids, this rank
    std::shared_ptr<tpetra::Import<>> import_plan;  // coarse -> overlap

    /// z += P e_c (collective: ghosts e_c).
    void prolongate(const Vector& ec, Vector& z) const;
    /// rc := P^T r (collective: exports contributions to owners).
    void restrict_to(const Vector& r, Vector& rc) const;
  };

  struct Level {
    std::shared_ptr<Matrix> a;
    Vector inv_diag;  // Jacobi smoother workspace
    std::shared_ptr<Map> coarse_map;
    Prolongator p;

    explicit Level(std::shared_ptr<Matrix> mat)
        : a(std::move(mat)), inv_diag(a->row_map()) {}
  };

  void build_hierarchy(std::shared_ptr<Matrix> a);
  static std::vector<LO> aggregate_local(const Matrix& a, LO& num_aggregates);
  /// Builds the smoothed prolongator and returns the Galerkin coarse
  /// operator (collective).
  std::shared_ptr<Matrix> build_transfer_and_coarse(
      Level& level, const std::vector<LO>& agg_of) const;
  void vcycle(std::size_t lvl, const Vector& r, Vector& z) const;
  void smooth(const Level& level, const Vector& r, Vector& z,
              int sweeps) const;

  AmgOptions options_;
  std::vector<Level> levels_;
  // Replicated coarsest solve.
  std::unique_ptr<util::DenseLU> coarse_lu_;
};

}  // namespace pyhpc::precond
