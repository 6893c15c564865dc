#include "precond/amg.hpp"

#include <algorithm>
#include <cmath>
#include <utility>

#include "util/exec_space.hpp"
#include "util/task_pool.hpp"

namespace pyhpc::precond {

namespace {

// One matrix entry by global indices, as shipped between ranks.
struct Triple {
  GO row;
  GO col;
  double val;
};

}  // namespace

AmgPreconditioner::AmgPreconditioner(const Matrix& a, AmgOptions options)
    : options_(options) {
  obs::Span span("amg.setup", "setup");
  require(options_.max_levels >= 1, "AMG: max_levels must be >= 1");
  require(options_.coarse_size >= 1, "AMG: coarse_size must be >= 1");
  build_hierarchy(std::make_shared<Matrix>(a));
}

void AmgPreconditioner::build_hierarchy(std::shared_ptr<Matrix> a) {
  for (int lvl = 0; lvl < options_.max_levels; ++lvl) {
    levels_.emplace_back(a);
    Level& level = levels_.back();

    Vector diag(a->row_map());
    a->get_local_diag_copy(diag);
    for (LO i = 0; i < diag.local_size(); ++i) {
      require<NumericalError>(diag[i] != 0.0, "AMG: zero diagonal entry");
      level.inv_diag[i] = 1.0 / diag[i];
    }

    if (a->row_map().num_global() <= options_.coarse_size ||
        lvl + 1 == options_.max_levels) {
      break;  // this becomes the coarsest level
    }

    LO num_aggregates = 0;
    auto agg_of = aggregate_local(*a, num_aggregates);
    level.coarse_map = std::make_shared<Map>(
        Map::from_local_sizes(a->row_map().comm(), num_aggregates));

    // A stalled coarsening (no global reduction) ends the hierarchy.
    if (level.coarse_map->num_global() >= a->row_map().num_global()) {
      level.coarse_map.reset();
      break;
    }

    a = build_transfer_and_coarse(level, agg_of);
  }

  // Replicated dense LU of the coarsest operator.
  const Matrix& coarse = *levels_.back().a;
  const auto n = coarse.row_map().num_global();
  std::vector<Triple> mine;
  for (LO i = 0; i < coarse.num_local_rows(); ++i) {
    const GO g = coarse.row_map().local_to_global(i);
    for (const auto& [c, v] : coarse.get_global_row(g)) {
      mine.push_back(Triple{g, c, v});
    }
  }
  auto chunks =
      coarse.row_map().comm().allgatherv(std::span<const Triple>(mine));
  std::vector<double> dense(
      static_cast<std::size_t>(n) * static_cast<std::size_t>(n), 0.0);
  for (const auto& chunk : chunks) {
    for (const auto& t : chunk) {
      dense[static_cast<std::size_t>(t.row) * static_cast<std::size_t>(n) +
            static_cast<std::size_t>(t.col)] += t.val;
    }
  }
  coarse_lu_ = std::make_unique<util::DenseLU>(static_cast<std::size_t>(n),
                                               std::move(dense));
}

// Greedy distance-1 aggregation over the local diagonal block: every
// unaggregated node with an untouched neighbourhood seeds an aggregate with
// its unaggregated local neighbours; leftovers join an adjacent aggregate
// when possible.
std::vector<std::int32_t> AmgPreconditioner::aggregate_local(
    const Matrix& a, LO& num_aggregates) {
  const LO n = a.row_map().num_local();
  auto row_ptr = a.row_ptr();
  auto col_ind = a.col_ind();
  std::vector<LO> agg(static_cast<std::size_t>(n), -1);
  num_aggregates = 0;

  auto neighbours = [&](LO i, auto&& fn) {
    for (auto k = row_ptr[static_cast<std::size_t>(i)];
         k < row_ptr[static_cast<std::size_t>(i) + 1]; ++k) {
      const LO c = col_ind[static_cast<std::size_t>(k)];
      if (c < n && c != i) fn(c);
    }
  };

  for (LO i = 0; i < n; ++i) {
    if (agg[static_cast<std::size_t>(i)] != -1) continue;
    bool clean = true;
    neighbours(i, [&](LO c) {
      if (agg[static_cast<std::size_t>(c)] != -1) clean = false;
    });
    if (!clean) continue;
    const LO id = num_aggregates++;
    agg[static_cast<std::size_t>(i)] = id;
    neighbours(i, [&](LO c) { agg[static_cast<std::size_t>(c)] = id; });
  }
  for (LO i = 0; i < n; ++i) {
    if (agg[static_cast<std::size_t>(i)] != -1) continue;
    LO joined = -1;
    neighbours(i, [&](LO c) {
      if (joined == -1 && agg[static_cast<std::size_t>(c)] != -1) {
        joined = agg[static_cast<std::size_t>(c)];
      }
    });
    agg[static_cast<std::size_t>(i)] = joined != -1 ? joined : num_aggregates++;
  }
  return agg;
}

std::shared_ptr<Matrix> AmgPreconditioner::build_transfer_and_coarse(
    Level& level, const std::vector<LO>& agg_of) const {
  const Matrix& a = *level.a;
  const Map& fmap = a.row_map();
  const Map& cmap = *level.coarse_map;
  const Map& colmap = a.col_map();
  auto& comm = fmap.comm();
  const int nranks = comm.size();
  const LO n = fmap.num_local();
  const LO ncol = colmap.num_local();
  const std::int64_t* arp = a.row_ptr().data();
  const LO* aci = a.col_ind().data();
  const double* ava = a.values().data();

  // Global aggregate id per fine row, ghosted into the column layout so the
  // smoothing sum can see the aggregates of remote neighbours.
  tpetra::Vector<GO> agg_gid(fmap);
  for (LO i = 0; i < n; ++i) {
    agg_gid[i] = cmap.local_to_global(agg_of[static_cast<std::size_t>(i)]);
  }
  tpetra::Vector<GO> agg_gid_ghost(colmap);
  agg_gid_ghost.do_import(agg_gid, a.importer(), tpetra::CombineMode::kInsert);

  double omega = 0.0;
  if (options_.prolongator_damping > 0.0) {
    omega = options_.prolongator_damping /
            std::max(estimate_lambda_max(a, level.inv_diag, 4242), 1e-12);
  }
  // P's overlap map: the sorted coarse gids it references (the aggregates
  // of every column when P is smoothed, else of the owned rows); col_ref[c]
  // is column c's aggregate as an index into that list.
  const auto index_in = [](const std::vector<GO>& sorted, GO g) {
    return static_cast<LO>(std::lower_bound(sorted.begin(), sorted.end(), g) -
                           sorted.begin());
  };
  const auto aggs = agg_gid_ghost.local_view().first(
      static_cast<std::size_t>(omega != 0.0 ? ncol : n));
  std::vector<GO> referenced(aggs.begin(), aggs.end());
  std::sort(referenced.begin(), referenced.end());
  referenced.erase(std::unique(referenced.begin(), referenced.end()),
                   referenced.end());
  std::vector<LO> col_ref(aggs.size());
  for (std::size_t c = 0; c < aggs.size(); ++c) {
    col_ref[c] = index_in(referenced, aggs[c]);
  }

  // Sparse accumulator shared by P and the Galerkin product: `row` holds
  // one row's (id, sum) entries, mark[id] the id's position in it (-1 when
  // absent); every sum runs in call order.
  std::vector<std::pair<LO, double>> row;
  std::vector<std::int64_t> mark(referenced.size(), -1);
  const auto accumulate = [&](LO id, double v) {
    auto& m = mark[static_cast<std::size_t>(id)];
    if (m < 0) {
      m = static_cast<std::int64_t>(row.size());
      row.emplace_back(id, 0.0);
    }
    row[static_cast<std::size_t>(m)].second += v;
  };

  // Prolongator rows, sorted by coarse gid:
  //   P(i, :) = e_{agg(i)} - omega * d_i^{-1} * sum_j A(i,j) e_{agg(j)}.
  Prolongator& p = level.p;
  p.row_ptr.assign(static_cast<std::size_t>(n) + 1, 0);
  for (LO i = 0; i < n; ++i) {
    accumulate(col_ref[static_cast<std::size_t>(i)], 1.0);
    for (auto k = arp[i]; omega != 0.0 && k < arp[i + 1]; ++k) {
      accumulate(col_ref[static_cast<std::size_t>(aci[k])],
                 -(omega * level.inv_diag[i] * ava[k]));
    }
    std::sort(row.begin(), row.end());
    for (const auto& [r, w] : row) {
      p.col.push_back(r);
      p.val.push_back(w);
      mark[static_cast<std::size_t>(r)] = -1;
    }
    row.clear();
    p.row_ptr[static_cast<std::size_t>(i) + 1] =
        static_cast<std::int64_t>(p.col.size());
  }
  p.overlap_map = std::make_shared<Map>(
      Map::from_global_indices(comm, std::span<const GO>(referenced)));
  p.import_plan = std::make_shared<tpetra::Import<>>(cmap, *p.overlap_map);
  const std::int64_t* prp = p.row_ptr.data();
  const LO* pci = p.col.data();
  const double* pva = p.val.data();

  // ---- Galerkin A_c = P^T A P -------------------------------------------
  // Ghost fine rows' P entries are needed for the j side of the product:
  // request them from their owners.
  std::vector<std::vector<GO>> requests(static_cast<std::size_t>(nranks));
  std::vector<GO> ghost_gids;
  for (LO c = n; c < ncol; ++c) ghost_gids.push_back(colmap.local_to_global(c));
  auto owners = fmap.remote_index_list(std::span<const GO>(ghost_gids));
  for (std::size_t k = 0; k < ghost_gids.size(); ++k) {
    require<MapError>(owners[k].first >= 0, "AMG: unowned ghost fine index");
    requests[static_cast<std::size_t>(owners[k].first)].push_back(
        ghost_gids[k]);
  }
  auto incoming_requests = comm.alltoallv(requests);

  std::vector<std::vector<Triple>> replies(static_cast<std::size_t>(nranks));
  for (int r = 0; r < nranks; ++r) {
    for (GO fine : incoming_requests[static_cast<std::size_t>(r)]) {
      const LO li = fmap.global_to_local(fine);
      require<MapError>(li != tpetra::kInvalidLocal<LO>,
                        "AMG: P-row request for non-owned fine index");
      for (auto k = prp[li]; k < prp[li + 1]; ++k) {
        replies[static_cast<std::size_t>(r)].push_back(
            Triple{fine, referenced[static_cast<std::size_t>(pci[k])], pva[k]});
      }
    }
  }
  auto incoming_rows = comm.alltoallv(replies);

  // The P rows of every column of A (owned rows, then ghost rows in
  // arrival order) as one CSR over `ext`: the referenced gids plus those
  // only the ghost rows reach.
  std::vector<GO> ext = referenced;
  std::vector<std::int64_t> xptr(static_cast<std::size_t>(ncol) + 2, 0);
  for (LO i = 0; i < n; ++i) xptr[static_cast<std::size_t>(i) + 2] = prp[i + 1] - prp[i];
  for (const auto& part : incoming_rows) {
    for (const auto& e : part) {
      ext.push_back(e.col);
      ++xptr[static_cast<std::size_t>(colmap.global_to_local(e.row)) + 2];
    }
  }
  std::sort(ext.begin(), ext.end());
  ext.erase(std::unique(ext.begin(), ext.end()), ext.end());
  for (std::size_t c = 2; c < xptr.size(); ++c) xptr[c] += xptr[c - 1];
  std::vector<std::pair<LO, double>> xp(static_cast<std::size_t>(xptr.back()));
  const auto put = [&](LO c, GO coarse, double w) {
    xp[static_cast<std::size_t>(xptr[static_cast<std::size_t>(c) + 1]++)] = {
        index_in(ext, coarse), w};
  };
  for (const auto& part : incoming_rows) {
    for (const auto& e : part) put(colmap.global_to_local(e.row), e.col, e.val);
  }
  // ... and P^T: per referenced id, its fine rows (ascending) and weights.
  std::vector<std::int64_t> pt_ptr(referenced.size() + 2, 0);
  for (LO c : p.col) ++pt_ptr[static_cast<std::size_t>(c) + 2];
  for (std::size_t r = 2; r < pt_ptr.size(); ++r) pt_ptr[r] += pt_ptr[r - 1];
  std::vector<std::pair<LO, double>> pt(p.col.size());
  for (LO i = 0; i < n; ++i) {
    for (auto k = prp[i]; k < prp[i + 1]; ++k) {
      put(i, referenced[static_cast<std::size_t>(pci[k])], pva[k]);
      pt[static_cast<std::size_t>(pt_ptr[static_cast<std::size_t>(pci[k]) + 1]++)] = {i, pva[k]};
    }
  }

  // Row K of this rank's contribution, sum_i P(i,K) sum_j A(i,j) P(j,:),
  // through a dense marker over the ext ids; each (K, L) sum runs over
  // (i, j) in ascending order. Rows of A_c may belong to remote ranks
  // (smoothed P couples local fine rows to remote aggregates), so they
  // are routed to their owner before insertion.
  std::vector<std::vector<Triple>> outgoing(static_cast<std::size_t>(nranks));
  mark.assign(ext.size(), -1);
  for (std::size_t r = 0; r < referenced.size(); ++r) {
    for (auto t = pt_ptr[r]; t < pt_ptr[r + 1]; ++t) {
      const auto [i, pik] = pt[static_cast<std::size_t>(t)];
      for (auto k = arp[i]; k < arp[i + 1]; ++k) {
        const double w = pik * ava[k];
        for (auto q = xptr[static_cast<std::size_t>(aci[k])];
             q < xptr[static_cast<std::size_t>(aci[k]) + 1]; ++q) {
          accumulate(xp[static_cast<std::size_t>(q)].first,
                     w * xp[static_cast<std::size_t>(q)].second);
        }
      }
    }
    auto& out = outgoing[static_cast<std::size_t>(cmap.owner_of(referenced[r]))];
    for (const auto& [l, v] : row) {
      out.push_back(Triple{referenced[r], ext[static_cast<std::size_t>(l)], v});
      mark[static_cast<std::size_t>(l)] = -1;
    }
    row.clear();
  }
  auto incoming_triples = comm.alltoallv(outgoing);

  auto coarse = std::make_shared<Matrix>(cmap);
  for (const auto& part : incoming_triples) {
    for (const auto& t : part) {
      coarse->insert_global_value(t.row, t.col, t.val);
    }
  }
  coarse->fill_complete();
  return coarse;
}

void AmgPreconditioner::Prolongator::prolongate(const Vector& ec,
                                                Vector& z) const {
  Vector ghost(*overlap_map);
  ghost.do_import(ec, *import_plan, tpetra::CombineMode::kInsert);
  // Rows of P are independent, so the interpolation sweep threads over row
  // blocks like SpMV. (restrict_to stays serial: it scatters into shared
  // overlap entries.)
  const double* gv = ghost.local_view().data();
  double* zv = z.local_view().data();
  const std::int64_t* rp = row_ptr.data();
  const LO* ci = col.data();
  const double* va = val.data();
  util::exec::for_each(
      util::exec::default_space(), 0,
      static_cast<std::int64_t>(z.local_size()), tpetra::kRowGrain,
      [=](std::int64_t lo, std::int64_t hi) {
        for (std::int64_t i = lo; i < hi; ++i) {
          double acc = 0.0;
          const std::int64_t end = rp[i + 1];
          for (std::int64_t k = rp[i]; k < end; ++k) acc += va[k] * gv[ci[k]];
          zv[i] += acc;
        }
      });
}

void AmgPreconditioner::Prolongator::restrict_to(const Vector& r,
                                                 Vector& rc) const {
  Vector contrib(*overlap_map, 0.0);
  const LO n = r.local_size();
  for (LO i = 0; i < n; ++i) {
    for (auto k = row_ptr[static_cast<std::size_t>(i)];
         k < row_ptr[static_cast<std::size_t>(i) + 1]; ++k) {
      contrib[col[static_cast<std::size_t>(k)]] +=
          val[static_cast<std::size_t>(k)] * r[i];
    }
  }
  rc.put_scalar(0.0);
  import_plan->apply_reverse<double>(contrib.local_view(), rc.local_view(),
                                     tpetra::CombineMode::kAdd);
}

void AmgPreconditioner::smooth(const Level& level, const Vector& r, Vector& z,
                               int sweeps) const {
  Vector az(level.a->range_map());
  const double* rv = r.local_view().data();
  const double* dv = level.inv_diag.local_view().data();
  const double* azv = az.local_view().data();
  double* zv = z.local_view().data();
  const double omega = options_.jacobi_omega;
  const auto n = static_cast<std::int64_t>(z.local_size());
  for (int s = 0; s < sweeps; ++s) {
    level.a->apply(z, az);
    util::exec::for_each(util::exec::default_space(), 0, n,
                         util::kDefaultGrain, [=](std::int64_t i) noexcept {
                           zv[i] += omega * dv[i] * (rv[i] - azv[i]);
                         });
  }
}

void AmgPreconditioner::vcycle(std::size_t lvl, const Vector& r,
                               Vector& z) const {
  const Level& level = levels_[lvl];
  if (lvl + 1 == levels_.size()) {
    // Coarsest: replicated dense solve.
    auto rg = r.gather_global();
    auto xg = coarse_lu_->solve(rg);
    const Map& map = level.a->row_map();
    for (LO i = 0; i < map.num_local(); ++i) {
      z[i] = xg[static_cast<std::size_t>(map.local_to_global(i))];
    }
    return;
  }

  smooth(level, r, z, options_.pre_smooth_sweeps);

  Vector resid(level.a->range_map());
  level.a->apply(z, resid);
  resid.update(1.0, r, -1.0);

  Vector rc(*level.coarse_map);
  level.p.restrict_to(resid, rc);
  Vector ec(*level.coarse_map, 0.0);
  vcycle(lvl + 1, rc, ec);
  level.p.prolongate(ec, z);

  smooth(level, r, z, options_.post_smooth_sweeps);
}

void AmgPreconditioner::apply(const Vector& r, Vector& z) const {
  z.put_scalar(0.0);
  vcycle(0, r, z);
}

std::vector<std::int64_t> AmgPreconditioner::level_sizes() const {
  std::vector<std::int64_t> out;
  out.reserve(levels_.size());
  for (const auto& level : levels_) {
    out.push_back(level.a->row_map().num_global());
  }
  return out;
}

double AmgPreconditioner::operator_complexity() const {
  double total = 0.0;
  for (const auto& level : levels_) {
    total += static_cast<double>(level.a->num_global_entries());
  }
  return total / static_cast<double>(levels_.front().a->num_global_entries());
}

}  // namespace pyhpc::precond
