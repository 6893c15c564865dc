// Tests for CrsMatrix: assembly, fill_complete structure, distributed SpMV
// against serial references, diagonal/scaling utilities, and error paths.
#include <gtest/gtest.h>

#include <numeric>

#include "comm/runner.hpp"
#include "tpetra/crs_matrix.hpp"

namespace pc = pyhpc::comm;
namespace tp = pyhpc::tpetra;

using MapT = tp::Map<>;
using MatD = tp::CrsMatrix<double>;
using VecD = tp::Vector<double>;
using LO = std::int32_t;
using GO = std::int64_t;

namespace {
const std::vector<int> kRankCounts{1, 2, 3, 4, 6};

// Assembles the 1D Laplacian stencil [-1, 2, -1] (Dirichlet) on `map`.
MatD laplace1d(const MapT& map) {
  MatD a(map);
  const GO n = map.num_global();
  for (LO i = 0; i < map.num_local(); ++i) {
    const GO g = map.local_to_global(i);
    std::vector<GO> cols;
    std::vector<double> vals;
    if (g > 0) {
      cols.push_back(g - 1);
      vals.push_back(-1.0);
    }
    cols.push_back(g);
    vals.push_back(2.0);
    if (g + 1 < n) {
      cols.push_back(g + 1);
      vals.push_back(-1.0);
    }
    a.insert_global_values(g, cols, vals);
  }
  a.fill_complete();
  return a;
}
}  // namespace

class CrsRankSweep : public ::testing::TestWithParam<int> {};
INSTANTIATE_TEST_SUITE_P(Ranks, CrsRankSweep, ::testing::ValuesIn(kRankCounts));

TEST_P(CrsRankSweep, Laplace1dStructure) {
  pc::run(GetParam(), [](pc::Communicator& comm) {
    const GO n = 32;
    auto map = MapT::uniform(comm, n);
    auto a = laplace1d(map);
    EXPECT_TRUE(a.is_fill_complete());
    EXPECT_EQ(a.num_global_entries(), 3 * n - 2);
    // Row contents match the stencil.
    for (LO i = 0; i < map.num_local(); ++i) {
      const GO g = map.local_to_global(i);
      auto row = a.get_global_row(g);
      std::size_t expect = 3;
      if (g == 0 || g == n - 1) expect = 2;
      EXPECT_EQ(row.size(), expect);
      for (const auto& [col, val] : row) {
        if (col == g) {
          EXPECT_DOUBLE_EQ(val, 2.0);
        } else {
          EXPECT_DOUBLE_EQ(val, -1.0);
        }
      }
    }
  });
}

TEST_P(CrsRankSweep, SpmvMatchesSerialStencil) {
  pc::run(GetParam(), [](pc::Communicator& comm) {
    const GO n = 50;
    auto map = MapT::uniform(comm, n);
    auto a = laplace1d(map);
    VecD x(map), y(map);
    for (LO i = 0; i < map.num_local(); ++i) {
      const GO g = map.local_to_global(i);
      x[i] = static_cast<double>(g) * static_cast<double>(g);  // x = g^2
    }
    a.apply(x, y);
    // (Ax)_g = -（g-1)^2 + 2g^2 - (g+1)^2 = -2 for interior rows.
    for (LO i = 0; i < map.num_local(); ++i) {
      const GO g = map.local_to_global(i);
      double want = -2.0;
      if (g == 0) want = 2.0 * 0.0 - 1.0;                  // 2*0 - 1^2
      if (g == n - 1) {
        const double gm = static_cast<double>(n - 2);
        const double gg = static_cast<double>(n - 1);
        want = -gm * gm + 2.0 * gg * gg;
      }
      EXPECT_NEAR(y[i], want, 1e-10) << "row " << g;
    }
  });
}

TEST_P(CrsRankSweep, SpmvMatchesGatheredDenseReference) {
  pc::run(GetParam(), [](pc::Communicator& comm) {
    // Random-ish sparse matrix with deterministic entries, checked against
    // a dense serial multiply of the gathered matrix.
    const GO n = 22;
    auto map = MapT::uniform(comm, n);
    MatD a(map);
    for (LO i = 0; i < map.num_local(); ++i) {
      const GO g = map.local_to_global(i);
      for (GO c = 0; c < n; ++c) {
        if ((g * 7 + c * 3) % 5 == 0) {
          a.insert_global_value(g, c, static_cast<double>(g - c) + 0.5);
        }
      }
    }
    a.fill_complete();

    VecD x(map), y(map);
    for (LO i = 0; i < map.num_local(); ++i) {
      x[i] = 0.1 * static_cast<double>(map.local_to_global(i)) - 1.0;
    }
    a.apply(x, y);

    auto xg = x.gather_global();
    auto yg = y.gather_global();
    for (GO r = 0; r < n; ++r) {
      double want = 0.0;
      for (GO c = 0; c < n; ++c) {
        if ((r * 7 + c * 3) % 5 == 0) {
          want += (static_cast<double>(r - c) + 0.5) *
                  xg[static_cast<std::size_t>(c)];
        }
      }
      EXPECT_NEAR(yg[static_cast<std::size_t>(r)], want, 1e-10);
    }
  });
}

TEST_P(CrsRankSweep, DuplicateInsertionsAccumulate) {
  pc::run(GetParam(), [](pc::Communicator& comm) {
    auto map = MapT::uniform(comm, 8);
    MatD a(map);
    for (LO i = 0; i < map.num_local(); ++i) {
      const GO g = map.local_to_global(i);
      a.insert_global_value(g, g, 1.0);
      a.insert_global_value(g, g, 2.5);  // same entry again
    }
    a.fill_complete();
    VecD d(map);
    a.get_local_diag_copy(d);
    for (LO i = 0; i < map.num_local(); ++i) {
      EXPECT_DOUBLE_EQ(d[i], 3.5);
    }
  });
}

TEST_P(CrsRankSweep, DiagCopyLeftScaleAndFrobenius) {
  pc::run(GetParam(), [](pc::Communicator& comm) {
    const GO n = 16;
    auto map = MapT::uniform(comm, n);
    MatD a(map);
    for (LO i = 0; i < map.num_local(); ++i) {
      const GO g = map.local_to_global(i);
      a.insert_global_value(g, g, static_cast<double>(g + 1));
    }
    a.fill_complete();

    VecD d(map);
    a.get_local_diag_copy(d);
    for (LO i = 0; i < map.num_local(); ++i) {
      EXPECT_DOUBLE_EQ(d[i], static_cast<double>(map.local_to_global(i) + 1));
    }

    // Frobenius of diag(1..n): sqrt(sum k^2).
    double want = 0.0;
    for (GO k = 1; k <= n; ++k) {
      want += static_cast<double>(k) * static_cast<double>(k);
    }
    EXPECT_NEAR(a.frobenius_norm(), std::sqrt(want), 1e-10);

    // Left-scale by 1/diag -> identity.
    VecD inv(map);
    inv.reciprocal(d);
    a.left_scale(inv);
    VecD x(map, 2.0), y(map);
    a.apply(x, y);
    for (LO i = 0; i < map.num_local(); ++i) {
      EXPECT_DOUBLE_EQ(y[i], 2.0);
    }
  });
}

TEST_P(CrsRankSweep, ScaleMultipliesAllValues) {
  pc::run(GetParam(), [](pc::Communicator& comm) {
    auto map = MapT::uniform(comm, 10);
    auto a = laplace1d(map);
    a.scale(-0.5);
    VecD x(map, 1.0), y(map);
    a.apply(x, y);
    // Laplacian row sums: 0 interior, 1 at ends; scaled by -0.5.
    for (LO i = 0; i < map.num_local(); ++i) {
      const GO g = map.local_to_global(i);
      const double want = (g == 0 || g == 9) ? -0.5 : 0.0;
      EXPECT_NEAR(y[i], want, 1e-12);
    }
  });
}

TEST(Crs, InsertAfterFillCompleteThrows) {
  pc::run(1, [](pc::Communicator& comm) {
    auto map = MapT::uniform(comm, 4);
    MatD a(map);
    a.insert_global_value(0, 0, 1.0);
    a.fill_complete();
    EXPECT_THROW(a.insert_global_value(1, 1, 1.0), pyhpc::MapError);
    EXPECT_THROW(a.fill_complete(), pyhpc::MapError);
  });
}

TEST(Crs, InsertIntoForeignRowThrows) {
  pc::run(2, [](pc::Communicator& comm) {
    auto map = MapT::uniform(comm, 8);
    MatD a(map);
    const GO foreign = comm.rank() == 0 ? 7 : 0;
    EXPECT_THROW(a.insert_global_value(foreign, 0, 1.0), pyhpc::MapError);
  });
}

TEST(Crs, ColumnOutOfRangeThrows) {
  pc::run(1, [](pc::Communicator& comm) {
    auto map = MapT::uniform(comm, 4);
    MatD a(map);
    EXPECT_THROW(a.insert_global_value(0, 99, 1.0), pyhpc::InvalidArgument);
    EXPECT_THROW(a.insert_global_value(0, -1, 1.0), pyhpc::InvalidArgument);
  });
}

TEST(Crs, ApplyBeforeFillCompleteThrows) {
  pc::run(1, [](pc::Communicator& comm) {
    auto map = MapT::uniform(comm, 4);
    MatD a(map);
    VecD x(map), y(map);
    EXPECT_THROW(a.apply(x, y), pyhpc::MapError);
  });
}

TEST_P(CrsRankSweep, SpmvMatchesTripleLoopOnRandom64) {
  pc::run(GetParam(), [](pc::Communicator& comm) {
    // Regression guard for the hoisted-pointer CSR sweep in apply():
    // a deterministic pseudo-random 64x64 matrix (~25% fill) checked
    // entry-for-entry against the naive dense triple-loop reference.
    const GO n = 64;
    auto map = MapT::uniform(comm, n);
    MatD a(map);
    auto entry = [](GO r, GO c) -> double {
      const std::uint64_t h =
          (static_cast<std::uint64_t>(r) * 2654435761ull) ^
          (static_cast<std::uint64_t>(c) * 40503ull);
      if (h % 4 != 0) return 0.0;  // ~25% fill
      return static_cast<double>(static_cast<std::int64_t>(h % 2001) - 1000) /
             250.0;
    };
    for (LO i = 0; i < map.num_local(); ++i) {
      const GO g = map.local_to_global(i);
      for (GO c = 0; c < n; ++c) {
        const double v = entry(g, c);
        if (v != 0.0) a.insert_global_value(g, c, v);
      }
      a.insert_global_value(g, g, 8.0);  // keep every row non-empty
    }
    a.fill_complete();

    VecD x(map), y(map);
    for (LO i = 0; i < map.num_local(); ++i) {
      const GO g = map.local_to_global(i);
      x[i] = std::sin(static_cast<double>(g) * 0.37) + 0.25;
    }
    a.apply(x, y);

    auto xg = x.gather_global();
    auto yg = y.gather_global();
    for (GO r = 0; r < n; ++r) {
      double want = 0.0;
      for (GO c = 0; c < n; ++c) {
        double v = entry(r, c);
        if (r == c) v += 8.0;
        want += v * xg[static_cast<std::size_t>(c)];
      }
      EXPECT_NEAR(yg[static_cast<std::size_t>(r)], want, 1e-11) << "row " << r;
    }
  });
}

TEST_P(CrsRankSweep, ColMapOrdersOwnedThenGhost) {
  pc::run(GetParam(), [](pc::Communicator& comm) {
    const GO n = 24;
    auto map = MapT::uniform(comm, n);
    auto a = laplace1d(map);
    const auto& cmap = a.col_map();
    // First num_local entries mirror the row map.
    for (LO i = 0; i < map.num_local(); ++i) {
      EXPECT_EQ(cmap.local_to_global(i), map.local_to_global(i));
    }
    // Remaining entries are ghosts: not locally owned, sorted.
    GO prev = -1;
    for (LO i = map.num_local(); i < cmap.num_local(); ++i) {
      const GO g = cmap.local_to_global(i);
      EXPECT_FALSE(map.is_local_global_index(g));
      EXPECT_GT(g, prev);
      prev = g;
    }
    // 1D Laplacian ghosts: at most 2 (one per side).
    EXPECT_LE(cmap.num_local() - map.num_local(), 2);
  });
}

// ---------------------------------------------------------------------------
// Structure fingerprints and the cached Import adapter (DESIGN.md §10)
// ---------------------------------------------------------------------------

#include "tpetra/structure.hpp"
#include "util/setup_cache.hpp"

TEST_P(CrsRankSweep, StructureFingerprintIgnoresValues) {
  pc::run(GetParam(), [](pc::Communicator& comm) {
    auto map = MapT::uniform(comm, 20);
    MatD a = laplace1d(map);
    MatD b = laplace1d(map);
    b.scale(3.0);  // same sparsity, different values
    EXPECT_EQ(tp::structure_fingerprint(a), tp::structure_fingerprint(b));
  });
}

TEST_P(CrsRankSweep, StructureFingerprintSeesShapeChanges) {
  pc::run(GetParam(), [](pc::Communicator& comm) {
    auto map20 = MapT::uniform(comm, 20);
    auto map24 = MapT::uniform(comm, 24);
    EXPECT_NE(tp::structure_fingerprint(map20),
              tp::structure_fingerprint(map24));
    MatD a = laplace1d(map20);
    // Diagonal-only matrix over the same map: different sparsity.
    MatD d(map20);
    for (LO i = 0; i < map20.num_local(); ++i) {
      const GO g = map20.local_to_global(i);
      d.insert_global_value(g, g, 1.0);
    }
    d.fill_complete();
    EXPECT_NE(tp::structure_fingerprint(a), tp::structure_fingerprint(d));
  });
}

TEST_P(CrsRankSweep, CachedImportReusesThePlan) {
  pc::run(GetParam(), [](pc::Communicator& comm) {
    pyhpc::util::SetupCache cache(4, "test.tpetra.cache");
    auto owned = MapT::uniform(comm, 18);
    // Overlapping target: every rank also wants the halo of its block.
    std::vector<GO> wanted;
    for (LO i = 0; i < owned.num_local(); ++i) {
      wanted.push_back(owned.local_to_global(i));
    }
    if (!wanted.empty()) {
      if (wanted.front() > 0) wanted.insert(wanted.begin(), wanted.front() - 1);
      if (wanted.back() + 1 < owned.num_global()) {
        wanted.push_back(wanted.back() + 1);
      }
    }
    auto target = MapT::from_global_indices(comm, std::span<const GO>(wanted));
    // Identical request stream on every rank: miss once, hit afterwards
    // (the lockstep requirement documented on cached_import).
    auto p1 = tp::cached_import(cache, owned, target);
    auto p2 = tp::cached_import(cache, owned, target);
    EXPECT_EQ(p1.get(), p2.get());
    EXPECT_EQ(cache.stats().hits, 1u);
    // The cached plan actually moves data: import an owned vector into the
    // overlapped layout and check the halo values arrived.
    VecD src(owned), dst(target);
    for (LO i = 0; i < owned.num_local(); ++i) {
      src[i] = static_cast<double>(owned.local_to_global(i));
    }
    p1->apply(std::span<const double>(src.local_view()),
              std::span<double>(dst.local_view()));
    for (LO i = 0; i < target.num_local(); ++i) {
      EXPECT_DOUBLE_EQ(dst[i], static_cast<double>(target.local_to_global(i)));
    }
  });
}

// ---------------------------------------------------------------------------
// Assembly oracle: seeded random insertion streams against a dense reference
// ---------------------------------------------------------------------------

#include <algorithm>

#include "util/random.hpp"

namespace {

struct Entry {
  GO row;
  GO col;
  double val;
};

// One seeded insertion stream over an n x n matrix, identical on every
// rank. Rows mix four patterns: empty, a local band, ghost-heavy (columns
// scattered over the whole range, so most are owned elsewhere), and a dense
// stretch; columns come out of order and repeat, so duplicates must add up.
// Values are multiples of 1/4, so every sum is exact in any order.
template <class T>
void shuffle(std::vector<T>& v, pyhpc::util::Xoshiro256& rng) {
  for (std::size_t i = v.size(); i > 1; --i) {
    std::swap(v[i - 1], v[static_cast<std::size_t>(rng.next_int(
                            0, static_cast<std::int64_t>(i) - 1))]);
  }
}

std::vector<Entry> assembly_stream(GO n, std::uint64_t seed) {
  pyhpc::util::Xoshiro256 rng(seed);
  std::vector<std::vector<Entry>> chunks;
  for (GO r = 0; r < n; ++r) {
    const auto pattern = rng.next_int(0, 3);
    std::vector<GO> cols;
    if (pattern == 1) {
      for (GO c = std::max<GO>(0, r - 2); c <= std::min(n - 1, r + 2); ++c) {
        cols.push_back(c);
      }
    } else if (pattern == 2) {
      for (int k = rng.next_int(1, 8); k > 0; --k) {
        cols.push_back(rng.next_int(0, n - 1));
      }
    } else if (pattern == 3) {
      const GO lo = rng.next_int(0, n - 1);
      for (GO c = lo; c < std::min(n, lo + 12); ++c) cols.push_back(c);
    }
    for (int d = rng.next_int(0, 3); d > 0 && !cols.empty(); --d) {
      cols.push_back(cols[static_cast<std::size_t>(
          rng.next_int(0, static_cast<std::int64_t>(cols.size()) - 1))]);
    }
    shuffle(cols, rng);
    for (std::size_t k = 0; k < cols.size(); k += 3) {
      std::vector<Entry> chunk;
      for (std::size_t j = k; j < std::min(cols.size(), k + 3); ++j) {
        chunk.push_back(
            Entry{r, cols[j], 0.25 * static_cast<double>(rng.next_int(-8, 8))});
      }
      chunks.push_back(std::move(chunk));
    }
  }
  // Rows arrive in interleaved runs of up to three columns each.
  shuffle(chunks, rng);
  std::vector<Entry> out;
  for (const auto& chunk : chunks) out.insert(out.end(), chunk.begin(), chunk.end());
  return out;
}

// Assembles the stream on `map` (each rank inserts its own rows, one
// insert_global_values call per run of consecutive same-row entries) and
// checks every observable of the
// fill-complete matrix against the dense reference.
void check_assembly_oracle(const MapT& map, std::uint64_t seed) {
  const GO n = map.num_global();
  const auto stream = assembly_stream(n, seed);
  std::vector<double> dense(static_cast<std::size_t>(n * n), 0.0);
  std::vector<char> present(static_cast<std::size_t>(n * n), 0);
  for (const auto& e : stream) {
    dense[static_cast<std::size_t>(e.row * n + e.col)] += e.val;
    present[static_cast<std::size_t>(e.row * n + e.col)] = 1;
  }

  MatD a(map);
  for (std::size_t i = 0; i < stream.size();) {
    const GO row = stream[i].row;
    std::vector<GO> cols;
    std::vector<double> vals;
    for (; i < stream.size() && stream[i].row == row; ++i) {
      cols.push_back(stream[i].col);
      vals.push_back(stream[i].val);
    }
    if (map.is_local_global_index(row)) a.insert_global_values(row, cols, vals);
  }
  a.fill_complete();

  // Rows: exactly the inserted (row, col) pairs, once each, with the sum.
  std::int64_t want_entries = 0;
  for (GO r = 0; r < n; ++r) {
    for (GO c = 0; c < n; ++c) {
      want_entries += present[static_cast<std::size_t>(r * n + c)];
    }
  }
  EXPECT_EQ(a.num_global_entries(), want_entries);
  for (LO i = 0; i < map.num_local(); ++i) {
    const GO g = map.local_to_global(i);
    std::vector<std::pair<GO, double>> want;
    for (GO c = 0; c < n; ++c) {
      if (present[static_cast<std::size_t>(g * n + c)]) {
        want.emplace_back(c, dense[static_cast<std::size_t>(g * n + c)]);
      }
    }
    EXPECT_EQ(a.get_global_row(g), want) << "row " << g << " seed " << seed;
  }

  // Column map: owned columns first in row-map order, then every
  // referenced ghost once, ascending.
  const auto& cmap = a.col_map();
  for (LO i = 0; i < map.num_local(); ++i) {
    EXPECT_EQ(cmap.local_to_global(i), map.local_to_global(i));
  }
  std::vector<GO> want_ghosts;
  for (LO i = 0; i < map.num_local(); ++i) {
    const GO g = map.local_to_global(i);
    for (GO c = 0; c < n; ++c) {
      if (present[static_cast<std::size_t>(g * n + c)] &&
          !map.is_local_global_index(c)) {
        want_ghosts.push_back(c);
      }
    }
  }
  std::sort(want_ghosts.begin(), want_ghosts.end());
  want_ghosts.erase(std::unique(want_ghosts.begin(), want_ghosts.end()),
                    want_ghosts.end());
  std::vector<GO> ghosts;
  for (LO i = map.num_local(); i < cmap.num_local(); ++i) {
    ghosts.push_back(cmap.local_to_global(i));
  }
  EXPECT_EQ(ghosts, want_ghosts) << "seed " << seed;

  // Diagonal and SpMV against the dense reference.
  VecD d(map), x(map), y(map);
  a.get_local_diag_copy(d);
  for (LO i = 0; i < map.num_local(); ++i) {
    const GO g = map.local_to_global(i);
    EXPECT_EQ(d[i], dense[static_cast<std::size_t>(g * n + g)]);
    x[i] = 0.5 * static_cast<double>(g % 7) - 1.0;
  }
  a.apply(x, y);
  for (LO i = 0; i < map.num_local(); ++i) {
    const GO g = map.local_to_global(i);
    double want = 0.0;
    for (GO c = 0; c < n; ++c) {
      want += dense[static_cast<std::size_t>(g * n + c)] *
              (0.5 * static_cast<double>(c % 7) - 1.0);
    }
    EXPECT_EQ(y[i], want) << "row " << g << " seed " << seed;
  }
}

}  // namespace

class CrsAssemblyOracle : public ::testing::TestWithParam<int> {};
INSTANTIATE_TEST_SUITE_P(Ranks, CrsAssemblyOracle,
                         ::testing::Values(1, 2, 3, 4, 7));

TEST_P(CrsAssemblyOracle, UniformMapMatchesDenseReference) {
  pc::run(GetParam(), [](pc::Communicator& comm) {
    for (std::uint64_t seed = 1; seed <= 6; ++seed) {
      check_assembly_oracle(MapT::uniform(comm, 41), seed);
    }
  });
}

TEST_P(CrsAssemblyOracle, CyclicMapMatchesDenseReference) {
  // Non-contiguous row map: owned columns are scattered over the range, so
  // almost every referenced column is a ghost.
  pc::run(GetParam(), [](pc::Communicator& comm) {
    const GO n = 37;
    std::vector<GO> mine;
    for (GO g = comm.rank(); g < n; g += comm.size()) mine.push_back(g);
    const auto map = MapT::from_global_indices(comm, std::span<const GO>(mine));
    for (std::uint64_t seed = 11; seed <= 14; ++seed) {
      check_assembly_oracle(map, seed);
    }
  });
}
