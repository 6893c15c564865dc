// Parameterized correctness suite for the scalable collective schedules
// (ISSUE 3): every collective x rank counts {1,2,3,4,7,8} x empty/short/
// long payloads x non-zero roots, each forced algorithm cross-checked
// against a serial reference. Registered under the `coll` CTest label and
// exercised under -DPYHPC_SANITIZE=thread.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <functional>
#include <numeric>
#include <vector>

#include "comm/runner.hpp"
#include "util/error.hpp"

namespace pc = pyhpc::comm;
using pc::CollectiveAlgo;
using pyhpc::CommError;

namespace {

// The `long` size clears the 4096-byte kAuto thresholds for double
// payloads (1024 * 8 = 8192 B), so threshold-driven selection takes the
// long-message branch; `short` stays below it.
const std::vector<int> kRankCounts{1, 2, 3, 4, 7, 8};
const std::vector<std::size_t> kCounts{0, 3, 1024};

double element(int rank, std::size_t i) {
  return static_cast<double>(rank * 100000) + static_cast<double>(i);
}

class CollAlgoTest
    : public ::testing::TestWithParam<std::tuple<int, std::size_t>> {
 protected:
  int ranks() const { return std::get<0>(GetParam()); }
  std::size_t count() const { return std::get<1>(GetParam()); }
};

INSTANTIATE_TEST_SUITE_P(
    Grid, CollAlgoTest,
    ::testing::Combine(::testing::ValuesIn(kRankCounts),
                       ::testing::ValuesIn(kCounts)),
    [](const auto& info) {
      return "p" + std::to_string(std::get<0>(info.param)) + "_n" +
             std::to_string(std::get<1>(info.param));
    });

}  // namespace

TEST_P(CollAlgoTest, AllreduceAllAlgosMatchReference) {
  const int p = ranks();
  const std::size_t n = count();
  // Serial reference: elementwise sum over ranks.
  std::vector<double> expect(n, 0.0);
  for (int r = 0; r < p; ++r) {
    for (std::size_t i = 0; i < n; ++i) expect[i] += element(r, i);
  }
  for (CollectiveAlgo algo :
       {CollectiveAlgo::kAuto, CollectiveAlgo::kLinear,
        CollectiveAlgo::kRecursiveDoubling, CollectiveAlgo::kRabenseifner}) {
    pc::run(p, [&](pc::Communicator& comm) {
      std::vector<double> mine(n), got(n);
      for (std::size_t i = 0; i < n; ++i) mine[i] = element(comm.rank(), i);
      comm.allreduce(std::span<const double>(mine), std::span<double>(got),
                     std::plus<double>{}, algo);
      EXPECT_EQ(got, expect) << "algo " << pc::collective_algo_name(algo);
    });
  }
}

TEST_P(CollAlgoTest, AllreduceValueMaxOp) {
  const int p = ranks();
  for (CollectiveAlgo algo :
       {CollectiveAlgo::kLinear, CollectiveAlgo::kRecursiveDoubling,
        CollectiveAlgo::kRabenseifner}) {
    pc::run(p, [&](pc::Communicator& comm) {
      const int got = comm.allreduce_value<int>(
          (comm.rank() * 7) % p + 1,
          [](int a, int b) { return std::max(a, b); }, algo);
      int expect = 0;
      for (int r = 0; r < p; ++r) expect = std::max(expect, (r * 7) % p + 1);
      EXPECT_EQ(got, expect) << "algo " << pc::collective_algo_name(algo);
    });
  }
}

TEST_P(CollAlgoTest, GatherBinomialNonZeroRoots) {
  const int p = ranks();
  const std::size_t n = count();
  for (int root : {0, p - 1, p / 2}) {
    for (CollectiveAlgo algo : {CollectiveAlgo::kAuto, CollectiveAlgo::kLinear,
                                CollectiveAlgo::kBinomial}) {
      pc::run(p, [&](pc::Communicator& comm) {
        std::vector<double> mine(n);
        for (std::size_t i = 0; i < n; ++i) mine[i] = element(comm.rank(), i);
        std::vector<double> all;
        comm.gather(std::span<const double>(mine), all, root, algo);
        if (comm.rank() == root) {
          ASSERT_EQ(all.size(), n * static_cast<std::size_t>(p));
          for (int r = 0; r < p; ++r) {
            for (std::size_t i = 0; i < n; ++i) {
              EXPECT_EQ(all[static_cast<std::size_t>(r) * n + i],
                        element(r, i))
                  << "root " << root << " algo "
                  << pc::collective_algo_name(algo);
            }
          }
        } else {
          EXPECT_TRUE(all.empty());
        }
      });
    }
  }
}

TEST_P(CollAlgoTest, ScatterBinomialNonZeroRoots) {
  const int p = ranks();
  const std::size_t n = count();
  for (int root : {0, p - 1, p / 2}) {
    for (CollectiveAlgo algo : {CollectiveAlgo::kAuto, CollectiveAlgo::kLinear,
                                CollectiveAlgo::kBinomial}) {
      pc::run(p, [&](pc::Communicator& comm) {
        std::vector<double> all;
        if (comm.rank() == root) {
          all.resize(n * static_cast<std::size_t>(p));
          for (int r = 0; r < p; ++r) {
            for (std::size_t i = 0; i < n; ++i) {
              all[static_cast<std::size_t>(r) * n + i] = element(r, i);
            }
          }
        }
        std::vector<double> mine(n);
        comm.scatter(std::span<const double>(all), std::span<double>(mine),
                     root, algo);
        for (std::size_t i = 0; i < n; ++i) {
          EXPECT_EQ(mine[i], element(comm.rank(), i))
              << "root " << root << " algo " << pc::collective_algo_name(algo);
        }
      });
    }
  }
}

TEST_P(CollAlgoTest, AllgatherAllAlgosMatchReference) {
  const int p = ranks();
  const std::size_t n = count();
  for (CollectiveAlgo algo :
       {CollectiveAlgo::kAuto, CollectiveAlgo::kLinear, CollectiveAlgo::kBruck,
        CollectiveAlgo::kRing}) {
    pc::run(p, [&](pc::Communicator& comm) {
      std::vector<double> mine(n);
      for (std::size_t i = 0; i < n; ++i) mine[i] = element(comm.rank(), i);
      auto all = comm.allgather(std::span<const double>(mine), algo);
      ASSERT_EQ(all.size(), n * static_cast<std::size_t>(p));
      for (int r = 0; r < p; ++r) {
        for (std::size_t i = 0; i < n; ++i) {
          EXPECT_EQ(all[static_cast<std::size_t>(r) * n + i], element(r, i))
              << "algo " << pc::collective_algo_name(algo);
        }
      }
    });
  }
}

TEST_P(CollAlgoTest, AllgathervVariableCountsPerRank) {
  const int p = ranks();
  const std::size_t base = count();
  for (CollectiveAlgo algo : {CollectiveAlgo::kAuto, CollectiveAlgo::kLinear}) {
    pc::run(p, [&](pc::Communicator& comm) {
      // Rank r contributes base + r elements (0 on every rank when base
      // is 0 and r is even — mixed empty/non-empty chunks).
      const std::size_t cnt =
          base + static_cast<std::size_t>(comm.rank() % 2 == 0 ? 0 : comm.rank());
      std::vector<double> mine(cnt);
      for (std::size_t i = 0; i < cnt; ++i) mine[i] = element(comm.rank(), i);
      auto chunks = comm.allgatherv(std::span<const double>(mine), algo);
      ASSERT_EQ(chunks.size(), static_cast<std::size_t>(p));
      for (int r = 0; r < p; ++r) {
        const std::size_t rc =
            base + static_cast<std::size_t>(r % 2 == 0 ? 0 : r);
        ASSERT_EQ(chunks[static_cast<std::size_t>(r)].size(), rc)
            << "algo " << pc::collective_algo_name(algo);
        for (std::size_t i = 0; i < rc; ++i) {
          EXPECT_EQ(chunks[static_cast<std::size_t>(r)][i], element(r, i));
        }
      }
    });
  }
}

TEST_P(CollAlgoTest, AlltoallPairwiseMatchesReference) {
  const int p = ranks();
  const std::size_t n = count();
  for (CollectiveAlgo algo : {CollectiveAlgo::kAuto, CollectiveAlgo::kLinear,
                              CollectiveAlgo::kPairwise}) {
    pc::run(p, [&](pc::Communicator& comm) {
      const std::size_t total = n * static_cast<std::size_t>(p);
      std::vector<double> send(total), recv(total);
      for (int dst = 0; dst < p; ++dst) {
        for (std::size_t i = 0; i < n; ++i) {
          send[static_cast<std::size_t>(dst) * n + i] =
              element(comm.rank(), i) + dst;
        }
      }
      comm.alltoall(std::span<const double>(send), std::span<double>(recv),
                    algo);
      for (int src = 0; src < p; ++src) {
        for (std::size_t i = 0; i < n; ++i) {
          EXPECT_EQ(recv[static_cast<std::size_t>(src) * n + i],
                    element(src, i) + comm.rank())
              << "algo " << pc::collective_algo_name(algo);
        }
      }
    });
  }
}

TEST_P(CollAlgoTest, AlltoallvPairwiseVariableParts) {
  const int p = ranks();
  for (CollectiveAlgo algo : {CollectiveAlgo::kAuto, CollectiveAlgo::kLinear,
                              CollectiveAlgo::kPairwise}) {
    pc::run(p, [&](pc::Communicator& comm) {
      // Part (me -> dst) has (me + dst) % 3 elements.
      std::vector<std::vector<double>> send(static_cast<std::size_t>(p));
      for (int dst = 0; dst < p; ++dst) {
        const int cnt = (comm.rank() + dst) % 3;
        for (int i = 0; i < cnt; ++i) {
          send[static_cast<std::size_t>(dst)].push_back(
              element(comm.rank(), static_cast<std::size_t>(i)) + dst);
        }
      }
      auto recv = comm.alltoallv(send, algo);
      ASSERT_EQ(recv.size(), static_cast<std::size_t>(p));
      for (int src = 0; src < p; ++src) {
        const int cnt = (src + comm.rank()) % 3;
        ASSERT_EQ(recv[static_cast<std::size_t>(src)].size(),
                  static_cast<std::size_t>(cnt))
            << "algo " << pc::collective_algo_name(algo);
        for (int i = 0; i < cnt; ++i) {
          EXPECT_EQ(recv[static_cast<std::size_t>(src)]
                        [static_cast<std::size_t>(i)],
                    element(src, static_cast<std::size_t>(i)) + comm.rank());
        }
      }
    });
  }
}

// Long mixed sequence at an awkward rank count: exercises the collective
// sequence-slot wraparound and the widened per-phase tag space with every
// schedule interleaved back to back.
TEST(CollStress, MixedAlgosBackToBackAtSevenRanks) {
  pc::run(7, [](pc::Communicator& comm) {
    const int p = comm.size();
    for (int iter = 0; iter < 40; ++iter) {
      const auto algo = (iter % 2 == 0) ? CollectiveAlgo::kRecursiveDoubling
                                        : CollectiveAlgo::kRabenseifner;
      std::vector<double> mine(17), got(17);
      for (std::size_t i = 0; i < mine.size(); ++i) {
        mine[i] = element(comm.rank(), i) + iter;
      }
      comm.allreduce(std::span<const double>(mine), std::span<double>(got),
                     std::plus<double>{}, algo);
      double expect0 = 0.0;
      for (int r = 0; r < p; ++r) expect0 += element(r, 0) + iter;
      EXPECT_DOUBLE_EQ(got[0], expect0);

      auto all = comm.allgather_value(comm.rank() * 3 + iter,
                                      iter % 2 == 0 ? CollectiveAlgo::kBruck
                                                    : CollectiveAlgo::kRing);
      ASSERT_EQ(all.size(), static_cast<std::size_t>(p));
      for (int r = 0; r < p; ++r) {
        EXPECT_EQ(all[static_cast<std::size_t>(r)], r * 3 + iter);
      }
      comm.barrier();
    }
  });
}

// ---- selection policy -----------------------------------------------------

TEST(CollPolicy, AutoSelectionFollowsSizeThresholds) {
  pc::run(4, [](pc::Communicator& comm) {
    comm.stats().reset();
    // Short payload (8 B) -> recursive doubling; long (8192 B) ->
    // Rabenseifner at the default 4096 B threshold.
    (void)comm.allreduce_value(1.0, std::plus<double>{});
    std::vector<double> big(1024, 1.0), out(1024);
    comm.allreduce(std::span<const double>(big), std::span<double>(out),
                   std::plus<double>{});
    // Short allgather -> Bruck; long -> ring.
    (void)comm.allgather_value(comm.rank());
    (void)comm.allgather(std::span<const double>(big));
    const auto& s = comm.stats();
    EXPECT_EQ(s.algo_recursive_doubling, 1u);
    EXPECT_EQ(s.algo_rabenseifner, 1u);
    EXPECT_EQ(s.algo_bruck, 1u);
    EXPECT_EQ(s.algo_ring, 1u);
    EXPECT_EQ(s.algo_linear, 0u);
  });
}

TEST(CollPolicy, ConfigForcesLinearEverywhere) {
  pc::CommConfig config;
  config.coll.allreduce = CollectiveAlgo::kLinear;
  config.coll.allgather = CollectiveAlgo::kLinear;
  config.coll.gather = CollectiveAlgo::kLinear;
  config.coll.scatter = CollectiveAlgo::kLinear;
  config.coll.alltoall = CollectiveAlgo::kLinear;
  pc::run(4, config, [](pc::Communicator& comm) {
    comm.stats().reset();
    std::vector<double> big(1024, 1.0), out(1024);
    comm.allreduce(std::span<const double>(big), std::span<double>(out),
                   std::plus<double>{});
    (void)comm.allgather(std::span<const double>(big));
    std::vector<std::vector<int>> parts(4);
    (void)comm.alltoallv(parts);
    // 8, not 3: the linear composites book their nested stages too —
    // allreduce = itself + flat reduce + flat broadcast (3), allgather =
    // itself + gather + count broadcast + payload broadcast (4),
    // alltoallv = itself (1).
    EXPECT_EQ(comm.stats().algo_linear, 8u);
    EXPECT_EQ(comm.stats().algo_rabenseifner, 0u);
    EXPECT_EQ(comm.stats().algo_ring, 0u);
    EXPECT_EQ(comm.stats().algo_pairwise, 0u);
  });
}

TEST(CollPolicy, UnsupportedForcedAlgoThrows) {
  EXPECT_THROW(pc::run(2,
                       [](pc::Communicator& comm) {
                         (void)comm.allreduce_value(
                             1, std::plus<int>{}, CollectiveAlgo::kRing);
                       }),
               CommError);
  EXPECT_THROW(pc::run(2,
                       [](pc::Communicator& comm) {
                         (void)comm.allgather_value(
                             1, CollectiveAlgo::kRabenseifner);
                       }),
               CommError);
}

// ---- dissemination barrier pattern (satellite bugfix) ----------------------

// The old inline peer expression `(rank - k % p + p) % p` computed
// (rank - (k mod p)) mod p, which happens to equal (rank - k) mod p only
// while k < p. These properties must hold for ANY k so the pattern stays
// correct if the loop bound ever changes.
TEST(CollBarrier, DisseminationPeersAreInverseForAllDistances) {
  using C = pc::Communicator;
  for (int p = 1; p <= 9; ++p) {
    for (int k = 0; k <= 2 * p + 1; ++k) {
      for (int r = 0; r < p; ++r) {
        const int s = C::dissemination_send_peer(r, k, p);
        ASSERT_GE(s, 0);
        ASSERT_LT(s, p);
        // If r signals s at distance k, then s must wait on r at k.
        EXPECT_EQ(C::dissemination_recv_peer(s, k, p), r)
            << "p=" << p << " k=" << k << " r=" << r;
        EXPECT_EQ(s, (r + k) % p);
      }
    }
  }
  // The k >= p case the old expression silently depended on never seeing:
  // distance 7 in a 5-rank world is distance 2.
  EXPECT_EQ(pc::Communicator::dissemination_send_peer(1, 7, 5), 3);
  EXPECT_EQ(pc::Communicator::dissemination_recv_peer(3, 7, 5), 1);
}

TEST(CollBarrier, BarrierCompletesAtAllRankCounts) {
  for (int p : kRankCounts) {
    pc::run(p, [](pc::Communicator& comm) {
      for (int i = 0; i < 5; ++i) comm.barrier();
      EXPECT_EQ(comm.stats().collectives, 5u);
    });
  }
}

// ---- non-blocking allreduce == blocking allreduce, bit for bit -------------

// Contributions chosen so that floating-point sums depend on the pairing:
// 1e16 absorbs small addends, so a different fold order yields a different
// double. iallreduce must follow allreduce(kRecursiveDoubling)'s schedule
// exactly, including the non-power-of-two fold, at every rank count.
TEST(CollNonBlocking, IAllreduceBitIdenticalToBlockingAtAllRankCounts) {
  const double contrib[] = {1e16, 1.0, -1e16, 3.0, 1e-3, -7.5, 2.0, 0.25};
  for (int p = 1; p <= 8; ++p) {
    pc::run(p, [&contrib, p](pc::Communicator& comm) {
      const auto r = static_cast<std::size_t>(comm.rank());
      // Element 1 rotates the contributions so a second pairing is checked.
      const std::vector<double> in{contrib[r],
                                   contrib[(r + 3) % 8] * 0.5 + contrib[r]};
      std::vector<double> blocking(in.size()), nonblocking(in.size());
      comm.allreduce(std::span<const double>(in), std::span<double>(blocking),
                     std::plus<double>{}, CollectiveAlgo::kRecursiveDoubling);
      comm.iallreduce(std::span<const double>(in),
                      std::span<double>(nonblocking), std::plus<double>{})
          .wait();
      for (std::size_t i = 0; i < in.size(); ++i) {
        EXPECT_EQ(std::bit_cast<std::uint64_t>(nonblocking[i]),
                  std::bit_cast<std::uint64_t>(blocking[i]))
            << "p=" << p << " rank=" << r << " i=" << i << ": "
            << nonblocking[i] << " vs " << blocking[i];
      }
    });
  }
}
