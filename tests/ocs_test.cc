#include <gtest/gtest.h>

#include <cmath>
#include <stdexcept>

#include "common/rng.h"
#include "common/stats.h"
#include "ocs/algorithm.h"
#include "ocs/hardware.h"

namespace mixnet::ocs {
namespace {

Matrix demand4() {
  // Asymmetric demand with a clear hot pair (0,1).
  Matrix d(4, 4, 0.0);
  d(0, 1) = 100.0;
  d(1, 0) = 80.0;
  d(0, 2) = 10.0;
  d(2, 3) = 5.0;
  d(3, 1) = 2.0;
  return d;
}

// ------------------------------------------------------------ algorithm ----

TEST(Algorithm, SymmetrizeFoldsTxRx) {
  const Matrix d = symmetrize_demand(demand4());
  EXPECT_DOUBLE_EQ(d(0, 1), 180.0);
  EXPECT_DOUBLE_EQ(d(1, 0), 0.0);  // upper triangular
  EXPECT_DOUBLE_EQ(d(1, 3), 2.0);
}

TEST(Algorithm, CountsSymmetricAndDegreeBounded) {
  const auto topo = reconfigure_ocs(demand4(), 3);
  const Matrix& c = topo.counts;
  for (std::size_t i = 0; i < 4; ++i) {
    double row = 0.0;
    for (std::size_t j = 0; j < 4; ++j) {
      EXPECT_DOUBLE_EQ(c(i, j), c(j, i));
      row += c(i, j);
    }
    EXPECT_LE(row, 3.0 + 1e-9);
    EXPECT_DOUBLE_EQ(c(i, i), 0.0);
  }
}

TEST(Algorithm, HottestPairGetsMostCircuits) {
  const auto topo = reconfigure_ocs(demand4(), 4);
  double best = 0.0;
  for (std::size_t i = 0; i < 4; ++i)
    for (std::size_t j = 0; j < 4; ++j) best = std::max(best, topo.counts(i, j));
  EXPECT_DOUBLE_EQ(topo.counts(0, 1), best);
  EXPECT_GE(topo.counts(0, 1), 2.0);
}

TEST(Algorithm, ZeroDemandZeroCircuits) {
  const auto topo = reconfigure_ocs(Matrix(4, 4, 0.0), 6);
  EXPECT_EQ(topo.total_circuits, 0);
}

TEST(Algorithm, ExcludedServersGetNoCircuits) {
  ReconfigureOptions opts;
  opts.excluded = {false, false, true, false};
  const auto topo = reconfigure_ocs(demand4(), 4, opts);
  for (std::size_t j = 0; j < 4; ++j) {
    EXPECT_DOUBLE_EQ(topo.counts(2, j), 0.0);
    EXPECT_DOUBLE_EQ(topo.counts(j, 2), 0.0);
  }
  EXPECT_GT(topo.counts(0, 1), 0.0);
}

TEST(Algorithm, WorkConservingAllocatesAtLeastAsMany) {
  Rng rng(5);
  for (int trial = 0; trial < 20; ++trial) {
    Matrix d(6, 6, 0.0);
    for (std::size_t i = 0; i < 6; ++i)
      for (std::size_t j = 0; j < 6; ++j)
        if (i != j && rng.uniform() < 0.6) d(i, j) = rng.uniform(1.0, 100.0);
    ReconfigureOptions strict_opts;
    strict_opts.work_conserving = false;
    const auto strict = reconfigure_ocs(d, 4, strict_opts);
    const auto greedy = reconfigure_ocs(d, 4);
    EXPECT_GE(greedy.total_circuits, strict.total_circuits);
    EXPECT_LE(greedy.bottleneck_time, strict.bottleneck_time * (1.0 + 1e-9) + 1e-9);
  }
}

TEST(Algorithm, MoreDegreeNeverWorseBottleneck) {
  Rng rng(7);
  Matrix d(8, 8, 0.0);
  for (std::size_t i = 0; i < 8; ++i)
    for (std::size_t j = 0; j < 8; ++j)
      if (i != j) d(i, j) = rng.uniform(0.0, 50.0);
  const Matrix sym = symmetrize_demand(d);
  // Completion-time bound counting unserved pairs as infinite.
  auto full_bottleneck = [&](const Matrix& counts) {
    double worst = 0.0;
    for (std::size_t i = 0; i < 8; ++i)
      for (std::size_t j = i + 1; j < 8; ++j) {
        if (sym(i, j) <= 0.0) continue;
        worst = std::max(worst, counts(i, j) > 0.0 ? sym(i, j) / counts(i, j) : 1e300);
      }
    return worst;
  };
  double prev = 1e301;
  for (int alpha : {1, 2, 4, 6, 8}) {
    const auto t = reconfigure_ocs(d, alpha);
    const double b = full_bottleneck(t.counts);
    EXPECT_LE(b, prev * (1.0 + 1e-9)) << "alpha " << alpha;
    prev = b;
  }
}

// Release builds compile assert() out; these checks must hold there too.
TEST(Algorithm, RejectsMisshapenDemandAndExclusions) {
  EXPECT_THROW(reconfigure_ocs(Matrix(3, 4, 1.0), 6), std::invalid_argument);
  ReconfigureOptions opts;
  opts.excluded = {false, true, false};  // 3 entries for 4 servers
  EXPECT_THROW(reconfigure_ocs(demand4(), 6, opts), std::invalid_argument);
  opts.excluded.push_back(false);
  EXPECT_NO_THROW(reconfigure_ocs(demand4(), 6, opts));
}

TEST(Algorithm, SymmetrizeRejectsNonSquareDemand) {
  // Would read past the last column of a 3x2 matrix.
  EXPECT_THROW(symmetrize_demand(Matrix(3, 2, 1.0)), std::invalid_argument);
  EXPECT_THROW(symmetrize_demand(Matrix(2, 3, 1.0)), std::invalid_argument);
}

TEST(Algorithm, UniformTopologySaturatesDegreeEvenly) {
  const Matrix c = uniform_topology(8, 6);
  for (std::size_t i = 0; i < 8; ++i) {
    EXPECT_NEAR(c.row_sum(i), 6.0, 1e-9);
    EXPECT_DOUBLE_EQ(c(i, i), 0.0);
  }
  // Symmetric.
  for (std::size_t i = 0; i < 8; ++i)
    for (std::size_t j = 0; j < 8; ++j) EXPECT_DOUBLE_EQ(c(i, j), c(j, i));
}

class AlgorithmSizeSweep : public ::testing::TestWithParam<int> {};

TEST_P(AlgorithmSizeSweep, InvariantsHoldAcrossRegionSizes) {
  const int n = GetParam();
  Rng rng(static_cast<std::uint64_t>(n));
  Matrix d(static_cast<std::size_t>(n), static_cast<std::size_t>(n), 0.0);
  for (int i = 0; i < n; ++i)
    for (int j = 0; j < n; ++j)
      if (i != j && rng.uniform() < 0.4) d(static_cast<std::size_t>(i),
                                           static_cast<std::size_t>(j)) =
          rng.uniform(1.0, 100.0);
  const int alpha = 6;
  const auto topo = reconfigure_ocs(d, alpha);
  double circuits = 0.0;
  for (int i = 0; i < n; ++i) {
    EXPECT_LE(topo.counts.row_sum(static_cast<std::size_t>(i)), alpha + 1e-9);
    circuits += topo.counts.row_sum(static_cast<std::size_t>(i));
  }
  EXPECT_DOUBLE_EQ(circuits / 2.0, topo.total_circuits);
}

INSTANTIATE_TEST_SUITE_P(Sizes, AlgorithmSizeSweep,
                         ::testing::Values(2, 4, 8, 16, 32));

TEST(Algorithm, HybridConcentratesOnDominantPair) {
  // With an EPS fallback, a single dominant pair should accumulate several
  // parallel circuits (climbing through the one-circuit valley) instead of
  // being starved by coverage.
  Matrix d(4, 4, 0.0);
  d(0, 1) = 1000.0;
  d(1, 0) = 1000.0;
  d(2, 3) = 10.0;
  ReconfigureOptions o;
  o.circuit_bps = 100.0;
  o.eps_fallback_bps = 200.0;  // 2 NICs' worth: one circuit alone is slower
  const auto topo = reconfigure_ocs(d, 6, o);
  EXPECT_GE(topo.counts(0, 1), 4.0);
}

TEST(Algorithm, HybridLeavesColdPairsOnEps) {
  // A pair the EPS serves comfortably should not consume ports.
  Matrix d(4, 4, 0.0);
  d(0, 1) = 1000.0;
  d(2, 3) = 1.0;  // negligible (also under the demand floor)
  ReconfigureOptions o;
  o.circuit_bps = 100.0;
  o.eps_fallback_bps = 200.0;
  const auto topo = reconfigure_ocs(d, 6, o);
  EXPECT_DOUBLE_EQ(topo.counts(2, 3), 0.0);
  EXPECT_GT(topo.counts(0, 1), 0.0);
}

TEST(Algorithm, HybridRelievesLoadedServerViaPeers) {
  // Server 0 carries several significant pairs; the allocator should wire
  // enough of them off the EPS that 0's residual drain time drops below the
  // dedicated-circuit times (water-filling on the true bottleneck).
  Matrix d(5, 5, 0.0);
  for (std::size_t j = 1; j < 5; ++j) {
    d(0, j) = 400.0;
    d(j, 0) = 400.0;
  }
  ReconfigureOptions o;
  o.circuit_bps = 100.0;
  o.eps_fallback_bps = 150.0;
  const auto topo = reconfigure_ocs(d, 6, o);
  int wired_pairs = 0;
  for (std::size_t j = 1; j < 5; ++j)
    if (topo.counts(0, j) > 0.0) ++wired_pairs;
  EXPECT_GE(wired_pairs, 2);
  EXPECT_LE(topo.counts.row_sum(0), 6.0 + 1e-9);
}

// ------------------------------------------------------------- hardware ----

TEST(Hardware, ReconfigDelayMatchesTestbedMeans) {
  Rng rng(41);
  for (const auto& [pairs, mean_ms] :
       std::vector<std::pair<int, double>>{{1, 41.44}, {4, 42.44}, {16, 46.75}}) {
    std::vector<double> xs(4000);
    for (auto& x : xs) x = ns_to_ms(sample_reconfig_delay(pairs, rng));
    EXPECT_NEAR(mean(xs), mean_ms, 2.5) << pairs << " pairs";
    // 99% under ~70 ms (Fig. 21).
    EXPECT_LT(percentile(xs, 0.99), 71.0 + 0.2 * pairs);
  }
}

TEST(Hardware, ReconfigDelayGrowsWithPairs) {
  Rng rng(43);
  auto avg = [&](int pairs) {
    double s = 0.0;
    for (int i = 0; i < 2000; ++i) s += ns_to_ms(sample_reconfig_delay(pairs, rng));
    return s / 2000.0;
  };
  EXPECT_LT(avg(1), avg(16));
}

TEST(Hardware, NicActivationAround5s) {
  Rng rng(47);
  std::vector<double> xs(4000);
  for (auto& x : xs) x = ns_to_sec(sample_nic_activation(rng));
  EXPECT_NEAR(mean(xs), 5.67, 0.1);            // Fig. 23 mean
  EXPECT_NEAR(percentile(xs, 0.99), 6.33, 0.35);  // Fig. 23 p99
}

TEST(Hardware, ControlTimelineDominatedByNicInit) {
  Rng rng(53);
  const auto t = sample_control_timeline(4, rng);
  EXPECT_GT(t.nic_init + t.transceiver_init, 4 * (t.command + t.ocs_reconfig));
  EXPECT_GT(ns_to_sec(t.total()), 3.0);
  EXPECT_LT(ns_to_sec(t.total()), 10.0);
}

TEST(Hardware, Table2TradeoffMonotone) {
  const auto techs = commodity_ocs_technologies();
  ASSERT_EQ(techs.size(), 7u);
  // Port counts decrease down the table while delays shrink.
  for (std::size_t i = 1; i < techs.size(); ++i) {
    EXPECT_LE(techs[i].port_count, techs[i - 1].port_count);
    EXPECT_LE(techs[i].reconfig_delay, techs[i - 1].reconfig_delay);
  }
}

}  // namespace
}  // namespace mixnet::ocs
