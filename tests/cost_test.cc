#include <gtest/gtest.h>

#include "cost/cost_model.h"

namespace mixnet::cost {
namespace {

using topo::FabricKind;

TEST(Prices, Table4Rows) {
  const auto p100 = prices_for(100);
  EXPECT_DOUBLE_EQ(p100.transceiver, 99);
  EXPECT_DOUBLE_EQ(p100.nic, 659);
  EXPECT_DOUBLE_EQ(p100.eps_port, 187);
  EXPECT_DOUBLE_EQ(p100.ocs_port, 520);
  EXPECT_DOUBLE_EQ(p100.patch_port, 100);
  const auto p400 = prices_for(400);
  EXPECT_DOUBLE_EQ(p400.transceiver, 659);
  EXPECT_DOUBLE_EQ(p400.eps_port, 1090);
  EXPECT_THROW(prices_for(250), std::invalid_argument);
}

TEST(Cost, MixNetCheaperThanFatTree) {
  // The paper's headline: ~2x average cost reduction vs non-blocking
  // fat-tree, growing with link bandwidth (Fig. 11).
  for (int gbps : {100, 200, 400, 800}) {
    for (int gpus : {1024, 8192, 32768}) {
      const double ft = fabric_cost_musd(FabricKind::kFatTree, gpus, gbps);
      const double mx = fabric_cost_musd(FabricKind::kMixNet, gpus, gbps);
      EXPECT_LT(mx, ft) << gbps << "G " << gpus;
    }
  }
  const double ratio400 = fabric_cost_musd(FabricKind::kFatTree, 8192, 400) /
                          fabric_cost_musd(FabricKind::kMixNet, 8192, 400);
  EXPECT_GT(ratio400, 1.5);
  EXPECT_LT(ratio400, 3.5);
}

TEST(Cost, CostRatioGrowsWithBandwidth) {
  auto ratio = [](int gbps) {
    return fabric_cost_musd(FabricKind::kFatTree, 8192, gbps) /
           fabric_cost_musd(FabricKind::kMixNet, 8192, gbps);
  };
  EXPECT_GT(ratio(400), ratio(100));
}

TEST(Cost, OverSubCheaperThanFatTree) {
  const double ft = fabric_cost_musd(FabricKind::kFatTree, 4096, 400);
  const double os = fabric_cost_musd(FabricKind::kOverSubFatTree, 4096, 400);
  EXPECT_LT(os, ft);
  EXPECT_GT(os, ft * 0.4);
}

TEST(Cost, TopoOptCheapestAtSmallScale) {
  // At 1024 GPUs TopoOpt undercuts MixNet slightly (§7.2).
  const double to = fabric_cost_musd(FabricKind::kTopoOpt, 1024, 100);
  const double mx = fabric_cost_musd(FabricKind::kMixNet, 1024, 100);
  EXPECT_LT(to, mx);
}

TEST(Cost, TopoOptMultiTierPenaltyAboveOneK) {
  // Cost per GPU jumps once the patch panel needs a second tier.
  const double small = fabric_cost_musd(FabricKind::kTopoOpt, 1024, 400) / 1024;
  const double large = fabric_cost_musd(FabricKind::kTopoOpt, 2048, 400) / 2048;
  EXPECT_GT(large, small * 1.1);
}

TEST(Cost, LinearInClusterSize) {
  for (auto kind : {FabricKind::kFatTree, FabricKind::kMixNet,
                    FabricKind::kRailOptimized}) {
    const double c1 = fabric_cost_musd(kind, 1024, 400);
    const double c4 = fabric_cost_musd(kind, 4096, 400);
    EXPECT_NEAR(c4 / c1, 4.0, 0.2) << to_string(kind);
  }
}

TEST(Cost, MonotoneInBandwidth) {
  for (auto kind : {FabricKind::kFatTree, FabricKind::kMixNet,
                    FabricKind::kTopoOpt}) {
    double prev = 0.0;
    for (int gbps : {100, 200, 400, 800}) {
      const double c = fabric_cost_musd(kind, 4096, gbps);
      EXPECT_GT(c, prev) << to_string(kind) << " " << gbps;
      prev = c;
    }
  }
}

TEST(Cost, RailSlightlyBelowFatTree) {
  const double ft = fabric_cost_musd(FabricKind::kFatTree, 8192, 400);
  const double rail = fabric_cost_musd(FabricKind::kRailOptimized, 8192, 400);
  EXPECT_LT(rail, ft);
  EXPECT_GT(rail, ft * 0.8);
}

TEST(Cost, DacCheapestAocMiddle) {
  // Fig. 24: DAC < AOC < transceiver+fiber, for both fat-tree and MixNet;
  // orthogonal to the MixNet advantage.
  for (auto kind : {FabricKind::kFatTree, FabricKind::kMixNet}) {
    const double tf = fabric_cost(kind, 512, 8, 400, EpsLinkType::kTransceiverFiber).total();
    const double aoc = fabric_cost(kind, 512, 8, 400, EpsLinkType::kAoc).total();
    const double dac = fabric_cost(kind, 512, 8, 400, EpsLinkType::kDac).total();
    EXPECT_LT(dac, aoc) << to_string(kind);
    EXPECT_LT(aoc, tf) << to_string(kind);
  }
  const double ft_dac = fabric_cost(FabricKind::kFatTree, 512, 8, 400,
                                    EpsLinkType::kDac).total();
  const double mx_dac = fabric_cost(FabricKind::kMixNet, 512, 8, 400,
                                    EpsLinkType::kDac).total();
  EXPECT_GT(ft_dac / mx_dac, 1.5);  // ~2.2x in the paper
}

TEST(Cost, BreakdownComponentsNonNegativeAndSum) {
  const auto b = fabric_cost(FabricKind::kMixNet, 128, 8, 400);
  EXPECT_GE(b.nics, 0.0);
  EXPECT_GE(b.ocs_ports, 0.0);
  EXPECT_GT(b.eps_ports, 0.0);
  EXPECT_NEAR(b.total(), b.nics + b.transceivers + b.eps_ports + b.ocs_ports +
                             b.patch_ports + b.fibers_cables,
              1e-9);
}

TEST(Cost, CostEquivalentEpsBandwidth) {
  // Fig. 27 methodology: total electrical bandwidth pinned at 2 x base.
  for (int alpha : {1, 2, 4, 6}) {
    const double per_nic = cost_equivalent_eps_gbps(alpha, 8, 100);
    EXPECT_NEAR(per_nic * (8 - alpha), 200.0, 1e-9) << alpha;
  }
  EXPECT_DOUBLE_EQ(cost_equivalent_eps_gbps(8, 8, 100), 0.0);
}

TEST(Cost, ScaleUpFabricsNotCosted) {
  EXPECT_THROW(fabric_cost(FabricKind::kNvl72, 32, 8, 400), std::invalid_argument);
}

}  // namespace
}  // namespace mixnet::cost
