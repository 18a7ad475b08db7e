// Declarative experiment layer: sweep expansion, deterministic per-point
// seeding, serial-vs-parallel result equality, the result-table emitters,
// and scenario-registry integrity.
#include <gtest/gtest.h>

#include <set>
#include <stdexcept>
#include <string>
#include <vector>

#include "exp/registry.h"
#include "exp/result_cache.h"
#include "exp/result_table.h"
#include "exp/runner.h"
#include "exp/scenario.h"

namespace mixnet::exp {
namespace {

// A deliberately tiny training configuration so sweep tests measure the
// experiment machinery, not the simulator: truncated Mixtral (EP8 x TP4,
// two blocks) on 4 servers, as in the Fig. 10 testbed.
ScenarioSpec tiny_spec() {
  return ScenarioSpec()
      .configure([](sim::TrainingConfig& cfg) {
        cfg.model = moe::mixtral_8x7b();
        cfg.model.n_blocks = 2;
        cfg.par.ep = 8;
        cfg.par.tp = 4;
        cfg.par.pp = 1;
        cfg.par.micro_batch = 2;
        cfg.par.n_microbatches = 2;
        cfg.par_overridden = true;
        cfg.warmup_iterations = 3;
      })
      .link_gbps(100.0);
}

// ------------------------------------------------------------ expansion ----

TEST(SweepSpec, ExpandsCartesianGridLastAxisFastest) {
  const Sweep sweep = SweepSpec(ScenarioSpec::paper(
                                    moe::mixtral_8x7b(),
                                    topo::FabricKind::kFatTree, 100.0))
                          .fabrics({topo::FabricKind::kFatTree,
                                    topo::FabricKind::kMixNet})
                          .bandwidths({100.0, 400.0, 800.0})
                          .expand();
  ASSERT_EQ(sweep.size(), 6u);
  ASSERT_EQ(sweep.n_axes(), 2u);
  EXPECT_EQ(sweep.axis_name(0), "fabric");
  EXPECT_EQ(sweep.axis_name(1), "gbps");
  EXPECT_EQ(sweep.axis_size(1), 3u);

  // Row-major: bandwidth cycles fastest.
  const auto& pts = sweep.points();
  EXPECT_EQ(pts[0].cfg.fabric_kind, topo::FabricKind::kFatTree);
  EXPECT_DOUBLE_EQ(pts[0].cfg.nic_gbps, 100.0);
  EXPECT_DOUBLE_EQ(pts[1].cfg.nic_gbps, 400.0);
  EXPECT_DOUBLE_EQ(pts[2].cfg.nic_gbps, 800.0);
  EXPECT_EQ(pts[3].cfg.fabric_kind, topo::FabricKind::kMixNet);
  EXPECT_DOUBLE_EQ(pts[3].cfg.nic_gbps, 100.0);
  for (std::size_t i = 0; i < pts.size(); ++i) EXPECT_EQ(pts[i].index, i);

  // Labels carry the axis values, in axis order.
  EXPECT_EQ(pts[5].labels,
            (std::vector<std::string>{topo::to_string(topo::FabricKind::kMixNet),
                                      "800"}));
  // Exact grid indexing.
  EXPECT_EQ(sweep.flat({1, 2}), 5u);
  EXPECT_EQ(&sweep.at({0, 1}), &pts[1]);
  EXPECT_THROW(sweep.flat({1}), std::invalid_argument);
  EXPECT_THROW(sweep.flat({0, 3}), std::out_of_range);
}

TEST(SweepSpec, EmptyAxisRejected) {
  SweepSpec spec{ScenarioSpec()};
  EXPECT_THROW(spec.axis("empty", {}), std::invalid_argument);
}

TEST(ScenarioSpec, RejectsNonPositiveIterations) {
  EXPECT_THROW(ScenarioSpec().iterations(0), std::invalid_argument);
  EXPECT_THROW(ScenarioSpec().iterations(-3), std::invalid_argument);
}

TEST(ScenarioSpec, ConfigureIsTheLastWordIncludingSeed) {
  const auto cfg = ScenarioSpec()
                       .seed(1234)
                       .configure([](sim::TrainingConfig& c) { c.seed = 7; })
                       .build_config();
  EXPECT_EQ(cfg.seed, 7u);
}

TEST(ScenarioSpec, WarmupPolicyDefaultsClosedFormAndOverrides) {
  EXPECT_EQ(ScenarioSpec().build_config().warmup_policy,
            moe::WarmupPolicy::kClosedForm);
  EXPECT_EQ(ScenarioSpec()
                .configure([](sim::TrainingConfig& c) {
                  c.warmup_policy = moe::WarmupPolicy::kExactSteps;
                })
                .build_config()
                .warmup_policy,
            moe::WarmupPolicy::kExactSteps);
}

TEST(SweepSpec, NoAxesYieldsSinglePoint) {
  const Sweep sweep = SweepSpec(tiny_spec().iterations(2)).expand();
  ASSERT_EQ(sweep.size(), 1u);
  EXPECT_EQ(sweep.points()[0].iterations, 2);
  EXPECT_TRUE(sweep.points()[0].labels.empty());
}

TEST(ScenarioSpec, ModelResolvesDefaultParallelismAndOverrides) {
  const auto cfg = ScenarioSpec::paper(moe::mixtral_8x7b(),
                                       topo::FabricKind::kMixNet, 400.0)
                       .micro_batch(16)
                       .build_config();
  const auto def = moe::default_parallelism(moe::mixtral_8x7b());
  EXPECT_TRUE(cfg.par_overridden);
  EXPECT_EQ(cfg.par.ep, def.ep);
  EXPECT_EQ(cfg.par.tp, def.tp);
  EXPECT_EQ(cfg.par.micro_batch, 16);
  EXPECT_EQ(cfg.par.n_microbatches, 4);  // the §7.1 default
  EXPECT_EQ(cfg.fabric_kind, topo::FabricKind::kMixNet);
}

// ---------------------------------------------------------------- seeds ----

TEST(SeedPolicy, SharedGivesEveryPointTheBaseSeed) {
  const Sweep sweep =
      SweepSpec(tiny_spec().seed(1234))
          .bandwidths({100.0, 200.0, 400.0})
          .expand();
  for (const auto& p : sweep.points()) EXPECT_EQ(p.cfg.seed, 1234u);
}

TEST(SeedPolicy, PerPointSeedsAreDistinctAndReproducible) {
  auto expand = [](std::uint64_t base) {
    return SweepSpec(tiny_spec().seed(base).seed_policy(SeedPolicy::kPerPoint))
        .bandwidths({100.0, 200.0, 400.0, 800.0})
        .expand();
  };
  const Sweep a = expand(1234);
  const Sweep b = expand(1234);
  const Sweep c = expand(99);

  std::set<std::uint64_t> seen;
  for (std::size_t i = 0; i < a.size(); ++i) {
    // Derived purely from (base seed, point index): reproducible...
    EXPECT_EQ(a.points()[i].cfg.seed, b.points()[i].cfg.seed);
    EXPECT_EQ(a.points()[i].cfg.seed, derive_point_seed(1234, i));
    // ...distinct across points, and different under a different base.
    EXPECT_TRUE(seen.insert(a.points()[i].cfg.seed).second);
    EXPECT_NE(a.points()[i].cfg.seed, c.points()[i].cfg.seed);
  }
}

// --------------------------------------------------------------- runner ----

TEST(SweepRunner, SerialAndParallelRunsProduceIdenticalResults) {
  const Sweep sweep = SweepSpec(tiny_spec().iterations(2).seed_policy(
                                    SeedPolicy::kPerPoint))
                          .fabrics({topo::FabricKind::kFatTree,
                                    topo::FabricKind::kMixNet})
                          .bandwidths({100.0, 400.0})
                          .expand();
  const auto serial = run_sweep(sweep.points(), /*jobs=*/1);
  const auto parallel = run_sweep(sweep.points(), /*jobs=*/3);
  ASSERT_EQ(serial.size(), parallel.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    EXPECT_EQ(serial[i].index, i);
    EXPECT_EQ(parallel[i].index, i);
    // Bit-exact: each point owns its simulator, so scheduling cannot leak
    // between points.
    EXPECT_GT(serial[i].iter_sec, 0.0);
    EXPECT_EQ(serial[i].iter_sec, parallel[i].iter_sec);
    ASSERT_EQ(serial[i].iters.size(), parallel[i].iters.size());
    for (std::size_t k = 0; k < serial[i].iters.size(); ++k) {
      EXPECT_GT(serial[i].iters[k].total, 0);
      EXPECT_EQ(serial[i].iters[k].total, parallel[i].iters[k].total);
      EXPECT_EQ(serial[i].iters[k].ep_comm, parallel[i].iters[k].ep_comm);
      EXPECT_EQ(serial[i].iters[k].reconfigurations,
                parallel[i].iters[k].reconfigurations);
    }
    EXPECT_EQ(serial[i].timeline.total(), parallel[i].timeline.total());
  }
}

TEST(SweepRunner, ParallelSweepBuildsOneGateTracePerModel) {
  // Two models x five fabrics under the shared seed: each model's five
  // points replay one gate trajectory, so the context's memo builds exactly
  // two traces even with four workers racing for them (TSan covers this).
  auto truncated = [](moe::MoeModelConfig m) {
    return [m](ScenarioSpec& s) {
      s.configure([m](sim::TrainingConfig& cfg) {
        cfg.model = m;
        cfg.model.n_blocks = 2;
      });
    };
  };
  const Sweep sweep =
      SweepSpec(tiny_spec().iterations(2))
          .axis("model", {{"mixtral", truncated(moe::mixtral_8x7b())},
                          {"llama", truncated(moe::llama_moe())}})
          .fabrics(evaluated_fabrics())
          .expand();
  ASSERT_EQ(sweep.size(), 10u);

  RunContext ctx;
  ctx.jobs = 4;
  const auto parallel = run_sweep(sweep.points(), ctx);
  EXPECT_EQ(ctx.gate_traces->stats().built, 2u);
  EXPECT_EQ(ctx.gate_traces->stats().shared, 8u);

  const auto serial = run_sweep(sweep.points(), /*jobs=*/1);
  ASSERT_EQ(parallel.size(), serial.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    const std::string record = point_record_json("", serial[i], {});
    EXPECT_EQ(point_record_json("", parallel[i], {}), record) << i;
    // A private trace (no memo) measures the same point bit for bit.
    EXPECT_EQ(point_record_json("", run_point(sweep.points()[i]), {}), record) << i;
  }
}

TEST(SweepRunner, EmptyPointListIsFine) {
  EXPECT_TRUE(run_sweep(std::vector<SweepPoint>{}, 4).empty());
}

// -------------------------------------------------------------- emitters ----

ResultTable sample_table() {
  ResultTable t("Figure X", "sample", {"name", "value"}, 8);
  t.add_row({"a", Cell::num(1.5, 2)});
  t.add_row({"b,c", Cell::num(0.25, 1, "+", "%")});
  t.add_footer("ratio: 2x");
  return t;
}

TEST(ResultTable, TextRendersLegacyFixedWidthFormat) {
  EXPECT_EQ(sample_table().to_text(),
            "\n==== Figure X: sample ====\n"
            "name    value   \n"
            "a       1.50    \n"
            "b,c     +0.2%   \n"
            "ratio: 2x\n");
}

TEST(ResultTable, TextKeepsASpaceAfterAnOverWideCell) {
  // A cell as wide as the column or wider is still followed by one space,
  // so it cannot run into the next cell.
  ResultTable t("T", "wide", {"arm", "p99"}, 8);
  t.add_row({"re-placement off", Cell::num(840.7, 1)});
  t.add_row({"12345678", Cell::num(1.0, 1)});
  EXPECT_EQ(t.to_text(),
            "\n==== T: wide ====\n"
            "arm     p99     \n"
            "re-placement off 840.7   \n"
            "12345678 1.0     \n");
}

TEST(ResultTable, CsvEmitsRawValuesAndQuotesText) {
  EXPECT_EQ(sample_table().to_csv(),
            "name,value\n"
            "a,1.5\n"
            "\"b,c\",0.25\n");
}

TEST(ResultTable, JsonEmitsTypedCells) {
  EXPECT_EQ(sample_table().to_json(),
            "{\"id\":\"Figure X\",\"title\":\"sample\","
            "\"columns\":[\"name\",\"value\"],"
            "\"rows\":[[\"a\",1.5],[\"b,c\",0.25]],"
            "\"footers\":[\"ratio: 2x\"]}");
}

TEST(ResultTable, JsonEscapesControlCharacters) {
  EXPECT_EQ(json_escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
}

TEST(ScenarioResultEmitters, ComposeTablesAndNote) {
  ScenarioResult r;
  r.name = "figX";
  r.tables.push_back(sample_table());
  r.note = "Paper: shape.";
  EXPECT_NE(r.to_text().find("==== Figure X"), std::string::npos);
  EXPECT_NE(r.to_text().find("\nPaper: shape.\n"), std::string::npos);
  EXPECT_NE(r.to_csv().find("# Figure X: sample"), std::string::npos);
  EXPECT_NE(r.to_csv().find("# Paper: shape."), std::string::npos);
  EXPECT_EQ(r.to_json().find("{\"scenario\":\"figX\",\"tables\":[{"), 0u);
}

// -------------------------------------------------------------- registry ----

TEST(ScenarioRegistry, EveryPaperFigureIsRegistered) {
  const auto& reg = ScenarioRegistry::paper();
  const std::vector<std::string> expected = {
      "fig02", "fig03", "fig04", "fig05", "fig10", "fig11",
      "fig12", "fig13", "fig14", "fig16", "fig19", "fig21",
      "fig24", "fig25", "fig26", "fig26-xl", "fig27", "fig28",
      "tables", "ablation", "serve-steady", "serve-diurnal",
      "serve-storm", "fidelity-ladder"};
  for (const auto& name : expected) {
    const ScenarioInfo* s = reg.find(name);
    ASSERT_NE(s, nullptr) << name;
    EXPECT_FALSE(s->figure.empty());
    EXPECT_FALSE(s->title.empty());
    EXPECT_FALSE(s->group.empty()) << name;
    EXPECT_TRUE(static_cast<bool>(s->run));
  }
  EXPECT_EQ(reg.scenarios().size(), expected.size());
  EXPECT_EQ(reg.find("fig99"), nullptr);
}

TEST(ScenarioRegistry, RejectsDuplicateNames) {
  ScenarioRegistry reg;
  ScenarioInfo info;
  info.name = "x";
  info.figure = "X";
  info.title = "first";
  reg.add(info);
  info.title = "again";
  EXPECT_THROW(reg.add(info), std::invalid_argument);
}

// The analytic scenarios are cheap enough to run end-to-end here: the
// registry entry must produce non-empty tables through the real pipeline.
TEST(ScenarioRegistry, AnalyticScenarioRunsEndToEnd) {
  const ScenarioInfo* s = ScenarioRegistry::paper().find("tables");
  ASSERT_NE(s, nullptr);
  const ScenarioResult r = s->run(RunContext{});
  ASSERT_EQ(r.tables.size(), 4u);
  EXPECT_EQ(r.tables[0].id(), "Table 1");
  EXPECT_FALSE(r.tables[0].rows().empty());
}

TEST(ScenarioRegistry, ListScenariosJsonIsWellFormedAndComplete) {
  const std::string json = list_scenarios_json(ScenarioRegistry::paper());
  EXPECT_EQ(json.rfind("{\"scenarios\":[", 0), 0u);
  EXPECT_EQ(json.substr(json.size() - 3), "]}\n");
  EXPECT_NE(json.find("{\"name\":\"fig13\",\"figure\":\"Figure 13\""),
            std::string::npos);
  EXPECT_NE(json.find("\"has_check\":true"), std::string::npos);
  // Each scenario carries its family for group-level tooling.
  EXPECT_NE(json.find("\"group\":\"training\""), std::string::npos);
  EXPECT_NE(json.find("\"group\":\"serve\""), std::string::npos);
  // One object per registered scenario.
  std::size_t objects = 0;
  for (std::size_t at = json.find("{\"name\":"); at != std::string::npos;
       at = json.find("{\"name\":", at + 1))
    ++objects;
  EXPECT_EQ(objects, ScenarioRegistry::paper().scenarios().size());
  // The topology-preset section: every kind appears with its canonical
  // Fabric::describe() JSON, and analytic-core variants are included for
  // the kinds that support them (collapsed-core flag surfaced).
  EXPECT_NE(json.find("\"fabrics\":["), std::string::npos);
  EXPECT_NE(json.find("\"kind\":\"Fat-tree\""), std::string::npos);
  EXPECT_NE(json.find("\"core_model\":\"analytic\""), std::string::npos);
  EXPECT_NE(json.find("\"core_collapsed\":true"), std::string::npos);
  EXPECT_NE(json.find("\"describe\":{"), std::string::npos);
}

// Golden output for Figure 5 (`mixnet-bench --run fig05`), byte-exact
// against the pre-registry one-figure harness. Guards the footer
// rendering: the "Paper:" note rides as a table footer specifically so no
// blank line separates it from the locality line -- a drift the registry
// port introduced once already.
TEST(ScenarioRegistry, Fig05GoldenOutput) {
  const ScenarioInfo* s = ScenarioRegistry::paper().find("fig05");
  ASSERT_NE(s, nullptr);
  const ScenarioResult r = s->run(RunContext{});
  EXPECT_EQ(
      r.to_text(),
      "\n"
      "==== Figure 5: 128-GPU traffic matrix: per-32-GPU-block volume (GB) "
      "====\n"
      "            blk0        blk1        blk2        blk3        \n"
      "blk0        427.2       4.3         0.0         0.0         \n"
      "blk1        0.0         427.8       4.3         0.0         \n"
      "blk2        0.0         0.0         428.7       4.3         \n"
      "blk3        0.0         0.0         0.0         426.2       \n"
      "\n"
      "block locality (fraction of volume within 32-GPU EP blocks): 0.993\n"
      "Paper: strong diagonal locality -- EP all-to-all never crosses\n"
      "MoE-block (PP stage) boundaries.\n");
}

}  // namespace
}  // namespace mixnet::exp
