// Declarative experiment specification (DESIGN.md §7).
//
// Experiments are data, not hand-wired main() functions:
//
//   * ScenarioSpec  -- fluent builder over sim::TrainingConfig plus the
//     measurement policy (iterations per point, seed policy);
//   * SweepSpec     -- parameter axes (fabrics, bandwidths, micro-batch
//     sizes, or arbitrary custom axes) expanded as a cartesian grid, last
//     axis fastest;
//   * Sweep         -- the expanded point grid, with exact multi-axis
//     indexing (`at({i, j})`) so scenario code never re-matches points by
//     floating-point comparison of axis values.
//
// Seed policy: kShared gives every point the spec's base seed (each point
// still owns an independent TrainingSimulator; this reproduces the
// historical per-figure outputs). kPerPoint derives each point's seed
// deterministically from (base seed, point index) via splitmix-style
// mixing, so results are independent of execution order and of which other
// points exist in the grid slice a worker thread happens to run.
#pragma once

#include <cstdint>
#include <functional>
#include <initializer_list>
#include <optional>
#include <string>
#include <vector>

#include "serve/serve_config.h"
#include "sim/training_sim.h"

namespace mixnet::exp {

enum class SeedPolicy {
  kShared,    ///< every point uses the base seed (historical figure outputs)
  kPerPoint,  ///< seed = derive_point_seed(base, point index)
};

/// Deterministic per-point seed derivation (splitmix-style mixing).
std::uint64_t derive_point_seed(std::uint64_t base_seed, std::size_t index);

class ScenarioSpec {
 public:
  ScenarioSpec() = default;

  /// Standard §7.1 simulation setup: 8-GPU servers, 8 NICs, MixNet splits
  /// 2 EPS + 6 OCS, over-subscribed fat-tree is 3:1 (the former
  /// benchutil::sim_config defaults).
  static ScenarioSpec paper(const moe::MoeModelConfig& model,
                            topo::FabricKind kind, double gbps,
                            int n_microbatches = 4);

  /// Set the model; parallelism resolves to default_parallelism(model) at
  /// build time (micro-batch/microbatch/dp overrides below still apply).
  ScenarioSpec& model(const moe::MoeModelConfig& m);
  ScenarioSpec& fabric(topo::FabricKind k);
  /// Electrical-core realization (topo::CoreModel): explicit leaf/spine
  /// graph (default) or the collapsed analytic core for 100k-GPU sweeps.
  ScenarioSpec& core_model(topo::CoreModel m);
  ScenarioSpec& link_gbps(double g);
  /// Fidelity-ladder rung the point simulates its network phases on
  /// (DESIGN.md §12). Scenario default; `mixnet-bench --backend` overrides
  /// it sweep-wide unless the scenario pins backends per point.
  ScenarioSpec& backend(net::NetBackend b);
  ScenarioSpec& micro_batch(int sequences);
  ScenarioSpec& n_microbatches(int n);
  ScenarioSpec& failure(control::FailureScenario f);
  ScenarioSpec& reconfig_delay(TimeNs delay);
  ScenarioSpec& warmup(int iterations);

  /// Escape hatch: arbitrary TrainingConfig mutation, applied at build time
  /// after model/parallelism resolution, in call order.
  ScenarioSpec& configure(std::function<void(sim::TrainingConfig&)> fn);

  /// Measured iterations per point (reported metrics average over them).
  ScenarioSpec& iterations(int n);
  ScenarioSpec& seed(std::uint64_t s);
  ScenarioSpec& seed_policy(SeedPolicy p);

  /// Resolve to a concrete TrainingConfig (model -> parallelism ->
  /// overrides -> configure() callbacks).
  sim::TrainingConfig build_config() const;

  int iterations() const { return iterations_; }
  std::uint64_t seed() const { return seed_; }
  SeedPolicy seed_policy() const { return seed_policy_; }

 private:
  sim::TrainingConfig cfg_;
  bool model_set_ = false;
  int micro_batch_ = 0;       // 0 = keep default
  int n_microbatches_ = 0;    // 0 = keep default
  std::vector<std::function<void(sim::TrainingConfig&)>> mutations_;
  int iterations_ = 1;
  std::uint64_t seed_ = 42;
  SeedPolicy seed_policy_ = SeedPolicy::kShared;
};

/// One value along a sweep axis: a display label plus the spec mutation it
/// performs.
struct AxisValue {
  std::string label;
  std::function<void(ScenarioSpec&)> apply;
};

/// One fully resolved grid point.
struct SweepPoint {
  std::size_t index = 0;             ///< flat grid position (row-major)
  std::vector<std::string> labels;   ///< one label per axis
  sim::TrainingConfig cfg;
  int iterations = 1;
  /// Serving-mode point: when set, the runner executes a ServeSimulator over
  /// this workload (cfg describes the cluster; metrics land in
  /// PointResult::extra) instead of measured training iterations.
  std::optional<serve::ServeConfig> serve;
};

/// The expanded grid: points in row-major order (last axis fastest) plus
/// exact axis indexing.
class Sweep {
 public:
  Sweep(std::vector<std::string> axis_names, std::vector<std::size_t> axis_sizes,
        std::vector<SweepPoint> points);

  const std::vector<SweepPoint>& points() const { return points_; }
  std::size_t size() const { return points_.size(); }
  std::size_t n_axes() const { return axis_sizes_.size(); }
  const std::string& axis_name(std::size_t axis) const {
    return axis_names_[axis];
  }
  std::size_t axis_size(std::size_t axis) const { return axis_sizes_[axis]; }

  /// Flat index of the point at the given per-axis indices (exact -- no
  /// value re-matching).
  std::size_t flat(std::initializer_list<std::size_t> axis_indices) const;
  const SweepPoint& at(std::initializer_list<std::size_t> axis_indices) const {
    return points_[flat(axis_indices)];
  }

 private:
  std::vector<std::string> axis_names_;
  std::vector<std::size_t> axis_sizes_;
  std::vector<SweepPoint> points_;
};

class SweepSpec {
 public:
  explicit SweepSpec(ScenarioSpec base) : base_(std::move(base)) {}

  /// Generic axis with caller-supplied labels and mutations.
  SweepSpec& axis(std::string name, std::vector<AxisValue> values);

  // Canned axes over the standard evaluation parameters.
  SweepSpec& fabrics(const std::vector<topo::FabricKind>& kinds);
  SweepSpec& bandwidths(const std::vector<double>& gbps);
  SweepSpec& micro_batches(const std::vector<int>& sizes);

  /// Cartesian expansion in axis declaration order, last axis fastest.
  Sweep expand() const;

 private:
  struct Axis {
    std::string name;
    std::vector<AxisValue> values;
  };
  ScenarioSpec base_;
  std::vector<Axis> axes_;
};

/// The five interconnects of the §7.1 evaluation, in paper order.
const std::vector<topo::FabricKind>& evaluated_fabrics();

}  // namespace mixnet::exp
