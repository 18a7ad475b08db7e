// Fabric explorer: compare interconnects for a chosen MoE model and link
// bandwidth from the command line -- a sweep-shaped example of the
// declarative experiment API (exp::ScenarioSpec + SweepSpec + run_sweep).
//
//   ./build/examples/fabric_explorer [model] [gbps] [iterations] [jobs]
//
//   model: mixtral8x7b | mixtral8x22b | llama | qwen | deepseek  (default: mixtral8x7b)
//   gbps:  100 | 200 | 400 | 800                                  (default: 400)
//
// Prints per-fabric iteration time, EP communication time, networking cost
// and the performance-per-dollar ratio -- the paper's Fig. 12/13 view for a
// single configuration.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <string>

#include "cost/cost_model.h"
#include "exp/runner.h"
#include "exp/scenario.h"

using namespace mixnet;

namespace {

moe::MoeModelConfig parse_model(const std::string& name) {
  if (name == "mixtral8x22b") return moe::mixtral_8x22b();
  if (name == "llama") return moe::llama_moe();
  if (name == "qwen") return moe::qwen_moe();
  if (name == "deepseek") return moe::deepseek_r1();
  return moe::mixtral_8x7b();
}

}  // namespace

int main(int argc, char** argv) {
  const std::string model_name = argc > 1 ? argv[1] : "mixtral8x7b";
  const double gbps_ = argc > 2 ? std::atof(argv[2]) : 400.0;
  const int iters = std::max(1, argc > 3 ? std::atoi(argv[3]) : 1);
  const int jobs = std::max(1, argc > 4 ? std::atoi(argv[4]) : 1);

  const auto model = parse_model(model_name);
  std::printf("Model: %s  |  link bandwidth: %.0f Gbps  |  %d iteration(s)\n\n",
              model.name.c_str(), gbps_, iters);
  std::printf("%-20s %-12s %-12s %-12s %-12s\n", "Fabric", "iter (s)", "EP comm (s)",
              "cost (M$)", "perf/$ (rel)");

  // The whole experiment is one declarative sweep: one axis over the five
  // evaluated fabrics, `iters` measured iterations per point.
  const exp::Sweep sweep =
      exp::SweepSpec(
          exp::ScenarioSpec().model(model).link_gbps(gbps_).iterations(iters))
          .fabrics(exp::evaluated_fabrics())
          .expand();
  const auto results = exp::run_sweep(sweep.points(), jobs);

  double ref_ppd = 0.0;
  for (std::size_t k = 0; k < sweep.size(); ++k) {
    const auto& r = results[k];
    double ep = 0.0;
    for (const auto& it : r.iters) ep += ns_to_sec(it.ep_comm);
    ep /= static_cast<double>(r.iters.size());
    const double cost_musd = cost::fabric_cost_musd(
        exp::evaluated_fabrics()[k], sweep.points()[k].cfg.par.total_gpus(),
        static_cast<int>(gbps_));
    const double ppd = 1.0 / (r.iter_sec * cost_musd);
    if (ref_ppd == 0.0) ref_ppd = ppd;
    std::printf("%-20s %-12.2f %-12.2f %-12.2f %-12.2f\n",
                topo::to_string(exp::evaluated_fabrics()[k]), r.iter_sec, ep,
                cost_musd, ppd / ref_ppd);
  }
  std::printf("\nperf/$ is normalized to the first row (fat-tree).\n");
  return 0;
}
