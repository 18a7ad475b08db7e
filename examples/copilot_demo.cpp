// MixNet-Copilot demo (§B.1): watch the traffic-demand predictor learn the
// inter-layer routing structure online and beat the "reuse previous layer"
// heuristic, enabling proactive OCS reconfiguration for the forward pass's
// first all-to-all.
#include <cstdio>

#include "common/rng.h"
#include "moe/gate.h"
#include "moe/models.h"
#include "moe/traffic.h"
#include "predict/copilot.h"

using namespace mixnet;

int main() {
  const auto model = moe::mixtral_8x7b();
  const auto par = moe::default_parallelism(model);
  moe::GateConfig gc = moe::gate_config(model, par);
  gc.n_layers = 4;
  moe::GateSimulator gate(gc);

  predict::CopilotConfig cc;
  cc.n_experts = model.n_experts;
  predict::Copilot copilot(cc);
  Rng rng(5);

  std::printf("Online top-2 prediction accuracy, layer 1 -> layer 2 (20-iter bins)\n\n");
  std::printf("%-12s %-12s %-12s %-12s\n", "iterations", "Copilot", "Unchanged",
              "Random");
  double acc_cp = 0.0, acc_un = 0.0, acc_rnd = 0.0;
  int bin = 0;
  for (int iter = 1; iter <= 200; ++iter) {
    gate.step();
    const auto& x = gate.expert_load(1);
    const auto& y = gate.expert_load(2);
    acc_cp += predict::top_k_accuracy(copilot.predict(x), y, 2);
    acc_un += predict::top_k_accuracy(x, y, 2);
    acc_rnd += predict::top_k_accuracy(predict::random_prediction(x.size(), rng), y, 2);
    copilot.observe(x, y);
    if (++bin == 20) {
      std::printf("%4d-%-7d %-12.2f %-12.2f %-12.2f\n", iter - 19, iter, acc_cp / 20,
                  acc_un / 20, acc_rnd / 20);
      acc_cp = acc_un = acc_rnd = 0.0;
      bin = 0;
    }
  }
  std::printf("\nWith accurate predictions the controller can reconfigure the OCS\n"
              "during the attention window instead of blocking on the gate output\n"
              "(Fig. 20 timeline).\n");
  return 0;
}
