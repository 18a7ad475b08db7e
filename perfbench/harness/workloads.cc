#include "workloads.h"

#include <cmath>
#include <cstdio>
#include <stdexcept>

#include "common/canonical.h"
#include "exp/registry.h"
#include "exp/result_cache.h"
#include "moe/models.h"
#include "topo/fabric.h"

namespace perfbench {

namespace exp = mixnet::exp;
namespace moe = mixnet::moe;
namespace sim = mixnet::sim;
namespace topo = mixnet::topo;
using mixnet::exp::derive_point_seed;

namespace {

const std::vector<double> kTrainGbps = {400.0};
const std::vector<int> kScaleGpus = {1024, 2048, 4096, 8192, 16384};
const std::vector<topo::FabricKind> kScaleFabrics = {
    topo::FabricKind::kMixNet, topo::FabricKind::kFatTree,
    topo::FabricKind::kRailOptimized};
const std::vector<double> kServeRates = {2.0, 8.0, 512.0, 2048.0};
constexpr int kServeRequests = 32;
const std::vector<topo::FabricKind> kTestbedFabrics = {
    topo::FabricKind::kFatTree, topo::FabricKind::kMixNet};
constexpr std::size_t kTestbedReplicas = 2;
// Packet-vs-flow direction tolerance on iteration time (the fidelity
// ladder's iteration-time bound).
constexpr double kPacketFlowTol = 0.05;

void append(std::vector<exp::SweepPoint>& out, const exp::Sweep& sweep) {
  for (const auto& p : sweep.points()) {
    out.push_back(p);
    out.back().index = out.size() - 1;
  }
}

// fig12 twin at 400 Gbps: 4 models x 5 fabrics at 1024 GPUs, one shared
// gate seed per model (kShared), so each model's 5 points replay one gate
// trajectory.
Workload train_sweep(std::uint64_t seed) {
  Workload w{"train-sweep", {}, {}};
  const auto models = moe::simulation_models();
  for (std::size_t m = 0; m < models.size(); ++m) {
    append(w.points,
           exp::SweepSpec(exp::ScenarioSpec::paper(models[m],
                                                   topo::FabricKind::kFatTree,
                                                   800.0)
                              .iterations(1)
                              .warmup(100)
                              .seed(derive_point_seed(seed, m)))
               .fabrics(exp::evaluated_fabrics())
               .bandwidths(kTrainGbps)
               .expand());
    // MixNet of every model: the gate wall plus the controller.
    w.replay.push_back((m * exp::evaluated_fabrics().size() + 4) * kTrainGbps.size());
  }
  return w;
}

// fig26 twin up to 16k GPUs: Mixtral 8x7B at 400 Gbps, DP scaled on the
// explicit core.
Workload scale_sweep(std::uint64_t seed) {
  Workload w{"scale-sweep", {}, {}};
  std::vector<exp::AxisValue> size_axis;
  for (int gpus : kScaleGpus)
    size_axis.push_back({std::to_string(gpus), [gpus](exp::ScenarioSpec& s) {
      s.configure([gpus](sim::TrainingConfig& cfg) {
        cfg.par.dp = gpus / cfg.par.gpus_per_replica();
      });
    }});
  append(w.points,
         exp::SweepSpec(exp::ScenarioSpec::paper(moe::mixtral_8x7b(),
                                                 topo::FabricKind::kMixNet,
                                                 400.0, /*n_microbatches=*/2)
                            .core_model(topo::CoreModel::kExplicit)
                            .seed(derive_point_seed(seed, 0)))
             .axis("gpus", std::move(size_axis))
             .fabrics(kScaleFabrics)
             .expand());
  // Every fabric at 4096 GPUs: the largest cluster whose 512 servers fit
  // the phase runner's 512-tree router cache, so routing ahead of each phase
  // leaves every tree the phase needs resident (larger clusters would evict
  // them and route twice).
  for (std::size_t k = 0; k < kScaleFabrics.size(); ++k)
    w.replay.push_back(2 * kScaleFabrics.size() + k);
  return w;
}

// serve-steady twin: open-loop Poisson rates well below and well above
// engine saturation (goodput levels off near 250-300 req/s), one derived
// seed per point. Every request has the median prompt and output length
// (zero lognormal spread), and no rate sits near saturation, where Poisson
// batching swings the engine-step count by a third from seed to seed: the
// engine pays a near-fixed cost per step, so this keeps a run's work, and
// its wall time, comparable across seeds.
Workload serve_sweep(std::uint64_t seed) {
  Workload w{"serve-sweep", {}, {}};
  for (const double rate : kServeRates) {
    exp::SweepPoint p;
    p.index = w.points.size();
    p.labels = {std::to_string(static_cast<int>(rate)) + " req/s"};
    sim::TrainingConfig& cfg = p.cfg;
    cfg.model = moe::qwen_moe();
    cfg.model.n_blocks = 4;
    cfg.par.ep = 16;
    cfg.par.tp = 2;
    cfg.par.pp = 1;
    cfg.par.dp = 1;
    cfg.par.seq_len = 4096;
    cfg.par.micro_batch = 1;
    cfg.par.n_microbatches = 1;
    cfg.par_overridden = true;
    cfg.fabric_kind = topo::FabricKind::kMixNet;
    cfg.nic_gbps = 400.0;
    cfg.warmup_iterations = 32;
    cfg.seed = derive_point_seed(seed, p.index);
    mixnet::serve::ServeConfig scfg;
    scfg.arrival_rate_hz = rate;
    scfg.n_requests = kServeRequests;
    scfg.prompt_sigma = 0.0;
    scfg.output_sigma = 0.0;
    p.serve = scfg;
    w.points.push_back(std::move(p));
  }
  w.replay.push_back(1);  // 8 req/s: the most engine steps per request
  return w;
}

// fig10 twin on the packet engine: the truncated Qwen-MoE testbed model
// (12 blocks, EP16, PP2) x {fat-tree, MixNet}, 32 GPUs at 100 Gbps, one
// iteration, on two independent gate seeds (kPerPoint). Packet cost follows
// how much of each gate's traffic leaves its server, so a run averages over
// four gate states instead of one.
Workload packet_testbed(std::uint64_t seed) {
  Workload w{"packet-testbed", {}, {}};
  std::vector<exp::AxisValue> replicas;
  for (std::size_t r = 0; r < kTestbedReplicas; ++r)
    replicas.push_back({"replica " + std::to_string(r), [](exp::ScenarioSpec&) {}});
  append(w.points,
         exp::SweepSpec(exp::ScenarioSpec()
                            .iterations(1)
                            .backend(mixnet::net::NetBackend::kPacket)
                            .seed(seed)
                            .seed_policy(exp::SeedPolicy::kPerPoint)
                            .configure([](sim::TrainingConfig& cfg) {
                              cfg.model = moe::qwen_moe();
                              cfg.model.n_blocks = 12;
                              cfg.par.ep = 16;
                              cfg.par.tp = 1;
                              cfg.par.pp = 2;
                              cfg.par.micro_batch = 8;
                              cfg.par.n_microbatches = 4;
                              cfg.par_overridden = true;
                              cfg.nic_gbps = 100.0;
                              cfg.nics_per_server = 4;
                              cfg.eps_nics = 1;
                              cfg.optical_degree = 3;
                              cfg.nvlink_gbps_per_gpu = 2400.0;
                            }))
             .axis("replica", std::move(replicas))
             .fabrics(kTestbedFabrics)
             .expand());
  w.replay.push_back(1);  // replica 0 on MixNet
  return w;
}

std::string format(const char* fmt, double a, double b) {
  char buf[256];
  std::snprintf(buf, sizeof(buf), fmt, a, b);
  return buf;
}

void mark(CheckResult& c, std::size_t first, std::size_t count,
          const std::vector<std::string>& violations) {
  if (violations.empty()) return;
  for (std::size_t i = first; i < first + count; ++i) c.bad[i] = true;
  c.messages.insert(c.messages.end(), violations.begin(), violations.end());
}

std::vector<std::string> registry_check(const char* scenario,
                                        exp::ResultTable table) {
  exp::ScenarioResult res;
  res.name = scenario;
  res.tables.push_back(std::move(table));
  return exp::ScenarioRegistry::paper().find(scenario)->check(res);
}

void check_train(const Workload& w, const std::vector<exp::PointResult>& r,
                 CheckResult& c) {
  const std::size_t per_model = exp::evaluated_fabrics().size() * kTrainGbps.size();
  for (std::size_t first = 0; first < w.points.size(); first += per_model) {
    auto at = [&](std::size_t k, std::size_t g) {
      return r[first + k * kTrainGbps.size() + g].iter_sec;
    };
    const double ref = at(0, kTrainGbps.size() - 1);
    std::vector<std::string> cols = {"Gbps"};
    for (auto k : exp::evaluated_fabrics()) cols.emplace_back(topo::to_string(k));
    exp::ResultTable t("Figure 12", w.points[first].cfg.model.name, cols);
    for (std::size_t g = 0; g < kTrainGbps.size(); ++g) {
      std::vector<exp::Cell> row = {exp::Cell::num(kTrainGbps[g], 0)};
      for (std::size_t k = 0; k < exp::evaluated_fabrics().size(); ++k)
        row.push_back(exp::Cell::num(at(k, g) / ref, 3));
      t.add_row(std::move(row));
    }
    mark(c, first, per_model, registry_check("fig12", std::move(t)));
  }
}

void check_scale(const std::vector<exp::PointResult>& r, CheckResult& c) {
  // Tokens/s grows strictly with cluster size on every fabric (fig26 shape).
  const std::size_t nf = kScaleFabrics.size();
  for (std::size_t k = 0; k < nf; ++k) {
    for (std::size_t s = 1; s < kScaleGpus.size(); ++s) {
      const double prev = r[(s - 1) * nf + k].last().tokens_per_sec();
      const double cur = r[s * nf + k].last().tokens_per_sec();
      if (cur > prev) continue;
      c.bad[(s - 1) * nf + k] = true;
      c.bad[s * nf + k] = true;
      c.messages.push_back(std::string(topo::to_string(kScaleFabrics[k])) +
                           format(": tokens/s not monotone (%.4g -> %.4g)",
                                  prev, cur));
    }
  }
}

void check_serve(const Workload& w, const std::vector<exp::PointResult>& r,
                 CheckResult& c) {
  auto metric = [](const exp::PointResult& p, const char* key) {
    const auto it = p.extra.find(key);
    return it == p.extra.end() ? 0.0 : it->second;
  };
  exp::ResultTable t("Serve A", "serve-sweep",
                     {"rate", "p50 TTFT", "p99 TTFT", "p50 TPOT", "goodput",
                      "SLO viol"});
  for (std::size_t i = 0; i < r.size(); ++i)
    t.add_row({exp::Cell::num(kServeRates[i], 0),
               exp::Cell::num(metric(r[i], "ttft_p50_ms"), 1),
               exp::Cell::num(metric(r[i], "ttft_p99_ms"), 1),
               exp::Cell::num(metric(r[i], "tpot_p50_ms"), 2),
               exp::Cell::num(metric(r[i], "goodput_rps"), 2),
               exp::Cell::num(metric(r[i], "slo_violation_share"), 3)});
  mark(c, 0, r.size(), registry_check("serve-steady", std::move(t)));
  for (std::size_t i = 0; i < r.size(); ++i) {
    const double want = static_cast<double>(w.points[i].serve->n_requests);
    if (metric(r[i], "completed") != want) {
      c.bad[i] = true;
      c.messages.push_back(w.points[i].labels[0] +
                           format(": completed %.0f of %.0f requests",
                                  metric(r[i], "completed"), want));
    }
  }
}

void check_packet(const Workload& w, const std::vector<exp::PointResult>& r,
                  CheckResult& c) {
  // The same points on the flow solver (milliseconds). The windowed packet
  // engine only loses throughput against the fluid max-min model (window
  // starvation, FIFO queueing), so no point may run materially faster on
  // packets, and each model's two fabrics keep the flow solver's order
  // whenever its gap exceeds the tolerance.
  std::vector<exp::SweepPoint> flow = w.points;
  for (auto& p : flow) p.cfg.backend = mixnet::net::NetBackend::kFlow;
  const auto f = exp::run_sweep(flow, 1);
  for (std::size_t i = 0; i < r.size(); ++i) {
    if (r[i].iter_sec >= (1.0 - kPacketFlowTol) * f[i].iter_sec) continue;
    c.bad[i] = true;
    c.messages.push_back(w.points[i].labels[0] + "/" + w.points[i].labels[1] +
                         format(": packet %.4g s faster than flow %.4g s",
                                r[i].iter_sec, f[i].iter_sec));
  }
  const std::size_t nf = kTestbedFabrics.size();
  for (std::size_t first = 0; first < r.size(); first += nf) {
    const double flow_ratio = f[first + 1].iter_sec / f[first].iter_sec;
    const double pkt_ratio = r[first + 1].iter_sec / r[first].iter_sec;
    if (std::fabs(flow_ratio - 1.0) > kPacketFlowTol &&
        (flow_ratio > 1.0) != (pkt_ratio > 1.0))
      mark(c, first, nf,
           {w.points[first].labels[0] +
            format(": MixNet/fat-tree %.4f on packets vs %.4f on flows",
                   pkt_ratio, flow_ratio)});
  }
}

}  // namespace

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {
      "train-sweep", "scale-sweep", "serve-sweep", "packet-testbed"};
  return names;
}

Workload make_workload(const std::string& name, std::uint64_t seed) {
  if (name == "train-sweep") return train_sweep(seed);
  if (name == "scale-sweep") return scale_sweep(seed);
  if (name == "serve-sweep") return serve_sweep(seed);
  if (name == "packet-testbed") return packet_testbed(seed);
  throw std::invalid_argument("unknown workload: " + name);
}

CheckResult check_outputs(const Workload& w,
                          const std::vector<exp::PointResult>& results) {
  CheckResult c;
  c.bad.assign(results.size(), false);
  bool all_valid = true;
  for (std::size_t i = 0; i < results.size(); ++i) {
    const auto& r = results[i];
    bool ok = r.ok() && std::isfinite(r.iter_sec) && r.iter_sec > 0.0;
    for (const auto& it : r.iters) ok = ok && it.total > 0;
    if (!ok) {
      c.bad[i] = true;
      c.messages.push_back("point #" + std::to_string(i) + " (" +
                           w.points[i].labels[0] + "): " +
                           (r.error.empty() ? "non-positive simulated time"
                                            : r.error));
      all_valid = false;
    }
  }
  // Relations compare points with each other, so they need every point.
  if (!all_valid) return c;
  if (w.name == "train-sweep") check_train(w, results, c);
  if (w.name == "scale-sweep") check_scale(results, c);
  if (w.name == "serve-sweep") check_serve(w, results, c);
  if (w.name == "packet-testbed") check_packet(w, results, c);
  return c;
}

std::string sim_digest(const Workload& w,
                       const std::vector<exp::PointResult>& results) {
  mixnet::CanonicalWriter cw;
  char key[32];
  for (std::size_t i = 0; i < results.size(); ++i) {
    std::snprintf(key, sizeof(key), "point%06zu", i);
    cw.field(key, exp::point_record_json("", results[i], w.points[i].labels));
  }
  return cw.digest_hex();
}

}  // namespace perfbench
