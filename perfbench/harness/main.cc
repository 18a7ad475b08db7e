// Benchmark harness. perfbench/run.py builds it and runs one mode per process:
//
//   perfbench sweep --workload W --seed N --seconds S --workdir DIR
//       Closed-loop passes over the workload's points through exp::run_sweep
//       at one worker thread, each pass against a fresh result cache: a cold
//       pass that computes and writes every point, then a warm pass that
//       must serve every point back from disk. Passes repeat while another
//       fits in S seconds. Prints per-pass wall time, per-point host time,
//       output-check failures, the sim digest and peak RSS.
//   perfbench setup --workload W --seed N
//       Constructs every point's simulator (fabric build, gate construction
//       and warmup, TopoOpt circuit install) and prints each point's
//       construction time, the median over repetitions filling 1 s.
//   perfbench trace --workload W --seed N --seconds S --workdir DIR
//       Replays the workload's representative points layer by layer with a
//       span around every call (replay.h), checks the replay against the
//       untraced simulator, and prints per-layer busy time and counts
//       (medians over repetitions that fit in S seconds).
//
// Each mode prints one JSON object on its last stdout line.
#include <sys/resource.h>
#include <sys/stat.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "exp/cache_key.h"
#include "exp/result_cache.h"
#include "exp/result_table.h"
#include "replay.h"
#include "serve/serve_sim.h"
#include "workloads.h"

namespace perfbench {
namespace exp = mixnet::exp;

namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

struct Args {
  std::string mode;
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 10.0;
  std::string workdir;
};

Args parse(int argc, char** argv) {
  if (argc < 2) throw std::invalid_argument("usage: perfbench sweep|setup|trace --workload W --seed N [--seconds S] [--workdir DIR]");
  Args a;
  a.mode = argv[1];
  bool have_seed = false;
  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) throw std::invalid_argument("missing value for " + arg);
    const std::string v = argv[++i];
    if (arg == "--workload") {
      a.workload = v;
    } else if (arg == "--seed") {
      char* end = nullptr;
      errno = 0;
      a.seed = std::strtoull(v.c_str(), &end, 10);
      if (v.empty() || *end != '\0' || errno != 0)
        throw std::invalid_argument("--seed must be a non-negative integer");
      have_seed = true;
    } else if (arg == "--seconds") {
      a.seconds = std::stod(v);
    } else if (arg == "--workdir") {
      a.workdir = v;
    } else {
      throw std::invalid_argument("unknown argument " + arg);
    }
  }
  if (a.workload.empty() || !have_seed)
    throw std::invalid_argument("--workload and --seed are required");
  if (a.mode != "setup" && a.workdir.empty())
    throw std::invalid_argument("--workdir is required for " + a.mode);
  return a;
}

/// A fresh, empty directory: a leftover one would turn a cold pass warm.
std::string fresh_dir(const std::string& parent, const std::string& name) {
  const std::string dir = parent + "/" + name;
  if (::mkdir(dir.c_str(), 0777) != 0)
    throw std::runtime_error("cannot create fresh cache directory " + dir +
                             ": " + std::strerror(errno));
  return dir;
}

std::string json_str(const std::string& s) { return "\"" + exp::json_escape(s) + "\""; }

std::string json_num(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", std::isfinite(v) ? v : 0.0);
  return buf;
}

std::string json_list(const std::vector<double>& xs) {
  std::string out = "[";
  for (std::size_t i = 0; i < xs.size(); ++i) out += (i ? "," : "") + json_num(xs[i]);
  return out + "]";
}

std::string json_strings(const std::vector<std::string>& xs) {
  std::string out = "[";
  for (std::size_t i = 0; i < xs.size(); ++i) out += (i ? "," : "") + json_str(xs[i]);
  return out + "]";
}

double peak_rss_mb() {
  struct rusage ru {};
  ::getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

double median(std::vector<double> xs) {
  std::sort(xs.begin(), xs.end());
  const std::size_t n = xs.size();
  return n == 0 ? 0.0 : (n % 2 ? xs[n / 2] : 0.5 * (xs[n / 2 - 1] + xs[n / 2]));
}

std::string record(const exp::PointResult& r) { return exp::point_record_json("", r, {}); }

// --------------------------------------------------------------------------
// sweep

int run_sweep_mode(const Args& a) {
  const Clock::time_point start = Clock::now();
  std::vector<std::string> pass_json;
  std::vector<std::string> messages;
  std::size_t attempted = 0, failed = 0;
  std::string digest;
  double iterations = 0.0, requests = 0.0;
  for (int pass = 0;; ++pass) {
    const Clock::time_point t0 = Clock::now();
    const Workload w = make_workload(a.workload, a.seed);
    const std::size_t n = w.points.size();
    const std::string dir = fresh_dir(a.workdir, "pass" + std::to_string(pass));

    // Cold pass: closed loop, one point at a time, each timed.
    exp::ResultCache cache(dir);
    exp::SweepStats cold_stats;
    exp::RunContext ctx;
    ctx.jobs = 1;
    ctx.scenario = w.name;
    ctx.cache = &cache;
    ctx.stats = &cold_stats;
    std::vector<exp::PointResult> results(n);
    std::vector<double> point_s(n);
    for (std::size_t i = 0; i < n; ++i) {
      const Clock::time_point ti = Clock::now();
      results[i] = std::move(exp::run_sweep(std::vector<exp::SweepPoint>{w.points[i]}, ctx)[0]);
      point_s[i] = seconds_since(ti);
    }

    // Warm pass: a second cache object reads the records back from disk.
    exp::ResultCache warm_cache(dir);
    exp::SweepStats warm_stats;
    ctx.cache = &warm_cache;
    ctx.stats = &warm_stats;
    const std::vector<exp::PointResult> warm = exp::run_sweep(w.points, ctx);
    const double wall_s = seconds_since(t0);

    // Checks (untimed): outputs, then cache honesty per point.
    CheckResult check = check_outputs(w, results);
    if (cold_stats.hits != 0)
      messages.push_back("cache: cold pass served " + std::to_string(cold_stats.hits) +
                         " points from a fresh directory");
    for (std::size_t i = 0; i < n; ++i) {
      const bool honest = cold_stats.hits == 0 && warm[i].from_cache &&
                          record(warm[i]) == record(results[i]);
      if (!honest) {
        check.bad[i] = true;
        messages.push_back("cache: point #" + std::to_string(i) +
                           " was not written cold and served warm bit-exactly");
      }
    }
    messages.insert(messages.end(), check.messages.begin(), check.messages.end());
    attempted += n;
    failed += static_cast<std::size_t>(std::count(check.bad.begin(), check.bad.end(), true));

    const std::string d = sim_digest(w, results);
    if (!digest.empty() && d != digest)
      messages.push_back("sim_digest differs between passes of one seed: " + digest + " vs " + d);
    digest = d;
    iterations = 0.0;
    requests = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      if (w.points[i].serve) {
        const auto it = results[i].extra.find("completed");
        requests += it == results[i].extra.end() ? 0.0 : it->second;
      } else {
        iterations += w.points[i].iterations;
      }
    }
    pass_json.push_back("{\"wall_s\":" + json_num(wall_s) + ",\"points_s\":" +
                        json_list(point_s) + "}");
    if (seconds_since(start) + wall_s > a.seconds) break;
  }
  std::string passes = "[";
  for (std::size_t i = 0; i < pass_json.size(); ++i) passes += (i ? "," : "") + pass_json[i];
  passes += "]";
  std::printf(
      "{\"mode\":\"sweep\",\"workload\":%s,\"passes\":%s,\"attempted\":%zu,"
      "\"failed\":%zu,\"messages\":%s,\"sim_digest\":%s,\"iterations\":%s,"
      "\"requests\":%s,\"peak_rss_mb\":%s}\n",
      json_str(a.workload).c_str(), passes.c_str(), attempted, failed,
      json_strings(messages).c_str(), json_str(digest).c_str(),
      json_num(iterations).c_str(), json_num(requests).c_str(),
      json_num(peak_rss_mb()).c_str());
  return 0;
}

// --------------------------------------------------------------------------
// setup

// Set-up repeats until this much time has passed (at least once); each
// point reports its median repetition, so millisecond set-ups are not
// single samples.
constexpr double kMinSetupSeconds = 1.0;

int run_setup_mode(const Args& a) {
  const Workload w = make_workload(a.workload, a.seed);
  const Clock::time_point start = Clock::now();
  std::vector<std::vector<double>> reps(w.points.size());
  do {
    for (std::size_t i = 0; i < w.points.size(); ++i) {
      const exp::SweepPoint& p = w.points[i];
      const Clock::time_point t0 = Clock::now();
      if (p.serve) {
        const auto s = std::make_unique<mixnet::serve::ServeSimulator>(p.cfg, *p.serve);
        reps[i].push_back(seconds_since(t0));
      } else {
        const auto s = std::make_unique<mixnet::sim::TrainingSimulator>(p.cfg);
        reps[i].push_back(seconds_since(t0));
      }
    }
  } while (seconds_since(start) < kMinSetupSeconds);
  std::vector<double> point_s;
  for (const auto& r : reps) point_s.push_back(median(r));
  std::printf("{\"mode\":\"setup\",\"points_s\":%s,\"repetitions\":%zu}\n",
              json_list(point_s).c_str(), reps.front().size());
  return 0;
}

// --------------------------------------------------------------------------
// trace

// Layer -> the spans that make up its busy time. Span names are
// "<layer>.<what>"; every metric below is reported on every workload (zero
// where the workload never enters the layer).
const std::vector<std::pair<std::string, std::vector<std::string>>>& layers() {
  static const std::vector<std::pair<std::string, std::vector<std::string>>> l = {
      {"moe", {"moe.warmup", "moe.step", "moe.dispatch"}},
      {"predict", {"predict.observe", "predict.predict"}},
      {"net", {"net.route"}},
      {"topo", {"topo.build"}},
      {"collective", {"collective.phase"}},
      {"control", {"control.prepare", "control.install", "control.monitor"}},
      {"dag", {"dag.exec"}},
      {"exp", {"exp.cache_put", "exp.cache_lookup"}},
  };
  return l;
}

const std::vector<std::string>& counters() {
  static const std::vector<std::string> c = {
      "moe.steps", "predict.calls", "net.routes", "topo.builds",
      "collective.phases", "control.prepares", "dag.tasks", "exp.cache_lookups"};
  return c;
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

bool same_iterations(const std::vector<mixnet::sim::IterationResult>& a,
                     const std::vector<mixnet::sim::IterationResult>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    const auto& x = a[i];
    const auto& y = b[i];
    if (x.total != y.total || x.ep_comm != y.ep_comm || x.pp_send != y.pp_send ||
        x.dp_comm != y.dp_comm || x.reconfig_blocked != y.reconfig_blocked ||
        x.compute != y.compute || x.reconfigurations != y.reconfigurations ||
        x.tokens != y.tokens)
      return false;
  }
  return true;
}

int run_trace_mode(const Args& a) {
  const Clock::time_point start = Clock::now();
  std::map<std::string, std::vector<double>> samples;
  std::vector<std::string> messages;
  std::size_t attempted = 0, failed = 0;
  for (int rep = 0;; ++rep) {
    const Clock::time_point t_rep = Clock::now();
    const Workload w = make_workload(a.workload, a.seed);
    Trace tr;
    double untraced_s = 0.0, traced_s = 0.0;
    std::vector<exp::PointResult> untraced;
    for (const std::size_t idx : w.replay) {
      const exp::SweepPoint& p = w.points[idx];
      Clock::time_point t0 = Clock::now();
      untraced.push_back(exp::run_point(p));
      untraced_s += seconds_since(t0);
      const exp::PointResult& u = untraced.back();
      t0 = Clock::now();
      bool exact = false;
      if (p.serve) {
        const auto report = replay_serve(p.cfg, *p.serve, tr);
        traced_s += seconds_since(t0);
        exact = mixnet::serve::slo_metrics(report, *p.serve) == u.extra;
      } else {
        const auto iters = replay_training(p.cfg, p.iterations, tr);
        traced_s += seconds_since(t0);
        exact = same_iterations(iters, u.iters);
      }
      ++attempted;
      if (!exact) {
        ++failed;
        messages.push_back("replay of point #" + std::to_string(idx) +
                           " differs from the untraced simulator");
      }
    }
    const double span_ms = tr.span_total_ms();

    // Result cache: a cold cache that writes every replayed point, then a
    // second cache object that reads them back from disk.
    const std::string dir = fresh_dir(a.workdir, "trace" + std::to_string(rep));
    double hits = 0.0;
    {
      exp::ResultCache cold(dir);
      for (std::size_t k = 0; k < w.replay.size(); ++k) {
        const exp::SweepPoint& p = w.points[w.replay[k]];
        Span s(tr, "exp.cache_put");
        cold.put(w.name, exp::point_cache_key(w.name, p), untraced[k], p.labels);
      }
    }
    exp::ResultCache warm(dir);
    for (std::size_t k = 0; k < w.replay.size(); ++k) {
      const exp::SweepPoint& p = w.points[w.replay[k]];
      std::optional<exp::PointResult> got;
      {
        Span s(tr, "exp.cache_lookup");
        got = warm.lookup(w.name, exp::point_cache_key(w.name, p));
      }
      tr.count("exp.cache_lookups");
      if (got && record(*got) == record(untraced[k])) hits += 1.0;
    }

    std::map<std::string, double> m;
    for (const auto& [layer, spans] : layers())
      for (const auto& span : spans) m[span + "_ms"] = tr.busy_ms[span];
    for (const auto& c : counters()) m[c] = tr.counts[c];
    m["collective.phase_hit_ratio"] =
        ratio(tr.counts["collective.phase_hits"], tr.counts["collective.phases"]);
    m["control.reconfig_ratio"] =
        ratio(tr.counts["control.reconfigs"], tr.counts["control.prepares"]);
    m["exp.cache_hit_ratio"] = ratio(hits, tr.counts["exp.cache_lookups"]);
    m["trace.coverage"] = ratio(span_ms / 1e3, untraced_s);
    m["trace.overhead_s"] = traced_s - untraced_s;
    for (const auto& [k, v] : m) samples[k].push_back(v);
    if (seconds_since(start) + seconds_since(t_rep) > a.seconds) break;
  }

  std::string metrics, layer_ms;
  for (const auto& [k, v] : samples) {
    const bool time = k.size() > 3 && k.compare(k.size() - 3, 3, "_ms") == 0;
    const char* unit = time ? "ms"
                       : k == "trace.overhead_s" ? "s"
                       : k.find("ratio") != std::string::npos || k == "trace.coverage"
                           ? "ratio"
                           : "count";
    metrics += (metrics.empty() ? "" : ",") + json_str(k) + ":{\"value\":" +
               json_num(median(v)) + ",\"unit\":" + json_str(unit) + "}";
  }
  std::string largest;
  double largest_ms = -1.0;
  for (const auto& [layer, spans] : layers()) {
    double ms = 0.0;
    for (const auto& span : spans) ms += median(samples[span + "_ms"]);
    layer_ms += (layer_ms.empty() ? "" : ",") + json_str(layer) + ":" + json_num(ms);
    if (ms > largest_ms) {
      largest_ms = ms;
      largest = layer;
    }
  }
  std::printf(
      "{\"mode\":\"trace\",\"workload\":%s,\"attempted\":%zu,\"failed\":%zu,"
      "\"messages\":%s,\"largest_layer\":%s,\"layer_ms\":{%s},\"metrics\":{%s}}\n",
      json_str(a.workload).c_str(), attempted, failed,
      json_strings(messages).c_str(), json_str(largest).c_str(), layer_ms.c_str(),
      metrics.c_str());
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  try {
    const perfbench::Args a = perfbench::parse(argc, argv);
    if (a.mode == "sweep") return perfbench::run_sweep_mode(a);
    if (a.mode == "setup") return perfbench::run_setup_mode(a);
    if (a.mode == "trace") return perfbench::run_trace_mode(a);
    throw std::invalid_argument("unknown mode " + a.mode);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 2;
  }
}
