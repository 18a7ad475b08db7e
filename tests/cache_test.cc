// Staged sweep engine (DESIGN.md §9): canonical serialization, content-key
// stability, record round-trips, disk-cache persistence, shard/merge
// bit-equality, resume-after-kill, and keep-going error capture.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <set>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/canonical.h"
#include "exp/cache_key.h"
#include "exp/result_cache.h"
#include "exp/runner.h"
#include "exp/scenario.h"

namespace mixnet::exp {
namespace {

// Fresh cache directory per test; removed on destruction.
struct TempCacheDir {
  std::string path;
  TempCacheDir() {
    char tmpl[] = "/tmp/mixnet-cache-test-XXXXXX";
    const char* p = mkdtemp(tmpl);
    if (!p) throw std::runtime_error("mkdtemp failed");
    path = p;
  }
  ~TempCacheDir() {
    const std::string cmd = "rm -rf '" + path + "'";
    [[maybe_unused]] const int rc = std::system(cmd.c_str());
  }
};

// Same tiny configuration as exp_test.cc: sweep tests measure the engine,
// not the simulator.
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

// `spec` with a micro-batch size of 0 on every 200 Gbps point: running such
// a point throws from sim::build_cluster, a failure that comes from the
// point's own config.
ScenarioSpec failing_at_200g(ScenarioSpec spec) {
  return spec.configure([](sim::TrainingConfig& cfg) {
    if (cfg.nic_gbps == 200.0) cfg.par.micro_batch = 0;
  });
}
constexpr const char* kBadMicroBatch =
    "build_cluster: par.micro_batch must be >= 1, got 0";

Sweep tiny_sweep() {
  return SweepSpec(tiny_spec().iterations(2).seed_policy(SeedPolicy::kPerPoint))
      .fabrics({topo::FabricKind::kFatTree, topo::FabricKind::kMixNet})
      .bandwidths({100.0, 200.0, 400.0})
      .expand();
}

void expect_identical(const PointResult& a, const PointResult& b) {
  EXPECT_EQ(a.index, b.index);
  EXPECT_EQ(a.iterations, b.iterations);
  // Bit-exact, not approximately equal: the cache must render byte-identical
  // tables.
  EXPECT_EQ(a.iter_sec, b.iter_sec);
  ASSERT_EQ(a.iters.size(), b.iters.size());
  for (std::size_t k = 0; k < a.iters.size(); ++k) {
    EXPECT_EQ(a.iters[k].total, b.iters[k].total);
    EXPECT_EQ(a.iters[k].ep_comm, b.iters[k].ep_comm);
    EXPECT_EQ(a.iters[k].pp_send, b.iters[k].pp_send);
    EXPECT_EQ(a.iters[k].dp_comm, b.iters[k].dp_comm);
    EXPECT_EQ(a.iters[k].reconfig_blocked, b.iters[k].reconfig_blocked);
    EXPECT_EQ(a.iters[k].compute, b.iters[k].compute);
    EXPECT_EQ(a.iters[k].reconfigurations, b.iters[k].reconfigurations);
    EXPECT_EQ(a.iters[k].tokens, b.iters[k].tokens);
  }
  EXPECT_EQ(a.timeline.attention, b.timeline.attention);
  EXPECT_EQ(a.timeline.gate, b.timeline.gate);
  EXPECT_EQ(a.timeline.a2a1, b.timeline.a2a1);
  EXPECT_EQ(a.timeline.expert, b.timeline.expert);
  EXPECT_EQ(a.timeline.a2a2, b.timeline.a2a2);
  EXPECT_EQ(a.timeline.add_norm, b.timeline.add_norm);
  EXPECT_EQ(a.timeline.reconfig_blocked, b.timeline.reconfig_blocked);
  EXPECT_EQ(a.extra, b.extra);
  EXPECT_EQ(a.error, b.error);
}

// ------------------------------------------------------ CanonicalWriter ----

TEST(CanonicalWriter, TextSortsFieldsSoOrderNeverMatters) {
  CanonicalWriter a, b;
  a.field("alpha", 1).field("beta", 2.5).field("gamma", "x");
  b.field("gamma", "x").field("alpha", 1).field("beta", 2.5);
  EXPECT_EQ(a.canonical_text(), b.canonical_text());
  EXPECT_EQ(a.digest_hex(), b.digest_hex());
  EXPECT_EQ(a.digest_hex().size(), 32u);
}

TEST(CanonicalWriter, AnySemanticChangeChangesTheDigest) {
  auto digest = [](auto fill) {
    CanonicalWriter w;
    fill(w);
    return w.digest_hex();
  };
  const std::string base =
      digest([](CanonicalWriter& w) { w.field("a", 1).field("b", 2.0); });
  // Different value.
  EXPECT_NE(base,
            digest([](CanonicalWriter& w) { w.field("a", 2).field("b", 2.0); }));
  // Renamed field.
  EXPECT_NE(base,
            digest([](CanonicalWriter& w) { w.field("c", 1).field("b", 2.0); }));
  // Added field.
  EXPECT_NE(base, digest([](CanonicalWriter& w) {
              w.field("a", 1).field("b", 2.0).field("c", 0);
            }));
  // Type tags: int 1 vs string "1" vs bool true must not collide.
  EXPECT_NE(digest([](CanonicalWriter& w) { w.field("a", 1); }),
            digest([](CanonicalWriter& w) { w.field("a", "1"); }));
  EXPECT_NE(digest([](CanonicalWriter& w) { w.field("a", 1); }),
            digest([](CanonicalWriter& w) { w.field("a", true); }));
}

TEST(CanonicalWriter, DuplicateKeyThrows) {
  CanonicalWriter w;
  w.field("seed", 1);
  EXPECT_THROW(w.field("seed", 2), std::invalid_argument);
}

TEST(CanonicalWriter, SeparatorsInValuesAreEscapedInjectively) {
  // "a=1;b=2" as one value must not collide with fields a and b.
  CanonicalWriter tricky, plain;
  tricky.field("x", "a=1;b=2");
  plain.field("x", "a").field("b", 2);
  EXPECT_NE(tricky.canonical_text(), plain.canonical_text());
  CanonicalWriter backslash;
  backslash.field("x", "a\\=1\\;b\\=2");
  EXPECT_NE(tricky.canonical_text(), backslash.canonical_text());
}

TEST(CanonicalWriter, DoubleRoundTripsAllSeventeenDigits) {
  CanonicalWriter w;
  w.field("v", 0.1 + 0.2);  // 0.30000000000000004: %.17g must preserve it
  EXPECT_NE(w.canonical_text().find("30000000000000004"), std::string::npos);
}

// ------------------------------------------------------------ cache key ----

TEST(CacheKey, StableAcrossCallsAndProcessRestarts) {
  const Sweep sweep = tiny_sweep();
  const std::string k0 = point_cache_key("figX", sweep.points()[0]);
  EXPECT_EQ(k0.size(), 32u);
  // Same spec re-expanded from scratch: identical key (nothing run-dependent
  // -- no pointers, no timestamps -- feeds the digest).
  const Sweep again = tiny_sweep();
  EXPECT_EQ(point_cache_key("figX", again.points()[0]), k0);
}

TEST(CacheKey, SemanticChangesProduceNewKeys) {
  const Sweep sweep = tiny_sweep();
  const SweepPoint& p = sweep.points()[0];
  const std::string base = point_cache_key("figX", p);

  std::set<std::string> keys = {base};
  auto expect_fresh = [&](SweepPoint q, const char* what) {
    const std::string k = point_cache_key("figX", q);
    EXPECT_TRUE(keys.insert(k).second) << "key collision after " << what;
  };

  SweepPoint q = p;
  q.cfg.seed += 1;
  expect_fresh(q, "seed change");
  q = p;
  q.cfg.nic_gbps = 401.0;
  expect_fresh(q, "bandwidth change");
  q = p;
  q.cfg.fabric_kind = topo::FabricKind::kMixNet;
  expect_fresh(q, "fabric change");
  q = p;
  q.iterations += 1;
  expect_fresh(q, "iteration-count change");
  q = p;
  q.cfg.use_copilot = !q.cfg.use_copilot;
  expect_fresh(q, "copilot toggle");
  q = p;
  q.cfg.backend = net::NetBackend::kPacket;
  expect_fresh(q, "network backend change");
  q = p;
  q.cfg.pkt.window_packets += 4;
  expect_fresh(q, "packet window change");

  // Scenario id namespaces the key: fig12 and fig13 share configs but are
  // cached apart.
  EXPECT_NE(point_cache_key("figY", p), base);

  // Display labels are metadata, not identity.
  q = p;
  q.labels = {"renamed", "labels"};
  EXPECT_EQ(point_cache_key("figX", q), base);
}

// ---------------------------------------------------------- record round ----

TEST(PointRecord, JsonRoundTripIsBitExact) {
  const Sweep sweep = tiny_sweep();
  const PointResult run = run_point(sweep.points()[2]);
  PointResult decorated = run;
  decorated.extra["locality"] = 0.1 + 0.2;
  decorated.extra["servers"] = 4.0;

  const std::string line =
      point_record_json("k123", decorated, {"MixNet", "400"});
  EXPECT_EQ(line.find('\n'), std::string::npos);
  auto back = parse_point_record(line);
  ASSERT_TRUE(back.has_value());
  EXPECT_TRUE(back->from_cache);
  // `index` is positional, not part of the record; the engine re-assigns it
  // at lookup time.
  back->index = decorated.index;
  expect_identical(*back, decorated);
}

TEST(PointRecord, MalformedLinesAreMissesNotErrors) {
  EXPECT_FALSE(parse_point_record("").has_value());
  EXPECT_FALSE(parse_point_record("not json at all").has_value());
  EXPECT_FALSE(parse_point_record("{\"v\":1}").has_value());
  EXPECT_FALSE(parse_point_record("{\"v\":999,\"key\":\"k\"}").has_value());
  EXPECT_FALSE(parse_point_record("[1,2,3]").has_value());
}

// --------------------------------------------------------------- cache ----

TEST(ResultCache, PersistsAcrossInstancesLikeARestart) {
  TempCacheDir dir;
  const Sweep sweep = tiny_sweep();
  const std::string key = point_cache_key("figX", sweep.points()[0]);
  const PointResult run = run_point(sweep.points()[0]);
  {
    ResultCache cache(dir.path);
    EXPECT_FALSE(cache.lookup("figX", key).has_value());
    cache.put("figX", key, run, sweep.points()[0].labels);
    const auto hit = cache.lookup("figX", key);
    ASSERT_TRUE(hit.has_value());
    expect_identical(*hit, run);
  }
  // A new instance (new process, conceptually) reloads from disk.
  ResultCache reopened(dir.path);
  EXPECT_EQ(reopened.size("figX"), 1u);
  const auto hit = reopened.lookup("figX", key);
  ASSERT_TRUE(hit.has_value());
  EXPECT_TRUE(hit->from_cache);
  expect_identical(*hit, run);
  // Scenario namespaces are independent.
  EXPECT_FALSE(reopened.lookup("figY", key).has_value());
}

TEST(ResultCache, CorruptLinesAreSkippedGoodOnesSurvive) {
  TempCacheDir dir;
  const Sweep sweep = tiny_sweep();
  const std::string key = point_cache_key("figX", sweep.points()[0]);
  const PointResult run = run_point(sweep.points()[0]);
  {
    ResultCache cache(dir.path);
    cache.put("figX", key, run, {});
  }
  // Simulate a kill mid-append plus stray garbage around the good record.
  std::FILE* f = std::fopen((dir.path + "/figX.jsonl").c_str(), "a");
  ASSERT_NE(f, nullptr);
  std::fputs("garbage line\n{\"v\":1,\"key\":\"trunc", f);
  std::fclose(f);

  ResultCache cache(dir.path);
  const auto hit = cache.lookup("figX", key);
  ASSERT_TRUE(hit.has_value());
  expect_identical(*hit, run);
}

// ------------------------------------------------------------- engine ------

TEST(SweepEngine, WarmRunIsAllHitsAndBitIdentical) {
  TempCacheDir dir;
  ResultCache cache(dir.path);
  const Sweep sweep = tiny_sweep();

  RunContext ctx;
  ctx.scenario = "figX";
  ctx.cache = &cache;
  SweepStats cold_stats;
  ctx.stats = &cold_stats;
  const auto cold = run_sweep(sweep.points(), ctx);
  EXPECT_EQ(cold_stats.computed, sweep.size());
  EXPECT_EQ(cold_stats.hits, 0u);

  SweepStats warm_stats;
  ctx.stats = &warm_stats;
  const auto warm = run_sweep(sweep.points(), ctx);
  EXPECT_EQ(warm_stats.computed, 0u);
  EXPECT_EQ(warm_stats.hits, sweep.size());
  ASSERT_EQ(warm.size(), cold.size());
  for (std::size_t i = 0; i < warm.size(); ++i) {
    EXPECT_TRUE(warm[i].from_cache);
    expect_identical(warm[i], cold[i]);
  }
}

TEST(SweepEngine, PacketArrivalsCountOnlyComputedPacketPoints) {
  // pkt_arrivals is a host work counter like copilot_solves: a computed
  // packet-backend point reports its engines' arrivals, a flow-backend
  // point none, and a cache hit none.
  TempCacheDir dir;
  ResultCache cache(dir.path);
  std::vector<AxisValue> backends;
  for (const net::NetBackend b :
       {net::NetBackend::kFlow, net::NetBackend::kPacket}) {
    backends.push_back(
        {net::to_string(b), [b](ScenarioSpec& s) { s.backend(b); }});
  }
  const Sweep sweep = SweepSpec(tiny_spec().iterations(1))
                          .axis("backend", std::move(backends))
                          .expand();
  ASSERT_EQ(sweep.size(), 2u);

  RunContext ctx;
  ctx.scenario = "figX";
  ctx.cache = &cache;
  SweepStats cold_stats;
  ctx.stats = &cold_stats;
  const auto cold = run_sweep(sweep.points(), ctx);
  EXPECT_EQ(cold[0].pkt_arrivals, 0u);
  EXPECT_GT(cold[1].pkt_arrivals, 0u);
  EXPECT_EQ(cold_stats.pkt_arrivals, cold[1].pkt_arrivals);

  SweepStats warm_stats;
  ctx.stats = &warm_stats;
  const auto warm = run_sweep(sweep.points(), ctx);
  EXPECT_EQ(warm_stats.hits, 2u);
  EXPECT_EQ(warm_stats.pkt_arrivals, 0u);
  EXPECT_EQ(warm[1].pkt_arrivals, 0u);
}

TEST(SweepEngine, UnwritableCacheWarnsOnceAndStillComputesEveryPoint) {
  // The cache directory sits under a regular file, so mkdir fails (ENOTDIR).
  TempCacheDir dir;
  const std::string blocker = dir.path + "/blocker";
  std::FILE* f = std::fopen(blocker.c_str(), "w");
  ASSERT_NE(f, nullptr);
  std::fclose(f);
  ResultCache cache(blocker + "/cache");
  const Sweep sweep = tiny_sweep();

  RunContext ctx;
  ctx.scenario = "figX";
  ctx.cache = &cache;
  testing::internal::CaptureStderr();
  for (int run = 0; run < 2; ++run) {
    SweepStats stats;
    ctx.stats = &stats;
    const auto results = run_sweep(sweep.points(), ctx);
    EXPECT_EQ(stats.hits, 0u) << "run " << run;
    EXPECT_EQ(stats.computed, sweep.size()) << "run " << run;
    EXPECT_EQ(stats.failed, 0u) << "run " << run;
    for (const auto& r : results) EXPECT_TRUE(r.ok());
  }
  const std::string err = testing::internal::GetCapturedStderr();
  std::size_t warnings = 0;
  for (auto pos = err.find("warning: result cache"); pos != std::string::npos;
       pos = err.find("warning: result cache", pos + 1))
    ++warnings;
  EXPECT_EQ(warnings, 1u) << err;
  EXPECT_NE(err.find(blocker + "/cache"), std::string::npos) << err;
  EXPECT_NE(err.find("Not a directory"), std::string::npos) << err;
}

TEST(SweepEngine, ShardedRunsMergeBitIdenticalToSerial) {
  const Sweep sweep = tiny_sweep();
  const auto serial = run_sweep(sweep.points(), /*jobs=*/1);

  for (const int n_shards : {2, 3, 8}) {
    TempCacheDir dir;
    for (int s = 0; s < n_shards; ++s) {
      // Each shard is its own cache instance, as in N separate processes.
      ResultCache cache(dir.path);
      RunContext ctx;
      ctx.scenario = "figX";
      ctx.cache = &cache;
      ctx.shard_index = s;
      ctx.shard_count = n_shards;
      SweepStats stats;
      ctx.stats = &stats;
      const auto part = run_sweep(sweep.points(), ctx);
      EXPECT_EQ(stats.failed, 0u) << "shard " << s << "/" << n_shards;
      // This shard executed exactly its residue class (minus earlier-shard
      // hits already in the shared dir).
      for (std::size_t i = 0; i < part.size(); ++i) {
        const bool owned = static_cast<int>(i % n_shards) == s;
        if (!owned && !part[i].from_cache) {
          EXPECT_TRUE(part[i].skipped);
        }
        if (owned) {
          EXPECT_TRUE(part[i].ok()) << "shard " << s << " point " << i;
        }
      }
    }
    // Merge: a fresh engine pass over the now-complete cache.
    ResultCache cache(dir.path);
    RunContext ctx;
    ctx.scenario = "figX";
    ctx.cache = &cache;
    SweepStats stats;
    ctx.stats = &stats;
    const auto merged = run_sweep(sweep.points(), ctx);
    EXPECT_EQ(stats.computed, 0u) << n_shards << " shards left gaps";
    EXPECT_EQ(stats.hits, sweep.size());
    ASSERT_EQ(merged.size(), serial.size());
    for (std::size_t i = 0; i < merged.size(); ++i)
      expect_identical(merged[i], serial[i]);
  }
}

TEST(SweepEngine, ResumeAfterKillRecomputesOnlyUnfinishedPoints) {
  TempCacheDir dir;
  const Sweep sweep = tiny_sweep();
  {
    // "Killed" campaign: only shard 0 of 2 ever ran.
    ResultCache cache(dir.path);
    RunContext ctx;
    ctx.scenario = "figX";
    ctx.cache = &cache;
    ctx.shard_index = 0;
    ctx.shard_count = 2;
    SweepStats stats;
    ctx.stats = &stats;
    run_sweep(sweep.points(), ctx);
    EXPECT_EQ(stats.computed, sweep.size() / 2);
  }
  // Resume as a plain (unsharded) run: only the missing half computes.
  ResultCache cache(dir.path);
  RunContext ctx;
  ctx.scenario = "figX";
  ctx.cache = &cache;
  SweepStats stats;
  ctx.stats = &stats;
  const auto results = run_sweep(sweep.points(), ctx);
  EXPECT_EQ(stats.hits, sweep.size() / 2);
  EXPECT_EQ(stats.computed, sweep.size() - sweep.size() / 2);
  for (std::size_t i = 0; i < results.size(); ++i) {
    EXPECT_TRUE(results[i].ok());
    EXPECT_EQ(results[i].from_cache, i % 2 == 0) << i;
  }
}

TEST(SweepEngine, KeepGoingRecordsErrorsAndNeverCachesThem) {
  TempCacheDir dir;
  ResultCache cache(dir.path);
  const Sweep sweep =
      SweepSpec(failing_at_200g(tiny_spec().iterations(1)))
          .bandwidths({100.0, 200.0, 400.0})
          .expand();

  RunContext ctx;
  ctx.scenario = "figX";
  ctx.cache = &cache;
  SweepStats stats;
  ctx.stats = &stats;
  const auto results = run_sweep(sweep.points(), ctx);

  ASSERT_EQ(results.size(), 3u);
  EXPECT_TRUE(results[0].ok());
  EXPECT_FALSE(results[1].ok());
  EXPECT_EQ(results[1].error, kBadMicroBatch);
  EXPECT_TRUE(results[2].ok());
  EXPECT_EQ(stats.failed, 1u);
  ASSERT_EQ(stats.failures.size(), 1u);
  EXPECT_NE(stats.failures[0].find("figX point #1"), std::string::npos);
  EXPECT_NE(stats.failures[0].find(kBadMicroBatch), std::string::npos);

  // Failed points must not poison the cache: a retry recomputes the failed
  // point and serves the good ones from disk.
  EXPECT_EQ(cache.size("figX"), 2u);

  // Without ctx.stats the same sweep is fail-fast (legacy behavior).
  RunContext strict;
  strict.scenario = "figX";
  EXPECT_THROW(run_sweep(sweep.points(), strict), std::invalid_argument);
}

TEST(SweepEngine, ParallelStreamingMatchesSerialBitExactly) {
  // The race-detector companion to the engine tests above, which all run at
  // the default ctx.jobs = 1: this is the test that drives the full engine
  // concurrently -- workers streaming ResultCache::put from their own
  // threads while other workers execute, plus the error_mu-guarded
  // keep-going error capture -- so the TSan CI job (DESIGN.md §10) observes
  // every shared write the streaming path performs.
  const Sweep sweep =
      SweepSpec(failing_at_200g(
                    tiny_spec().iterations(1).seed_policy(SeedPolicy::kPerPoint)))
          .fabrics({topo::FabricKind::kFatTree, topo::FabricKind::kMixNet})
          .bandwidths({100.0, 200.0, 400.0})
          .expand();

  RunContext serial_ctx;
  serial_ctx.scenario = "figX";
  SweepStats serial_stats;
  serial_ctx.stats = &serial_stats;
  const auto serial = run_sweep(sweep.points(), serial_ctx);

  TempCacheDir dir;
  ResultCache cache(dir.path);
  RunContext par_ctx;
  par_ctx.scenario = "figX";
  par_ctx.jobs = 4;
  par_ctx.cache = &cache;
  SweepStats par_stats;
  par_ctx.stats = &par_stats;
  const auto parallel = run_sweep(sweep.points(), par_ctx);

  ASSERT_EQ(parallel.size(), serial.size());
  for (std::size_t i = 0; i < parallel.size(); ++i)
    expect_identical(parallel[i], serial[i]);
  EXPECT_EQ(par_stats.computed, sweep.size());
  EXPECT_EQ(par_stats.failed, 2u);  // the two nic_gbps == 200 points
  // Streamed records: every successful point hit the disk; failed points
  // never do.
  EXPECT_EQ(cache.size("figX"), sweep.size() - 2);

  // A warm parallel pass serves the good points and recomputes (and
  // re-fails) only the failed ones, still bit-identical to serial.
  SweepStats warm_stats;
  par_ctx.stats = &warm_stats;
  const auto warm = run_sweep(sweep.points(), par_ctx);
  EXPECT_EQ(warm_stats.hits, sweep.size() - 2);
  EXPECT_EQ(warm_stats.computed, 2u);
  EXPECT_EQ(warm_stats.failed, 2u);
  for (std::size_t i = 0; i < warm.size(); ++i)
    expect_identical(warm[i], serial[i]);
}

}  // namespace
}  // namespace mixnet::exp
