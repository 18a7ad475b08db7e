// ResultCache: disk-backed, content-addressed store of executed sweep
// points (DESIGN.md §9).
//
// Layout: one JSON-lines file per scenario namespace under the cache
// directory (`.mixnet-cache/<scenario>.jsonl` by default), one record per
// completed point, appended and flushed the moment the point finishes. That
// streaming append is what makes sweeps durable: a killed run resumes from
// the records already on disk with zero recomputation of finished points,
// and N sharded processes pointed at the same directory compose into one
// campaign (each scenario file is appended by one process per shard run;
// records are self-describing, so concatenation order never matters).
//
// Serialization is bit-exact: doubles are emitted as %.17g (round-trips
// every IEEE-754 double uniquely) and TimeNs as plain int64 decimals, so a
// table rendered from cached points is byte-identical to one rendered from
// a fresh run. Records whose stored schema version or shape is unrecognized
// are ignored (treated as a miss), never an error -- an old cache can only
// cost recomputation.
#pragma once

#include <cstdio>
#include <map>
#include <mutex>
#include <optional>
#include <string>

#include "exp/runner.h"

namespace mixnet::exp {

/// Serialize one executed point as a single JSON line (no trailing '\n').
/// `labels` is display metadata kept for human cache inspection; it is not
/// identity (the key is).
std::string point_record_json(const std::string& key, const PointResult& r,
                              const std::vector<std::string>& labels);

/// Parse a record line; std::nullopt on malformed or schema-mismatched
/// input. On success the returned PointResult carries everything but
/// `index` exactly as stored (`index` is positional and re-assigned by the
/// engine at lookup time).
std::optional<PointResult> parse_point_record(const std::string& line);

class ResultCache {
 public:
  /// Opens (lazily, per scenario) under `dir`; the directory is created on
  /// first store.
  explicit ResultCache(std::string dir);
  ~ResultCache();

  ResultCache(const ResultCache&) = delete;
  ResultCache& operator=(const ResultCache&) = delete;

  /// Look up one point by content key within a scenario namespace.
  std::optional<PointResult> lookup(const std::string& scenario,
                                    const std::string& key);

  /// Append one completed point and flush it to disk. Thread-safe; called
  /// by engine workers as points finish (the stream stage). If the
  /// namespace file cannot be created, prints one stderr warning and drops
  /// this and every later put to that namespace.
  void put(const std::string& scenario, const std::string& key,
           const PointResult& r, const std::vector<std::string>& labels);

  const std::string& dir() const { return dir_; }

  /// Records currently loaded for a scenario (test/introspection hook;
  /// loads the scenario file if not yet touched).
  std::size_t size(const std::string& scenario);

 private:
  struct Namespace {
    bool loaded = false;
    std::map<std::string, std::string> lines;  // key -> raw record
    std::FILE* append = nullptr;
    bool unwritable = false;  // open failed once; puts are dropped
  };

  Namespace& load(const std::string& scenario);  // callers hold mu_
  std::string file_path(const std::string& scenario) const;

  std::mutex mu_;
  std::string dir_;
  std::map<std::string, Namespace> namespaces_;
};

}  // namespace mixnet::exp
