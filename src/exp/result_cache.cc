#include "exp/result_cache.h"

#include <sys/stat.h>

#include <cerrno>
#include <cstring>
#include <fstream>

#include "common/json.h"
#include "exp/result_table.h"  // json_escape

namespace mixnet::exp {
namespace {

/// Record *format* version (field layout of the JSON line). Distinct from
/// cache_key.h's kCacheSchemaVersion, which versions simulation semantics
/// and is part of the content key.
constexpr int kRecordVersion = 1;

/// Shortest exact form: %.17g round-trips every IEEE-754 double uniquely.
std::string num(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string num(TimeNs v) { return std::to_string(v); }

/// Scenario names come from the registry ([a-z0-9]+ today), but keep the
/// file name safe against future names.
std::string sanitize(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '-' || c == '_' || c == '.';
    out += ok ? c : '_';
  }
  return out.empty() ? "_" : out;
}

bool read_i64(const json::Value& obj, const char* key, TimeNs& out) {
  const json::Value* v = obj.get(key);
  if (!v || !v->is_number()) return false;
  out = v->as_i64();
  return true;
}

bool read_double(const json::Value& obj, const char* key, double& out) {
  const json::Value* v = obj.get(key);
  if (!v || !v->is_number()) return false;
  out = v->as_double();
  return true;
}

}  // namespace

std::string point_record_json(const std::string& key, const PointResult& r,
                              const std::vector<std::string>& labels) {
  std::string out = "{\"v\":" + std::to_string(kRecordVersion) +
                    ",\"key\":\"" + json_escape(key) + "\",\"labels\":[";
  for (std::size_t i = 0; i < labels.size(); ++i) {
    if (i) out += ',';
    out += '"' + json_escape(labels[i]) + '"';
  }
  out += "],\"iterations\":" + std::to_string(r.iterations) +
         ",\"iter_sec\":" + num(r.iter_sec) + ",\"iters\":[";
  for (std::size_t i = 0; i < r.iters.size(); ++i) {
    const auto& it = r.iters[i];
    if (i) out += ',';
    out += "{\"total\":" + num(it.total) + ",\"ep_comm\":" + num(it.ep_comm) +
           ",\"pp_send\":" + num(it.pp_send) +
           ",\"dp_comm\":" + num(it.dp_comm) +
           ",\"reconfig_blocked\":" + num(it.reconfig_blocked) +
           ",\"compute\":" + num(it.compute) +
           ",\"reconfigurations\":" + std::to_string(it.reconfigurations) +
           ",\"tokens\":" + num(it.tokens) + "}";
  }
  const auto& t = r.timeline;
  out += "],\"timeline\":{\"attention\":" + num(t.attention) +
         ",\"gate\":" + num(t.gate) + ",\"a2a1\":" + num(t.a2a1) +
         ",\"expert\":" + num(t.expert) + ",\"a2a2\":" + num(t.a2a2) +
         ",\"add_norm\":" + num(t.add_norm) +
         ",\"reconfig_blocked\":" + num(t.reconfig_blocked) + "},\"extra\":{";
  bool first = true;
  for (const auto& [k, v] : r.extra) {
    if (!first) out += ',';
    out += '"' + json_escape(k) + "\":" + num(v);
    first = false;
  }
  out += "}}";
  return out;
}

std::optional<PointResult> parse_point_record(const std::string& line) {
  const auto doc = json::parse(line);
  if (!doc || !doc->is_object()) return std::nullopt;
  const json::Value* v = doc->get("v");
  if (!v || !v->is_number() || v->as_i64() != kRecordVersion)
    return std::nullopt;

  PointResult r;
  r.from_cache = true;
  const json::Value* iterations = doc->get("iterations");
  const json::Value* iter_sec = doc->get("iter_sec");
  const json::Value* iters = doc->get("iters");
  const json::Value* timeline = doc->get("timeline");
  const json::Value* extra = doc->get("extra");
  if (!iterations || !iterations->is_number() || !iter_sec ||
      !iter_sec->is_number() || !iters || !iters->is_array() || !timeline ||
      !timeline->is_object() || !extra || !extra->is_object())
    return std::nullopt;

  r.iterations = static_cast<int>(iterations->as_i64());
  r.iter_sec = iter_sec->as_double();
  r.iters.reserve(iters->items().size());
  for (const auto& item : iters->items()) {
    if (!item.is_object()) return std::nullopt;
    sim::IterationResult it;
    const json::Value* reconf = item.get("reconfigurations");
    if (!read_i64(item, "total", it.total) ||
        !read_i64(item, "ep_comm", it.ep_comm) ||
        !read_i64(item, "pp_send", it.pp_send) ||
        !read_i64(item, "dp_comm", it.dp_comm) ||
        !read_i64(item, "reconfig_blocked", it.reconfig_blocked) ||
        !read_i64(item, "compute", it.compute) || !reconf ||
        !reconf->is_number() || !read_double(item, "tokens", it.tokens))
      return std::nullopt;
    it.reconfigurations = static_cast<int>(reconf->as_i64());
    r.iters.push_back(it);
  }
  auto& t = r.timeline;
  if (!read_i64(*timeline, "attention", t.attention) ||
      !read_i64(*timeline, "gate", t.gate) ||
      !read_i64(*timeline, "a2a1", t.a2a1) ||
      !read_i64(*timeline, "expert", t.expert) ||
      !read_i64(*timeline, "a2a2", t.a2a2) ||
      !read_i64(*timeline, "add_norm", t.add_norm) ||
      !read_i64(*timeline, "reconfig_blocked", t.reconfig_blocked))
    return std::nullopt;
  for (const auto& [k, val] : extra->members()) {
    if (!val.is_number()) return std::nullopt;
    r.extra[k] = val.as_double();
  }
  return r;
}

ResultCache::ResultCache(std::string dir) : dir_(std::move(dir)) {}

ResultCache::~ResultCache() {
  for (auto& [name, ns] : namespaces_)
    if (ns.append) std::fclose(ns.append);
}

std::string ResultCache::file_path(const std::string& scenario) const {
  return dir_ + "/" + sanitize(scenario) + ".jsonl";
}

ResultCache::Namespace& ResultCache::load(const std::string& scenario) {
  Namespace& ns = namespaces_[scenario];
  if (ns.loaded) return ns;
  ns.loaded = true;
  std::ifstream in(file_path(scenario));
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    const auto doc = json::parse(line);
    if (!doc || !doc->is_object()) continue;  // torn/corrupt line: a miss
    const json::Value* key = doc->get("key");
    if (!key || !key->is_string()) continue;
    // Last record wins: a re-appended key (recomputation after a schema
    // miss) supersedes earlier lines.
    ns.lines[key->as_string()] = line;
  }
  return ns;
}

std::optional<PointResult> ResultCache::lookup(const std::string& scenario,
                                               const std::string& key) {
  std::lock_guard<std::mutex> lock(mu_);
  Namespace& ns = load(scenario);
  const auto it = ns.lines.find(key);
  if (it == ns.lines.end()) return std::nullopt;
  return parse_point_record(it->second);
}

void ResultCache::put(const std::string& scenario, const std::string& key,
                      const PointResult& r,
                      const std::vector<std::string>& labels) {
  const std::string line = point_record_json(key, r, labels);
  std::lock_guard<std::mutex> lock(mu_);
  Namespace& ns = load(scenario);
  if (ns.unwritable) return;
  if (!ns.append) {
    // Create the cache directory on first write (one level; the default
    // ".mixnet-cache" and test dirs are single components).
    if ((::mkdir(dir_.c_str(), 0777) != 0 && errno != EEXIST) ||
        !(ns.append = std::fopen(file_path(scenario).c_str(), "a"))) {
      // An unwritable cache costs the next run its hits, never this run its
      // results: warn once per namespace and stop retrying.
      std::fprintf(stderr,
                   "warning: result cache %s is not writable (%s); %s points "
                   "will not be cached\n",
                   dir_.c_str(), std::strerror(errno), scenario.c_str());
      ns.unwritable = true;
      return;
    }
  }
  std::fputs(line.c_str(), ns.append);
  std::fputc('\n', ns.append);
  std::fflush(ns.append);  // durable the moment the point finishes
  ns.lines[key] = line;
}

std::size_t ResultCache::size(const std::string& scenario) {
  std::lock_guard<std::mutex> lock(mu_);
  return load(scenario).lines.size();
}

}  // namespace mixnet::exp
