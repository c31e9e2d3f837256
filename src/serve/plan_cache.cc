#include "serve/plan_cache.h"

#include <algorithm>
#include <functional>
#include <utility>

#include "query/sql_parser.h"

namespace pairwisehist {

PlanCache::PlanCache(size_t capacity, size_t shards) {
  const size_t n = std::max<size_t>(1, shards);
  per_shard_capacity_ = std::max<size_t>(1, capacity / n);
  shards_.reserve(n);
  alias_shards_.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    shards_.push_back(std::make_unique<Shard>());
    alias_shards_.push_back(std::make_unique<AliasShard>());
  }
}

PlanCache::Shard& PlanCache::ShardFor(const std::string& key) {
  return *shards_[std::hash<std::string>{}(key) % shards_.size()];
}

PlanCache::AliasShard& PlanCache::AliasShardFor(const std::string& raw) {
  return *alias_shards_[std::hash<std::string>{}(raw) % alias_shards_.size()];
}

std::shared_ptr<const PreparedQuery> PlanCache::FindCached(
    const std::shared_ptr<const DbSnapshot>& snap, const std::string& key,
    bool* hit) {
  Shard& shard = ShardFor(key);
  std::lock_guard<std::mutex> lock(shard.mu);
  auto it = shard.entries.find(key);
  // Same snapshot object == same epoch: plans prepared against an older
  // (or newer) snapshot are not reusable for this request.
  if (it == shard.entries.end() || it->second.snap.get() != snap.get()) {
    return nullptr;
  }
  it->second.last_used = ++shard.tick;
  if (hit != nullptr) *hit = true;
  return it->second.pq;  // shared; the entry keeps pinning the snapshot
}

StatusOr<std::shared_ptr<const PreparedQuery>> PlanCache::Get(
    const std::shared_ptr<const DbSnapshot>& snap, const std::string& sql,
    bool* hit) {
  if (hit != nullptr) *hit = false;
  if (snap == nullptr) return Status::Internal("PlanCache: null snapshot");

  // Fast path: the exact request text was seen before, so the normalized
  // key is known without parsing. It is read in place under the alias
  // lock (alias -> shard, the order the miss path below takes too); only
  // a stale entry copies it, to re-prepare.
  std::string key;
  {
    AliasShard& alias = AliasShardFor(sql);
    std::lock_guard<std::mutex> lock(alias.mu);
    auto it = alias.map.find(sql);
    if (it != alias.map.end()) {
      if (std::shared_ptr<const PreparedQuery> cached =
              FindCached(snap, it->second, hit)) {
        return cached;
      }
      key = it->second;
    }
  }

  // Parse: the normalized round-trip SQL is the cache key, so syntactic
  // variants ("where x>1" vs "WHERE x > 1.0") share one entry.
  PH_ASSIGN_OR_RETURN(Query query, ParseSql(sql));
  if (key.empty()) {
    key = query.ToSql();
    AliasShard& alias = AliasShardFor(sql);
    std::lock_guard<std::mutex> lock(alias.mu);
    // Bound the alias index; wholesale reset is fine — aliases repopulate
    // on the next request and carry no pinned state.
    if (alias.map.size() >= 4 * per_shard_capacity_) alias.map.clear();
    alias.map.emplace(sql, key);
    // The normalized entry may exist already (inserted under a different
    // raw spelling).
    if (std::shared_ptr<const PreparedQuery> cached =
            FindCached(snap, key, hit)) {
      return cached;
    }
  }

  // Miss: prepare outside the shard lock (grid selection can take a
  // while), then publish. Concurrent misses on the same key may prepare
  // twice; the last insert wins, which is harmless — plans are
  // deterministic for a given (query, snapshot).
  PH_ASSIGN_OR_RETURN(PreparedQuery prepared,
                      snap->db.Prepare(std::move(query)));
  auto pq = std::make_shared<const PreparedQuery>(std::move(prepared));
  {
    Shard& shard = ShardFor(key);
    std::lock_guard<std::mutex> lock(shard.mu);
    auto it = shard.entries.find(key);  // a stale epoch is replaced in place
    if (it == shard.entries.end()) {
      if (shard.entries.size() >= per_shard_capacity_) {
        shard.entries.erase(std::min_element(
            shard.entries.begin(), shard.entries.end(),
            [](const auto& a, const auto& b) {
              return a.second.last_used < b.second.last_used;
            }));
      }
      it = shard.entries.emplace(std::move(key), Entry{}).first;
    }
    it->second.snap = snap;
    it->second.pq = pq;
    it->second.last_used = ++shard.tick;
  }
  return pq;
}

void PlanCache::Clear() {
  for (auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mu);
    shard->entries.clear();
  }
}

size_t PlanCache::size() const {
  size_t n = 0;
  for (const auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mu);
    n += shard->entries.size();
  }
  return n;
}

}  // namespace pairwisehist
