// Sharded LRU cache of prepared plans, keyed by normalized SQL.
//
// Preparation (parse → normalize → per-segment grid selection) is the
// expensive part of a sub-millisecond query; the cache makes repeated
// dashboard statements pay it once per snapshot epoch. Every entry pins
// the snapshot it was prepared against and matches by snapshot POINTER
// identity, so a cached plan can never dangle or read a retired segment:
// after an append OR a compaction swaps the serving snapshot (a compaction
// keeps the epoch but replaces segments — pointer identity catches what an
// epoch compare would miss), lookups against the new snapshot miss and
// lazily re-prepare, exactly like SegmentedPlan's own lazy extension — the
// old entry's pinned snapshot is released when the entry is replaced or
// evicted.
//
// Entries hold one immutable plan behind a shared_ptr: a hit hands out a
// reference to it (no copy of the Query AST or the key), looked up through
// a per-shard hash map, so a steady-state hit allocates nothing.
#ifndef PAIRWISEHIST_SERVE_PLAN_CACHE_H_
#define PAIRWISEHIST_SERVE_PLAN_CACHE_H_

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/status.h"
#include "serve/snapshot.h"

namespace pairwisehist {

class PlanCache {
 public:
  /// `capacity` entries total, spread over `shards` independently locked
  /// shards (lock contention is per-shard).
  explicit PlanCache(size_t capacity = 1024, size_t shards = 8);

  /// Returns a statement prepared against `snap`, reusing a cached plan
  /// when one exists for the same normalized SQL and the same snapshot.
  /// On a miss (or an epoch mismatch after an append) the statement is
  /// parsed and prepared outside the shard lock, then inserted. `*hit`
  /// reports whether the plan came from the cache.
  ///
  /// The plan is shared and immutable: a hit returns the cached entry's
  /// own plan (a reference-count increment, no copy and no allocation),
  /// which stays alive after the entry is evicted or replaced. It reads
  /// `snap`'s Db, so execute it only while holding `snap`.
  ///
  /// A raw-text alias index (exact request string -> normalized key)
  /// fronts the normalized lookup: dashboards resend byte-identical SQL,
  /// so steady-state hits skip the parse entirely. Aliases are
  /// snapshot-independent (parsing doesn't depend on data), so appends
  /// never invalidate them.
  StatusOr<std::shared_ptr<const PreparedQuery>> Get(
      const std::shared_ptr<const DbSnapshot>& snap, const std::string& sql,
      bool* hit);

  /// Drops every entry (and the snapshot references they pin).
  void Clear();

  /// Live entries across all shards (for tests / stats).
  size_t size() const;

 private:
  struct Entry {
    std::shared_ptr<const DbSnapshot> snap;  ///< pins plan validity
    std::shared_ptr<const PreparedQuery> pq;
    uint64_t last_used = 0;
  };
  struct Shard {
    mutable std::mutex mu;
    /// Normalized SQL (Query::ToSql) -> entry.
    std::unordered_map<std::string, Entry> entries;
    uint64_t tick = 0;  ///< shard-local LRU clock
  };

  struct AliasShard {
    mutable std::mutex mu;
    std::unordered_map<std::string, std::string> map;  ///< raw -> normalized
  };

  Shard& ShardFor(const std::string& key);
  AliasShard& AliasShardFor(const std::string& raw);
  /// The cached plan for (snap, normalized key), or null. Takes the
  /// key's shard lock; callers holding an alias lock keep the alias ->
  /// shard order.
  std::shared_ptr<const PreparedQuery> FindCached(
      const std::shared_ptr<const DbSnapshot>& snap, const std::string& key,
      bool* hit);

  size_t per_shard_capacity_;
  std::vector<std::unique_ptr<Shard>> shards_;
  std::vector<std::unique_ptr<AliasShard>> alias_shards_;
};

}  // namespace pairwisehist

#endif  // PAIRWISEHIST_SERVE_PLAN_CACHE_H_
