// Test support: the ad-hoc statement mix of the repository benchmark —
// Table-5 generator statements (harness/workload.h), stratified by
// predicate count and aggregate — as SQL text.
#ifndef PAIRWISEHIST_TESTS_STATEMENT_POOL_H_
#define PAIRWISEHIST_TESTS_STATEMENT_POOL_H_

#include <cstdint>
#include <iterator>
#include <string>
#include <vector>

#include "harness/workload.h"
#include "storage/table.h"

namespace pairwisehist {

/// `per_stratum` statements for every (1-5 predicates, aggregate) stratum:
/// 35 * per_stratum statements (fewer only if the table cannot support a
/// stratum's selectivity floor).
inline std::vector<std::string> StatementPool(const Table& table,
                                              uint64_t seed,
                                              size_t per_stratum) {
  const AggFunc kFuncs[] = {AggFunc::kCount, AggFunc::kSum,    AggFunc::kAvg,
                            AggFunc::kMin,   AggFunc::kMax,    AggFunc::kMedian,
                            AggFunc::kVar};
  std::vector<std::string> pool;
  for (int k = 1; k <= 5; ++k) {
    for (size_t f = 0; f < std::size(kFuncs); ++f) {
      WorkloadConfig c = ScaledWorkloadConfig(seed * 1000 + k * 10 + f);
      c.num_queries = per_stratum;
      c.min_predicates = c.max_predicates = k;
      c.functions = {kFuncs[f]};
      auto queries = GenerateWorkload(table, c);
      if (!queries.ok()) continue;
      for (const Query& q : queries.value()) pool.push_back(q.ToSql());
    }
  }
  return pool;
}

}  // namespace pairwisehist

#endif  // PAIRWISEHIST_TESTS_STATEMENT_POOL_H_
