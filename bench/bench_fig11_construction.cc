// Reproduces Fig. 11(d): synopsis construction time per method at two
// sample sizes on the scaled datasets.
//
// Paper headline: PairwiseHist builds 1.2-4x faster than DeepDB and more
// than two orders of magnitude faster than DBEst++ (<3 min at 1m samples
// vs 30+ hours).
//
// Before the method table, each dataset prints the two timings behind the
// README "Construction" stage table, on the generator's table (the one the
// perfbench workloads build; seed 1) rather than the scaled one: the
// per-column ranks (`ColumnRanks`) over the build's 100k-row sample, and
// one GD-seeded `PairwiseHist::Build` with build_threads = 1, each the
// minimum of 5 runs. Pin to one CPU to reproduce the table:
//   taskset -c 0 build/bench_fig11_construction
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <limits>

#include "bench/bench_util.h"
#include "core/pairwise_hist.h"
#include "gd/greedy_gd.h"
#include "gd/preprocess.h"
#include "hist/histogram.h"

using namespace pairwisehist;
using namespace pairwisehist::bench;

namespace {

constexpr int kStageRuns = 5;
constexpr uint64_t kStageTableSeed = 1;

void PrintBuildStages(const Table& table) {
  auto pre = Preprocess(table);
  if (!pre.ok()) {
    std::fprintf(stderr, "preprocess failed: %s\n",
                 pre.status().ToString().c_str());
    return;
  }
  auto gd = CompressedTable::Compress(*pre);
  if (!gd.ok()) {
    std::fprintf(stderr, "compress failed: %s\n",
                 gd.status().ToString().c_str());
    return;
  }
  const PreprocessedTable codes = gd->DecompressCodes();
  PairwiseHistConfig cfg;
  cfg.build_threads = 1;
  const std::vector<uint32_t> rows =
      SampleRows(codes.NumRows(), cfg.sample_size, cfg.seed);

  double ranks_s = std::numeric_limits<double>::infinity();
  double build_s = ranks_s;
  size_t sorted = 0;
  for (int run = 0; run < kStageRuns; ++run) {
    // The sample's values per column, gathered as Build does, untimed.
    std::vector<std::vector<double>> columns;
    for (const std::vector<uint64_t>& col : codes.codes) {
      std::vector<double>& values = columns.emplace_back(rows.size());
      for (size_t p = 0; p < rows.size(); ++p) {
        const uint64_t code = col[rows[p]];
        values[p] = code == kMissingCode ? std::nan("")
                                         : static_cast<double>(code);
      }
    }
    double t0 = NowSeconds();
    for (std::vector<double>& values : columns) {
      sorted += ColumnRanks(std::move(values)).order.size();
    }
    ranks_s = std::min(ranks_s, NowSeconds() - t0);

    t0 = NowSeconds();
    auto ph = PairwiseHist::Build(codes, &*gd, cfg);
    build_s = std::min(build_s, NowSeconds() - t0);
    if (!ph.ok()) {
      std::fprintf(stderr, "build failed: %s\n",
                   ph.status().ToString().c_str());
      return;
    }
  }
  std::printf("Build stages, generator table, %zu-row sample, %zu columns "
              "(%zu non-null values), min of %d:\n",
              rows.size(), codes.NumColumns(), sorted / kStageRuns,
              kStageRuns);
  std::printf("  %-36s %9.1f ms\n", "ColumnRanks, all columns",
              ranks_s * 1e3);
  std::printf("  %-36s %9.1f ms\n", "PairwiseHist::Build (GD, 1 thread)",
              build_s * 1e3);
}

}  // namespace

int main() {
  Banner("Fig. 11(d): synopsis construction time");
  const size_t scale_rows = EnvSize("PH_SCALE_ROWS", 200000);
  const size_t queries = EnvSize("PH_QUERIES", 40);
  const size_t ns_large = EnvSize("PH_NS", scale_rows / 10);
  const size_t ns_small = ns_large / 10;

  for (const char* name : {"power", "flights"}) {
    BenchDataset ds = MakeScaledDataset(name, scale_rows, queries, 81);
    if (ds.table.NumRows() == 0) continue;
    std::printf("\n--- %s (%zu rows) ---\n", name, ds.table.NumRows());
    if (auto table = MakeDataset(name, scale_rows, kStageTableSeed);
        table.ok()) {
      PrintBuildStages(*table);
    }
    std::printf("%-26s %14s\n", "Method", "build time");

    BuiltMethod ph_lg = BuildPairwiseHistMethod(ds.table, ns_large);
    std::printf("%-26s %14s\n", "PairwiseHist (large Ns)",
                HumanSeconds(ph_lg.build_seconds).c_str());
    BuiltMethod ph_sm = BuildPairwiseHistMethod(ds.table, ns_small);
    std::printf("%-26s %14s\n", "PairwiseHist (small Ns)",
                HumanSeconds(ph_sm.build_seconds).c_str());
    BuiltMethod spn_lg = BuildSpnMethod(ds.table, ns_large);
    std::printf("%-26s %14s\n", "SPN (large Ns)",
                HumanSeconds(spn_lg.build_seconds).c_str());
    BuiltMethod spn_sm = BuildSpnMethod(ds.table, ns_small);
    std::printf("%-26s %14s\n", "SPN (small Ns)",
                HumanSeconds(spn_sm.build_seconds).c_str());
    BuiltMethod dbest = BuildDbestMethod(ds.table, ds.workload, ns_small);
    std::printf("%-26s %14s  (%zu templates)\n", "DBEst (small Ns)",
                HumanSeconds(dbest.build_seconds).c_str(),
                static_cast<DbestBaseline*>(dbest.method.get())
                    ->num_templates());
    if (ph_lg.build_seconds > 0) {
      std::printf("%-26s %13.1fx\n", "SPN/PH build-time ratio",
                  spn_lg.build_seconds / ph_lg.build_seconds);
      std::printf("%-26s %13.1fx\n", "DBEst/PH build-time ratio",
                  dbest.build_seconds / ph_lg.build_seconds);
    }
  }
  std::printf(
      "\n(paper shape: PH fastest; DBEst slowest by orders of magnitude)\n");
  return 0;
}
