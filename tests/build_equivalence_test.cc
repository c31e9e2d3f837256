// Synopsis construction from shared per-column ranks must reproduce the
// per-pair sort-and-search construction byte for byte.
//
// For every generator dataset at three sizes, compressed or not, as one
// segment or as 7000-row segments, each followed by a 500-row append, the
// Db is built with one build thread and with one per core. Every segment's
// Serialize() bytes must equal the reference builder's (tests/oracle/
// reference_build.h) over the same rows, seed and configuration; the whole
// ToBlob() must equal the blob of the same set with every segment replaced
// by its reference build; and the GreedyGD store must hold exactly the
// bytes the bit-by-bit packer writes.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "api/db.h"
#include "datagen/datasets.h"
#include "gd/greedy_gd.h"
#include "gd/preprocess.h"
#include "storage/segment.h"
#include "tests/oracle/reference_build.h"

namespace pairwisehist {
namespace {

constexpr size_t kAppendRows = 500;

struct SweepCase {
  std::string dataset;
  size_t rows = 0;
  bool compress = false;
  size_t segment_rows = 0;  // 0 = one segment
};

std::string CaseName(const testing::TestParamInfo<SweepCase>& info) {
  const SweepCase& c = info.param;
  return c.dataset + "_" + std::to_string(c.rows) +
         (c.compress ? "_gd" : "_raw") +
         (c.segment_rows == 0 ? "_one"
                              : "_seg" + std::to_string(c.segment_rows));
}

std::vector<SweepCase> AllCases() {
  std::vector<SweepCase> cases;
  for (const DatasetSpec& spec : AllDatasets()) {
    for (size_t rows : {500, 3000, 40000}) {
      for (bool compress : {false, true}) {
        for (size_t seg : {0, 7000}) {
          cases.push_back({spec.name, rows, compress, seg});
        }
      }
    }
  }
  return cases;
}

// Reference synopses for every segment `st` seals, with the seeds
// SynopsisSet gives them (cfg.seed + seed_offset + i).
std::vector<PairwiseHist> ReferenceSegments(const SegmentedTable& st,
                                            PairwiseHistConfig cfg,
                                            size_t seed_offset) {
  std::vector<PairwiseHist> out;
  const uint64_t seed = cfg.seed;
  for (size_t i = 0; i < st.NumSegments(); ++i) {
    cfg.seed = seed + seed_offset + i;
    Table rows = st.NumSegments() == 1 ? st.base() : st.Materialize(i);
    auto pre = Preprocess(rows);
    EXPECT_TRUE(pre.ok()) << pre.status().ToString();
    auto ph = oracle::ReferenceBuild::Build(*pre, nullptr, cfg);
    EXPECT_TRUE(ph.ok()) << ph.status().ToString();
    out.push_back(std::move(ph).value());
  }
  return out;
}

class BuildEquivalence : public testing::TestWithParam<SweepCase> {};

TEST_P(BuildEquivalence, MatchesReferenceBuild) {
  const SweepCase& c = GetParam();
  auto table = MakeDataset(c.dataset, c.rows, /*seed=*/7);
  ASSERT_TRUE(table.ok()) << table.status().ToString();
  auto batch = MakeDataset(c.dataset, kAppendRows, /*seed=*/8);
  ASSERT_TRUE(batch.ok()) << batch.status().ToString();

  DbOptions options;
  options.compress = c.compress;
  options.target_segment_rows = c.segment_rows;
  const PairwiseHistConfig& cfg = options.synopsis;

  // ---- Reference synopses for the initial build -------------------------
  std::vector<PairwiseHist> reference;
  auto pre = Preprocess(*table);
  ASSERT_TRUE(pre.ok());
  auto st = SegmentedTable::Partition(&*table, c.segment_rows);
  ASSERT_TRUE(st.ok());
  std::unique_ptr<CompressedTable> gd;
  if (c.compress) {
    auto compressed = CompressedTable::Compress(*pre, options.gd);
    ASSERT_TRUE(compressed.ok());
    gd = std::make_unique<CompressedTable>(std::move(compressed).value());
  }
  if (c.compress && st->NumSegments() == 1) {
    auto ph = oracle::ReferenceBuild::Build(*pre, gd.get(), cfg);
    ASSERT_TRUE(ph.ok());
    reference.push_back(std::move(ph).value());
  } else {
    reference = ReferenceSegments(*st, cfg, 0);
  }
  const size_t initial_segments = reference.size();

  std::vector<uint8_t> blob_serial;
  for (unsigned threads : {1u, 0u}) {
    SCOPED_TRACE("build_threads " + std::to_string(threads));
    options.build_threads = threads;
    auto db = Db::FromTable(*table, options);
    ASSERT_TRUE(db.ok()) << db.status().ToString();
    ASSERT_TRUE(db->Append(*batch).ok());
    const SynopsisSet& set = db->synopses();

    if (reference.size() == initial_segments) {
      // The appended rows, as the Db canonicalized and kept them.
      Table appended = db->table()->Slice(c.rows, c.rows + kAppendRows);
      appended.set_name(table->name());
      auto ast = SegmentedTable::Partition(&appended, c.segment_rows);
      ASSERT_TRUE(ast.ok());
      for (PairwiseHist& ph :
           ReferenceSegments(*ast, cfg, initial_segments)) {
        reference.push_back(std::move(ph));
      }
    }

    ASSERT_EQ(set.NumSegments(), reference.size());
    SynopsisSet replaced = set.Share();
    for (size_t s = 0; s < set.NumSegments(); ++s) {
      SCOPED_TRACE("segment " + std::to_string(s));
      EXPECT_EQ(set.synopsis(s).Serialize(), reference[s].Serialize());
      ASSERT_TRUE(replaced
                      .ReplaceRun(s, s + 1,
                                  std::make_shared<PairwiseHist>(reference[s]),
                                  set.meta(s))
                      .ok());
    }
    const std::vector<uint8_t> blob = db->ToBlob();
    EXPECT_EQ(blob, replaced.Serialize());
    if (threads == 1) {
      blob_serial = blob;
    } else {
      EXPECT_EQ(blob, blob_serial);
    }

    if (!c.compress) continue;
    // ---- GreedyGD store ---------------------------------------------------
    const CompressedTable* store = db->compressed();
    ASSERT_NE(store, nullptr);
    auto more =
        ApplyTransforms(db->table()->Slice(c.rows, c.rows + kAppendRows),
                        store->transforms());
    ASSERT_TRUE(more.ok());
    PreprocessedTable all = *pre;
    for (size_t col = 0; col < all.NumColumns(); ++col) {
      all.codes[col].insert(all.codes[col].end(), more->codes[col].begin(),
                            more->codes[col].end());
    }
    std::vector<int> deviation_bits;
    for (size_t col = 0; col < store->num_columns(); ++col) {
      deviation_bits.push_back(store->deviation_bits(col));
    }
    oracle::GdStores expected = oracle::ReferenceGdStores(all, deviation_bits);
    const auto ids = store->base_id_bytes();
    const auto devs = store->deviation_bytes();
    EXPECT_EQ(std::vector<uint8_t>(ids.begin(), ids.end()), expected.base_ids);
    EXPECT_EQ(std::vector<uint8_t>(devs.begin(), devs.end()),
              expected.deviations);
    EXPECT_EQ(store->DecompressCodes().codes, all.codes);
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, BuildEquivalence,
                         testing::ValuesIn(AllCases()), CaseName);

}  // namespace
}  // namespace pairwisehist
