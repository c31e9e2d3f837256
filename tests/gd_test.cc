// Tests for GreedyGD: pre-processing, base/deviation split, lossless
// round trip, random access, incremental append, compression behaviour.
#include <cmath>
#include <set>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "datagen/datasets.h"
#include "gd/greedy_gd.h"
#include "gd/preprocess.h"
#include "tests/oracle/reference_build.h"

namespace pairwisehist {
namespace {

Table MakeMixedTable(size_t rows) {
  Table t("mixed");
  Column f("f", DataType::kFloat64, 2);
  Column i("i", DataType::kInt64, 0);
  Column c("c", DataType::kCategorical, 0);
  for (size_t r = 0; r < rows; ++r) {
    if (r % 7 == 3) {
      f.AppendNull();
    } else {
      f.Append(10.0 + 0.25 * static_cast<double>(r % 40));
    }
    i.Append(static_cast<double>(1000 + (r * 13) % 256));
    c.AppendCategory(r % 3 == 0 ? "common" : (r % 3 == 1 ? "mid" : "rare"));
  }
  t.AddColumn(std::move(f));
  t.AddColumn(std::move(i));
  t.AddColumn(std::move(c));
  return t;
}

// ---------------------------------------------------------------------------
// Pre-processing

TEST(PreprocessTest, FloatToIntegerScaling) {
  Table t("t");
  Column f("f", DataType::kFloat64, 2);
  f.Append(10.22);
  f.Append(10.23);
  f.Append(9.99);
  t.AddColumn(std::move(f));
  auto pre = Preprocess(t);
  ASSERT_TRUE(pre.ok());
  const ColumnTransform& tr = pre->transforms[0];
  EXPECT_DOUBLE_EQ(tr.scale, 100.0);
  EXPECT_EQ(tr.min_scaled, 999);
  // 9.99 -> code 1, 10.22 -> code 24, 10.23 -> code 25.
  EXPECT_EQ(pre->codes[0][0], 24u);
  EXPECT_EQ(pre->codes[0][1], 25u);
  EXPECT_EQ(pre->codes[0][2], 1u);
}

TEST(PreprocessTest, MissingValuesGetCodeZero) {
  Table t("t");
  Column f("f", DataType::kFloat64, 1);
  f.Append(1.0);
  f.AppendNull();
  t.AddColumn(std::move(f));
  auto pre = Preprocess(t);
  ASSERT_TRUE(pre.ok());
  EXPECT_EQ(pre->codes[0][1], kMissingCode);
  EXPECT_GE(pre->codes[0][0], 1u);
}

TEST(PreprocessTest, FrequencyRankedCategoricalEncoding) {
  Table t("t");
  Column c("c", DataType::kCategorical, 0);
  // "b" appears most often, then "a", then "z".
  for (int i = 0; i < 5; ++i) c.AppendCategory("b");
  for (int i = 0; i < 3; ++i) c.AppendCategory("a");
  c.AppendCategory("z");
  t.AddColumn(std::move(c));
  auto pre = Preprocess(t);
  ASSERT_TRUE(pre.ok());
  const ColumnTransform& tr = pre->transforms[0];
  // Most common category gets rank 0 → code 1.
  EXPECT_EQ(pre->codes[0][0], 1u);   // "b"
  EXPECT_EQ(pre->codes[0][5], 2u);   // "a"
  EXPECT_EQ(pre->codes[0][8], 3u);   // "z"
  EXPECT_EQ(tr.EncodeCategory("b").value(), 1u);
  EXPECT_EQ(tr.DecodeCategory(1).value(), "b");
  EXPECT_EQ(tr.DecodeCategory(3).value(), "z");
  EXPECT_FALSE(tr.EncodeCategory("missing").ok());
}

TEST(PreprocessTest, EncodeDecodeRoundTrip) {
  Table t = MakeMixedTable(200);
  auto pre = Preprocess(t);
  ASSERT_TRUE(pre.ok());
  for (size_t c = 0; c < t.NumColumns(); ++c) {
    const ColumnTransform& tr = pre->transforms[c];
    for (size_t r = 0; r < t.NumRows(); r += 7) {
      if (t.column(c).IsNull(r)) {
        EXPECT_EQ(pre->codes[c][r], kMissingCode);
        continue;
      }
      double round_trip = tr.Decode(tr.Encode(t.column(c).Value(r)));
      EXPECT_NEAR(round_trip, t.column(c).Value(r), 1e-9)
          << "col " << c << " row " << r;
    }
  }
}

TEST(PreprocessTest, EncodeContinuousIsMonotonic) {
  Table t = MakeMixedTable(100);
  auto pre = Preprocess(t);
  ASSERT_TRUE(pre.ok());
  const ColumnTransform& tr = pre->transforms[0];  // float column
  EXPECT_LT(tr.EncodeContinuous(10.0), tr.EncodeContinuous(10.01));
  EXPECT_LT(tr.EncodeContinuous(10.221), tr.EncodeContinuous(10.229));
}

TEST(PreprocessTest, InverseTransformReconstructsTable) {
  Table t = MakeMixedTable(150);
  auto pre = Preprocess(t);
  ASSERT_TRUE(pre.ok());
  Table back = InverseTransform(*pre, &t);
  ASSERT_EQ(back.NumRows(), t.NumRows());
  for (size_t c = 0; c < t.NumColumns(); ++c) {
    for (size_t r = 0; r < t.NumRows(); ++r) {
      ASSERT_EQ(back.column(c).IsNull(r), t.column(c).IsNull(r));
      if (!t.column(c).IsNull(r)) {
        ASSERT_NEAR(back.column(c).Value(r), t.column(c).Value(r), 1e-9);
      }
    }
  }
}

TEST(PreprocessTest, BitWidthCoversMaxCode) {
  Table t = MakeMixedTable(500);
  auto pre = Preprocess(t);
  ASSERT_TRUE(pre.ok());
  for (const auto& tr : pre->transforms) {
    EXPECT_LT(tr.max_code, uint64_t{1} << tr.bit_width) << tr.name;
  }
}

TEST(PreprocessTest, ApplyTransformsRejectsSchemaMismatch) {
  Table t = MakeMixedTable(10);
  auto transforms = FitColumnTransforms(t);
  Table other("other");
  Column x("x", DataType::kInt64, 0);
  x.Append(1);
  other.AddColumn(std::move(x));
  EXPECT_FALSE(ApplyTransforms(other, transforms).ok());
}

// ---------------------------------------------------------------------------
// GreedyGD compression

TEST(GreedyGdTest, LosslessRoundTrip) {
  Table t = MakeMixedTable(600);
  auto compressed = CompressTable(t);
  ASSERT_TRUE(compressed.ok()) << compressed.status().ToString();
  Table back = compressed->Decompress(&t);
  ASSERT_EQ(back.NumRows(), t.NumRows());
  for (size_t c = 0; c < t.NumColumns(); ++c) {
    for (size_t r = 0; r < t.NumRows(); ++r) {
      ASSERT_EQ(back.column(c).IsNull(r), t.column(c).IsNull(r))
          << "col " << c << " row " << r;
      if (!t.column(c).IsNull(r)) {
        ASSERT_NEAR(back.column(c).Value(r), t.column(c).Value(r), 1e-9)
            << "col " << c << " row " << r;
      }
    }
  }
}

TEST(GreedyGdTest, RandomAccessMatchesFullDecompress) {
  Table t = MakeMixedTable(300);
  auto compressed = CompressTable(t);
  ASSERT_TRUE(compressed.ok());
  PreprocessedTable codes = compressed->DecompressCodes();
  for (size_t r = 0; r < t.NumRows(); r += 17) {
    auto row = compressed->GetRowCodes(r);
    ASSERT_TRUE(row.ok());
    for (size_t c = 0; c < t.NumColumns(); ++c) {
      EXPECT_EQ(row.value()[c], codes.codes[c][r]) << r << "," << c;
    }
  }
  EXPECT_FALSE(compressed->GetRowCodes(t.NumRows()).ok());
}

TEST(GreedyGdTest, DeduplicationReducesBases) {
  // Highly repetitive data: few distinct rows → few bases.
  Table t("rep");
  Column a("a", DataType::kInt64, 0);
  Column b("b", DataType::kInt64, 0);
  for (int r = 0; r < 2000; ++r) {
    a.Append(r % 4);
    b.Append((r % 4) * 100);
  }
  t.AddColumn(std::move(a));
  t.AddColumn(std::move(b));
  auto compressed = CompressTable(t);
  ASSERT_TRUE(compressed.ok());
  EXPECT_LT(compressed->num_bases(), 20u);
  EXPECT_EQ(compressed->num_rows(), 2000u);
}

TEST(GreedyGdTest, CompressionBeatsRawOnSensorData) {
  Table t = MakePower(10000, 21);
  auto compressed = CompressTable(t);
  ASSERT_TRUE(compressed.ok());
  EXPECT_LT(compressed->CompressedSizeBytes(), t.RawSizeBytes())
      << "compressed " << compressed->CompressedSizeBytes() << " vs raw "
      << t.RawSizeBytes();
}

TEST(GreedyGdTest, AppendAddsRowsAndKeepsOldOnes) {
  Table t = MakeMixedTable(200);
  auto transforms = FitColumnTransforms(t);
  auto pre = ApplyTransforms(t, transforms);
  ASSERT_TRUE(pre.ok());
  auto compressed = CompressedTable::Compress(*pre);
  ASSERT_TRUE(compressed.ok());
  size_t before = compressed->num_rows();

  Table more = MakeMixedTable(100);
  auto pre_more = ApplyTransforms(more, transforms);
  ASSERT_TRUE(pre_more.ok());
  ASSERT_TRUE(compressed->Append(*pre_more).ok());
  EXPECT_EQ(compressed->num_rows(), before + 100);

  // Old rows unchanged.
  auto row = compressed->GetRowCodes(5);
  ASSERT_TRUE(row.ok());
  EXPECT_EQ(row.value()[0], pre->codes[0][5]);
  // New rows present.
  auto new_row = compressed->GetRowCodes(before + 5);
  ASSERT_TRUE(new_row.ok());
  EXPECT_EQ(new_row.value()[0], pre_more->codes[0][5]);
}

TEST(GreedyGdTest, AppendRejectsWrongSchema) {
  Table t = MakeMixedTable(50);
  auto compressed = CompressTable(t);
  ASSERT_TRUE(compressed.ok());
  PreprocessedTable bad;
  bad.codes.resize(1);
  EXPECT_FALSE(compressed->Append(bad).ok());
}

TEST(GreedyGdTest, BaseValuesAreSortedDistinctLowerEdges) {
  Table t = MakePower(5000, 22);
  auto compressed = CompressTable(t);
  ASSERT_TRUE(compressed.ok());
  for (size_t c = 0; c < compressed->num_columns(); ++c) {
    auto bases = compressed->ColumnBaseValues(c);
    ASSERT_FALSE(bases.empty());
    for (size_t i = 1; i < bases.size(); ++i) {
      ASSERT_LT(bases[i - 1], bases[i]);
    }
    // Base-aligned: multiples of 2^deviation_bits.
    int dev = compressed->deviation_bits(c);
    for (uint64_t v : bases) {
      ASSERT_EQ(v & ((uint64_t{1} << dev) - 1), 0u);
    }
  }
}

TEST(GreedyGdTest, BaseBitsPlusDeviationBitsIsTotal) {
  Table t = MakeMixedTable(500);
  auto compressed = CompressTable(t);
  ASSERT_TRUE(compressed.ok());
  for (size_t c = 0; c < compressed->num_columns(); ++c) {
    EXPECT_EQ(compressed->base_bits(c) + compressed->deviation_bits(c),
              compressed->total_bits(c));
    EXPECT_GE(compressed->base_bits(c), 0);
    EXPECT_GE(compressed->deviation_bits(c), 0);
  }
}

TEST(GreedyGdTest, MinDeviationBitsRespected) {
  Table t = MakeMixedTable(500);
  auto pre = Preprocess(t);
  ASSERT_TRUE(pre.ok());
  GdConfig config;
  config.min_deviation_bits = 3;
  auto compressed = CompressedTable::Compress(*pre, config);
  ASSERT_TRUE(compressed.ok());
  for (size_t c = 0; c < compressed->num_columns(); ++c) {
    int expected_floor =
        std::min(3, compressed->total_bits(c));
    EXPECT_GE(compressed->deviation_bits(c), expected_floor > 0 ? 0 : 0);
    if (compressed->total_bits(c) >= 3) {
      EXPECT_GE(compressed->deviation_bits(c), 3) << "col " << c;
    }
  }
}

TEST(GreedyGdTest, ManyBasesTriggersIdFieldGrowth) {
  // The greedy bit search sees only a strided sample: every second row
  // here. The sampled rows share their high bits, so the search moves those
  // bits into the base. The skipped rows vary them, so the full pass interns
  // over 256 bases and must repack the initial 8-bit base-ID field.
  Table t("skip");
  Column a("a", DataType::kInt64, 0);
  for (int64_t r = 0; r < 4096; ++r) {
    a.Append(r % 2 == 0 ? (int64_t{7} << 12) | r : (r / 2) << 12);
  }
  t.AddColumn(std::move(a));
  GdConfig config;
  config.greedy_sample_rows = 2048;
  auto compressed = CompressTable(t, config);
  ASSERT_TRUE(compressed.ok()) << compressed.status().ToString();
  ASSERT_GT(compressed->num_bases(), 256u);
  // More than one byte of base ID per row: the field grew past 8 bits.
  EXPECT_GT(compressed->base_id_bytes().size(), t.NumRows());
  Table back = compressed->Decompress(&t);
  ASSERT_EQ(back.NumRows(), t.NumRows());
  for (size_t r = 0; r < t.NumRows(); ++r) {
    ASSERT_EQ(back.column(0).Value(r), t.column(0).Value(r)) << "row " << r;
  }
}

TEST(GreedyGdTest, WideFieldsMatchBitByBitPacking) {
  // Fields of 1 to 63 bits at every bit offset, including the ones that
  // span nine bytes, built and then appended to: the packed streams must
  // equal the bit-by-bit packer's and decode back. The last three columns
  // hold one high-bit value in the first 1000 rows, which the greedy
  // search puts in the base, and 500 in the appended rows, which outgrow
  // the 8-bit base-ID field and repack it.
  const std::vector<int> widths = {1, 7, 33, 58, 63, 61, 13, 16, 16, 16};
  PreprocessedTable pre;
  pre.name = "wide";
  Rng rng(31);
  for (size_t c = 0; c < widths.size(); ++c) {
    ColumnTransform tr;
    tr.name = "w" + std::to_string(c);
    tr.type = DataType::kInt64;
    tr.bit_width = widths[c];
    tr.max_code = (uint64_t{1} << widths[c]) - 1;
    pre.transforms.push_back(tr);
    std::vector<uint64_t> codes(3000);
    for (size_t r = 0; r < codes.size(); ++r) {
      const uint64_t high = r < 1000 ? 5 : (r * 7919) % 500;
      codes[r] = c < 7 ? rng.Next() & tr.max_code
                       : high << 7 | (rng.Next() & 127);
    }
    pre.codes.push_back(std::move(codes));
  }
  GdConfig config;
  config.min_deviation_bits = 5;
  PreprocessedTable head = pre, tail = pre;
  for (size_t c = 0; c < widths.size(); ++c) {
    head.codes[c].resize(1000);
    tail.codes[c].erase(tail.codes[c].begin(), tail.codes[c].begin() + 1000);
  }
  auto compressed = CompressedTable::Compress(head, config);
  ASSERT_TRUE(compressed.ok()) << compressed.status().ToString();
  ASSERT_LE(compressed->num_bases(), 256u);
  ASSERT_TRUE(compressed->Append(tail).ok());
  ASSERT_GT(compressed->num_bases(), 256u);

  std::vector<int> deviation_bits;
  for (size_t c = 0; c < widths.size(); ++c) {
    deviation_bits.push_back(compressed->deviation_bits(c));
  }
  oracle::GdStores expected = oracle::ReferenceGdStores(pre, deviation_bits);
  const auto ids = compressed->base_id_bytes();
  const auto devs = compressed->deviation_bytes();
  EXPECT_EQ(std::vector<uint8_t>(ids.begin(), ids.end()), expected.base_ids);
  EXPECT_EQ(std::vector<uint8_t>(devs.begin(), devs.end()),
            expected.deviations);
  EXPECT_EQ(compressed->DecompressCodes().codes, pre.codes);
  auto row = compressed->GetRowCodes(2999);
  ASSERT_TRUE(row.ok());
  for (size_t c = 0; c < widths.size(); ++c) {
    EXPECT_EQ((*row)[c], pre.codes[c][2999]);
  }
}

// Lossless round trip across all 11 datasets (property sweep).
class GdDatasetRoundTrip : public ::testing::TestWithParam<DatasetSpec> {};

TEST_P(GdDatasetRoundTrip, Lossless) {
  auto t = MakeDataset(GetParam().name, 1500, 13);
  ASSERT_TRUE(t.ok());
  auto compressed = CompressTable(*t);
  ASSERT_TRUE(compressed.ok()) << compressed.status().ToString();
  Table back = compressed->Decompress(&t.value());
  ASSERT_EQ(back.NumRows(), t->NumRows());
  for (size_t c = 0; c < t->NumColumns(); ++c) {
    for (size_t r = 0; r < t->NumRows(); r += 23) {
      ASSERT_EQ(back.column(c).IsNull(r), t->column(c).IsNull(r))
          << GetParam().name << " col " << c << " row " << r;
      if (!t->column(c).IsNull(r)) {
        ASSERT_NEAR(back.column(c).Value(r), t->column(c).Value(r), 1e-9)
            << GetParam().name << " col " << c << " row " << r;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllDatasets, GdDatasetRoundTrip, ::testing::ValuesIn(AllDatasets()),
    [](const ::testing::TestParamInfo<DatasetSpec>& info) {
      return info.param.name;
    });

}  // namespace
}  // namespace pairwisehist
