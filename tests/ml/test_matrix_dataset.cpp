#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <vector>

#include "ml/dataset.hpp"
#include "ml/matrix.hpp"

namespace gsight::ml {
namespace {

TEST(Matrix, ConstructionAndIndexing) {
  Matrix m(2, 3, 1.5);
  EXPECT_EQ(m.rows(), 2u);
  EXPECT_EQ(m.cols(), 3u);
  EXPECT_DOUBLE_EQ(m(1, 2), 1.5);
  m(0, 1) = 7.0;
  EXPECT_DOUBLE_EQ(m(0, 1), 7.0);
  EXPECT_DOUBLE_EQ(m.row(0)[1], 7.0);
}

TEST(Matrix, PushRowDefinesColumns) {
  Matrix m;
  const double r0[] = {1.0, 2.0};
  m.push_row(r0);
  EXPECT_EQ(m.rows(), 1u);
  EXPECT_EQ(m.cols(), 2u);
  const double r1[] = {3.0, 4.0};
  m.push_row(r1);
  EXPECT_DOUBLE_EQ(m(1, 1), 4.0);
}

TEST(Matrix, MatvecKnown) {
  Matrix m(2, 3);
  // [[1,2,3],[4,5,6]] * [1,1,1] = [6,15]
  for (std::size_t c = 0; c < 3; ++c) {
    m(0, c) = static_cast<double>(c + 1);
    m(1, c) = static_cast<double>(c + 4);
  }
  const std::vector<double> x{1.0, 1.0, 1.0};
  const auto y = m.matvec(x);
  EXPECT_EQ(y, (std::vector<double>{6.0, 15.0}));
}

TEST(Matrix, MatvecTransposedKnown) {
  Matrix m(2, 3);
  for (std::size_t c = 0; c < 3; ++c) {
    m(0, c) = static_cast<double>(c + 1);
    m(1, c) = static_cast<double>(c + 4);
  }
  const std::vector<double> x{1.0, 2.0};
  // M^T x = [1+8, 2+10, 3+12] = [9, 12, 15]
  EXPECT_EQ(m.matvec_transposed(x), (std::vector<double>{9.0, 12.0, 15.0}));
}

TEST(Matrix, DotAndDistance) {
  const std::vector<double> a{1.0, 2.0, 3.0};
  const std::vector<double> b{4.0, 5.0, 6.0};
  EXPECT_DOUBLE_EQ(dot(a, b), 32.0);
  EXPECT_DOUBLE_EQ(squared_distance(a, b), 27.0);
}

TEST(Dataset, AddAndAccess) {
  Dataset d(2);
  d.add(std::vector<double>{1.0, 2.0}, 10.0);
  d.add(std::vector<double>{3.0, 4.0}, 20.0);
  EXPECT_EQ(d.size(), 2u);
  EXPECT_EQ(d.feature_count(), 2u);
  EXPECT_DOUBLE_EQ(d.x(1)[0], 3.0);
  EXPECT_DOUBLE_EQ(d.y(0), 10.0);
}

TEST(Dataset, AppendConcatenates) {
  Dataset a(1), b(1);
  a.add(std::vector<double>{1.0}, 1.0);
  b.add(std::vector<double>{2.0}, 2.0);
  b.add(std::vector<double>{3.0}, 3.0);
  a.append(b);
  EXPECT_EQ(a.size(), 3u);
  EXPECT_DOUBLE_EQ(a.y(2), 3.0);
}

TEST(Dataset, SubsetSelectsRows) {
  Dataset d(1);
  for (int i = 0; i < 5; ++i) {
    d.add(std::vector<double>{static_cast<double>(i)}, i * 10.0);
  }
  const std::vector<std::size_t> idx{4, 0, 4};
  const auto s = d.subset(idx);
  EXPECT_EQ(s.size(), 3u);
  EXPECT_DOUBLE_EQ(s.y(0), 40.0);
  EXPECT_DOUBLE_EQ(s.y(1), 0.0);
  EXPECT_DOUBLE_EQ(s.y(2), 40.0);  // repetition allowed (bootstrap)
}

TEST(Dataset, HeadTruncates) {
  Dataset d(1);
  for (int i = 0; i < 5; ++i) {
    d.add(std::vector<double>{0.0}, static_cast<double>(i));
  }
  EXPECT_EQ(d.head(3).size(), 3u);
  EXPECT_EQ(d.head(99).size(), 5u);
}

TEST(Dataset, SplitPartitions) {
  Dataset d(1);
  for (int i = 0; i < 100; ++i) {
    d.add(std::vector<double>{static_cast<double>(i)}, static_cast<double>(i));
  }
  stats::Rng rng(3);
  const auto [train, test] = d.split(0.8, rng);
  EXPECT_EQ(train.size(), 80u);
  EXPECT_EQ(test.size(), 20u);
  // Every label appears exactly once across the two parts.
  std::vector<int> seen(100, 0);
  for (std::size_t i = 0; i < train.size(); ++i) {
    ++seen[static_cast<int>(train.y(i))];
  }
  for (std::size_t i = 0; i < test.size(); ++i) {
    ++seen[static_cast<int>(test.y(i))];
  }
  for (int c : seen) EXPECT_EQ(c, 1);
}

TEST(Dataset, ShufflePreservesPairs) {
  Dataset d(1);
  for (int i = 0; i < 50; ++i) {
    d.add(std::vector<double>{static_cast<double>(i)}, i * 2.0);
  }
  stats::Rng rng(7);
  d.shuffle(rng);
  EXPECT_EQ(d.size(), 50u);
  for (std::size_t i = 0; i < d.size(); ++i) {
    EXPECT_DOUBLE_EQ(d.y(i), d.x(i)[0] * 2.0);  // pairing intact
  }
}

// --- ColumnStore constant-column flags --------------------------------------

TEST(ColumnStore, ConstantFlagSurvivesGeometricRegrowth) {
  // Column 0 constant, column 1 counting up: one sync per row crosses
  // several capacity doublings, each of which re-packs the columns.
  Matrix m(0, 2);
  ColumnStore store;
  for (int i = 0; i < 100; ++i) {
    m.push_row(std::vector<double>{3.5, static_cast<double>(i)});
    store.sync(m);
    ASSERT_TRUE(store.constant(0)) << "after row " << i;
    EXPECT_EQ(store.constant(1), i == 0) << "after row " << i;
  }
  ASSERT_EQ(store.rows(), 100u);
  for (std::size_t r = 0; r < store.rows(); ++r) {
    EXPECT_EQ(store.column(0)[r], 3.5);
    EXPECT_EQ(store.column(1)[r], static_cast<double>(r));
  }
}

TEST(ColumnStore, ConstantFlagClearsWhenALaterSyncDiffers) {
  Dataset d(3);
  for (int i = 0; i < 10; ++i) d.add(std::vector<double>{0.0, 1.0, 2.0}, 0.0);
  EXPECT_TRUE(d.columns().constant(0));
  EXPECT_TRUE(d.columns().constant(1));
  EXPECT_TRUE(d.columns().constant(2));
  // A padded slot turning live: only its column changes.
  d.add(std::vector<double>{0.0, 1.25, 2.0}, 0.0);
  d.add(std::vector<double>{0.0, 1.0, 2.0}, 0.0);
  EXPECT_TRUE(d.columns().constant(0));
  EXPECT_FALSE(d.columns().constant(1));
  EXPECT_TRUE(d.columns().constant(2));
}

TEST(ColumnStore, SignedZerosStayConstant) {
  // +0.0 == -0.0, and a split search sees one value in such a column.
  Matrix m(0, 1);
  ColumnStore store;
  m.push_row(std::vector<double>{-0.0});
  m.push_row(std::vector<double>{0.0});
  store.sync(m);
  m.push_row(std::vector<double>{-0.0});
  store.sync(m);
  EXPECT_TRUE(store.constant(0));
}

TEST(ColumnStore, NanColumnIsNeverConstant) {
  constexpr double kNan = std::numeric_limits<double>::quiet_NaN();
  Matrix m(0, 4);
  m.push_row(std::vector<double>{kNan, 1.0, kNan, 1.0});
  ColumnStore store;
  store.sync(m);
  EXPECT_FALSE(store.constant(0));  // a lone NaN row
  EXPECT_FALSE(store.constant(2));
  EXPECT_TRUE(store.constant(1));
  m.push_row(std::vector<double>{kNan, kNan, kNan, 1.0});
  store.sync(m);
  EXPECT_FALSE(store.constant(0));  // all NaN
  EXPECT_FALSE(store.constant(1));  // NaN after a value
  EXPECT_FALSE(store.constant(2));
  EXPECT_TRUE(store.constant(3));
}

TEST(ColumnStore, WidthChangeResetsEveryFlag) {
  Matrix narrow(0, 2);
  narrow.push_row(std::vector<double>{1.0, 1.0});
  narrow.push_row(std::vector<double>{2.0, 1.0});
  ColumnStore store;
  store.sync(narrow);
  ASSERT_FALSE(store.constant(0));
  ASSERT_TRUE(store.constant(1));

  Matrix wide(0, 3);
  wide.push_row(std::vector<double>{5.0, 6.0, 7.0});
  wide.push_row(std::vector<double>{5.0, 6.5, 7.0});
  store.sync(wide);
  EXPECT_EQ(store.feature_count(), 3u);
  EXPECT_EQ(store.rows(), 2u);
  EXPECT_TRUE(store.constant(0));  // was cleared in the narrow store
  EXPECT_FALSE(store.constant(1));
  EXPECT_TRUE(store.constant(2));
  EXPECT_EQ(store.column(1)[1], 6.5);
}

// --- ColumnStore nonzero bitmaps --------------------------------------------

// Every bit of every column's bitmap against the synced values: set iff
// the value is != 0.0, and clear past rows().
void expect_bitmaps_match(const ColumnStore& store, const char* when) {
  for (std::size_t f = 0; f < store.feature_count(); ++f) {
    const std::uint64_t* bits = store.nonzero_bits(f);
    for (std::size_t r = 0; r < store.bitmap_words() * 64; ++r) {
      const bool set = ((bits[r / 64] >> (r % 64)) & 1u) != 0;
      const bool want = r < store.rows() && store.column(f)[r] != 0.0;
      ASSERT_EQ(set, want) << when << ": column " << f << " row " << r;
    }
  }
}

// Column 0 zero but every 5th row, column 1 ±0.0 alternating, column 2 a
// NaN on row 70 and zero elsewhere, column 3 never zero.
std::vector<double> bitmap_row(std::size_t r) {
  constexpr double kNan = std::numeric_limits<double>::quiet_NaN();
  return {r % 5 == 0 ? 0.5 * static_cast<double>(r + 1) : 0.0,
          r % 2 == 0 ? 0.0 : -0.0, r == 70 ? kNan : 0.0,
          -1.0 - static_cast<double>(r)};
}

TEST(ColumnStore, NonzeroBitmapTracksIncrementalSyncsAndRegrowth) {
  // Syncs of 1, 7 and 30 rows: words fill part way, cross 64-row word
  // boundaries, and the stride doubles several times (re-packing every
  // bitmap).
  Matrix m(0, 4);
  ColumnStore store;
  std::size_t r = 0;
  for (const std::size_t step : {1u, 7u, 30u, 30u, 1u, 60u, 7u}) {
    for (std::size_t k = 0; k < step; ++k, ++r) m.push_row(bitmap_row(r));
    store.sync(m);
    ASSERT_EQ(store.rows(), r);
    expect_bitmaps_match(store, "after sync");
  }
  EXPECT_EQ(store.bitmap_words(), (r + 63) / 64);
  EXPECT_FALSE(store.constant(2));  // the NaN row
}

TEST(ColumnStore, NonzeroBitmapIsRebuiltAfterAShrink) {
  Matrix long_source(0, 4);
  for (std::size_t r = 0; r < 130; ++r) long_source.push_row(bitmap_row(r));
  ColumnStore store;
  store.sync(long_source);
  expect_bitmaps_match(store, "long source");

  // A shorter source of different rows: the store rebuilds, and no bit of
  // the old rows survives.
  Matrix short_source(0, 4);
  for (std::size_t r = 0; r < 9; ++r) {
    short_source.push_row(std::vector<double>{0.0, 0.0, 0.0, 0.0});
  }
  short_source.push_row(std::vector<double>{0.0, 3.0, 0.0, 0.0});
  store.sync(short_source);
  ASSERT_EQ(store.rows(), 10u);
  expect_bitmaps_match(store, "after shrink");
  EXPECT_EQ(store.nonzero_bits(0)[0], 0u);
  EXPECT_EQ(store.nonzero_bits(1)[0], std::uint64_t{1} << 9);

  // Appends after the rebuild keep tracking.
  for (std::size_t r = 0; r < 70; ++r) short_source.push_row(bitmap_row(r));
  store.sync(short_source);
  expect_bitmaps_match(store, "after regrowth");
}

}  // namespace
}  // namespace gsight::ml
