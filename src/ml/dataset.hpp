// Supervised-regression dataset: a feature matrix plus a target vector.
// Supports the operations the incremental learners need: append, subset,
// shuffle/split, and growing sample buffers. A lazily built feature-major
// mirror (ColumnStore) backs the columnar tree-training fast path, and
// flags the columns that hold one value over every row so split search
// can skip them.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "ml/matrix.hpp"
#include "stats/rng.hpp"

namespace gsight::ml {

/// Largest feature count a persisted model or dataset may declare. Loaders
/// reject bigger headers before allocating anything (the paper's overlap
/// code is 2 580 wide).
inline constexpr std::size_t kMaxPersistedFeatures = 1000000;

/// Feature-major mirror of a row-major feature matrix: all columns in one
/// contiguous buffer at a fixed stride, so split scans in tree training
/// stride unit-length instead of `cols()` and `column(f)` is a pure
/// pointer offset (no per-column vector metadata between the scan and the
/// data). Syncs are incremental — rows appended to the source matrix
/// since the last sync are transposed in place; the row capacity grows
/// geometrically, so full re-transposes amortise away. That is what makes
/// IncrementalForest refreshes cheap: each partial_fit only pays for the
/// new batch, not the whole buffer.
///
/// The store also keeps one "all values equal" flag per column, updated
/// in the same transpose loop, so it costs only the new rows. Zero-padded
/// overlap codes leave most of their 2 580 columns constant over a
/// training buffer; a split search can never cut such a column, at any
/// node of any bootstrap sample, so the tree builder skips it unread.
///
/// One level down, each column also has a bitmap of the rows whose value
/// is not == 0.0, kept by the same loop. A column that is live somewhere
/// in the buffer is often all zero over one node's rows; the tree builder
/// ANDs the node's rows against this bitmap and skips such a column at
/// that node, again unread.
class ColumnStore {
 public:
  std::size_t rows() const { return rows_synced_; }
  std::size_t feature_count() const { return features_; }
  std::span<const double> column(std::size_t f) const {
    return {flat_.data() + f * stride_, rows_synced_};
  }
  /// True when every synced value of column `f` compares == to its first
  /// (vacuously true before any row is synced). +0.0 and -0.0 count as
  /// equal; a column holding any NaN is never constant.
  bool constant(std::size_t f) const { return constant_[f] != 0; }
  /// Column `f`'s nonzero bitmap: bit r % 64 of word r / 64 is set iff
  /// row r's value is != 0.0 (so ±0.0 leave it clear and NaN sets it).
  /// bitmap_words() words long; bits past rows() are clear.
  const std::uint64_t* nonzero_bits(std::size_t f) const {
    return nonzero_.data() + f * word_stride_;
  }
  std::size_t bitmap_words() const { return (rows_synced_ + 63) / 64; }

  /// Mirror `features` exactly: appends rows [rows(), features.rows());
  /// rebuilds from scratch, flags included, only if the source shrank or
  /// changed width.
  void sync(const Matrix& features);

 private:
  std::vector<double> flat_;      // features_ columns, each stride_ long
  std::vector<double> first_;     // row 0 of every column
  std::vector<unsigned char> constant_;  // per column: all rows == first_
  std::vector<std::uint64_t> nonzero_;   // features_ bitmaps, word_stride_
  std::size_t features_ = 0;
  std::size_t stride_ = 0;        // per-column row capacity
  std::size_t word_stride_ = 0;   // per-column bitmap capacity, in words
  std::size_t rows_synced_ = 0;
};

class Dataset {
 public:
  Dataset() = default;
  explicit Dataset(std::size_t feature_count) : features_(0, feature_count) {}

  void add(std::span<const double> x, double y);
  void append(const Dataset& other);

  std::size_t size() const { return targets_.size(); }
  bool empty() const { return targets_.empty(); }
  std::size_t feature_count() const { return features_.cols(); }

  std::span<const double> x(std::size_t i) const { return features_.row(i); }
  double y(std::size_t i) const { return targets_[i]; }
  const Matrix& features() const { return features_; }
  const std::vector<double>& targets() const { return targets_; }

  /// Rows selected by index (bootstrap resamples, CV folds, ...).
  Dataset subset(std::span<const std::size_t> indices) const;
  /// First `n` rows (for learning curves).
  Dataset head(std::size_t n) const;
  /// Random (train, test) split with the given training fraction.
  std::pair<Dataset, Dataset> split(double train_fraction,
                                    stats::Rng& rng) const;
  /// Deterministic shuffle of rows.
  void shuffle(stats::Rng& rng);

  /// Feature-major view of features(), built lazily and extended
  /// incrementally as rows are added. NOT thread-safe while it (re)builds:
  /// callers that share one Dataset across threads (forest training) must
  /// prime it with a single call before fanning out; afterwards concurrent
  /// use is read-only and safe.
  const ColumnStore& columns() const;

 private:
  Matrix features_;
  std::vector<double> targets_;
  mutable ColumnStore columns_;  // lazy cache; see columns()
};

}  // namespace gsight::ml
