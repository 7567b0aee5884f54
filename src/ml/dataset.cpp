#include "ml/dataset.hpp"

#include <algorithm>
#include <cassert>

namespace gsight::ml {

void ColumnStore::sync(const Matrix& features) {
  if (features_ != features.cols() || rows_synced_ > features.rows()) {
    flat_.clear();
    nonzero_.clear();
    features_ = features.cols();
    stride_ = 0;
    word_stride_ = 0;
    rows_synced_ = 0;
    first_.assign(features_, 0.0);
    constant_.assign(features_, 1);
  }
  const std::size_t end = features.rows();
  if (rows_synced_ == end || features_ == 0) return;
  if (end > stride_) {
    // Geometric growth keeps appends amortised O(1) per element: columns
    // are re-packed at the wider stride only when the capacity doubles.
    // The bitmaps re-pack with them; the new words start clear.
    const std::size_t new_stride = std::max(end, 2 * stride_);
    const std::size_t new_words = (new_stride + 63) / 64;
    std::vector<double> wider(features_ * new_stride);
    std::vector<std::uint64_t> wider_bits(features_ * new_words);
    const std::size_t used_words = (rows_synced_ + 63) / 64;
    for (std::size_t f = 0; f < features_; ++f) {
      std::copy_n(flat_.data() + f * stride_, rows_synced_,
                  wider.data() + f * new_stride);
      std::copy_n(nonzero_.data() + f * word_stride_, used_words,
                  wider_bits.data() + f * new_words);
    }
    flat_ = std::move(wider);
    nonzero_ = std::move(wider_bits);
    stride_ = new_stride;
    word_stride_ = new_words;
  }
  if (rows_synced_ == 0) {
    const auto row = features.row(0);
    std::copy(row.begin(), row.end(), first_.begin());
  }
  for (std::size_t r = rows_synced_; r < end; ++r) {
    const auto row = features.row(r);
    std::uint64_t* word = nonzero_.data() + r / 64;
    const unsigned bit = r % 64;
    for (std::size_t f = 0; f < features_; ++f) {
      flat_[f * stride_ + r] = row[f];
      // == keeps ±0.0 equal and makes any NaN (row 0 included) clear it.
      constant_[f] &= static_cast<unsigned char>(row[f] == first_[f]);
      // != leaves ±0.0 clear and sets a NaN's bit.
      word[f * word_stride_] |= static_cast<std::uint64_t>(row[f] != 0.0)
                                << bit;
    }
  }
  rows_synced_ = end;
}

const ColumnStore& Dataset::columns() const {
  columns_.sync(features_);
  return columns_;
}

void Dataset::add(std::span<const double> x, double y) {
  features_.push_row(x);
  targets_.push_back(y);
}

void Dataset::append(const Dataset& other) {
  for (std::size_t i = 0; i < other.size(); ++i) add(other.x(i), other.y(i));
}

Dataset Dataset::subset(std::span<const std::size_t> indices) const {
  Dataset out(feature_count());
  for (std::size_t idx : indices) {
    assert(idx < size());
    out.add(x(idx), y(idx));
  }
  return out;
}

Dataset Dataset::head(std::size_t n) const {
  Dataset out(feature_count());
  const std::size_t m = std::min(n, size());
  for (std::size_t i = 0; i < m; ++i) out.add(x(i), y(i));
  return out;
}

std::pair<Dataset, Dataset> Dataset::split(double train_fraction,
                                           stats::Rng& rng) const {
  assert(train_fraction >= 0.0 && train_fraction <= 1.0);
  const auto order = rng.permutation(size());
  const auto cut = static_cast<std::size_t>(train_fraction *
                                            static_cast<double>(size()));
  Dataset train(feature_count());
  Dataset test(feature_count());
  for (std::size_t i = 0; i < order.size(); ++i) {
    (i < cut ? train : test).add(x(order[i]), y(order[i]));
  }
  return {std::move(train), std::move(test)};
}

void Dataset::shuffle(stats::Rng& rng) {
  const auto order = rng.permutation(size());
  Dataset out(feature_count());
  for (std::size_t idx : order) out.add(x(idx), y(idx));
  *this = std::move(out);
}

}  // namespace gsight::ml
