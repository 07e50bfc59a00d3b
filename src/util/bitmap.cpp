#include "util/bitmap.hpp"

#include <bit>

namespace agile {

void Bitmap::reset(std::size_t size, bool initial) {
  size_ = size;
  words_.assign((size + 63) / 64, initial ? ~0ULL : 0ULL);
  if (initial && size % 64 != 0 && !words_.empty()) {
    // Mask off bits past the end so count()/scans stay exact.
    words_.back() &= (1ULL << (size % 64)) - 1;
  }
  count_ = initial ? size : 0;
}

void Bitmap::set_all() {
  if (size_ == 0) return;
  for (auto& w : words_) w = ~0ULL;
  if (size_ % 64 != 0) words_.back() &= (1ULL << (size_ % 64)) - 1;
  count_ = size_;
}

void Bitmap::clear_all() {
  for (auto& w : words_) w = 0;
  count_ = 0;
}

std::size_t Bitmap::find_next_set(std::size_t from) const {
  if (from >= size_) return npos;
  std::size_t word = from >> 6;
  std::uint64_t w = words_[word] & (~0ULL << (from & 63));
  while (true) {
    if (w != 0) {
      std::size_t i = (word << 6) + static_cast<std::size_t>(std::countr_zero(w));
      return i < size_ ? i : npos;
    }
    if (++word >= words_.size()) return npos;
    w = words_[word];
  }
}

std::size_t Bitmap::find_next_clear(std::size_t from) const {
  if (from >= size_) return npos;
  std::size_t word = from >> 6;
  std::uint64_t w = ~words_[word] & (~0ULL << (from & 63));
  while (true) {
    if (w != 0) {
      std::size_t i = (word << 6) + static_cast<std::size_t>(std::countr_zero(w));
      return i < size_ ? i : npos;
    }
    if (++word >= words_.size()) return npos;
    w = ~words_[word];
  }
}

Bitmap::Run Bitmap::next_set_run(std::size_t from) const {
  std::size_t begin = find_next_set(from);
  if (begin == npos) return {npos, npos};
  // The run ends at the next clear bit; a fully-set tail runs to size_.
  std::size_t end = find_next_clear(begin);
  return {begin, end == npos ? size_ : end};
}

Bitmap::Run Bitmap::next_clear_run(std::size_t from) const {
  std::size_t begin = find_next_clear(from);
  if (begin == npos) return {npos, npos};
  std::size_t end = find_next_set(begin);
  return {begin, end == npos ? size_ : end};
}

namespace {
// Mask with bits [lo, hi) of one word set; requires lo < hi <= 64.
inline std::uint64_t word_mask(std::size_t lo, std::size_t hi) {
  std::uint64_t high = hi == 64 ? ~0ULL : (1ULL << hi) - 1;
  return high & ~((1ULL << lo) - 1);
}
}  // namespace

void Bitmap::set_range(std::size_t begin, std::size_t end) {
  if (begin >= end) return;
  AGILE_CHECK(end <= size_);
  std::size_t first_word = begin >> 6;
  std::size_t last_word = (end - 1) >> 6;
  for (std::size_t w = first_word; w <= last_word; ++w) {
    std::size_t lo = (w == first_word) ? (begin & 63) : 0;
    std::size_t hi = (w == last_word) ? ((end - 1) & 63) + 1 : 64;
    std::uint64_t mask = word_mask(lo, hi);
    count_ += static_cast<std::size_t>(std::popcount(mask & ~words_[w]));
    words_[w] |= mask;
  }
}

void Bitmap::clear_range(std::size_t begin, std::size_t end) {
  if (begin >= end) return;
  AGILE_CHECK(end <= size_);
  std::size_t first_word = begin >> 6;
  std::size_t last_word = (end - 1) >> 6;
  for (std::size_t w = first_word; w <= last_word; ++w) {
    std::size_t lo = (w == first_word) ? (begin & 63) : 0;
    std::size_t hi = (w == last_word) ? ((end - 1) & 63) + 1 : 64;
    std::uint64_t mask = word_mask(lo, hi);
    count_ -= static_cast<std::size_t>(std::popcount(mask & words_[w]));
    words_[w] &= ~mask;
  }
}

void Bitmap::deep_audit() const {
  AGILE_CHECK_S(words_.size() == (size_ + 63) / 64)
      << "word storage does not match size " << size_;
  if (size_ % 64 != 0 && !words_.empty()) {
    AGILE_CHECK_S((words_.back() & ~((1ULL << (size_ % 64)) - 1)) == 0)
        << "bits set past size " << size_;
  }
  std::size_t pop = 0;
  for (std::uint64_t w : words_) pop += static_cast<std::size_t>(std::popcount(w));
  AGILE_CHECK_S(pop == count_)
      << "incremental count " << count_ << " != popcount " << pop;

  // Set-run iteration: runs must be maximal, disjoint, ascending, and cover
  // exactly the set population.
  std::size_t covered = 0;
  for (Run r = next_set_run(0); !r.empty(); r = next_set_run(r.end)) {
    AGILE_CHECK_S(r.begin < r.end && r.end <= size_)
        << "malformed set run [" << r.begin << ", " << r.end << ")";
    if (r.begin > 0) {
      AGILE_CHECK_S(!test(r.begin - 1)) << "set run not maximal at " << r.begin;
    }
    if (r.end < size_) {
      AGILE_CHECK_S(!test(r.end)) << "set run not maximal at " << r.end;
    }
    for (std::size_t i = r.begin; i < r.end; ++i) {
      AGILE_CHECK_S(test(i)) << "clear bit " << i << " inside set run";
    }
    covered += r.length();
  }
  AGILE_CHECK_S(covered == count_)
      << "set runs cover " << covered << " bits, count is " << count_;

  // Clear-run iteration covers the complement.
  std::size_t clear_covered = 0;
  for (Run r = next_clear_run(0); !r.empty(); r = next_clear_run(r.end)) {
    AGILE_CHECK_S(r.begin < r.end && r.end <= size_)
        << "malformed clear run [" << r.begin << ", " << r.end << ")";
    for (std::size_t i = r.begin; i < r.end; ++i) {
      AGILE_CHECK_S(!test(i)) << "set bit " << i << " inside clear run";
    }
    clear_covered += r.length();
  }
  AGILE_CHECK_S(clear_covered == size_ - count_)
      << "clear runs cover " << clear_covered << " bits, expected "
      << size_ - count_;
}

}  // namespace agile
