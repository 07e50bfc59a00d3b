// Fixed-size dynamic bitmap with fast scanning.
//
// Used for the migration dirty bitmap, the destination's swapped bitmap, and
// residency tracking. Supports O(words) population count,
// find-first-set-at-or-after, and word-at-a-time *run* iteration
// (`next_set_run` / `next_clear_run`) — the primitive behind the run-length
// batched migration wire path, which coalesces contiguous same-class pages
// into a single stream message instead of one per page.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "util/status.hpp"

namespace agile {

class Bitmap {
 public:
  Bitmap() = default;
  explicit Bitmap(std::size_t size, bool initial = false) { reset(size, initial); }

  /// Re-initializes to `size` bits, all set to `initial`.
  void reset(std::size_t size, bool initial = false);

  std::size_t size() const { return size_; }

  bool test(std::size_t i) const {
    AGILE_CHECK(i < size_);
    return (words_[i >> 6] >> (i & 63)) & 1u;
  }

  void set(std::size_t i) {
    AGILE_CHECK(i < size_);
    std::uint64_t& w = words_[i >> 6];
    std::uint64_t bit = 1ULL << (i & 63);
    if (!(w & bit)) {
      w |= bit;
      ++count_;
    }
  }

  void clear(std::size_t i) {
    AGILE_CHECK(i < size_);
    std::uint64_t& w = words_[i >> 6];
    std::uint64_t bit = 1ULL << (i & 63);
    if (w & bit) {
      w &= ~bit;
      --count_;
    }
  }

  void set_all();
  void clear_all();

  /// Number of set bits (maintained incrementally; O(1)).
  std::size_t count() const { return count_; }

  bool any() const { return count_ > 0; }
  bool none() const { return count_ == 0; }

  /// Index of the first set bit at or after `from`, or `npos` if none.
  std::size_t find_next_set(std::size_t from) const;

  /// Index of the first clear bit at or after `from`, or `npos` if none.
  std::size_t find_next_clear(std::size_t from) const;

  /// Half-open run of identical bits. `empty()` marks "no such run".
  struct Run {
    std::size_t begin;
    std::size_t end;
    bool empty() const { return begin == npos; }
    std::size_t length() const { return end - begin; }
  };

  /// Maximal run of set bits starting at the first set bit at or after
  /// `from`: `{begin, end}` with every bit in [begin, end) set and bit `end`
  /// (if in range) clear. Returns `{npos, npos}` when no set bit remains.
  /// Scans 64-bit words with ctz, so sparse and dense bitmaps are both
  /// O(words), not O(bits).
  Run next_set_run(std::size_t from) const;

  /// Maximal run of clear bits starting at the first clear bit at or after
  /// `from`; `{npos, npos}` when no clear bit remains.
  Run next_clear_run(std::size_t from) const;

  /// Sets every bit in [begin, end), word-masked. No-op on an empty range.
  void set_range(std::size_t begin, std::size_t end);

  /// Clears every bit in [begin, end), word-masked.
  void clear_range(std::size_t begin, std::size_t end);

  /// Deep auditor (O(bits)): the incremental population count matches an
  /// actual recount, bits past `size()` are zero, and set/clear run iteration
  /// yields maximal, disjoint, ascending runs covering exactly the set and
  /// clear populations. Aborts on violation. Call sites gate on
  /// `audit::enabled()`; calling directly always audits.
  void deep_audit() const;

  /// Test-only fault injection for auditor negative tests: overwrites word
  /// `word_index` without maintaining the population count, so a subsequent
  /// `deep_audit()` must abort. Never call outside tests.
  void corrupt_word_for_test(std::size_t word_index, std::uint64_t value) {
    AGILE_CHECK(word_index < words_.size());
    words_[word_index] = value;
  }

  static constexpr std::size_t npos = static_cast<std::size_t>(-1);

 private:
  std::size_t size_ = 0;
  std::size_t count_ = 0;
  std::vector<std::uint64_t> words_;
};

}  // namespace agile
