//===- support/FlatMap.h - Sorted flat address map -------------*- C++ -*-===//
//
// Part of the EEL reproduction project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A sorted-vector map from 32-bit addresses to 32-bit values. The
/// writer's original→edited address map is filled in placement order, in
/// parallel, each routine its own stretch, and sealed once; the writer's
/// patching and pointer rewriting and eel-verify then probe it with
/// binary searches over a contiguous array, and the run-time translation
/// table is this map serialized, a linear walk.
///
/// The filler supplies the order: every key once, strictly increasing.
/// seal() checks that instead of sorting or dropping duplicates.
///
//===----------------------------------------------------------------------===//

#ifndef EEL_SUPPORT_FLATMAP_H
#define EEL_SUPPORT_FLATMAP_H

#include <algorithm>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

namespace eel {

/// Map of uint32 key → uint32 value stored as a sorted flat vector.
/// Mirrors the read-side std::map API (find/end/count/empty/iteration)
/// so call sites did not have to change shape.
class FlatAddrMap {
public:
  using value_type = std::pair<uint32_t, uint32_t>;
  using const_iterator = std::vector<value_type>::const_iterator;

  void clear() {
    Entries.clear();
    Sealed = true; // empty is trivially sorted
  }

  /// Appends \p N zeroed entries and returns them for the caller to fill
  /// in place, from any number of threads as long as each writes its own
  /// slots; lookups require seal() afterwards. The span is valid until
  /// the next appendSlots() or clear().
  std::span<value_type> appendSlots(size_t N) {
    Entries.resize(Entries.size() + N);
    Sealed = false;
    return std::span<value_type>(Entries).last(N);
  }

  /// Ends filling: the entries must be in strictly increasing key order,
  /// as placement-ordered routines with sorted, disjoint maps produce.
  void seal() {
    assert(std::adjacent_find(Entries.begin(), Entries.end(),
                              [](const value_type &A, const value_type &B) {
                                return A.first >= B.first;
                              }) == Entries.end() &&
           "entries not strictly increasing");
    Sealed = true;
  }

  const_iterator find(uint32_t Key) const {
    assert(Sealed && "FlatAddrMap::find before seal()");
    auto It = std::lower_bound(
        Entries.begin(), Entries.end(), Key,
        [](const value_type &E, uint32_t K) { return E.first < K; });
    return (It != Entries.end() && It->first == Key) ? It : Entries.end();
  }

  size_t count(uint32_t Key) const { return find(Key) != end() ? 1 : 0; }

  /// Value for \p Key; asserts presence (std::map::at's contract, minus
  /// the throw — absent keys are programming errors on these paths).
  uint32_t at(uint32_t Key) const {
    const_iterator It = find(Key);
    assert(It != end() && "FlatAddrMap::at: key not present");
    return It->second;
  }

  const_iterator begin() const { return Entries.begin(); }
  const_iterator end() const { return Entries.end(); }
  size_t size() const { return Entries.size(); }
  bool empty() const { return Entries.empty(); }

private:
  std::vector<value_type> Entries;
  bool Sealed = true;
};

} // namespace eel

#endif // EEL_SUPPORT_FLATMAP_H
