// Fundamental value types shared across the library.

#pragma once

#include <algorithm>
#include <cstdint>

namespace tpm {

/// Dictionary-encoded event symbol. Symbols are interned by Dictionary;
/// ids are dense starting at 0.
using EventId = uint32_t;

/// Time axis. The library is unit-agnostic: ticks, seconds, days — anything
/// totally ordered and integral.
using TimeT = int64_t;

/// Identifier of a sequence within a database (its index).
using SequenceIndex = uint32_t;

/// Absolute support: number of distinct sequences containing a pattern.
using SupportCount = uint32_t;

/// \brief Encoded interval endpoint: `(event << 1) | is_finish`.
///
/// The encoding doubles as the canonical total order used everywhere a slice
/// must be sorted: A+ < A- < B+ < B- < ... This order is what makes
/// itemset-extension (i-extension) enumeration unambiguous.
using EndpointCode = uint32_t;

constexpr EndpointCode MakeStart(EventId e) { return e << 1; }
constexpr EndpointCode MakeFinish(EventId e) { return (e << 1) | 1u; }
constexpr EventId EndpointEvent(EndpointCode c) { return c >> 1; }
constexpr bool IsFinish(EndpointCode c) { return (c & 1u) != 0; }
constexpr EndpointCode PartnerCode(EndpointCode c) { return c ^ 1u; }

/// \brief The index of `code` in the sorted, duplicate-free range [b, e) of
/// `items`, or ~0u. A slice or segment is sorted by code, and most are tiny:
/// a linear scan below 8 items, a binary search above.
inline uint32_t FindSorted(const uint32_t* items, uint32_t b, uint32_t e, uint32_t code) {
  if (e - b < 8) {
    for (uint32_t i = b; i < e && items[i] <= code; ++i) {
      if (items[i] == code) return i;
    }
    return ~0u;
  }
  const uint32_t* it = std::lower_bound(items + b, items + e, code);
  return it != items + e && *it == code ? static_cast<uint32_t>(it - items) : ~0u;
}

/// Largest representable EventId (reserved as invalid).
constexpr EventId kInvalidEvent = ~static_cast<EventId>(0) >> 1;

}  // namespace tpm

