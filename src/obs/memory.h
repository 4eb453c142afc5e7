// Heap accounting for the per-switch layers' memory_bytes() (DESIGN.md
// "Per-switch memory accounting").
//
// One counting rule, computed on call from container capacities, so it is
// deterministic for a given standard library and costs nothing on the hot
// path:
//   * a vector counts capacity() x sizeof(element);
//   * an unordered container counts its bucket array, bucket_count() x
//     sizeof(void*) — except a one-bucket table, which is the container's
//     own inline bucket and allocates nothing — plus size() nodes of one
//     link pointer and the value_type each (libstdc++ caches no hash for
//     the integral keys used here).
// Heap owned by the elements themselves (a vector inside a map value) is
// added by the owner.
#pragma once

#include <cstddef>
#include <vector>

namespace hermes::obs {

template <class T, class A>
std::size_t heap_bytes(const std::vector<T, A>& v) {
  return v.capacity() * sizeof(T);
}

/// Bucket array plus nodes of a std::unordered_{map,set}.
template <class Unordered>
std::size_t hash_heap_bytes(const Unordered& c) {
  const std::size_t buckets =
      c.bucket_count() > 1 ? c.bucket_count() * sizeof(void*) : 0;
  return buckets +
         c.size() * (sizeof(void*) + sizeof(typename Unordered::value_type));
}

}  // namespace hermes::obs
