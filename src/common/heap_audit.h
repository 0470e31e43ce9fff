// Heap-allocation audit: a process-wide count of global operator new calls.
//
// The warm-path claims ("a warm cross-slot call performs zero heap
// allocations") are checked by reading heap_allocs() before and after the
// audited window. The count comes from replacement global allocation
// functions in heap_audit.cpp, which only the test and bench binaries that
// audit link in; a library never replaces the program's operator new.
// Every thread's allocations count (one relaxed increment each), so a
// window must not contain anything that allocates by design — a gtest
// assertion macro, for one.
#pragma once

#include <cstdint>

namespace hppc {

/// Global operator new calls (every form: plain, array, aligned, nothrow)
/// made so far by any thread of this process.
std::uint64_t heap_allocs();

/// Heap allocations made (by any thread) while `body` runs. `body` must
/// not use a gtest assertion macro: a failing one allocates its message.
template <typename Fn>
std::uint64_t heap_allocs_during(Fn&& body) {
  const std::uint64_t before = heap_allocs();
  body();
  return heap_allocs() - before;
}

}  // namespace hppc
