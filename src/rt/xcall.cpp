// Layout and protocol invariants for the xcall channel types, and the
// park/kick slow path. The channel itself is header-only (everything on the
// hot path must inline); this TU pins down the properties the protocol
// depends on so a refactor that breaks them fails the build here, with a
// message, rather than showing up as a perf or correctness regression
// downstream.
#include "rt/xcall.h"

#include <bit>
#include <type_traits>

#ifdef __linux__
#include <linux/futex.h>
#include <sys/syscall.h>
#include <time.h>
#include <unistd.h>
#else
#include <chrono>
#include <thread>
#endif

namespace hppc::rt {

// The futex calls address the state word as a plain 32-bit integer.
static_assert(sizeof(std::atomic<std::uint32_t>) == sizeof(std::uint32_t) &&
              std::atomic<std::uint32_t>::is_always_lock_free);

#ifdef __linux__
void park_on(std::atomic<std::uint32_t>& word, std::uint32_t expect,
             std::uint64_t timeout_ns) {
  const timespec ts{static_cast<time_t>(timeout_ns / 1'000'000'000),
                    static_cast<long>(timeout_ns % 1'000'000'000)};
  syscall(SYS_futex, reinterpret_cast<std::uint32_t*>(&word),
          FUTEX_WAIT_PRIVATE, expect, &ts, nullptr, 0);
}

void kick_waiter(std::atomic<std::uint32_t>& word) {
  syscall(SYS_futex, reinterpret_cast<std::uint32_t*>(&word),
          FUTEX_WAKE_PRIVATE, 1, nullptr, nullptr, 0);
}
#else   // no futex: a parked waiter polls at the re-check period
void park_on(std::atomic<std::uint32_t>& word, std::uint32_t expect,
             std::uint64_t timeout_ns) {
  if (word.load(std::memory_order_relaxed) == expect) {
    std::this_thread::sleep_for(std::chrono::nanoseconds(timeout_ns));
  }
}

void kick_waiter(std::atomic<std::uint32_t>&) {}
#endif

// Cells tile cache lines exactly: producers writing adjacent cells never
// false-share, and the inline RegSet payload stays on the cell's own line.
static_assert(alignof(XcallCell) == kHostCacheLine);
static_assert(sizeof(XcallCell) % kHostCacheLine == 0);

// The payload fields are trivially copyable — a cell publish is plain
// stores plus one release store of `seq`, nothing with a destructor or a
// throwing copy in between.
static_assert(std::is_trivially_copyable_v<ppc::RegSet>);
static_assert(std::is_trivially_copyable_v<ProgramId>);
static_assert(std::is_trivially_copyable_v<EntryPointId>);

// The producer-shared and consumer-private ring cursors must not share a
// line with each other or with the first cell (checked structurally: the
// ring is at least three lines before the cells).
static_assert(sizeof(XcallRing) >=
              2 * kHostCacheLine + XcallRing::kCapacity * sizeof(XcallCell));

// Status must fit beside kCellDone in the 32-bit state word (the waiter
// unpacks it with cell_status(), `v & 0xFF`).
static_assert(sizeof(Status) == 1 && kCellDone > 0xFFu);

// The state values must be distinct and clear of the status byte: the
// park CAS (posted→parked) and the abandon CAS (posted→abandoned) each
// need to tell exactly which transition they raced with, the completing
// server tells a parked caller by its one load, and the drain tells async
// from sync by the word alone.
static_assert(kCellPosted == 0 &&
              ((kCellDone | kCellAbandoned | kCellParked | kCellAsync) &
               0xFFu) == 0 &&
              std::popcount(kCellDone | kCellAbandoned | kCellParked |
                            kCellAsync) == 4);

// The ring holds no pointer, so it can live in a segment that maps at a
// different address in every process (src/shm) and needs no destructor.
static_assert(std::is_trivially_destructible_v<XcallRing>);
static_assert(std::is_trivially_destructible_v<XcallCell>);

// The cell deadline is plain payload: published before the seq release
// store, read by the consumer after its acquire — same discipline as regs.
static_assert(std::is_trivially_copyable_v<decltype(XcallCell::deadline)>);

}  // namespace hppc::rt
