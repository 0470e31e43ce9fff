// Layout and protocol invariants for the xcall channel types. The channel
// itself is header-only (everything on the hot path must inline); this TU
// pins down the properties the protocol depends on so a refactor that
// breaks them fails the build here, with a message, rather than showing up
// as a perf or correctness regression downstream.
#include "rt/xcall.h"

#include <type_traits>

namespace hppc::rt {

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

// The completion block is one line: the server's reply store and its
// done-word exchange take one ownership request for the caller's line.
static_assert(sizeof(XcallWait) == kHostCacheLine &&
              alignof(XcallWait) == kHostCacheLine);

// Status must fit beside XcallWait::kDoneBit in one 32-bit completion word
// (the wait loop unpacks it with `v & 0xFF`).
static_assert(sizeof(Status) == 1 && XcallWait::kDoneBit > 0xFFu);

// The three state bits of the completion word must be distinct and all
// clear of the status byte: the park CAS (0→kParkedBit), the abandon CAS
// (0→kAbandonedBit), and the completing exchange (→kDoneBit|status) each
// need to be able to tell exactly which transition they raced with.
static_assert((XcallWait::kParkedBit &
               (XcallWait::kDoneBit | XcallWait::kAbandonedBit | 0xFFu)) == 0);

// The cell deadline is plain payload: published before the seq release
// store, read by the consumer after its acquire — same discipline as regs.
static_assert(std::is_trivially_copyable_v<decltype(XcallCell::deadline)>);

}  // namespace hppc::rt
