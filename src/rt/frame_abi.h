// The Figure-4 call ABI: 8 words in, the same 8 words out, one packed
// opcode|flags|entry word — the paper's PPC register contract lifted to a
// first-class call frame, and the one request format of every call.
//
// The runtime has one service table (§4.1): the packed op word names an
// entry point, and the entry holds a raw function pointer, its `self` and
// its kind on one line, so resolving a call is one indexed load and one
// indirect call. A frame entry (Runtime::bind with a FrameFn) runs that
// function to completion: no std::function, no worker/CD acquisition, no
// heap touch. A worker-backed entry (Runtime::bind with an RtHandler) is
// the same kind of entry whose function acquires a worker and a CD and
// runs the typed handler on the frame's words as a RegSet. A cross-slot
// call inlines the entire request in the 64-byte XcallCell (the op word's
// low half rides the cell's spare 4-byte lane, the entry its ep lane, the
// payload its inline RegSet).
//
// A frame is 8 words each way and never grows. Payloads that do not fit
// move through granted regions and the cross-process CopyServer
// (src/shm/copy.h, §4.2), not through the frame.
//
// Packed op word (64-bit):
//   [63:48] reserved (zero)
//   [47:32] entry    — EntryPointId, index into the runtime's one table
//   [31:16] opcode   — service-defined operation number   -+
//   [15: 8] flags    — service-defined modifier bits       +- identical to
//   [ 7: 0] rc       — return code (Status), out only     -+  ppc::op_flags
// The low 32 bits are bit-for-bit the legacy regs[kOpWord] layout, so a
// RegSet call is the frame of its entry whose op word's low half is
// regs[kOpWord].
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>

#include "common/status.h"
#include "common/types.h"
#include "ppc/regs.h"
#include "rt/percpu.h"

namespace hppc::rt {

class Runtime;

/// The packed opcode|flags|service word.
using FrameWord = std::uint64_t;

/// The entry a frame names: an EntryPointId (this name is kept for callers).
using FrameServiceId = EntryPointId;

// -- op word packing -------------------------------------------------------

constexpr FrameWord frame_op(FrameServiceId service, Word opcode,
                             Word flags = 0) {
  return (static_cast<FrameWord>(service & 0xFFFFu) << 32) |
         ppc::op_flags(opcode, flags);
}

/// The entry field with the reserved bits above it: a word whose reserved
/// bits are set names no entry.
constexpr FrameServiceId frame_service_of(FrameWord op) {
  return static_cast<FrameServiceId>(op >> 32);
}
constexpr Word frame_opflags_of(FrameWord op) {  // the legacy 32-bit word
  return static_cast<Word>(op);
}
constexpr Word frame_opcode_of(FrameWord op) {
  return ppc::opcode_of(frame_opflags_of(op));
}
constexpr Word frame_flags_of(FrameWord op) {
  return ppc::flags_of(frame_opflags_of(op));
}
constexpr Status frame_rc_of(FrameWord op) {
  return ppc::rc_of(frame_opflags_of(op));
}
constexpr FrameWord frame_with_rc(FrameWord op, Status rc) {
  return (op & ~FrameWord{0xFFu}) | static_cast<FrameWord>(rc);
}
constexpr FrameWord frame_with_flags(FrameWord op, Word flags) {
  return (op & ~(FrameWord{0xFFu} << 8)) |
         (static_cast<FrameWord>(flags & 0xFFu) << 8);
}

// -- the call frame --------------------------------------------------------

/// Figure 4 as a value type: the packed op word plus the 8 in/out words.
/// `w` is entirely the application's — unlike the legacy RegSet, no word is
/// stolen for the opcode (it travels in `op`), so a frame call carries a
/// full 8 words of payload each way.
struct CallFrame {
  FrameWord op = 0;
  std::array<Word, kPpcWords> w{};

  bool operator==(const CallFrame&) const = default;
};
static_assert(sizeof(CallFrame) == sizeof(FrameWord) + sizeof(ppc::RegSet),
              "a frame must inline into one XcallCell");

inline CallFrame make_frame(FrameServiceId service, Word opcode,
                            Word flags = 0) {
  CallFrame f;
  f.op = frame_op(service, opcode, flags);
  return f;
}

// -- handler contract ------------------------------------------------------

/// What a frame handler sees. No worker, no CD, no per-call stack: frame
/// handlers run to completion on the calling/draining thread and use their
/// service's own state (`self`).
struct FrameCtx {
  Runtime* rt = nullptr;
  SlotId slot = 0;        // the slot being executed on
  ProgramId caller = 0;   // the caller's program token (§4.1)
};

/// A frame handler: a raw function pointer — no std::function, nothing to
/// copy or chase on the warm path. `self` is the pointer registered at
/// bind time; `f` is in/out (mutate f.w in place for the reply; the
/// returned Status is packed into f.op's rc byte by the runtime).
using FrameFn = Status (*)(void* self, FrameCtx& ctx, CallFrame& f);

}  // namespace hppc::rt
