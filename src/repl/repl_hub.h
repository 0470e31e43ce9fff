// Host-runtime propagation for Replicated<T>: writers nudge every other
// slot through the existing xcall rings (Runtime::call_remote_async), and
// each slot refreshes its own replica when the nudge reaches its drain —
// the host analogue of the simulated facility's per-CPU update queues.
//
// Why a nudge and not the payload? The ring cell carries 8 words; a
// replica can be larger, and more importantly the refresh must read the
// *latest* master (two writes may coalesce into one pull). So the cell
// carries only {object id}, and the handler calls Replicated::pull(slot),
// which copies the master under its mutex into the slot's replica with the
// seqlock publish protocol. Nudges are deduplicated per (object, slot)
// with a pending flag so a write burst posts at most one cell per slot.
//
// Delivery contract is the ring's: the update lands at the target's next
// poll()/serve() drain (or a help-drain/gate-steal). Until then the slot
// reads its previous — consistent, bounded-stale — version. Slots that
// never drain keep their stale replica; that is the same liveness contract
// every xcall ring already carries.
//
// Writers must own a slot: a nudge is a post from the writer's slot into
// the target's ring for that slot, and each such ring has one producer. A
// nudge the ring refuses (full: the target has not drained a lap of
// posts) is dropped and its pending flag cleared, so the next write to
// the object nudges that slot again.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "fault/failpoints.h"
#include "obs/trace.h"
#include "ppc/regs.h"
#include "repl/replicated.h"
#include "rt/runtime.h"

namespace hppc::repl {

class ReplHub {
 public:
  /// Binds the hub's refresh service on `rt`. One hub can manage any
  /// number of replicated objects; they share the entry point.
  explicit ReplHub(rt::Runtime& rt, std::string name = "repl-hub",
                   ProgramId program = 0)
      : rt_(rt), program_(program) {
    ep_ = rt_.bind({.name = std::move(name)}, program_,
                   [this](rt::RtCtx& ctx, rt::RegSet& regs) {
                     handle(ctx, regs);
                   });
  }

  ReplHub(const ReplHub&) = delete;
  ReplHub& operator=(const ReplHub&) = delete;

  EntryPointId ep() const { return ep_; }

  /// Take over propagation for `obj`: wires each slot's runtime counter
  /// block into the object and installs the xcall-ring propagator. The
  /// object must outlive the hub's traffic.
  template <typename T>
  std::uint32_t manage(Replicated<T>& obj) {
    const std::uint32_t id = static_cast<std::uint32_t>(entries_.size());
    auto entry = std::make_unique<Entry>();
    entry->pull = [&obj](std::uint32_t slot) { obj.pull(slot); };
    entry->pending = std::make_unique<std::atomic<bool>[]>(rt_.slots());
    entries_.push_back(std::move(entry));
    for (std::uint32_t s = 0; s < rt_.slots(); ++s) {
      obj.attach_counters(s, &rt_.slot_counters(s));
    }
    obj.set_propagator([this, id](std::uint32_t writer_slot,
                                  std::uint32_t target_slot,
                                  std::uint64_t /*version*/) {
      post_update(id, writer_slot, target_slot);
    });
    return id;
  }

 private:
  struct Entry {
    std::function<void(std::uint32_t)> pull;
    // Per-slot "a refresh cell is already in flight" flag: a write burst
    // posts at most one ring cell per slot, and the pull always reads the
    // latest master anyway.
    std::unique_ptr<std::atomic<bool>[]> pending;
  };

  void post_update(std::uint32_t id, std::uint32_t writer_slot,
                   std::uint32_t target_slot) {
    HPPC_ASSERT_MSG(writer_slot != kNoSlot,
                    "a ReplHub-managed object needs writers that own a slot");
    Entry& e = *entries_[id];
    if (e.pending[target_slot].exchange(true, std::memory_order_acq_rel)) {
      return;  // a cell is already queued; its pull will see this write
    }
    rt::RegSet regs;
    regs[0] = id;
    ppc::set_op(regs, kReplPullOp);
    if (rt_.call_remote_async(writer_slot, target_slot, program_, ep_, regs) !=
        Status::kOk) {
      // Refused (a full ring or a shed): no cell will clear the flag, so
      // clear it here and let the next write nudge again.
      e.pending[target_slot].store(false, std::memory_order_release);
      return;
    }
    HPPC_TRACE_EVENT(rt_.trace_ring(writer_slot), obs::host_trace_now(),
                     writer_slot, obs::TraceEvent::kReplPublish, id);
  }

  void handle(rt::RtCtx& ctx, rt::RegSet& regs) {
    if (ppc::opcode_of(regs) != kReplPullOp || regs[0] >= entries_.size()) {
      ppc::set_rc(regs, Status::kInvalidArgument);
      return;
    }
    Entry& e = *entries_[regs[0]];
    const std::uint32_t slot = ctx.slot();
    // Clear the flag BEFORE pulling: a write that lands during the pull
    // posts a fresh nudge instead of being swallowed.
    e.pending[slot].store(false, std::memory_order_release);
    // Fault seam: stretch the window between flag-clear and pull (the
    // failpoint burns its delay budget) so races that hide in that gap —
    // a write landing mid-pull — get hit deterministically under chaos.
    if (HPPC_FAULT_POINT("repl.pull.delay")) {
      ctx.runtime().slot_counters(slot).inc(obs::Counter::kFaultsInjected);
      HPPC_TRACE_EVENT(ctx.runtime().trace_ring(slot), obs::host_trace_now(),
                       slot, obs::TraceEvent::kFaultInject, regs[0]);
    }
    e.pull(slot);
    HPPC_TRACE_EVENT(ctx.runtime().trace_ring(slot), obs::host_trace_now(),
                     slot, obs::TraceEvent::kReplPull, regs[0]);
    ppc::set_rc(regs, Status::kOk);
  }

  static constexpr Word kReplPullOp = 1;

  rt::Runtime& rt_;
  ProgramId program_;
  EntryPointId ep_ = kInvalidEntryPoint;
  std::vector<std::unique_ptr<Entry>> entries_;
};

}  // namespace hppc::repl
