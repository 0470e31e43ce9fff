// A sample domain service on the host runtime: a fixed-capacity key/value
// store exposed through the PPC-style register interface. Demonstrates how
// a real service composes the runtime's pieces — opcode dispatch, the
// worker-initialization protocol (per-worker scratch buffers), caller
// authentication by program token (§4.1), and per-slot sharding so the
// fast path stays shared-nothing.
//
// Keys and values are single words (the register-passing discipline: bulk
// data would go through a copy interface, §4.2). Each slot owns an
// independent shard; cross-slot access goes through the owner's xcall
// channel (Runtime::call_remote — direct execution on an idle owner, a
// bounded ring cell otherwise), mirroring the cross-processor rule of the
// simulated kernel without a heap allocation.
#pragma once

#include <algorithm>
#include <array>
#include <cstddef>
#include <memory>
#include <new>
#include <optional>
#include <span>
#include <vector>

#include "common/assert.h"
#include "repl/repl_hub.h"
#include "repl/replicated.h"
#include "rt/runtime.h"

namespace hppc::rt {

enum KvOp : Word {
  kKvPut = 1,     // w[0]=key, w[1]=value
  kKvGet = 2,     // w[0]=key            -> w[1]=value
  kKvErase = 3,   // w[0]=key (owner of the key's entry only)
  kKvSize = 4,    // -> w[0]=entries in this slot's shard
  // Packed get: the flags byte of the opflags word holds n, w[0..n) hold
  // n keys, 1 <= n <= kKvGetNMax. On kOk each found key's word is replaced
  // by its value in place (a missed key's word is left as sent), and the
  // flags byte holds the found bitmask (bit i = w[i] found) instead of n.
  // Any other n answers kInvalidArgument without reading the shard.
  kKvGetN = 6,
};

/// Keys one kKvGetN cell carries: every word but the opflags word.
inline constexpr std::size_t kKvGetNMax = ppc::kOpWord;

/// Fixed capacity of the replicated hot set. Sized so HotSet stays within
/// the Replicated<T> small-payload bound (256 bytes); the config capacity
/// is clamped to this.
inline constexpr std::size_t kKvHotSetCapacity = 8;

/// Chunk stride of the vectored stubs (multi_put / multi_get): one chunk =
/// one stack RegSet array, one batched submission (one claim + one
/// publish).
inline constexpr std::size_t kKvMultiOpChunk = 16;
static_assert(kKvMultiOpChunk <= XcallRing::kCapacity,
              "one chunk is one batched submission");

struct KvServiceConfig {
  std::string name = "kv";
  std::size_t shard_capacity = 1024;
  /// Replicate a read-mostly hot set of entries per slot
  /// (repl::Replicated, propagated through the xcall rings by a ReplHub):
  /// get_remote consults the caller's local seqlock replica first and only
  /// falls back to the owner's xcall channel on a miss — the same
  /// un-saturation the file server's replicated record block buys on the
  /// simulated facility. Entries are admitted write-through on put while
  /// space remains. 0 disables; clamped to kKvHotSetCapacity.
  std::size_t replicated_hot_capacity = 0;
};

class KvService {
 public:
  using Config = KvServiceConfig;

  KvService(Runtime& rt, KvServiceConfig cfg = {})
      : rt_(rt),
        cfg_(std::move(cfg)),
        shards_(rt.slots()) {
    for (auto& shard : shards_) {
      shard->entries.resize(cfg_.shard_capacity);
    }
    if (cfg_.replicated_hot_capacity > 0) {
      hot_cap_ = std::min(cfg_.replicated_hot_capacity, kKvHotSetCapacity);
      // Replicas live in the runtime arena, each on its reading slot's node.
      hot_ = std::make_unique<repl::Replicated<HotSet>>(
          rt_.slots(), HotSet{}, &rt_.arena(),
          [this](std::uint32_t s) { return rt_.node_of_slot(s); });
      hub_ = std::make_unique<repl::ReplHub>(rt_, cfg_.name + "-repl");
      hub_->manage(*hot_);
    }
    ep_ = rt_.bind({.name = cfg_.name}, /*program=*/0,
                   [this](RtCtx& ctx, RegSet& regs) { init(ctx, regs); });
  }

  EntryPointId ep() const { return ep_; }

  /// Workers initialized so far (the §4.5.3 protocol at work).
  std::uint32_t initialized_workers() const {
    std::uint32_t n = 0;
    for (const auto& s : shards_) n += s->inits;
    return n;
  }

  // Convenience client stubs (run on the calling thread's slot).
  Status put(SlotId slot, ProgramId caller, Word key, Word value) {
    RegSet r;
    r[0] = key;
    r[1] = value;
    ppc::set_op(r, kKvPut);
    return rt_.call(slot, caller, ep_, r);
  }

  std::optional<Word> get(SlotId slot, ProgramId caller, Word key) {
    RegSet r;
    r[0] = key;
    ppc::set_op(r, kKvGet);
    if (rt_.call(slot, caller, ep_, r) != Status::kOk) return std::nullopt;
    return r[1];
  }

  Status erase(SlotId slot, ProgramId caller, Word key) {
    RegSet r;
    r[0] = key;
    ppc::set_op(r, kKvErase);
    return rt_.call(slot, caller, ep_, r);
  }

  // Cross-slot stubs: operate on `owner_slot`'s shard from `caller_slot`'s
  // thread. Synchronous, allocation-free (xcall), degenerate to the local
  // fast path when the slots coincide.
  Status put_remote(SlotId caller_slot, SlotId owner_slot, ProgramId caller,
                    Word key, Word value) {
    RegSet r;
    r[0] = key;
    r[1] = value;
    ppc::set_op(r, kKvPut);
    return rt_.call_remote(caller_slot, owner_slot, caller, ep_, r);
  }

  std::optional<Word> get_remote(SlotId caller_slot, SlotId owner_slot,
                                 ProgramId caller, Word key) {
    // Replicated fast path: consult the caller's own seqlock replica of the
    // hot set — no lock, no xcall, no remote lines. A miss (cold key, or an
    // entry the hot set never admitted) falls through to the owner.
    if (hot_ != nullptr) {
      const HotSet h = hot_->read(caller_slot);
      for (std::uint32_t i = 0; i < hot_cap_; ++i) {
        if (h.e[i].used != 0 && h.e[i].key == key) {
          note_repl_hit(caller_slot, key);
          return h.e[i].value;
        }
      }
    }
    RegSet r;
    r[0] = key;
    ppc::set_op(r, kKvGet);
    if (rt_.call_remote(caller_slot, owner_slot, caller, ep_, r) !=
        Status::kOk) {
      return std::nullopt;
    }
    return r[1];
  }

  /// Vectored write: store keys[i] → values[i] into `owner_slot`'s shard
  /// through call_remote_batch, so a burst of M puts pays ~M/kKvMultiOpChunk
  /// doorbells instead of M ring round trips. Zero heap allocations.
  /// Returns the first non-kOk per-call status (kOk if all stored).
  Status multi_put(SlotId caller_slot, SlotId owner_slot, ProgramId caller,
                   std::span<const Word> keys, std::span<const Word> values) {
    HPPC_ASSERT(keys.size() == values.size());
    Status overall = Status::kOk;
    ChunkCells regs;
    for (std::size_t pos = 0; pos < keys.size(); pos += kKvMultiOpChunk) {
      const std::size_t n = std::min(kKvMultiOpChunk, keys.size() - pos);
      for (std::size_t k = 0; k < n; ++k) {
        RegSet& r = regs.fresh(k);
        r[0] = keys[pos + k];
        r[1] = values[pos + k];
        ppc::set_op(r, kKvPut);
      }
      const Status s = rt_.call_remote_batch(caller_slot, owner_slot, caller,
                                             ep_, regs.first(n));
      if (overall == Status::kOk && s != Status::kOk) overall = s;
    }
    return overall;
  }

  /// Vectored read: out[i] = value of keys[i] (nullopt on miss). Keys the
  /// caller's replicated hot-set replica already holds are answered
  /// locally; only the misses ride the batched xcall, packed kKvGetNMax to
  /// a kKvGetN cell, so one submission carries up to kKvMultiOpChunk cells.
  /// Returns the number of keys found. `out.size()` must be >= `keys.size()`.
  std::size_t multi_get(SlotId caller_slot, SlotId owner_slot,
                        ProgramId caller, std::span<const Word> keys,
                        std::span<std::optional<Word>> out) {
    HPPC_ASSERT(out.size() >= keys.size());
    std::size_t hits = 0;
    ChunkCells regs;
    // origin[k] = the keys/out index of the k-th packed miss, which rides
    // cell k / kKvGetNMax in word k % kKvGetNMax.
    std::array<std::size_t, kKvMultiOpChunk * kKvGetNMax> origin;
    std::size_t pending = 0;
    auto flush = [&] {
      if (pending == 0) return;
      const std::size_t cells = (pending + kKvGetNMax - 1) / kKvGetNMax;
      for (std::size_t c = 0; c < cells; ++c) {
        ppc::set_op(regs[c], kKvGetN,
                    static_cast<Word>(
                        std::min(kKvGetNMax, pending - c * kKvGetNMax)));
      }
      rt_.call_remote_batch(caller_slot, owner_slot, caller, ep_,
                            regs.first(cells));
      for (std::size_t k = 0; k < pending; ++k) {
        const RegSet& r = regs[k / kKvGetNMax];
        const std::size_t w = k % kKvGetNMax;
        const bool found = ppc::rc_of(r) == Status::kOk &&
                           ((ppc::flags_of(r) >> w) & 1u) != 0;
        if (found) {
          out[origin[k]] = r[w];
          ++hits;
        } else {
          out[origin[k]] = std::nullopt;
        }
      }
      pending = 0;
    };
    // One replica snapshot for the whole call: every key is probed against
    // the same consistent copy, lock-free and local, and hot hits never
    // touch the ring at all.
    HotSet h{};
    if (hot_ != nullptr && !keys.empty()) h = hot_->read(caller_slot);
    for (std::size_t idx = 0; idx < keys.size(); ++idx) {
      if (hot_ != nullptr) {
        bool hit = false;
        for (std::uint32_t j = 0; j < hot_cap_; ++j) {
          if (h.e[j].used != 0 && h.e[j].key == keys[idx]) {
            out[idx] = h.e[j].value;
            ++hits;
            hit = true;
            note_repl_hit(caller_slot, keys[idx]);
            break;
          }
        }
        if (hit) continue;
      }
      // A cell is built when its first key lands, so no word of it is
      // left over from an earlier flush.
      const std::size_t w = pending % kKvGetNMax;
      RegSet& cell = w == 0 ? regs.fresh(pending / kKvGetNMax)
                            : regs[pending / kKvGetNMax];
      cell[w] = keys[idx];
      origin[pending] = idx;
      if (++pending == kKvMultiOpChunk * kKvGetNMax) flush();
    }
    flush();
    return hits;
  }

 private:
  /// Stack room for one chunk of cells, left unconstructed: a vectored
  /// call value-initializes only the cells it sends (fresh), not all
  /// kKvMultiOpChunk of them on every call.
  class ChunkCells {
   public:
    ChunkCells() {}
    RegSet& fresh(std::size_t k) { return *::new (data() + k) RegSet{}; }
    RegSet& operator[](std::size_t k) { return data()[k]; }
    std::span<RegSet> first(std::size_t n) { return {data(), n}; }

   private:
    RegSet* data() { return std::launder(reinterpret_cast<RegSet*>(raw_)); }
    alignas(RegSet) std::byte raw_[sizeof(RegSet) * kKvMultiOpChunk];
  };

  struct Entry {
    Word key = 0;
    Word value = 0;
    ProgramId owner = 0;
    bool used = false;
  };

  /// The replicated hot set: a fixed, trivially-copyable record small
  /// enough for a per-slot seqlock replica. Admission is write-through on
  /// put while slots remain; eviction only on erase (read-mostly data —
  /// churn would turn every put into a fan-out publish).
  struct HotEntry {
    Word key = 0;
    Word value = 0;
    std::uint32_t used = 0;
  };
  struct HotSet {
    std::uint32_t n = 0;
    std::array<HotEntry, kKvHotSetCapacity> e{};
  };

  /// Ctx-carrying breadcrumb for a replica answer: the one hop a remote-get
  /// trace would otherwise lose entirely (no ring, no server span). Shows up
  /// in the chrome export as an instant on the caller's track tagged with
  /// the live trace id.
  void note_repl_hit(SlotId caller_slot, Word key) {
#if defined(HPPC_TRACE) && HPPC_TRACE
    const obs::TraceCtx ctx = rt_.trace_ctx(caller_slot);
    if (!ctx.traced()) return;
    rt_.trace_ring(caller_slot)
        .record_span(obs::host_trace_now(),
                     static_cast<std::uint16_t>(caller_slot),
                     obs::TraceEvent::kReplHit, static_cast<std::uint32_t>(key),
                     ctx.trace_id, ctx.span_id, 0);
#else
    (void)caller_slot;
    (void)key;
#endif
  }

  /// Hot-set write-through. The mutation reports "no change" for a key
  /// the full set does not admit and for an equal value, so a cold put or
  /// a rewrite publishes nothing to the other slots.
  void hot_put(std::uint32_t writer_slot, Word key, Word value) {
    hot_->write(writer_slot, [&](HotSet& h) {
      for (std::uint32_t i = 0; i < hot_cap_; ++i) {
        if (h.e[i].used != 0 && h.e[i].key == key) {
          if (h.e[i].value == value) return false;
          h.e[i].value = value;
          return true;
        }
      }
      for (std::uint32_t i = 0; i < hot_cap_; ++i) {
        if (h.e[i].used == 0) {
          h.e[i] = HotEntry{key, value, 1};
          ++h.n;
          return true;
        }
      }
      // Hot set full: not admitted — gets for this key take the xcall path.
      return false;
    });
  }

  /// Hot-set eviction; erasing a key the set never held changes nothing.
  void hot_erase(std::uint32_t writer_slot, Word key) {
    hot_->write(writer_slot, [&](HotSet& h) {
      for (std::uint32_t i = 0; i < hot_cap_; ++i) {
        if (h.e[i].used != 0 && h.e[i].key == key) {
          h.e[i] = HotEntry{};
          --h.n;
          return true;
        }
      }
      return false;
    });
  }

  /// One slot's shard: touched only by that slot's thread on the fast path.
  struct Shard {
    std::vector<Entry> entries;
    std::size_t size = 0;
    std::uint32_t inits = 0;
  };

  /// Linear probe from the key's home entry: the key is reduced once and
  /// the index wraps with a compare, not a division per probe.
  Entry* find(Shard& shard, Word key) {
    const std::size_t cap = shard.entries.size();
    std::size_t i = key % cap;
    for (std::size_t probe = 0; probe < cap; ++probe) {
      Entry& e = shard.entries[i];
      if (!e.used) return nullptr;
      if (e.key == key) return &e;
      if (++i == cap) i = 0;
    }
    return nullptr;
  }

  Entry* find_free(Shard& shard, Word key) {
    const std::size_t cap = shard.entries.size();
    std::size_t i = key % cap;
    for (std::size_t probe = 0; probe < cap; ++probe) {
      Entry& e = shard.entries[i];
      if (!e.used || e.key == key) return &e;
      if (++i == cap) i = 0;
    }
    return nullptr;
  }

  void init(RtCtx& ctx, RegSet& regs) {
    // One-time worker setup (§4.5.3): count it, swap in the real handler.
    ++shards_[ctx.slot()]->inits;
    ctx.set_worker_handler([this](RtCtx& c, RegSet& r) { serve(c, r); });
    serve(ctx, regs);
  }

  /// The worker's handler: one switch on the opcode. An unknown opcode
  /// answers kInvalidArgument, as every PPC server does (§4.5.1).
  void serve(RtCtx& ctx, RegSet& regs) {
    switch (ppc::opcode_of(regs)) {
      case kKvPut: do_put(ctx, regs); return;
      case kKvGet: do_get(ctx, regs); return;
      case kKvGetN: do_get_n(ctx, regs); return;
      case kKvErase: do_erase(ctx, regs); return;
      case kKvSize:
        regs[0] = static_cast<Word>(shards_[ctx.slot()]->size);
        ppc::set_rc(regs, Status::kOk);
        return;
      default: ppc::set_rc(regs, Status::kInvalidArgument); return;
    }
  }

  void do_put(RtCtx& ctx, RegSet& regs) {
    Shard& shard = *shards_[ctx.slot()];
    Entry* e = find_free(shard, regs[0]);
    if (e == nullptr) {
      ppc::set_rc(regs, Status::kOutOfResources);
      return;
    }
    if (!e->used) {
      e->used = true;
      e->key = regs[0];
      e->owner = ctx.caller_program();
      ++shard.size;
    }
    e->value = regs[1];
    if (hot_ != nullptr) hot_put(ctx.slot(), regs[0], regs[1]);
    ppc::set_rc(regs, Status::kOk);
  }

  void do_get(RtCtx& ctx, RegSet& regs) {
    Entry* e = find(*shards_[ctx.slot()], regs[0]);
    if (e == nullptr) {
      ppc::set_rc(regs, Status::kInvalidArgument);
      return;
    }
    regs[1] = e->value;
    ppc::set_rc(regs, Status::kOk);
  }

  void do_get_n(RtCtx& ctx, RegSet& regs) {
    const Word n = ppc::flags_of(regs);
    if (n == 0 || n > kKvGetNMax) {
      ppc::set_rc(regs, Status::kInvalidArgument);
      return;
    }
    Shard& shard = *shards_[ctx.slot()];
    Word found = 0;
    for (Word i = 0; i < n; ++i) {
      if (const Entry* e = find(shard, regs[i])) {
        regs[i] = e->value;
        found |= Word{1} << i;
      }
    }
    ppc::set_op(regs, kKvGetN, found);
    ppc::set_rc(regs, Status::kOk);
  }

  void do_erase(RtCtx& ctx, RegSet& regs) {
    Shard& shard = *shards_[ctx.slot()];
    Entry* e = find(shard, regs[0]);
    if (e == nullptr) {
      ppc::set_rc(regs, Status::kInvalidArgument);
      return;
    }
    // Only the program that created an entry may erase it (§4.1).
    if (e->owner != ctx.caller_program()) {
      ppc::set_rc(regs, Status::kPermissionDenied);
      return;
    }
    // Tombstone-free removal: backward-shift the probe chain so that later
    // entries whose home slot precedes the hole stay reachable.
    const std::size_t cap = shard.entries.size();
    std::size_t hole = static_cast<std::size_t>(e - shard.entries.data());
    shard.entries[hole].used = false;
    --shard.size;
    std::size_t j = hole;
    for (;;) {
      j = (j + 1) % cap;
      Entry& ej = shard.entries[j];
      if (!ej.used) break;
      const std::size_t home = ej.key % cap;
      // ej may move into the hole unless its home lies strictly within
      // (hole, j] on the probe circle.
      const std::size_t dist_home = (j - home + cap) % cap;
      const std::size_t dist_hole = (j - hole + cap) % cap;
      if (dist_home >= dist_hole) {
        shard.entries[hole] = ej;
        ej.used = false;
        hole = j;
      }
    }
    if (hot_ != nullptr) hot_erase(ctx.slot(), regs[0]);
    ppc::set_rc(regs, Status::kOk);
  }

  Runtime& rt_;
  KvServiceConfig cfg_;
  std::vector<CacheAligned<Shard>> shards_;
  EntryPointId ep_ = kInvalidEntryPoint;
  std::uint32_t hot_cap_ = 0;
  std::unique_ptr<repl::Replicated<HotSet>> hot_;
  std::unique_ptr<repl::ReplHub> hub_;
};

}  // namespace hppc::rt
