// Replicated read-mostly objects: a cache-line-aligned, seqlock-versioned
// replica of a small trivially-copyable T per slot/CPU.
//
// The paper removes locks from the IPC *facility*; Figure 3 then shows the
// next bottleneck is any lock the *service* takes — the per-file spinlock
// serializes ~16 us of every 66 us GetLength call and the single-file curve
// saturates at four processors. For read-mostly service state the remedy is
// the same per-processor discipline the facility itself uses: give every
// slot its own replica, make reads validate a slot-local sequence counter
// (no shared lines touched, no locks), and push the rare writes through a
// single master path that propagates new versions outward.
//
// Read protocol (per replica, classic seqlock with TSan-clean atomics):
//   s0 = seq.load(acquire); if odd, the replica is mid-update -> retry
//   copy the payload words with relaxed atomic loads
//   fence(acquire); if seq.load(relaxed) == s0 the copy is consistent
// After kMaxSeqRetries failed attempts the reader falls back to the locked
// master copy (booked as repl_fallback_locked + locks_taken) so a stalled
// writer can never wedge readers.
//
// Write protocol: mutate the master under its mutex; the mutation reports
// whether it changed the record. A change bumps the version, then publishes
// — either inline to every replica (standalone mode), or through a
// propagator hook (repl::ReplHub rides Runtime::call_remote_async so each
// owner refreshes its own replica at its next drain; see repl_hub.h). An
// unchanged record publishes nothing, as the paper's record block only
// publishes on change (Figure 3). All replica publishes are serialized by
// the master mutex, so the sequence word is never torn by two writers.
//
// Consistency contract: readers see a *consistent* (never torn) value that
// is at most one propagation delay stale. Use a lock instead when readers
// must observe a write the instant it completes.
#pragma once

#include <array>
#include <atomic>
#include <concepts>
#include <cstdint>
#include <cstring>
#include <functional>
#include <memory>
#include <mutex>
#include <type_traits>
#include <vector>

#include "common/cacheline.h"
#include "common/cpu_relax.h"
#include "mem/arena.h"
#include "obs/counters.h"

namespace hppc::repl {

/// Seqlock read attempts before a reader gives up and takes the master
/// lock. Retries only happen while a writer is mid-publish on this exact
/// replica, so the bound is generous.
inline constexpr int kMaxSeqRetries = 8;

/// Writer-slot sentinel for threads that own no runtime slot.
inline constexpr std::uint32_t kNoSlot = ~0u;

struct ReplicatedTestAccess;  // white-box test hook (stall a replica)

template <typename T>
class Replicated {
  static_assert(std::is_trivially_copyable_v<T>,
                "replicas are copied word-by-word");
  static_assert(sizeof(T) <= 256, "replicate small records, not buffers");

 public:
  /// Called once per non-writer slot on a changing write() when installed:
  /// posts the refresh to `target_slot` (ReplHub rides the xcall ring). The
  /// writer's own replica is always published inline before the propagator
  /// runs.
  using Propagator = std::function<void(
      std::uint32_t writer_slot, std::uint32_t target_slot,
      std::uint64_t version)>;

  /// Maps a slot to the NUMA node its replica should live on (defaults to
  /// node 0 for every slot; Runtime passes its slot-striping).
  using NodeOf = std::function<NodeId(std::uint32_t slot)>;

  /// Without an arena, replicas live in one heap array (cache-line aligned,
  /// first-touch placement). With one, each slot's replica is arena-placed
  /// on `node_of(slot)` — the read path's seqlock line is then node-local
  /// to its single reader, matching the paper's per-processor discipline.
  explicit Replicated(std::uint32_t slots, T initial = T{},
                      mem::Arena* arena = nullptr, NodeOf node_of = {})
      : master_(initial),
        slots_(slots),
        replicas_(slots, nullptr),
        counters_(slots, nullptr) {
    if (arena != nullptr) {
      for (std::uint32_t s = 0; s < slots_; ++s) {
        replicas_[s] = arena->create<Replica>(node_of ? node_of(s) : 0);
      }
    } else {
      heap_ = std::make_unique<Replica[]>(slots);
      for (std::uint32_t s = 0; s < slots_; ++s) replicas_[s] = &heap_[s];
    }
    for (std::uint32_t s = 0; s < slots_; ++s) {
      store_words(*replicas_[s], initial, /*version=*/0);
    }
  }

  Replicated(const Replicated&) = delete;
  Replicated& operator=(const Replicated&) = delete;

  std::uint32_t slots() const { return slots_; }

  /// Wire a slot's observability block (repl_reads / repl_seq_retries /
  /// repl_fallback_locked book here). The block must be owned by the thread
  /// that calls read(slot) — the same single-writer discipline every
  /// SlotCounters block carries.
  void attach_counters(std::uint32_t slot, obs::SlotCounters* c) {
    counters_[slot] = c;
  }

  /// Install the cross-slot propagation hook (see ReplHub). Without one,
  /// write() publishes every replica inline from the writing thread.
  void set_propagator(Propagator p) { propagator_ = std::move(p); }

  /// Lock-free read of `slot`'s replica. Must be called by the thread that
  /// currently owns the slot (its registered thread, or a gate thief) so
  /// the counter booking stays single-writer. Never blocks on a writer for
  /// more than the retry bound; the fallback takes the master mutex.
  T read(std::uint32_t slot) {
    Replica& r = *replicas_[slot];
    obs::SlotCounters* c = counters_[slot];
    std::uint64_t retries = 0;
    for (int attempt = 0; attempt < kMaxSeqRetries; ++attempt) {
      const std::uint32_t s0 = r.seq.load(std::memory_order_acquire);
      if (s0 & 1u) {  // mid-update
        ++retries;
        cpu_relax();
        continue;
      }
      std::array<std::uint64_t, kWords> w;
      for (std::size_t i = 0; i < kWords; ++i) {
        w[i] = r.words[i].load(std::memory_order_relaxed);
      }
      std::atomic_thread_fence(std::memory_order_acquire);
      if (r.seq.load(std::memory_order_relaxed) == s0) {
        if (c != nullptr) {
          c->inc(obs::Counter::kReplReads);
          if (retries != 0) c->inc(obs::Counter::kReplSeqRetries, retries);
        }
        // T is trivially copyable (asserted above) but may carry default
        // member initializers; the void* target says the byte copy is meant.
        T out;
        std::memcpy(static_cast<void*>(&out), w.data(), sizeof(T));
        return out;
      }
      ++retries;
    }
    // Retry bound exhausted: a writer is parked mid-publish on this
    // replica. Read the master under its lock — correct, just not private.
    if (c != nullptr) {
      c->inc(obs::Counter::kReplReads);
      c->inc(obs::Counter::kReplSeqRetries, retries);
      c->inc(obs::Counter::kReplFallbackLocked);
      c->inc(obs::Counter::kLocksTaken);
    }
    std::lock_guard<std::mutex> lock(master_mutex_);
    return master_;
  }

  /// Single writer path: mutate the master under its mutex, then propagate.
  /// `mutate` returns whether it changed the record; an unchanged record
  /// keeps its version and publishes nothing (no replica store, no
  /// propagator call, no repl_invalidations).
  /// `writer_slot` names the calling thread's slot (its replica is
  /// published inline so the writer reads its own writes immediately);
  /// pass repl::kNoSlot from threads that own no slot — unless a ReplHub
  /// manages the object: a hub posts each nudge from the writer's slot,
  /// so its writers must own one (a slotless write asserts).
  template <typename Fn>
    requires requires(Fn f, T& t) {
      { f(t) } -> std::same_as<bool>;
    }
  void write(std::uint32_t writer_slot, Fn&& mutate) {
    std::lock_guard<std::mutex> lock(master_mutex_);
    obs::SlotCounters* c =
        writer_slot != kNoSlot ? counters_[writer_slot] : nullptr;
    if (c != nullptr) c->inc(obs::Counter::kLocksTaken);  // the master mutex
    if (!mutate(master_)) return;
    const std::uint64_t v = version_.load(std::memory_order_relaxed) + 1;
    version_.store(v, std::memory_order_relaxed);
    std::uint64_t published = 0;
    std::uint64_t remote_lines = 0;
    if (writer_slot != kNoSlot) {
      store_words(*replicas_[writer_slot], master_, v);
      ++published;
    }
    for (std::uint32_t s = 0; s < slots_; ++s) {
      if (s == writer_slot) continue;
      if (propagator_) {
        propagator_(writer_slot, s, v);  // ReplHub books the ring traffic
      } else {
        store_words(*replicas_[s], master_, v);
        ++remote_lines;  // inline publish writes another slot's line
      }
      ++published;
    }
    if (c != nullptr) {
      c->inc(obs::Counter::kReplInvalidations, published);
      if (remote_lines != 0) {
        c->inc(obs::Counter::kSharedLinesTouched, remote_lines);
      }
    }
  }

  /// Owner-side refresh: copy the current master into `slot`'s replica.
  /// ReplHub invokes this when the posted update reaches the slot; also
  /// the recovery path for a replica found stale by other means. Takes the
  /// master mutex (booked on the slot) — propagation, not the read path.
  void pull(std::uint32_t slot) {
    if (counters_[slot] != nullptr) {
      counters_[slot]->inc(obs::Counter::kLocksTaken);
    }
    std::lock_guard<std::mutex> lock(master_mutex_);
    store_words(*replicas_[slot], master_,
                version_.load(std::memory_order_relaxed));
  }

  /// Master version (changing writes so far). Relaxed: use for staleness
  /// probes.
  std::uint64_t version() const {
    return version_.load(std::memory_order_relaxed);
  }

  /// The version a slot's replica last applied.
  std::uint64_t replica_version(std::uint32_t slot) const {
    return replicas_[slot]->version.load(std::memory_order_relaxed);
  }

 private:
  friend struct ReplicatedTestAccess;

  static constexpr std::size_t kWords = (sizeof(T) + 7) / 8;

  /// One slot's replica: the sequence word and the payload share the
  /// slot-private line(s); nothing here is written by remote readers.
  struct alignas(kHostCacheLine) Replica {
    std::atomic<std::uint32_t> seq{0};
    std::atomic<std::uint64_t> version{0};
    std::array<std::atomic<std::uint64_t>, kWords> words{};
  };

  /// Seqlock write: callers hold master_mutex_, so `seq` moves odd->even
  /// under exactly one thread at a time; readers key off the parity.
  static void store_words(Replica& r, const T& value, std::uint64_t v) {
    std::array<std::uint64_t, kWords> w{};
    std::memcpy(w.data(), &value, sizeof(T));
    const std::uint32_t s = r.seq.load(std::memory_order_relaxed);
    r.seq.store(s + 1, std::memory_order_relaxed);
    std::atomic_thread_fence(std::memory_order_release);
    for (std::size_t i = 0; i < kWords; ++i) {
      r.words[i].store(w[i], std::memory_order_relaxed);
    }
    r.version.store(v, std::memory_order_relaxed);
    r.seq.store(s + 2, std::memory_order_release);
  }

  mutable std::mutex master_mutex_;
  T master_;
  std::atomic<std::uint64_t> version_{0};
  std::uint32_t slots_;
  std::vector<Replica*> replicas_;  // arena- or heap_-backed
  std::unique_ptr<Replica[]> heap_;   // fallback storage (no arena)
  std::vector<obs::SlotCounters*> counters_;
  Propagator propagator_;
};

/// White-box hook for the retry-bound tests: parks a replica in the
/// mid-update (odd sequence) state and releases it again. Test-only.
struct ReplicatedTestAccess {
  template <typename T>
  static void begin_stall(Replicated<T>& r, std::uint32_t slot) {
    r.replicas_[slot]->seq.fetch_add(1, std::memory_order_release);
  }
  template <typename T>
  static void end_stall(Replicated<T>& r, std::uint32_t slot) {
    r.replicas_[slot]->seq.fetch_add(1, std::memory_order_release);
  }
};

}  // namespace hppc::repl
