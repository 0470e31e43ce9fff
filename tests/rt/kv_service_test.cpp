// KvService: the host runtime's sample domain service.
#include "rt/kv_service.h"

#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <map>
#include <optional>
#include <thread>
#include <vector>

#include "common/heap_audit.h"
#include "rt/request_ctx.h"

namespace hppc::rt {
namespace {

TEST(KvService, PutGetRoundTrip) {
  Runtime rt(1);
  const SlotId slot = rt.register_thread();
  KvService kv(rt);
  ASSERT_EQ(kv.put(slot, 1, 42, 4242), Status::kOk);
  auto v = kv.get(slot, 1, 42);
  ASSERT_TRUE(v.has_value());
  EXPECT_EQ(*v, 4242u);
}

TEST(KvService, GetMissing) {
  Runtime rt(1);
  const SlotId slot = rt.register_thread();
  KvService kv(rt);
  EXPECT_FALSE(kv.get(slot, 1, 777).has_value());
}

TEST(KvService, OverwriteKeepsOneEntry) {
  Runtime rt(1);
  const SlotId slot = rt.register_thread();
  KvService kv(rt);
  kv.put(slot, 1, 5, 100);
  kv.put(slot, 1, 5, 200);
  EXPECT_EQ(*kv.get(slot, 1, 5), 200u);
  ppc::RegSet r;
  ppc::set_op(r, kKvSize);
  ASSERT_EQ(rt.call(slot, 1, kv.ep(), r), Status::kOk);
  EXPECT_EQ(r[0], 1u);
}

TEST(KvService, UnknownOpcodeAnswersInvalidArgument) {
  Runtime rt(1);
  const SlotId slot = rt.register_thread();
  KvService kv(rt);
  kv.put(slot, 1, 5, 100);
  ppc::RegSet r;
  ppc::set_op(r, 99);
  EXPECT_EQ(rt.call(slot, 1, kv.ep(), r), Status::kInvalidArgument);
  EXPECT_EQ(*kv.get(slot, 1, 5), 100u);  // the shard is untouched
}

TEST(KvService, EraseRequiresOwner) {
  Runtime rt(1);
  const SlotId slot = rt.register_thread();
  KvService kv(rt);
  kv.put(slot, /*caller=*/7, 1, 10);
  EXPECT_EQ(kv.erase(slot, /*caller=*/8, 1), Status::kPermissionDenied);
  EXPECT_TRUE(kv.get(slot, 8, 1).has_value());
  EXPECT_EQ(kv.erase(slot, 7, 1), Status::kOk);
  EXPECT_FALSE(kv.get(slot, 7, 1).has_value());
}

TEST(KvService, ProbeChainSurvivesMiddleErase) {
  // Colliding keys form a probe chain; erasing the middle one must keep
  // the tail reachable (the backward-shift correctness case).
  Runtime rt(1);
  const SlotId slot = rt.register_thread();
  KvService::Config cfg;
  cfg.shard_capacity = 8;
  KvService kv(rt, cfg);
  // Keys 0, 8, 16 all hash to slot 0 in an 8-entry shard.
  kv.put(slot, 1, 0, 100);
  kv.put(slot, 1, 8, 108);
  kv.put(slot, 1, 16, 116);
  ASSERT_EQ(kv.erase(slot, 1, 8), Status::kOk);
  EXPECT_EQ(*kv.get(slot, 1, 0), 100u);
  auto tail = kv.get(slot, 1, 16);
  ASSERT_TRUE(tail.has_value());
  EXPECT_EQ(*tail, 116u);
}

TEST(KvService, FillsToCapacityThenRejects) {
  Runtime rt(1);
  const SlotId slot = rt.register_thread();
  KvService::Config cfg;
  cfg.shard_capacity = 4;
  KvService kv(rt, cfg);
  for (Word k = 0; k < 4; ++k) {
    ASSERT_EQ(kv.put(slot, 1, k, k), Status::kOk);
  }
  EXPECT_EQ(kv.put(slot, 1, 99, 99), Status::kOutOfResources);
  // Still consistent.
  for (Word k = 0; k < 4; ++k) EXPECT_EQ(*kv.get(slot, 1, k), k);
}

TEST(KvService, RandomizedAgainstReferenceMap) {
  Runtime rt(1);
  const SlotId slot = rt.register_thread();
  KvService::Config cfg;
  cfg.shard_capacity = 64;
  KvService kv(rt, cfg);
  std::map<Word, Word> ref;
  std::uint64_t seed = 12345;
  for (int i = 0; i < 4000; ++i) {
    seed = seed * 6364136223846793005ULL + 1442695040888963407ULL;
    const Word key = static_cast<Word>((seed >> 16) % 48);
    const Word val = static_cast<Word>(seed >> 40);
    switch ((seed >> 8) % 3) {
      case 0:
        ASSERT_EQ(kv.put(slot, 1, key, val), Status::kOk);
        ref[key] = val;
        break;
      case 1: {
        auto got = kv.get(slot, 1, key);
        auto it = ref.find(key);
        ASSERT_EQ(got.has_value(), it != ref.end()) << "key " << key;
        if (got) {
          ASSERT_EQ(*got, it->second);
        }
        break;
      }
      case 2: {
        const Status s = kv.erase(slot, 1, key);
        ASSERT_EQ(s == Status::kOk, ref.erase(key) == 1) << "key " << key;
        break;
      }
    }
  }
}

TEST(KvService, RemoteGetReachesAnotherSlotsShard) {
  // The owner slot is never registered: call_remote direct-executes the
  // get against its shard on this thread — zero allocations, no helper
  // thread needed.
  Runtime rt(2);
  const SlotId me = rt.register_thread();
  KvService kv(rt);
  // The put is the owner slot's first call: it creates the worker and runs
  // the service's one-time init, both on the heap. The remote gets are
  // warm.
  ASSERT_EQ(kv.put_remote(me, /*owner_slot=*/1, /*caller=*/1, 10, 111),
            Status::kOk);
  EXPECT_FALSE(kv.get(me, 1, 10).has_value());  // not in MY shard
  std::optional<Word> v, miss;
  const std::uint64_t heap = heap_allocs_during([&] {
    v = kv.get_remote(me, 1, 1, 10);
    miss = kv.get_remote(me, 1, 1, 999);
  });
  ASSERT_TRUE(v.has_value());
  EXPECT_EQ(*v, 111u);
  EXPECT_FALSE(miss.has_value());
  EXPECT_EQ(heap, 0u);
}

TEST(KvService, RemoteGetAgainstServingOwner) {
  Runtime rt(2);
  const SlotId me = rt.register_thread();
  KvService kv(rt);
  std::atomic<bool> stop{false};
  std::thread owner([&] {
    const SlotId s = rt.register_thread();
    rt.serve(s, stop);
  });
  for (Word k = 0; k < 64; ++k) {
    ASSERT_EQ(kv.put_remote(me, 1, 1, k, k * 10), Status::kOk);
  }
  for (Word k = 0; k < 64; ++k) {
    auto v = kv.get_remote(me, 1, 1, k);
    ASSERT_TRUE(v.has_value()) << "key " << k;
    EXPECT_EQ(*v, k * 10);
  }
  stop.store(true, std::memory_order_release);
  owner.join();
  // The shard now lives on slot 1 regardless of which path executed.
  EXPECT_FALSE(kv.get(me, 1, 0).has_value());
}

TEST(KvService, MultiPutMultiGetRideBatchedXcalls) {
  // 50 puts then 60 gets (10 of them misses) against a busy-polling
  // owner: every chunk must ride the vectored ring path, so the caller's
  // own counters show coalesced doorbells — ceil(50/16) batch posts of
  // one cell per put, then one batch post of ceil(60/7) kKvGetN cells —
  // and no heap allocation once the service is warm.
  Runtime rt(2);
  const SlotId me = rt.register_thread();
  KvService kv(rt);
  std::atomic<bool> stop{false};
  std::atomic<bool> up{false};
  std::thread owner([&] {
    const SlotId s = rt.register_thread();
    up.store(true, std::memory_order_release);
    while (!stop.load(std::memory_order_acquire)) {
      if (rt.poll(s) == 0) std::this_thread::yield();
    }
  });
  while (!up.load(std::memory_order_acquire)) std::this_thread::yield();

  constexpr std::size_t kPuts = 50;
  constexpr std::size_t kGets = 60;
  std::vector<Word> keys(kPuts), values(kPuts);
  for (std::size_t i = 0; i < kPuts; ++i) {
    keys[i] = 1000 + i;
    values[i] = 10 * i + 1;
  }
  const auto before = rt.slot_snapshot(me);
  ASSERT_EQ(kv.multi_put(me, /*owner_slot=*/1, /*caller=*/1, keys, values),
            Status::kOk);

  std::vector<Word> probe(kGets);
  for (std::size_t i = 0; i < kGets; ++i) probe[i] = 1000 + i;  // last 10 miss
  std::vector<std::optional<Word>> out(kGets);
  std::size_t found = 0;
  // The puts created the owner's worker; the gets run warm.
  const std::uint64_t heap = heap_allocs_during(
      [&] { found = kv.multi_get(me, 1, 1, probe, out); });
  EXPECT_EQ(found, kPuts);
  const auto delta = rt.slot_snapshot(me).delta(before);
  stop.store(true, std::memory_order_release);
  owner.join();

  for (std::size_t i = 0; i < kPuts; ++i) {
    ASSERT_TRUE(out[i].has_value()) << "key " << probe[i];
    EXPECT_EQ(*out[i], values[i]);
  }
  for (std::size_t i = kPuts; i < kGets; ++i) {
    EXPECT_FALSE(out[i].has_value()) << "key " << probe[i];
  }
  EXPECT_EQ(delta.get(obs::Counter::kXcallBatchPosts), 4u + 1u);
  EXPECT_EQ(delta.get(obs::Counter::kXcallCellsPerBatch), kPuts + 9u);
  EXPECT_EQ(delta.get(obs::Counter::kXcallDirect), 0u);
  EXPECT_EQ(heap, 0u);
}

TEST(KvService, MultiGetAnswersHotKeysLocallyAndBatchesOnlyMisses) {
  // With the replicated hot set on, multi_get probes each key's replica
  // first: hot keys never touch the ring, so a probe list that is half
  // hot costs doorbells only for the cold half.
  Runtime rt(2);
  const SlotId me = rt.register_thread();
  KvService::Config cfg;
  cfg.replicated_hot_capacity = 8;
  KvService kv(rt, cfg);
  // Two hot keys, direct-executed on the unregistered owner's shard;
  // write-through admits them, and the poll drains our refresh nudge.
  ASSERT_EQ(kv.put_remote(me, 1, 1, 5, 500), Status::kOk);
  ASSERT_EQ(kv.put_remote(me, 1, 1, 6, 600), Status::kOk);
  rt.poll(me);

  std::atomic<bool> stop{false};
  std::atomic<bool> up{false};
  std::thread owner([&] {
    const SlotId s = rt.register_thread();
    up.store(true, std::memory_order_release);
    while (!stop.load(std::memory_order_acquire)) {
      if (rt.poll(s) == 0) std::this_thread::yield();
    }
  });
  while (!up.load(std::memory_order_acquire)) std::this_thread::yield();

  const std::array<Word, 4> probe = {5, 6, 7, 8};  // 2 hot, 2 misses
  std::array<std::optional<Word>, 4> out;
  const auto before = rt.slot_snapshot(me);
  EXPECT_EQ(kv.multi_get(me, 1, 1, probe, out), 2u);
  const auto delta = rt.slot_snapshot(me).delta(before);
  stop.store(true, std::memory_order_release);
  owner.join();

  EXPECT_EQ(*out[0], 500u);
  EXPECT_EQ(*out[1], 600u);
  EXPECT_FALSE(out[2].has_value());
  EXPECT_FALSE(out[3].has_value());
  // One cell: only the cold keys rode the ring, both packed in one
  // kKvGetN cell, so the submission is a single post, not a batch.
  EXPECT_EQ(delta.get(obs::Counter::kXcallPosts), 1u);
  EXPECT_EQ(delta.get(obs::Counter::kXcallBatchPosts), 0u);
  EXPECT_EQ(delta.get(obs::Counter::kXcallCellsPerBatch), 0u);
  EXPECT_GT(delta.get(obs::Counter::kReplReads), 0u);
}

TEST(KvService, ReplicatedHotGetServesLocally) {
  Runtime rt(2);
  const SlotId me = rt.register_thread();
  KvService::Config cfg;
  cfg.replicated_hot_capacity = 8;
  KvService kv(rt, cfg);
  // The put direct-executes on slot 1's shard (gate steal), write-through
  // admits the key to the hot set, and a refresh nudge lands in our ring.
  ASSERT_EQ(kv.put_remote(me, /*owner_slot=*/1, /*caller=*/1, 10, 111),
            Status::kOk);
  rt.poll(me);  // drain the nudge: our replica refreshes

  const auto before = rt.slot_snapshot(me);
  auto v = kv.get_remote(me, 1, 1, 10);
  ASSERT_TRUE(v.has_value());
  EXPECT_EQ(*v, 111u);
  const auto delta = rt.slot_snapshot(me).delta(before);
  // Served entirely from this slot's replica: no xcall, no lock.
  EXPECT_EQ(delta.get(obs::Counter::kCallsRemote), 0u);
  EXPECT_EQ(delta.get(obs::Counter::kXcallPosts), 0u);
  EXPECT_EQ(delta.get(obs::Counter::kLocksTaken), 0u);
  EXPECT_GT(delta.get(obs::Counter::kReplReads), 0u);
}

TEST(KvService, ReplicatedHotWriteThroughUpdates) {
  Runtime rt(2);
  const SlotId me = rt.register_thread();
  KvService::Config cfg;
  cfg.replicated_hot_capacity = 8;
  KvService kv(rt, cfg);
  ASSERT_EQ(kv.put_remote(me, 1, 1, 10, 111), Status::kOk);
  rt.poll(me);
  EXPECT_EQ(*kv.get_remote(me, 1, 1, 10), 111u);
  ASSERT_EQ(kv.put_remote(me, 1, 1, 10, 222), Status::kOk);
  rt.poll(me);
  EXPECT_EQ(*kv.get_remote(me, 1, 1, 10), 222u);
}

TEST(KvService, ReplicatedHotEraseFallsBackToOwner) {
  Runtime rt(2);
  const SlotId me = rt.register_thread();
  KvService::Config cfg;
  cfg.replicated_hot_capacity = 8;
  KvService kv(rt, cfg);
  ASSERT_EQ(kv.put_remote(me, 1, 1, 10, 111), Status::kOk);
  rt.poll(me);
  ASSERT_TRUE(kv.get_remote(me, 1, 1, 10).has_value());

  ppc::RegSet r;
  r[0] = 10;
  ppc::set_op(r, kKvErase);
  ASSERT_EQ(rt.call_remote(me, 1, 1, kv.ep(), r), Status::kOk);
  rt.poll(me);  // drain the erase's refresh nudge
  // Hot miss now falls through to the owner's shard, which says gone.
  EXPECT_FALSE(kv.get_remote(me, 1, 1, 10).has_value());
}

TEST(KvService, ReplicatedHotMissUsesXcallPath) {
  Runtime rt(2);
  const SlotId me = rt.register_thread();
  KvService::Config cfg;
  cfg.replicated_hot_capacity = 2;  // tiny: keys beyond it never admitted
  KvService kv(rt, cfg);
  for (Word k = 0; k < 6; ++k) {
    ASSERT_EQ(kv.put_remote(me, 1, 1, k, k * 10), Status::kOk);
  }
  rt.poll(me);
  // Every key still readable — admitted ones from the replica, the rest
  // through the owner's xcall channel.
  for (Word k = 0; k < 6; ++k) {
    auto v = kv.get_remote(me, 1, 1, k);
    ASSERT_TRUE(v.has_value()) << "key " << k;
    EXPECT_EQ(*v, k * 10);
  }
}

TEST(KvService, PutThatLeavesTheHotSetUnchangedPublishesNothing) {
  // A full hot set turns a cold key away: that put must not bump the
  // replicas or nudge any other slot. A hot put still reaches them.
  Runtime rt(2);
  const SlotId me = rt.register_thread();
  KvService::Config cfg;
  cfg.replicated_hot_capacity = 2;  // keys 0 and 1 fill it
  KvService kv(rt, cfg);
  for (Word k = 0; k < 6; ++k) {
    ASSERT_EQ(kv.put_remote(me, 1, 1, k, k * 10), Status::kOk);
  }
  rt.poll(me);
  ASSERT_EQ(rt.xcall_depth(me), 0u);

  auto before = rt.snapshot();
  ASSERT_EQ(kv.put_remote(me, 1, 1, 4, 444), Status::kOk);  // cold key
  ASSERT_EQ(kv.put_remote(me, 1, 1, 0, 0), Status::kOk);    // equal value
  EXPECT_EQ(rt.snapshot().delta(before).get(obs::Counter::kReplInvalidations),
            0u);
  EXPECT_EQ(rt.xcall_depth(me), 0u);
  EXPECT_EQ(*kv.get_remote(me, 1, 1, 4), 444u);

  before = rt.snapshot();
  ASSERT_EQ(kv.put_remote(me, 1, 1, 1, 111), Status::kOk);  // hot key
  EXPECT_EQ(rt.snapshot().delta(before).get(obs::Counter::kReplInvalidations),
            2u);
  EXPECT_EQ(rt.xcall_depth(me), 1u);  // the refresh nudge
  rt.poll(me);
  const auto local = rt.slot_snapshot(me);
  EXPECT_EQ(*kv.get_remote(me, 1, 1, 1), 111u);
  // Answered by this slot's refreshed replica, not by the owner.
  EXPECT_EQ(rt.slot_snapshot(me).delta(local).get(obs::Counter::kCallsRemote),
            0u);
}

TEST(KvService, MultiGetPacksSevenMissesPerCell) {
  // Replica misses ride kKvGetN cells, seven keys a cell, all cells of a
  // probe behind one doorbell. Stored and absent keys are interleaved with
  // hot ones; every answer must be exact.
  Runtime rt(2);
  const SlotId me = rt.register_thread();
  KvService::Config cfg;
  cfg.replicated_hot_capacity = 2;
  KvService kv(rt, cfg);
  ASSERT_EQ(kv.put_remote(me, 1, 1, 900, 9000), Status::kOk);  // hot
  ASSERT_EQ(kv.put_remote(me, 1, 1, 901, 9010), Status::kOk);  // hot
  for (Word k = 0; k < 15; ++k) {
    if (k % 3 != 2) {  // every third cold key is absent
      ASSERT_EQ(kv.put_remote(me, 1, 1, 100 + k, 1000 + k), Status::kOk);
    }
  }
  rt.poll(me);
  std::atomic<bool> stop{false};
  std::atomic<bool> up{false};
  std::thread owner([&] {
    const SlotId s = rt.register_thread();
    up.store(true, std::memory_order_release);
    while (!stop.load(std::memory_order_acquire)) {
      if (rt.poll(s) == 0) std::this_thread::yield();
    }
  });
  while (!up.load(std::memory_order_acquire)) std::this_thread::yield();

  for (const std::size_t cold : {1u, 7u, 8u, 15u}) {
    std::vector<Word> probe;
    for (Word k = 0; k < cold; ++k) {
      probe.push_back(100 + k);
      if (k % 4 == 0) probe.push_back(900 + (k / 4) % 2);
    }
    std::vector<std::optional<Word>> out(probe.size(), Word{7});
    const auto before = rt.slot_snapshot(me);
    const std::size_t found = kv.multi_get(me, 1, 1, probe, out);
    const auto delta = rt.slot_snapshot(me).delta(before);

    std::size_t want_found = 0;
    for (std::size_t i = 0; i < probe.size(); ++i) {
      const Word key = probe[i];
      if (key >= 900) {
        EXPECT_EQ(out[i], 9000 + (key - 900) * 10) << "hot key " << key;
        ++want_found;
      } else if ((key - 100) % 3 == 2) {
        EXPECT_FALSE(out[i].has_value()) << "absent key " << key;
      } else {
        EXPECT_EQ(out[i], 1000 + (key - 100)) << "cold key " << key;
        ++want_found;
      }
    }
    EXPECT_EQ(found, want_found) << cold << " cold keys";
    const std::uint64_t cells = (cold + kKvGetNMax - 1) / kKvGetNMax;
    EXPECT_EQ(delta.get(obs::Counter::kXcallPosts), cells) << cold;
    EXPECT_EQ(delta.get(obs::Counter::kXcallBatchPosts), cells > 1 ? 1u : 0u)
        << cold;
    EXPECT_EQ(delta.get(obs::Counter::kXcallCellsPerBatch),
              cells > 1 ? cells : 0u)
        << cold;
  }
  stop.store(true, std::memory_order_release);
  owner.join();
}

TEST(KvService, MultiGetAnswersExactlyAcrossFlushes) {
  // Every miss rides a kKvGetN cell; the default chunk flushes after 16
  // cells (112 keys), so 113 misses take two batched submissions in one
  // call. Stored and absent keys alternate and the answers start out as a
  // sentinel: a word left over from the first flush must never be read
  // as a key, or an answer, of the second.
  Runtime rt(2);
  const SlotId me = rt.register_thread();
  KvService kv(rt);
  constexpr Word kBase = 5000;
  for (Word k = 1; k < 113; k += 2) {  // odd offsets stored, even absent
    ASSERT_EQ(kv.put_remote(me, 1, 1, kBase + k, 70000 + k), Status::kOk);
  }
  std::atomic<bool> stop{false};
  std::atomic<bool> up{false};
  std::thread owner([&] {
    const SlotId s = rt.register_thread();
    up.store(true, std::memory_order_release);
    while (!stop.load(std::memory_order_acquire)) {
      if (rt.poll(s) == 0) std::this_thread::yield();
    }
  });
  while (!up.load(std::memory_order_acquire)) std::this_thread::yield();

  for (const std::size_t misses : {1u, 7u, 8u, 112u, 113u}) {
    std::vector<Word> probe(misses);
    for (std::size_t k = 0; k < misses; ++k) probe[k] = kBase + k;
    std::vector<std::optional<Word>> out(misses, Word{7});
    const auto before = rt.slot_snapshot(me);
    const std::size_t found = kv.multi_get(me, 1, 1, probe, out);
    const auto delta = rt.slot_snapshot(me).delta(before);

    EXPECT_EQ(found, misses / 2) << misses << " misses";
    for (std::size_t k = 0; k < misses; ++k) {
      if (k % 2 == 1) {
        EXPECT_EQ(out[k], 70000 + k) << misses << " misses, key " << k;
      } else {
        EXPECT_FALSE(out[k].has_value()) << misses << " misses, key " << k;
      }
    }
    const std::uint64_t cells = (misses + kKvGetNMax - 1) / kKvGetNMax;
    EXPECT_EQ(delta.get(obs::Counter::kXcallPosts), cells) << misses;
  }
  stop.store(true, std::memory_order_release);
  owner.join();
}

TEST(KvService, MultiGetReadsTheReplicaOncePerCall) {
  // A 16-key multi_get probes every key against one replica snapshot:
  // exactly one repl_read on the caller slot, and every answer exact —
  // hot, stored cold and absent keys alike.
  Runtime rt(2);
  const SlotId me = rt.register_thread();
  KvService::Config cfg;
  cfg.replicated_hot_capacity = 8;
  KvService kv(rt, cfg);
  for (Word k = 0; k < 8; ++k) {  // fill the hot set: keys 10..17
    ASSERT_EQ(kv.put_remote(me, 1, 1, 10 + k, 100 + k), Status::kOk);
  }
  for (Word k = 0; k < 6; ++k) {  // stored beyond it: keys 20..25
    ASSERT_EQ(kv.put_remote(me, 1, 1, 20 + k, 200 + k), Status::kOk);
  }
  rt.poll(me);
  std::atomic<bool> stop{false};
  std::atomic<bool> up{false};
  std::thread owner([&] {
    const SlotId s = rt.register_thread();
    up.store(true, std::memory_order_release);
    while (!stop.load(std::memory_order_acquire)) {
      if (rt.poll(s) == 0) std::this_thread::yield();
    }
  });
  while (!up.load(std::memory_order_acquire)) std::this_thread::yield();

  // 8 hot, 6 stored cold, 2 absent (30, 31), interleaved.
  const std::array<Word, 16> probe = {10, 20, 11, 30, 21, 12, 13, 22,
                                      14, 23, 31, 15, 24, 16, 25, 17};
  std::array<std::optional<Word>, 16> out;
  out.fill(Word{7});
  const auto before = rt.slot_snapshot(me);
  const std::size_t found = kv.multi_get(me, 1, 1, probe, out);
  const auto delta = rt.slot_snapshot(me).delta(before);
  stop.store(true, std::memory_order_release);
  owner.join();

  EXPECT_EQ(found, 14u);
  for (std::size_t i = 0; i < probe.size(); ++i) {
    const Word key = probe[i];
    if (key >= 30) {
      EXPECT_FALSE(out[i].has_value()) << "absent key " << key;
    } else if (key >= 20) {
      EXPECT_EQ(out[i], 200 + (key - 20)) << "cold key " << key;
    } else {
      EXPECT_EQ(out[i], 100 + (key - 10)) << "hot key " << key;
    }
  }
  EXPECT_EQ(delta.get(obs::Counter::kReplReads), 1u);
  // Only the 8 misses rode the ring: ceil(8/7) = 2 cells.
  EXPECT_EQ(delta.get(obs::Counter::kXcallPosts), 2u);
}

TEST(KvService, GetNRefusesAKeyCountOutsideOneToSeven) {
  Runtime rt(2);
  const SlotId me = rt.register_thread();
  KvService kv(rt);
  for (Word k = 0; k < kPpcWords; ++k) {
    ASSERT_EQ(kv.put_remote(me, 1, 1, k, 100 + k), Status::kOk);
  }
  for (const Word n : {Word{0}, Word{8}}) {
    ppc::RegSet r;
    for (Word k = 0; k < kKvGetNMax; ++k) r[k] = k;
    ppc::set_op(r, kKvGetN, n);
    const ppc::RegSet sent = r;
    EXPECT_EQ(rt.call_remote(me, 1, 1, kv.ep(), r), Status::kInvalidArgument)
        << "n " << n;
    EXPECT_EQ(ppc::flags_of(r), n);
    // Every key word comes back as sent: the shard was never read.
    for (std::size_t k = 0; k < kKvGetNMax; ++k) EXPECT_EQ(r[k], sent[k]);
  }
  ppc::RegSet r;
  for (Word k = 0; k < kKvGetNMax; ++k) r[k] = k;
  ppc::set_op(r, kKvGetN, kKvGetNMax);
  ASSERT_EQ(rt.call_remote(me, 1, 1, kv.ep(), r), Status::kOk);
  EXPECT_EQ(ppc::flags_of(r), 0x7Fu);
  for (Word k = 0; k < kKvGetNMax; ++k) EXPECT_EQ(r[k], 100 + k);
}

TEST(KvService, GetNIsRefusedLikeGetUnderExpiredDeadlineOrCancel) {
  Runtime rt(2);
  const SlotId me = rt.register_thread();
  KvService kv(rt);
  ASSERT_EQ(kv.put_remote(me, 1, 1, 10, 100), Status::kOk);
  const auto get = [] {
    ppc::RegSet r;
    r[0] = 10;
    ppc::set_op(r, kKvGet);
    return r;
  };
  const auto get_n = [] {
    ppc::RegSet r;
    r[0] = 10;
    ppc::set_op(r, kKvGetN, 1);
    return r;
  };

  RequestCtx req;
  req.abs_deadline_cycles = 1;  // the distant past
  rt.set_request_ctx(me, req);
  for (ppc::RegSet r : {get(), get_n()}) {
    EXPECT_EQ(rt.call_remote(me, 1, 1, kv.ep(), r),
              Status::kDeadlineExceeded);
    EXPECT_EQ(ppc::rc_of(r), Status::kDeadlineExceeded);
    EXPECT_EQ(r[0], 10u);  // never reached the shard
  }
  rt.clear_request_ctx(me);

  const CancelToken token = rt.cancel_token_create();
  rt.cancel(token);
  CallOptions opts;
  opts.cancel_token = token;
  for (ppc::RegSet r : {get(), get_n()}) {
    EXPECT_EQ(rt.call_remote(me, 1, 1, kv.ep(), r, opts),
              Status::kCallAborted);
    EXPECT_EQ(ppc::rc_of(r), Status::kCallAborted);
    EXPECT_EQ(r[0], 10u);
  }

  // Without the context both answer.
  ppc::RegSet r = get_n();
  ASSERT_EQ(rt.call_remote(me, 1, 1, kv.ep(), r), Status::kOk);
  EXPECT_EQ(r[0], 100u);
  EXPECT_EQ(ppc::flags_of(r), 1u);
}

TEST(KvService, VectoredOpsCorrectAcrossChunkSizes) {
  // Bursts that straddle chunk boundaries land whole: 37 puts ride three
  // chunks (16 + 16 + 5 cells), and 150 gets pack 7 keys to a cell, so
  // their cells fill one 16-cell chunk (112 keys) and spill into a second.
  for (const Word n : {Word{37}, Word{150}}) {
    Runtime rt(2);
    const SlotId me = rt.register_thread();
    KvService kv(rt);
    std::vector<Word> keys(n), values(n);
    for (Word i = 0; i < n; ++i) {
      keys[i] = i;
      values[i] = 1000 + i;
    }
    ASSERT_EQ(kv.multi_put(me, 1, 1, keys, values), Status::kOk)
        << n << " keys";
    std::vector<std::optional<Word>> out(n);
    EXPECT_EQ(kv.multi_get(me, 1, 1, keys, out), n) << n << " keys";
    for (Word i = 0; i < n; ++i) {
      ASSERT_TRUE(out[i].has_value()) << n << " keys, key " << i;
      EXPECT_EQ(*out[i], 1000 + i);
    }
  }
}

TEST(KvService, ShardsArePerSlot) {
  Runtime rt(2);
  const SlotId me = rt.register_thread();
  KvService kv(rt);
  kv.put(me, 1, 10, 111);

  std::optional<Word> other_sees;
  std::thread t([&] {
    const SlotId other = rt.register_thread();
    other_sees = kv.get(other, 1, 10);
  });
  t.join();
  // Different slot, different shard: the key is not there.
  EXPECT_FALSE(other_sees.has_value());
  EXPECT_TRUE(kv.get(me, 1, 10).has_value());
  EXPECT_EQ(kv.initialized_workers(), 2u);  // one init per slot's worker
}

}  // namespace
}  // namespace hppc::rt
