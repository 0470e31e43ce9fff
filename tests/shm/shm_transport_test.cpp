// The cross-process transport: warm calls over a lane (threaded and
// forked), cross-process cancellation through the segment pool, the
// granted-region bulk path, the hard-kill extension — a SIGKILLed peer
// detected by heartbeat, its in-flight call completed kCallAborted, its
// lane re-armed whole — and the faulty-peer cases: a scribbled cell stays
// in its lane, a wrongly reaped peer leaves its old lane alone.
#include "shm/transport.h"

#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstring>
#include <memory>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "obs/counters.h"
#include "rt/bulk_desc.h"
#include "rt/xcall.h"
#include "shm/layout.h"

#ifdef __linux__
#include <csignal>
#include <sys/wait.h>
#include <unistd.h>
#endif

namespace hppc::shm {
namespace {

#ifdef __linux__

std::string uniq_name(const char* tag) {
  return std::string("/hppc_") + tag + "_" + std::to_string(::getpid());
}

Status echo_add_one(void* /*self*/, ShmCtx& /*ctx*/, ppc::RegSet& regs) {
  for (std::size_t i = 0; i < kPpcWords; ++i) regs[i] += 1;
  return Status::kOk;
}

// ---------------------------------------------------------------------------
// Threaded (same process, two threads — the protocol is identical, only
// the base addresses coincide)
// ---------------------------------------------------------------------------

TEST(ShmTransport, WarmCallsRoundTripOverALane) {
  const std::string name = uniq_name("warm");
  Server server(name);
  server.bind(&echo_add_one, nullptr);  // ep 1

  std::atomic<bool> done{false};
  std::thread srv([&] {
    while (!done.load(std::memory_order_acquire)) {
      if (server.poll() == 0) std::this_thread::yield();
    }
    server.poll();
  });

  Peer peer(name, /*program=*/42);
  for (std::uint32_t round = 0; round < 256; ++round) {
    ppc::RegSet regs;
    for (std::size_t i = 0; i < kPpcWords; ++i) {
      regs[i] = round * 16 + static_cast<Word>(i);
    }
    ASSERT_EQ(peer.call(/*ep=*/1, regs), Status::kOk);
    for (std::size_t i = 0; i < kPpcWords; ++i) {
      ASSERT_EQ(regs[i], round * 16 + i + 1);
    }
  }
  done.store(true, std::memory_order_release);
  srv.join();

  // 256 calls = 256 drained cells; the lane's wait pool is conserved.
  EXPECT_GE(server.counters().get(obs::Counter::kXcallCellsDrained), 256u);
  EXPECT_EQ(peer.counters().get(obs::Counter::kCallsRemote), 256u);
}

TEST(ShmTransport, UnboundEpFailsAndUnknownTokenCancels) {
  const std::string name = uniq_name("epcheck");
  Server server(name);
  std::atomic<bool> done{false};
  std::thread srv([&] {
    while (!done.load(std::memory_order_acquire)) {
      if (server.poll() == 0) std::this_thread::yield();
    }
  });

  Peer peer(name, 1);
  ppc::RegSet regs;
  EXPECT_EQ(peer.call(/*ep=*/33, regs), Status::kNoSuchEntryPoint);

  // A pre-cancelled token aborts at the drain seam without dispatching.
  const std::uint32_t tok = peer.cancel_token_create();
  peer.cancel(tok);
  EXPECT_EQ(peer.call(/*ep=*/33, regs, tok), Status::kCallAborted);

  done.store(true, std::memory_order_release);
  srv.join();
}

// ---------------------------------------------------------------------------
// Granted-region bulk path
// ---------------------------------------------------------------------------

struct BulkXorService {
  std::uint64_t bytes_seen = 0;

  // regs carry one BulkSeg (packed at w[0..3]): XOR every granted byte
  // with 0x5A in place — copy_from, transform, copy_to. The payload never
  // rides the ring; the cell traffic is O(1) in the payload size.
  static Status run(void* self, ShmCtx& ctx, ppc::RegSet& regs) {
    auto* svc = static_cast<BulkXorService*>(self);
    const rt::BulkSeg seg = rt::bulk_seg_unpack(regs, 0);
    std::vector<std::byte> stage(seg.len);
    Status rc = ctx.copy->copy_from(seg.region, seg.addr, stage.data(),
                                    stage.size());
    if (rc != Status::kOk) return rc;
    for (std::byte& b : stage) b ^= std::byte{0x5A};
    rc = ctx.copy->copy_to(seg.region, seg.addr, stage.data(), stage.size());
    if (rc != Status::kOk) return rc;
    svc->bytes_seen += seg.len;
    return Status::kOk;
  }
};

TEST(ShmTransport, BulkDescriptorsMoveBytesThroughGrantedRegions) {
  const std::string name = uniq_name("bulk");
  Server server(name);
  BulkXorService svc;
  const ShmEp ep = server.bind(&BulkXorService::run, &svc);

  std::atomic<bool> done{false};
  std::thread srv([&] {
    while (!done.load(std::memory_order_acquire)) {
      if (server.poll() == 0) std::this_thread::yield();
    }
  });

  Peer peer(name, 7);
  constexpr std::size_t kBytes = 64 * 1024;
  const std::uint32_t region = peer.grant_region(kBytes);
  ASSERT_LT(region, kMaxShmRegions);
  std::byte* base = peer.region_base(region);
  ASSERT_NE(base, nullptr);
  for (std::size_t i = 0; i < kBytes; ++i) {
    base[i] = static_cast<std::byte>(i & 0xFF);
  }

  ppc::RegSet regs;
  rt::bulk_seg_pack(regs, 0, rt::bulk_region(region, 0, kBytes));
  ASSERT_EQ(peer.call(ep, regs), Status::kOk);
  for (std::size_t i = 0; i < kBytes; ++i) {
    ASSERT_EQ(base[i], static_cast<std::byte>((i & 0xFF) ^ 0x5A)) << i;
  }
  // copy_from + copy_to both book: 2x the payload.
  EXPECT_EQ(server.counters().get(obs::Counter::kBulkCopyBytes), 2 * kBytes);
  // Main segment + the mapped grant.
  EXPECT_GE(server.counters().get(obs::Counter::kShmSegmentsMapped), 2u);

  // Descriptors out of the granted range (or after revoke) must refuse.
  rt::bulk_seg_pack(regs, 0, rt::bulk_region(region, kBytes - 8, 64));
  EXPECT_EQ(peer.call(ep, regs), Status::kBadRegion);
  peer.revoke_region(region);
  rt::bulk_seg_pack(regs, 0, rt::bulk_region(region, 0, 64));
  EXPECT_EQ(peer.call(ep, regs), Status::kBadRegion);

  done.store(true, std::memory_order_release);
  srv.join();
  // Read the handler's own (process-private) tally after the join: the
  // call's completion is ordered through the segment, which the peer maps
  // at a different address than the server, so a race detector that
  // tracks ordering per address does not see it.
  EXPECT_EQ(svc.bytes_seen, kBytes);
}

// ---------------------------------------------------------------------------
// Forked (genuinely cross-process)
// ---------------------------------------------------------------------------

TEST(ShmTransport, CrossProcessEchoOverFork) {
  const std::string name = uniq_name("fork");
  Server server(name);
  server.bind(&echo_add_one, nullptr);  // ep 1

  const pid_t child = ::fork();
  ASSERT_GE(child, 0);
  if (child == 0) {
    // Child: attach from a fresh mapping and drive calls. Plain _exit
    // codes report failure — no gtest in the child.
    try {
      Peer peer(name, /*program=*/99);
      for (std::uint32_t round = 0; round < 512; ++round) {
        ppc::RegSet regs;
        regs[0] = round;
        if (peer.call(1, regs) != Status::kOk) ::_exit(2);
        if (regs[0] != round + 1) ::_exit(3);
      }
    } catch (...) {
      ::_exit(4);
    }
    ::_exit(0);
  }

  int st = 0;
  while (::waitpid(child, &st, WNOHANG) == 0) server.poll();
  server.poll();  // sweep anything posted just before exit
  ASSERT_TRUE(WIFEXITED(st));
  EXPECT_EQ(WEXITSTATUS(st), 0);
  EXPECT_GE(server.counters().get(obs::Counter::kXcallCellsDrained), 512u);
}

TEST(ShmTransport, CancelCrossesTheProcessBoundary) {
  const std::string name = uniq_name("xcancel");
  Server server(name);
  static std::atomic<std::uint32_t> executed{0};
  executed.store(0);
  server.bind(
      +[](void*, ShmCtx&, ppc::RegSet&) {
        executed.fetch_add(1);
        return Status::kOk;
      },
      nullptr);

  const pid_t child = ::fork();
  ASSERT_GE(child, 0);
  if (child == 0) {
    try {
      Peer peer(name, 5);
      // Mint in the child, cancel in the child, post with the token: the
      // PARENT's drain must see the flag (it lives in the segment) and
      // refuse the dispatch.
      const std::uint32_t tok = peer.cancel_token_create();
      peer.cancel(tok);
      ppc::RegSet regs;
      if (peer.call(1, regs, tok) != Status::kCallAborted) ::_exit(2);
      // And an uncancelled token still executes.
      const std::uint32_t tok2 = peer.cancel_token_create();
      if (peer.call(1, regs, tok2) != Status::kOk) ::_exit(3);
    } catch (...) {
      ::_exit(4);
    }
    ::_exit(0);
  }

  int st = 0;
  while (::waitpid(child, &st, WNOHANG) == 0) server.poll();
  server.poll();
  ASSERT_TRUE(WIFEXITED(st));
  EXPECT_EQ(WEXITSTATUS(st), 0);
  EXPECT_EQ(executed.load(), 1u);  // the cancelled call never dispatched
}

TEST(ShmTransport, Kill9PeerIsReapedWithPoolConservation) {
  const std::string name = uniq_name("kill9");
  Server server(name);
  server.bind(&echo_add_one, nullptr);

  const pid_t child = ::fork();
  ASSERT_GE(child, 0);
  if (child == 0) {
    try {
      Peer peer(name, 13);
      peer.grant_region(4096);  // a grant the reaper must also revoke
      ppc::RegSet regs;
      // The server never polls while this call is in flight, so the child
      // blocks inside call() — a genuinely in-flight cell — until SIGKILL.
      peer.call(1, regs);
    } catch (...) {
      ::_exit(4);
    }
    ::_exit(0);
  }

  // Observe the in-flight cell through the segment, then kill -9.
  Segment& seg = server.segment();
  const auto* hdr = reinterpret_cast<const ShmHeader*>(seg.base());
  auto* lane = seg.at<rt::XcallRing>(hdr->lanes_off);  // child took lane 0
  while (!lane->head_ready()) std::this_thread::yield();
  auto* regions = seg.at<RegionSlot>(hdr->regions_off);
  while (regions[0].state.load(std::memory_order_acquire) != kRegionGranted) {
    std::this_thread::yield();
  }
  ASSERT_EQ(::kill(child, SIGKILL), 0);
  int st = 0;
  ASSERT_EQ(::waitpid(child, &st, 0), child);
  ASSERT_TRUE(WIFSIGNALED(st));
  rt::XcallCell& cell = lane->cell(0);
  ASSERT_EQ(cell.seq.load(std::memory_order_acquire), 1u);

  // The heartbeat (refreshed at call time) must go stale first; 20ms is
  // comfortably past a few scheduler quanta, and pid_gone() (ESRCH after
  // waitpid) confirms immediately.
  ::usleep(25'000);
  EXPECT_EQ(server.reap_dead_peers(/*dead_after_ns=*/20'000'000), 1u);

  // The in-flight call completed kCallAborted in its own cell — exactly,
  // including the done bit — without executing.
  EXPECT_EQ(cell.state.load(),
            rt::kCellDone | static_cast<std::uint32_t>(Status::kCallAborted));

  // Slot conservation: the ring is re-armed — empty, and a claim of the
  // whole ring succeeds — and the peer slot and the grant are free.
  EXPECT_EQ(lane->depth(), 0u);
  EXPECT_FALSE(lane->head_ready());
  EXPECT_EQ(lane->try_post(rt::XcallRing::kCapacity,
                           [](rt::XcallCell& c, std::size_t) {
                             c.caller = 0;
                             c.ep = 0;
                             c.deadline = 0;
                             c.regs = {};
                           }),
            rt::XcallRing::kCapacity);
  EXPECT_EQ(lane->drain([](rt::XcallCell&) {}), rt::XcallRing::kCapacity);
  auto* peers = seg.at<PeerSlot>(hdr->peers_off);
  EXPECT_EQ(peers[0].state.load(), kPeerFree);
  EXPECT_EQ(regions[0].state.load(), kRegionFree);

  EXPECT_GE(server.counters().get(obs::Counter::kHeartbeatsMissed), 1u);
  EXPECT_EQ(server.counters().get(obs::Counter::kPeerDeaths), 1u);

  // The slot is reusable: a fresh peer attaches and calls through the
  // rebuilt lane.
  std::atomic<bool> done{false};
  std::thread srv([&] {
    while (!done.load(std::memory_order_acquire)) {
      if (server.poll() == 0) std::this_thread::yield();
    }
  });
  Peer again(name, 14);
  EXPECT_EQ(again.peer_index(), 0u);
  ppc::RegSet regs;
  regs[0] = 7;
  EXPECT_EQ(again.call(1, regs), Status::kOk);
  EXPECT_EQ(regs[0], 8u);
  done.store(true, std::memory_order_release);
  srv.join();
}

TEST(ShmTransport, ServerNeverRereadsLayoutOffsets) {
  // The server resolves the layout once, at create time. After honest
  // peers attach, a writer with the segment mapped scribbles every layout
  // offset the header holds — lanes, peer table, regions and cancel pool
  // — with values past the end of the segment, so any re-read on the
  // serving or reaping path would trip the bounds assert.
  // The server must keep serving exact replies, and the reaper must still
  // find and reap a dead peer.
  const std::string name = uniq_name("scribble");
  Server server(name);
  server.bind(&echo_add_one, nullptr);

  // A forked peer takes lane 0 and waits to be killed; fork before any
  // thread starts. It also leaves if this process dies first, so a failed
  // run strands no child.
  const pid_t parent = ::getpid();
  const pid_t child = ::fork();
  ASSERT_GE(child, 0);
  if (child == 0) {
    try {
      Peer doomed(name, 13);
      while (::getppid() == parent) ::usleep(1000);
    } catch (...) {
      ::_exit(4);
    }
    ::_exit(0);
  }
  while (server.attached_peers() == 0) std::this_thread::yield();
  Peer peer(name, 42);
  ASSERT_EQ(peer.peer_index(), 1u);

  std::atomic<bool> done{false};
  auto serve = [&] {
    return std::thread([&] {
      while (!done.load(std::memory_order_acquire)) {
        if (server.poll() == 0) std::this_thread::yield();
      }
    });
  };
  std::thread srv = serve();
  ppc::RegSet regs;
  regs[0] = 1;
  ASSERT_EQ(peer.call(1, regs), Status::kOk);
  ASSERT_EQ(regs[0], 2u);

  Segment view = Segment::open(name);
  auto* hdr = reinterpret_cast<ShmHeader*>(view.base());
  const std::uint64_t wild = view.size() + 4096;
  hdr->lanes_off = wild;
  hdr->peers_off = wild + 64;
  hdr->regions_off = wild + 128;
  hdr->cancel_flags_off = wild + 192;
  hdr->cancel_cursor_off = wild + 256;

  for (std::uint32_t round = 0; round < 256; ++round) {
    for (std::size_t i = 0; i < kPpcWords; ++i) {
      regs[i] = round * 16 + static_cast<Word>(i);
    }
    ASSERT_EQ(peer.call(1, regs), Status::kOk);
    for (std::size_t i = 0; i < kPpcWords; ++i) {
      ASSERT_EQ(regs[i], round * 16 + i + 1);
    }
  }
  done.store(true, std::memory_order_release);
  srv.join();

  // Kill the forked peer; the reaper (same thread as poll) still finds it.
  ASSERT_EQ(::kill(child, SIGKILL), 0);
  int st = 0;
  ASSERT_EQ(::waitpid(child, &st, 0), child);
  ::usleep(25'000);
  peer.heartbeat();
  EXPECT_EQ(server.reap_dead_peers(/*dead_after_ns=*/20'000'000), 1u);
  EXPECT_EQ(server.counters().get(obs::Counter::kPeerDeaths), 1u);
  EXPECT_EQ(server.attached_peers(), 1u);

  done.store(false, std::memory_order_release);
  srv = serve();
  regs[0] = 7;
  EXPECT_EQ(peer.call(1, regs), Status::kOk);
  EXPECT_EQ(regs[0], 8u);
  done.store(true, std::memory_order_release);
  srv.join();
}

TEST(ShmTransport, ScribbledCellStaysInItsLane) {
  // Anything a peer writes into its own published cell is untrusted: the
  // scribbler may lose its own call, but the server must stay up, write
  // nowhere outside the scribbler's ring, and keep serving honest peers
  // exactly. The cell is handled as raw bytes: the test finds it by its
  // payload and overwrites everything after the seq word (bytes 8..63)
  // with seeded random bytes before the server drains it.
  const std::string name = uniq_name("scrcell");
  Server server(name);
  server.bind(&echo_add_one, nullptr);  // ep 1
  Peer honest(name, 1);
  Peer scribbler(name, 2);

  constexpr Word kMark = 0x5C81BB10u;
  std::atomic<bool> returned{false};
  std::thread caller([&] {
    ppc::RegSet regs;
    for (std::size_t i = 0; i < kPpcWords; ++i) {
      regs[i] = kMark + static_cast<Word>(i);
    }
    scribbler.call(1, regs);  // any status: the scribbler may lose it
    returned.store(true, std::memory_order_release);
  });

  // The published cell is the one line of the segment holding the payload;
  // its seq word reads 1 once the scribbler's first post is published.
  Segment view = Segment::open(name);
  std::array<Word, kPpcWords> mark{};
  for (std::size_t i = 0; i < kPpcWords; ++i) {
    mark[i] = kMark + static_cast<Word>(i);
  }
  std::size_t cell_off = 0;
  while (cell_off == 0) {
    for (std::size_t off = 0; off + sizeof(mark) <= view.size();
         off += sizeof(Word)) {
      if (std::memcmp(view.base() + off, mark.data(), sizeof(mark)) == 0) {
        cell_off = off / kHostCacheLine * kHostCacheLine;
        break;
      }
    }
  }
  auto* seq = reinterpret_cast<std::atomic<std::uint64_t>*>(view.base() +
                                                            cell_off);
  while (seq->load(std::memory_order_acquire) != 1) std::this_thread::yield();

  std::mt19937_64 rng(20261017);
  for (std::size_t b = 8; b < kHostCacheLine; ++b) {
    view.base()[cell_off + b] = static_cast<std::byte>(rng() & 0xFF);
  }

  // Drain the scribbled cell; the server runs on this thread.
  std::vector<std::byte> before(view.base(), view.base() + view.size());
  while (!returned.load(std::memory_order_acquire)) {
    server.poll();
    std::this_thread::yield();
  }
  caller.join();
  server.poll();

  // Only the scribbler's ring changed: its cell, its cursors and the rest
  // of its cells (one rt::XcallRing, the cell being its first), plus any
  // peer's heartbeat word.
  const std::size_t ring_lo = cell_off - 2 * kHostCacheLine;
  const std::size_t ring_hi = cell_off + kShmRingCapacity * kHostCacheLine;
  const auto* hdr = reinterpret_cast<const ShmHeader*>(view.base());
  auto in_heartbeat = [&](std::size_t off) {
    for (std::uint32_t p = 0; p < kMaxShmPeers; ++p) {
      const std::size_t hb =
          hdr->peers_off + p * sizeof(PeerSlot) + offsetof(PeerSlot,
                                                           heartbeat_ns);
      if (off >= hb && off < hb + sizeof(std::uint64_t)) return true;
    }
    return false;
  };
  for (std::size_t off = 0; off < view.size(); ++off) {
    if (view.base()[off] == before[off]) continue;
    EXPECT_TRUE((off >= ring_lo && off < ring_hi) || in_heartbeat(off))
        << "server wrote outside the scribbler's ring at offset " << off;
  }

  // The server is still up and honest replies stay exact.
  std::atomic<bool> done{false};
  std::thread srv([&] {
    while (!done.load(std::memory_order_acquire)) {
      if (server.poll() == 0) std::this_thread::yield();
    }
  });
  for (std::uint32_t round = 0; round < 2 * kShmRingCapacity; ++round) {
    ppc::RegSet regs;
    for (std::size_t i = 0; i < kPpcWords; ++i) {
      regs[i] = round * 16 + static_cast<Word>(i);
    }
    ASSERT_EQ(honest.call(1, regs), Status::kOk);
    for (std::size_t i = 0; i < kPpcWords; ++i) {
      ASSERT_EQ(regs[i], round * 16 + i + 1);
    }
  }
  done.store(true, std::memory_order_release);
  srv.join();
}

TEST(ShmTransport, ReapedWedgedPeerNeverTouchesItsOldLane) {
  // The 8x backstop reaps a peer whose heartbeat went stale even though
  // its pid is alive — a wedged peer. Here it is a thread of this process
  // whose wait refreshes its heartbeat every few hundred ladder rounds,
  // far slower than the 10 us threshold below, with nobody polling. Its
  // in-flight call must come back kCallAborted, it must never touch the
  // segment again, and a fresh peer on the same lane must run exactly.
  const std::string name = uniq_name("wedged");
  Server server(name);
  server.bind(&echo_add_one, nullptr);  // ep 1
  auto wedged = std::make_unique<Peer>(name, 3);
  ASSERT_EQ(wedged->peer_index(), 0u);

  std::atomic<Status> rc{Status::kOk};
  std::atomic<bool> returned{false};
  std::thread caller([&] {
    ppc::RegSet regs;
    regs[0] = 1;
    rc.store(wedged->call(1, regs));
    returned.store(true, std::memory_order_release);
  });
  Segment view = Segment::open(name);
  const auto* hdr = reinterpret_cast<const ShmHeader*>(view.base());
  auto* lane = view.at<rt::XcallRing>(hdr->lanes_off);
  while (!lane->head_ready()) std::this_thread::yield();
  while (server.reap_dead_peers(/*dead_after_ns=*/10'000) == 0) {
    std::this_thread::sleep_for(std::chrono::microseconds(100));
  }
  EXPECT_EQ(server.counters().get(obs::Counter::kPeerDeaths), 1u);
  caller.join();
  EXPECT_EQ(rc.load(), Status::kCallAborted);

  // A fresh peer takes the lane; the reaped one's later calls, heartbeats
  // and teardown leave every byte of the segment as it was.
  Peer fresh(name, 4);
  ASSERT_EQ(fresh.peer_index(), 0u);
  std::vector<std::byte> before(view.base(), view.base() + view.size());
  ppc::RegSet regs;
  EXPECT_EQ(wedged->call(1, regs), Status::kCallAborted);
  wedged->heartbeat();
  wedged.reset();
  EXPECT_EQ(std::memcmp(before.data(), view.base(), view.size()), 0);
  EXPECT_EQ(server.attached_peers(), 1u);

  std::atomic<bool> done{false};
  std::thread srv([&] {
    while (!done.load(std::memory_order_acquire)) {
      if (server.poll() == 0) std::this_thread::yield();
    }
  });
  for (std::uint32_t round = 0; round < 2 * kShmRingCapacity; ++round) {
    regs[0] = round;
    ASSERT_EQ(fresh.call(1, regs), Status::kOk);
    ASSERT_EQ(regs[0], round + 1);
  }
  done.store(true, std::memory_order_release);
  srv.join();
}

#endif  // __linux__

}  // namespace
}  // namespace hppc::shm
