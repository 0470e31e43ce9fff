// The segment layout: header publication, offset links surviving a second
// mapping at a different base, the lanes' initial ring state, and the
// segment-resident cancel pool being one pool across mappings.
#include "shm/layout.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstddef>
#include <string>

#include "rt/runtime.h"
#include "rt/xcall.h"
#include "shm/segment.h"
#include "shm/transport.h"

#ifdef __linux__
#include <unistd.h>
#endif

namespace hppc::shm {
namespace {

// Line ownership (layout.h): each line a call touches has one writer.
constexpr std::size_t line_of(std::size_t off) { return off / kHostCacheLine; }

static_assert(alignof(rt::XcallRing) == kHostCacheLine &&
                  sizeof(rt::XcallRing) % kHostCacheLine == 0,
              "lanes tile lines: one peer's ring never shares a line with "
              "another's");
static_assert(line_of(offsetof(PeerSlot, heartbeat_ns)) !=
                  line_of(offsetof(PeerSlot, state)),
              "the per-call heartbeat store must not share the line of the "
              "state word the server polls");
static_assert(sizeof(PeerSlot) % kHostCacheLine == 0 &&
                  alignof(PeerSlot) == kHostCacheLine,
              "one peer's entry never shares a line with another's");
std::string uniq_name(const char* tag) {
#ifdef __linux__
  return std::string("/hppc_") + tag + "_" + std::to_string(::getpid());
#else
  return std::string("/hppc_") + tag;
#endif
}

#ifdef __linux__

TEST(ShmLayout, HeaderPublishedAndOffsetsResolve) {
  const std::string name = uniq_name("layout");
  Server server(name);

  // Open the SAME segment a second time: a distinct mapping, almost
  // certainly at a different base — exactly what another process sees.
  // Every structure must be reachable through offsets alone.
  Segment view = Segment::open(name);
  ASSERT_TRUE(view.mapped());
  ASSERT_NE(view.base(), server.segment().base());

  const auto* hdr = reinterpret_cast<const ShmHeader*>(view.base());
  EXPECT_EQ(hdr->magic.load(), kShmMagic);
  EXPECT_EQ(hdr->version, kShmVersion);
  EXPECT_EQ(hdr->max_peers, kMaxShmPeers);
  EXPECT_EQ(hdr->ring_capacity, kShmRingCapacity);
  EXPECT_EQ(hdr->cell_bytes, sizeof(rt::XcallCell));
  EXPECT_EQ(hdr->max_regions, kMaxShmRegions);
  EXPECT_EQ(hdr->total_bytes, view.size());
  EXPECT_NE(hdr->peers_off, kNullOff);
  EXPECT_NE(hdr->lanes_off, kNullOff);
  EXPECT_NE(hdr->regions_off, kNullOff);
  EXPECT_NE(hdr->cancel_flags_off, kNullOff);
  EXPECT_NE(hdr->cancel_cursor_off, kNullOff);

  // Offset round-trip through the second mapping.
  auto* peers = view.at<PeerSlot>(hdr->peers_off);
  EXPECT_EQ(view.offset_of(peers), hdr->peers_off);
  for (std::uint32_t p = 0; p < hdr->max_peers; ++p) {
    EXPECT_EQ(peers[p].state.load(), kPeerFree);
  }
}

TEST(ShmLayout, LanesStartEmpty) {
  const std::string name = uniq_name("lanes");
  Server server(name);
  Segment view = Segment::open(name);
  const auto* hdr = reinterpret_cast<const ShmHeader*>(view.base());
  auto* lanes = view.at<rt::XcallRing>(hdr->lanes_off);
  // Every lane starts on a line boundary of the segment.
  EXPECT_EQ(hdr->lanes_off % kHostCacheLine, 0u);

  for (std::uint32_t p = 0; p < hdr->max_peers; ++p) {
    rt::XcallRing& lane = lanes[p];
    EXPECT_EQ(lane.depth(), 0u);
    EXPECT_EQ(lane.ready_head(), nullptr);
    // Vyukov initial state: cell i's seq is i ("free, claimable at pos i").
    for (std::uint64_t i = 0; i < hdr->ring_capacity; ++i) {
      EXPECT_EQ(lane.cell(i).seq.load(), i);
    }
  }
  auto* peers = view.at<PeerSlot>(hdr->peers_off);
  EXPECT_EQ(hdr->peers_off % kHostCacheLine, 0u);
  EXPECT_EQ(view.offset_of(&peers[1]) - hdr->peers_off, sizeof(PeerSlot));
}

/// The cancel pool as seen through `seg`'s mapping, via the header offsets.
rt::CancelPool pool_of(Segment& seg) {
  const auto* hdr = reinterpret_cast<const ShmHeader*>(seg.base());
  return {seg.at<std::atomic<std::uint32_t>>(hdr->cancel_flags_off),
          seg.at<std::atomic<std::uint32_t>>(hdr->cancel_cursor_off)};
}

TEST(ShmLayout, CancelPoolIsOnePoolAcrossMappings) {
  const std::string name = uniq_name("cancel");
  Server server(name);
  Segment view = Segment::open(name);
  const rt::CancelPool viewed = pool_of(view);
  const rt::CancelPool served = pool_of(server.segment());

  // Token minted through one mapping, flag raised through the other,
  // observed through both: one pool, two address spaces' worth of bases.
  const std::uint32_t tok = viewed.create();
  EXPECT_NE(tok & rt::kCellTokenLaneMask, 0u);
  EXPECT_FALSE(served.requested(tok));
  served.raise(tok);
  EXPECT_TRUE(viewed.requested(tok));
  EXPECT_TRUE(served.requested(tok));
}

TEST(ShmLayout, RuntimeAdoptsSegmentCancelPool) {
  const std::string name = uniq_name("adopt");
  Server server(name);
  rt::Runtime rt(1);
  server.adopt_cancel_pool_into(rt);
  const rt::CancelPool segment = pool_of(server.segment());

  // Tokens the runtime mints now live in the segment: a raise through the
  // runtime is visible to raw segment reads (what the shm server's drain
  // does), and vice versa.
  const rt::CancelToken tok = rt.cancel_token_create();
  EXPECT_FALSE(segment.requested(tok));
  rt.cancel(tok);
  EXPECT_TRUE(segment.requested(tok));

  const std::uint32_t tok2 = segment.create();
  EXPECT_FALSE(rt.cancel_requested(tok2));
  segment.raise(tok2);
  EXPECT_TRUE(rt.cancel_requested(tok2));
}

TEST(ShmLayout, CellMatchesInProcessPacking) {
  // The cell ep lane must keep the in-process packing bit for bit, so one
  // set of pack/unpack helpers serves both transports.
  const std::uint32_t wire = rt::cell_pack_ep(/*ep=*/7, /*token_idx=*/99,
                                              /*bulk=*/false);
  EXPECT_EQ(rt::cell_ep(wire), 7u);
  EXPECT_EQ(rt::cell_token_idx(wire), 99u);
}

#endif  // __linux__

}  // namespace
}  // namespace hppc::shm
