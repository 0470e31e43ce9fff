// The cross-process CopyServer: bulk data over granted regions (§4.2).
//
// "A caller may give permission to the server to read and write selected
//  portions of its address space. The actual transfer of data is done by
//  a separate CopyTo or CopyFrom request."
//
// Host shape: a peer grants a region — a separate shm segment it created
// and registered in the transport segment's RegionSlot table — and calls
// carry rt::BulkSeg{region, offset, len} descriptors in the ring cell
// (four payload words, rt::bulk_seg_pack). The CopyServer here is the
// server process's view of the grant table: it maps a region's backing
// segment lazily on first resolution, validates every descriptor against
// the grant's byte range, rights and generation, and moves payloads with
// one memcpy directly between the granted region and the server's memory
// — O(1) cell traffic per call no matter the payload size, and the bytes
// themselves never ride the ring. This is the runtime's one bulk-data
// path: a call carries 8 words, and anything larger moves here.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>

#include "common/status.h"
#include "obs/counters.h"
#include "shm/layout.h"
#include "shm/segment.h"

namespace hppc::shm {

class CopyServer {
 public:
  /// `seg` is the transport segment and `table` its kMaxShmRegions-entry
  /// region table, resolved once by the server: the peer-writable header
  /// (`regions_off`, `max_regions`) is never read again. `counters` is
  /// where bulk_copy_bytes / shm_segments_mapped are booked (single-writer:
  /// the server's polling thread); nullptr books nowhere.
  CopyServer(Segment& seg, RegionSlot* table, obs::SlotCounters* counters);

  CopyServer(const CopyServer&) = delete;
  CopyServer& operator=(const CopyServer&) = delete;

  /// The lane whose handler runs now (ShmCtx::peer): the server sets it
  /// around each lane's drain. Every call below refuses a region outside
  /// this lane's range; kMaxShmPeers (the default) refuses every region.
  void serve_lane(std::uint32_t peer) { lane_ = peer; }

  /// Resolve one granted range to a server-local pointer, or nullptr when
  /// the descriptor fails the grant check: a region of another lane,
  /// unknown/revoked region, stale generation, range outside the grant,
  /// or rights not covering the access. Maps the region's backing segment
  /// on first use.
  void* resolve(std::uint32_t region, std::uint64_t off, std::uint32_t len,
                bool writable);

  /// CopyFrom: granted region -> server memory. One memcpy; books
  /// bulk_copy_bytes. kBadRegion when the grant check refuses.
  Status copy_from(std::uint32_t region, std::uint64_t off, void* dst,
                   std::size_t len);

  /// CopyTo: server memory -> granted region. Requires a write grant.
  Status copy_to(std::uint32_t region, std::uint64_t off, const void* src,
                 std::size_t len);

  /// Drop a cached mapping (revoke, peer reap). The next resolve re-reads
  /// the slot — and refuses if the grant is gone.
  void invalidate(std::uint32_t region);

 private:
  struct Mapping {
    Segment seg;                     // unmapped when not resolved yet
    std::uint32_t generation = 0;    // grant generation the mapping is for
    bool live = false;
  };

  void book(obs::Counter c, std::uint64_t n);

  Segment& seg_;
  RegionSlot* const table_;  // [kMaxShmRegions], in seg_
  obs::SlotCounters* counters_;
  std::uint32_t lane_ = kMaxShmPeers;
  std::array<Mapping, kMaxShmRegions> map_{};
};

}  // namespace hppc::shm
