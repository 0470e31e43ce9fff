#include "shm/copy.h"

#include <cstdint>
#include <cstring>

namespace hppc::shm {

CopyServer::CopyServer(Segment& seg, RegionSlot* table,
                       obs::SlotCounters* counters)
    : seg_(seg), table_(table), counters_(counters) {}

void CopyServer::book(obs::Counter c, std::uint64_t n) {
  if (counters_ != nullptr) counters_->inc(c, n);
}

void* CopyServer::resolve(std::uint32_t region, std::uint64_t off,
                          std::uint32_t len, bool writable) {
  // Bounded by the table this process sized, never by the header, and by
  // the calling lane's own range: the owner is the id's lane.
  if (region >= kMaxShmRegions || region_lane(region) != lane_) {
    return nullptr;
  }
  RegionSlot* rs = table_ + region;
  if (rs->state.load(std::memory_order_acquire) != kRegionGranted) {
    return nullptr;
  }
  const std::uint32_t gen = rs->generation.load(std::memory_order_acquire);
  Mapping& m = map_[region];
  if (!m.live || m.generation != gen) {
    // First touch (or the grant was re-issued): map the backing segment.
    // try_open covers the revoke race — a grant that vanished between the
    // state check and here just fails the resolution.
    m.seg = Segment::try_open(region_name(seg_.name(), region, gen));
    m.live = m.seg.mapped();
    m.generation = gen;
    if (!m.live) return nullptr;
    book(obs::Counter::kShmSegmentsMapped, 1);
  }
  // The grant check proper (§4.2): range inside the granted bytes, rights
  // covering the access. `bytes` is re-read from the slot so a shrunken
  // re-grant is honoured even with a cached mapping.
  const std::uint32_t need = writable ? kRegionWrite : kRegionRead;
  if ((rs->rights & need) == 0) return nullptr;
  if (off > rs->bytes || len > rs->bytes - off) return nullptr;
  if (off + len > m.seg.size()) return nullptr;
  return m.seg.base() + off;
}

Status CopyServer::copy_from(std::uint32_t region, std::uint64_t off,
                             void* dst, std::size_t len) {
  // The grant check sees a 32-bit length; a longer copy must not pass it
  // on its low bits and then memcpy the full length.
  if (len > UINT32_MAX) return Status::kBadRegion;
  const void* src =
      resolve(region, off, static_cast<std::uint32_t>(len), false);
  if (src == nullptr) return Status::kBadRegion;
  std::memcpy(dst, src, len);
  book(obs::Counter::kBulkCopyBytes, len);
  return Status::kOk;
}

Status CopyServer::copy_to(std::uint32_t region, std::uint64_t off,
                           const void* src, std::size_t len) {
  if (len > UINT32_MAX) return Status::kBadRegion;  // see copy_from
  void* dst = resolve(region, off, static_cast<std::uint32_t>(len), true);
  if (dst == nullptr) return Status::kBadRegion;
  std::memcpy(dst, src, len);
  book(obs::Counter::kBulkCopyBytes, len);
  return Status::kOk;
}

void CopyServer::invalidate(std::uint32_t region) {
  if (region >= kMaxShmRegions) return;
  Mapping& m = map_[region];
  m.seg = Segment{};
  m.live = false;
  m.generation = 0;
}

}  // namespace hppc::shm
