// The bulk-data descriptor: one granted-region range in a ring cell.
//
// A call carries 8 words; payloads that do not fit them move through the
// cross-process CopyServer (src/shm/copy.h), the host form of the paper's
// §4.2 CopyTo/CopyFrom. A caller grants the server a shared-memory region,
// and a call carries `BulkSeg{region, len, addr}` descriptors in its cell —
// `addr` is a byte offset into the region — while the CopyServer moves the
// bytes directly between the granted region and the server's memory. The
// payload never rides the ring.
//
// Permission model: the descriptor is the request, not the grant. The
// server checks every descriptor against the region table it resolved
// itself (lane, state, generation, byte range, rights); a descriptor is
// peer-written input and names nothing the server did not grant.
#pragma once

#include <cstddef>
#include <cstdint>

#include "common/assert.h"
#include "ppc/regs.h"

namespace hppc::rt {

/// Region id of a default BulkSeg: no region table holds it, so the
/// CopyServer refuses it with kBadRegion.
inline constexpr std::uint32_t kBulkRegionNone = 0xFFFFFFFFu;

/// One bulk-data segment: `len` bytes at byte offset `addr` of granted
/// region `region`.
struct BulkSeg {
  std::uint32_t region = kBulkRegionNone;
  std::uint32_t len = 0;
  std::uint64_t addr = 0;  // byte offset into the region

  bool operator==(const BulkSeg&) const = default;
};

inline BulkSeg bulk_region(std::uint32_t region, std::uint64_t offset,
                           std::size_t len) {
  BulkSeg s;
  s.region = region;
  s.len = static_cast<std::uint32_t>(len);
  s.addr = offset;
  return s;
}

// -- RegSet packing (the shm cell wire format) ------------------------------
//
// A segment rides a ring cell as four payload words: {region, len, addr lo,
// addr hi}. With the op word at w[7], a cell fits one segment per
// direction (in at w[0], out at... the handler's choice); calls needing
// more segments place a descriptor block in a granted region and point one
// segment at it.

inline constexpr std::size_t kBulkSegWords = 4;

inline void bulk_seg_pack(ppc::RegSet& regs, std::size_t w0,
                          const BulkSeg& s) {
  HPPC_ASSERT(w0 + kBulkSegWords <= kPpcWords);
  regs[w0] = s.region;
  regs[w0 + 1] = s.len;
  ppc::set_u64(regs, w0 + 2, s.addr);
}

inline BulkSeg bulk_seg_unpack(const ppc::RegSet& regs, std::size_t w0) {
  HPPC_ASSERT(w0 + kBulkSegWords <= kPpcWords);
  BulkSeg s;
  s.region = regs[w0];
  s.len = regs[w0 + 1];
  s.addr = ppc::get_u64(regs, w0 + 2);
  return s;
}

}  // namespace hppc::rt
