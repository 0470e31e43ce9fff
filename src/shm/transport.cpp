#include "shm/transport.h"

#include <cstring>
#include <stdexcept>

#ifdef __linux__
#include <csignal>
#include <cerrno>
#include <ctime>
#include <sched.h>
#include <unistd.h>
#else
#include <chrono>
#include <thread>
#endif

#include "mem/arena.h"
#include "rt/runtime.h"

namespace hppc::shm {

namespace {

std::uint64_t now_ns() {
#ifdef __linux__
  timespec ts{};
  ::clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<std::uint64_t>(ts.tv_sec) * 1'000'000'000ull +
         static_cast<std::uint64_t>(ts.tv_nsec);
#else
  return static_cast<std::uint64_t>(
      std::chrono::steady_clock::now().time_since_epoch().count());
#endif
}

void yield_thread() {
#ifdef __linux__
  ::sched_yield();
#else
  std::this_thread::yield();
#endif
}

std::uint32_t self_pid() {
#ifdef __linux__
  return static_cast<std::uint32_t>(::getpid());
#else
  return 1;
#endif
}

bool pid_gone(std::uint32_t pid) {
#ifdef __linux__
  return pid != 0 && ::kill(static_cast<pid_t>(pid), 0) != 0 &&
         errno == ESRCH;
#else
  (void)pid;
  return false;
#endif
}

std::atomic<std::uint32_t>* cancel_flags_of(Segment& seg) {
  const auto* hdr = reinterpret_cast<const ShmHeader*>(seg.base());
  return seg.at<std::atomic<std::uint32_t>>(hdr->cancel_flags_off);
}

std::atomic<std::uint32_t>* cancel_cursor_of(Segment& seg) {
  const auto* hdr = reinterpret_cast<const ShmHeader*>(seg.base());
  return seg.at<std::atomic<std::uint32_t>>(hdr->cancel_cursor_off);
}

}  // namespace

// -- segment-resident cancel pool -------------------------------------------

std::uint32_t shm_cancel_token_create(Segment& seg) {
  // Same contract as Runtime::cancel_token_create: never hand out a token
  // whose pool index is 0 (0 in the cell lane means "not cancellable"),
  // and clear the flag the new token maps to.
  std::atomic<std::uint32_t>* cursor = cancel_cursor_of(seg);
  std::uint32_t t;
  do {
    t = cursor->fetch_add(1, std::memory_order_relaxed);
  } while ((t & rt::kCellTokenLaneMask) == 0);
  cancel_flags_of(seg)[t & rt::kCellTokenLaneMask].store(
      0, std::memory_order_relaxed);
  return t;
}

void shm_cancel(Segment& seg, std::uint32_t token) {
  if (token == 0) return;
  cancel_flags_of(seg)[token & rt::kCellTokenLaneMask].store(
      1, std::memory_order_release);
}

bool shm_cancel_requested(Segment& seg, std::uint32_t token) {
  return token != 0 &&
         cancel_flags_of(seg)[token & rt::kCellTokenLaneMask].load(
             std::memory_order_acquire) != 0;
}

// -- Server -----------------------------------------------------------------

Server::Server(const std::string& name, ServerOptions opts)
    : seg_(Segment::create(name, opts.segment_bytes)),
      copy_(seg_, opts.counters != nullptr ? opts.counters : &own_counters_),
      counters_(opts.counters != nullptr ? opts.counters : &own_counters_) {
  // Lay the segment out through a segment-backed arena: the header is
  // page 0; everything else is bump-allocated behind it and linked into
  // the header by offset. The arena is a throwaway — its chunk is the
  // segment itself, which outlives it.
  auto* hdr = ::new (seg_.base()) ShmHeader{};
  mem::Arena arena(seg_.base() + sizeof(ShmHeader),
                   seg_.size() - sizeof(ShmHeader));
  // allocate() aligns relative to its own base; the segment base is
  // page-aligned, so as long as sizeof(ShmHeader) keeps the arena base
  // 64-byte aligned the cache-line intents below hold. Assert it.
  static_assert(sizeof(ShmHeader) % 64 == 0,
                "header must keep the arena base cache-line aligned");

  auto* peers = arena.create_array<PeerSlot>(0, kMaxShmPeers);
  auto* lanes = arena.create_array<rt::XcallRing>(0, kMaxShmPeers);
  auto* regions = arena.create_array<RegionSlot>(0, kMaxShmRegions);
  auto* flags =
      arena.create_array<std::atomic<std::uint32_t>>(0, rt::kMaxCancelTokens);
  auto* cursor = arena.create<std::atomic<std::uint32_t>>(0, 1u);

  peers_ = peers;
  lanes_ = lanes;
  regions_ = regions;
  cancel_flags_ = flags;

  hdr->version = kShmVersion;
  hdr->max_peers = kMaxShmPeers;
  hdr->ring_capacity = kShmRingCapacity;
  hdr->cell_bytes = sizeof(rt::XcallCell);
  hdr->max_regions = kMaxShmRegions;
  hdr->server_pid.store(self_pid(), std::memory_order_relaxed);
  hdr->total_bytes = seg_.size();
  hdr->peers_off = seg_.offset_of(peers);
  hdr->lanes_off = seg_.offset_of(lanes);
  hdr->regions_off = seg_.offset_of(regions);
  hdr->cancel_flags_off = seg_.offset_of(flags);
  hdr->cancel_cursor_off = seg_.offset_of(cursor);

  // Publish: openers acquire-load the magic before trusting any offset.
  hdr->magic.store(kShmMagic, std::memory_order_release);

  counters_->inc(obs::Counter::kShmSegmentsMapped);
}

Server::~Server() {
  if (seg_.mapped()) {
    header()->stop.store(1, std::memory_order_release);
    seg_.unlink();
  }
}

ShmEp Server::bind(ShmFn fn, void* self) {
  if (next_ep_ >= kMaxShmEps) return 0;
  const ShmEp ep = next_ep_++;
  services_[ep].self = self;
  services_[ep].fn.store(fn, std::memory_order_release);
  return ep;
}

std::size_t Server::poll() {
  std::size_t n = 0;
  for (std::uint32_t p = 0; p < kMaxShmPeers; ++p) {
    if (peers_[p].state.load(std::memory_order_acquire) == kPeerAttached) {
      n += drain_lane(p);
    }
  }
  return n;
}

std::size_t Server::drain_lane(std::uint32_t peer_idx) {
  // The lane is an rt::XcallRing: the ring runs the cell protocol, so this
  // is only the request body. Everything it reads is in the posting
  // peer's own cell, and the only thing it writes is that cell's reply.
  const std::size_t n = lanes_[peer_idx].drain([&](rt::XcallCell& cell) {
    const ShmEp ep = rt::cell_ep(cell.ep);
    const std::uint32_t token = rt::cell_token_idx(cell.ep);
    Status rc = Status::kNoSuchEntryPoint;
    ppc::RegSet out = cell.regs;
    if (token != 0 &&
        cancel_flags_[token].load(std::memory_order_acquire) != 0) {
      // The drain-side cancel sweep — the same one-load check the
      // in-process drain performs, reading a flag ANY process may have
      // raised.
      rc = Status::kCallAborted;
    } else if (ShmFn fn = ep < kMaxShmEps ? services_[ep].fn.load(
                                                std::memory_order_acquire)
                                          : nullptr;
               fn != nullptr) {
      // The handler runs on the server-local register file; the caller's
      // line is written once, reply then state word, after it returns.
      ShmCtx ctx{this, &copy_, peer_idx, cell.caller};
      rc = fn(services_[ep].self, ctx, out);
    }
    cell.regs = out;
    // Booked before the ring publishes the completion, so a caller that
    // has seen its reply also sees its cell counted.
    counters_->inc(obs::Counter::kXcallCellsDrained);
    return rc;
  });
  if (n != 0) counters_->inc(obs::Counter::kXcallBatches);
  return n;
}

std::size_t Server::serve(std::uint64_t dead_after_ns,
                          std::uint32_t reap_every) {
  std::size_t total = 0;
  std::uint32_t since_reap = 0;
  while (!stop_requested()) {
    const std::size_t n = poll();
    total += n;
    if (++since_reap >= reap_every) {
      since_reap = 0;
      reap_dead_peers(dead_after_ns);
    }
    if (n == 0) yield_thread();
  }
  return total;
}

std::size_t Server::reap_dead_peers(std::uint64_t dead_after_ns) {
  const std::uint64_t now = now_ns();
  std::size_t reaped = 0;
  for (std::uint32_t p = 0; p < kMaxShmPeers; ++p) {
    PeerSlot& slot = peers_[p];
    if (slot.state.load(std::memory_order_acquire) != kPeerAttached) continue;
    const std::uint64_t hb = slot.heartbeat_ns.load(std::memory_order_acquire);
    if (now < hb + dead_after_ns) continue;
    counters_->inc(obs::Counter::kHeartbeatsMissed);
    // Staleness is suspicion; a vanished pid is confirmation. The 8x
    // backstop covers pid reuse: a recycled pid passes the kill(0) probe
    // forever, but a peer silent for 8 thresholds is dead either way.
    const std::uint32_t pid = slot.pid.load(std::memory_order_relaxed);
    if (pid_gone(pid) || now >= hb + 8 * dead_after_ns) {
      reap_lane(p);
      ++reaped;
    }
  }
  return reaped;
}

void Server::reap_lane(std::uint32_t peer_idx) {
  PeerSlot& slot = peers_[peer_idx];
  slot.state.store(kPeerDead, std::memory_order_release);

  // Administrative drain: every PUBLISHED in-flight call completes with
  // kCallAborted in its cell — nothing executes on behalf of a dead
  // caller — and the ring is re-armed. A cell the dying peer claimed but
  // never published (SIGKILL mid-post) has no readable payload; the
  // re-arm retires it. State words survive the re-arm, so a peer that was
  // only wedged still sees its abort (and, seeing its generation moved,
  // never touches the lane again).
  lanes_[peer_idx].abort_and_rearm(Status::kCallAborted);

  // Revoke the dead peer's grants: nothing may resolve against a region
  // whose owner is gone, and the backing segments' names are reclaimed.
  for (std::uint32_t r = 0; r < kMaxShmRegions; ++r) {
    RegionSlot& rs = regions_[r];
    if (rs.state.load(std::memory_order_acquire) != kRegionGranted ||
        rs.owner_peer != peer_idx) {
      continue;
    }
    const std::uint32_t gen = rs.generation.load(std::memory_order_relaxed);
    rs.state.store(kRegionFree, std::memory_order_release);
    rs.generation.store(gen + 1, std::memory_order_release);
    copy_.invalidate(r);
    Segment dead = Segment::try_open(region_name(seg_.name(), r, gen));
    dead.unlink();
  }
  copy_.invalidate_peer(peer_idx);

  slot.pid.store(0, std::memory_order_relaxed);
  slot.heartbeat_ns.store(0, std::memory_order_relaxed);
  slot.program = 0;
  slot.generation.fetch_add(1, std::memory_order_release);
  slot.state.store(kPeerFree, std::memory_order_release);
  counters_->inc(obs::Counter::kPeerDeaths);
}

void Server::request_stop() {
  header()->stop.store(1, std::memory_order_release);
}

bool Server::stop_requested() const {
  return header()->stop.load(std::memory_order_acquire) != 0;
}

void Server::adopt_cancel_pool_into(rt::Runtime& rt) {
  rt.adopt_cancel_pool(cancel_flags_of(seg_), cancel_cursor_of(seg_));
}

std::uint32_t Server::attached_peers() const {
  std::uint32_t n = 0;
  for (std::uint32_t p = 0; p < kMaxShmPeers; ++p) {
    if (peers_[p].state.load(std::memory_order_acquire) == kPeerAttached) ++n;
  }
  return n;
}

// -- Peer -------------------------------------------------------------------

Peer::Peer(const std::string& name, ProgramId program, ServerOptions opts)
    : seg_(Segment::open(name)),
      counters_(opts.counters != nullptr ? opts.counters : &own_counters_),
      program_(program) {
  ShmHeader* hdr = header();
  if (hdr->magic.load(std::memory_order_acquire) != kShmMagic ||
      hdr->version != kShmVersion ||
      hdr->cell_bytes != sizeof(rt::XcallCell)) {
    throw std::runtime_error("shm::Peer: segment '" + name +
                             "' is not a published v" +
                             std::to_string(kShmVersion) + " transport");
  }
  auto* peers = seg_.at<PeerSlot>(hdr->peers_off);
  std::uint32_t claimed = hdr->max_peers;
  for (std::uint32_t p = 0; p < hdr->max_peers; ++p) {
    std::uint32_t expect = kPeerFree;
    if (peers[p].state.compare_exchange_strong(expect, kPeerAttaching,
                                               std::memory_order_acq_rel)) {
      claimed = p;
      break;
    }
  }
  if (claimed == hdr->max_peers) {
    throw std::runtime_error("shm::Peer: no free peer slot in '" + name + "'");
  }
  idx_ = claimed;
  ring_ = seg_.at<rt::XcallRing>(hdr->lanes_off +
                                 idx_ * sizeof(rt::XcallRing));
  slot_ = &peers[idx_];

  PeerSlot& slot = *slot_;
  slot.pid.store(self_pid(), std::memory_order_relaxed);
  slot.program = program_;
  slot.heartbeat_ns.store(now_ns(), std::memory_order_relaxed);
  generation_ = slot.generation.load(std::memory_order_relaxed);
  slot.state.store(kPeerAttached, std::memory_order_release);
  counters_->inc(obs::Counter::kShmSegmentsMapped);
}

Peer::~Peer() {
  // A reaped peer owns nothing in the segment any more: the reaper revoked
  // its grants and freed its slot, which another peer may hold by now.
  if (!seg_.mapped() || reaped()) return;
  // Cooperative detach: return every grant, then free the slot so the
  // server stops draining the lane. (Uncooperative exit is the reaper's.)
  for (std::uint32_t r = 0; r < kMaxShmRegions; ++r) {
    if (regions_[r].mapped()) revoke_region(r);
  }
  slot_->pid.store(0, std::memory_order_relaxed);
  slot_->generation.fetch_add(1, std::memory_order_release);
  slot_->state.store(kPeerFree, std::memory_order_release);
}

bool Peer::reaped() {
  // The reaper bumps the slot generation; once seen, remember it, so a
  // reaped peer's later calls fail without touching the segment.
  if (!reaped_ &&
      slot_->generation.load(std::memory_order_acquire) != generation_) {
    reaped_ = true;
  }
  return reaped_;
}

Status Peer::call(ShmEp ep, ppc::RegSet& regs, std::uint32_t token) {
  if (reaped()) return Status::kCallAborted;
  std::uint64_t pos = 0;
  const std::size_t posted = ring_->try_post(
      1,
      [&](rt::XcallCell& cell, std::size_t) {
        cell.caller = program_;
        cell.ep = rt::cell_pack_ep(ep, token & rt::kCellTokenLaneMask, false);
        cell.deadline = 0;
        cell.regs = regs;
      },
      &pos);
  if (posted == 0) return Status::kOverloaded;  // lane ring full

  // Every call refreshes liveness (a line of its own, so the store never
  // disturbs the state word the server polls); long waits refresh it
  // again from the help callback, so a caller stuck behind a slow handler
  // is not declared dead. NEVER park: the state word lives in the segment
  // and futex wakeups do not cross address spaces here.
  slot_->heartbeat_ns.store(now_ns(), std::memory_order_release);
  rt::XcallCell& cell = ring_->cell(pos);
  std::uint32_t rounds = 0;
  const std::uint32_t st = rt::wait_complete(
      cell, /*deadline=*/0, rt::kNeverPark,
      [&] {
        if ((++rounds & (kHeartbeatRounds - 1)) == 0) heartbeat();
      },
      [] {});
  // Reaped while we waited: the reaper completed our cell with
  // kCallAborted and re-armed the lane for the next peer, so the cell is
  // no longer ours to read or release.
  if (reaped()) return Status::kCallAborted;
  regs = cell.regs;
  ring_->release(pos);
  counters_->inc(obs::Counter::kCallsRemote);
  return rt::cell_status(st);
}

std::uint32_t Peer::cancel_token_create() {
  return shm_cancel_token_create(seg_);
}

void Peer::cancel(std::uint32_t token) { shm_cancel(seg_, token); }

std::uint32_t Peer::grant_region(std::size_t bytes, std::uint32_t rights) {
  if (reaped()) return kMaxShmRegions;
  ShmHeader* hdr = header();
  auto* regions = seg_.at<RegionSlot>(hdr->regions_off);
  for (std::uint32_t r = 0; r < hdr->max_regions; ++r) {
    RegionSlot& rs = regions[r];
    std::uint32_t expect = kRegionFree;
    if (!rs.state.compare_exchange_strong(expect, kRegionGranting,
                                          std::memory_order_acq_rel)) {
      continue;
    }
    const std::uint32_t gen =
        rs.generation.fetch_add(1, std::memory_order_relaxed) + 1;
    try {
      regions_[r] = Segment::create(region_name(seg_.name(), r, gen), bytes);
    } catch (const std::exception&) {
      rs.state.store(kRegionFree, std::memory_order_release);
      return kMaxShmRegions;
    }
    rs.owner_peer = idx_;
    rs.rights = rights;
    rs.bytes = bytes;
    rs.state.store(kRegionGranted, std::memory_order_release);
    counters_->inc(obs::Counter::kShmSegmentsMapped);
    return r;
  }
  return kMaxShmRegions;
}

void Peer::revoke_region(std::uint32_t region) {
  if (region >= kMaxShmRegions || !regions_[region].mapped()) return;
  if (!reaped()) {  // else the reaper already revoked it
    ShmHeader* hdr = header();
    auto* regions = seg_.at<RegionSlot>(hdr->regions_off);
    RegionSlot& rs = regions[region];
    rs.state.store(kRegionFree, std::memory_order_release);
    rs.generation.fetch_add(1, std::memory_order_release);
    regions_[region].unlink();
  }
  regions_[region] = Segment{};
}

std::byte* Peer::region_base(std::uint32_t region) {
  return region < kMaxShmRegions && regions_[region].mapped()
             ? regions_[region].base()
             : nullptr;
}

void Peer::heartbeat() {
  if (reaped()) return;
  slot_->heartbeat_ns.store(now_ns(), std::memory_order_release);
}

bool Peer::stop_requested() const {
  return header()->stop.load(std::memory_order_acquire) != 0;
}

void Peer::request_stop() {
  header()->stop.store(1, std::memory_order_release);
}

void Peer::adopt_cancel_pool_into(rt::Runtime& rt) {
  rt.adopt_cancel_pool(cancel_flags_of(seg_), cancel_cursor_of(seg_));
}

}  // namespace hppc::shm
