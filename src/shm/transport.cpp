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

#include "common/cpu_relax.h"
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
  auto* lanes = arena.create_array<LaneHeader>(0, kMaxShmPeers);
  auto* regions = arena.create_array<RegionSlot>(0, kMaxShmRegions);
  auto* flags =
      arena.create_array<std::atomic<std::uint32_t>>(0, rt::kMaxCancelTokens);
  auto* cursor = arena.create<std::atomic<std::uint32_t>>(0, 1u);

  peers_ = peers;
  regions_ = regions;
  cancel_flags_ = flags;
  for (std::uint32_t p = 0; p < kMaxShmPeers; ++p) {
    auto* ring = arena.create_array<ShmCell>(0, kShmRingCapacity);
    for (std::uint64_t i = 0; i < kShmRingCapacity; ++i) {
      ring[i].seq.store(i, std::memory_order_relaxed);
    }
    auto* waits = arena.create_array<ShmWait>(0, kShmWaitsPerLane);
    for (std::uint32_t i = 0; i + 1 < kShmWaitsPerLane; ++i) {
      waits[i].next_off = seg_.offset_of(&waits[i + 1]);
    }
    lanes[p].ring_off = seg_.offset_of(ring);
    lanes[p].waits_off = seg_.offset_of(waits);
    lanes[p].wait_free_off = seg_.offset_of(&waits[0]);
    lanes_[p] = LaneView{&lanes[p], ring, waits};
  }

  hdr->version = kShmVersion;
  hdr->max_peers = kMaxShmPeers;
  hdr->ring_capacity = kShmRingCapacity;
  hdr->waits_per_lane = kShmWaitsPerLane;
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
  const LaneView& lane = lanes_[peer_idx];
  constexpr std::uint64_t kMask = kShmRingCapacity - 1;

  std::size_t n = 0;
  std::uint64_t pos = lane.hdr->dequeue_pos.load(std::memory_order_relaxed);
  for (;;) {
    ShmCell& cell = lane.ring[pos & kMask];
    if (cell.seq.load(std::memory_order_acquire) != pos + 1) break;

    ShmWait* wait =
        cell.wait_off != kNullOff ? seg_.at<ShmWait>(cell.wait_off) : nullptr;
    const std::uint32_t wire = cell.ep;
    const ShmEp ep = rt::cell_ep(wire);
    const std::uint32_t token = rt::cell_token_idx(wire);

    Status rc;
    ppc::RegSet out = cell.regs;
    if (token != 0 &&
        cancel_flags_[token].load(std::memory_order_acquire) != 0) {
      // The drain-side cancel sweep — the same one-load check the
      // in-process drain performs, reading a flag ANY process may have
      // raised.
      rc = Status::kCallAborted;
    } else {
      ShmFn fn = ep < kMaxShmEps
                     ? services_[ep].fn.load(std::memory_order_acquire)
                     : nullptr;
      rc = Status::kNoSuchEntryPoint;
      if (fn != nullptr) {
        // The handler runs on the server-local register file; the
        // waiter's line is written once, reply then done word, after it
        // returns.
        ShmCtx ctx{this, &copy_, peer_idx, cell.caller};
        rc = fn(services_[ep].self, ctx, out);
      }
    }
    if (wait != nullptr) {
      wait->reply = out;
      wait->complete(rc);
    }

    cell.seq.store(pos + kShmRingCapacity, std::memory_order_release);
    ++pos;
    ++n;
    counters_->inc(obs::Counter::kXcallCellsDrained);
  }
  lane.hdr->dequeue_pos.store(pos, std::memory_order_relaxed);
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
  LaneHeader* lane = lanes_[peer_idx].hdr;
  ShmCell* ring = lanes_[peer_idx].ring;
  ShmWait* waits = lanes_[peer_idx].waits;
  PeerSlot& slot = peers_[peer_idx];
  constexpr std::uint64_t kMask = kShmRingCapacity - 1;

  slot.state.store(kPeerDead, std::memory_order_release);

  // Administrative drain: every PUBLISHED in-flight cell completes with
  // kCallAborted — nothing executes on behalf of a dead caller. A cell
  // the dying peer claimed but never published (SIGKILL mid-post) has no
  // readable payload; the wholesale ring reset below retires it.
  std::uint64_t pos = lane->dequeue_pos.load(std::memory_order_relaxed);
  const std::uint64_t end = lane->enqueue_pos.load(std::memory_order_acquire);
  for (; pos != end; ++pos) {
    ShmCell& cell = ring[pos & kMask];
    if (cell.seq.load(std::memory_order_acquire) != pos + 1) continue;
    if (cell.wait_off != kNullOff) {
      seg_.at<ShmWait>(cell.wait_off)->complete(Status::kCallAborted);
    }
  }

  // Re-arm the ring and rebuild the wait pool wholesale. Relinking all
  // kShmWaitsPerLane blocks is what makes pool conservation a
  // construction property rather than an accounting hope: whatever the
  // dead peer held, the free list is full-length again.
  for (std::uint64_t i = 0; i < kShmRingCapacity; ++i) {
    ring[i].seq.store(i, std::memory_order_relaxed);
  }
  lane->enqueue_pos.store(0, std::memory_order_relaxed);
  lane->dequeue_pos.store(0, std::memory_order_relaxed);
  // Relink only — done words stay as the administrative drain left them.
  // If the reap was spurious (8x backstop, peer merely wedged), the caller
  // is still spinning on its done word and must be able to observe the
  // kCallAborted completion; acquire_wait()+reset() clears the word when a
  // block is next handed out.
  for (std::uint32_t i = 0; i < kShmWaitsPerLane; ++i) {
    waits[i].next_off = i + 1 < kShmWaitsPerLane
                            ? seg_.offset_of(&waits[i + 1])
                            : kNullOff;
  }
  lane->wait_free_off = seg_.offset_of(&waits[0]);

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
      hdr->version != kShmVersion) {
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
  lane_ = seg_.at<LaneHeader>(hdr->lanes_off) + idx_;
  ring_ = seg_.at<ShmCell>(lane_->ring_off);
  waits_ = seg_.at<ShmWait>(lane_->waits_off);
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
  if (!seg_.mapped()) return;
  // Cooperative detach: return every grant, then free the slot so the
  // server stops draining the lane. (Uncooperative exit is the reaper's.)
  for (std::uint32_t r = 0; r < kMaxShmRegions; ++r) {
    if (regions_[r].mapped()) revoke_region(r);
  }
  slot_->pid.store(0, std::memory_order_relaxed);
  slot_->generation.fetch_add(1, std::memory_order_release);
  slot_->state.store(kPeerFree, std::memory_order_release);
}

ShmWait* Peer::acquire_wait() {
  const std::uint64_t off = lane_->wait_free_off;
  if (off == kNullOff) return nullptr;
  ShmWait* w = seg_.at<ShmWait>(off);
  lane_->wait_free_off = w->next_off;
  return w;
}

void Peer::release_wait(ShmWait* w) {
  w->next_off = lane_->wait_free_off;
  lane_->wait_free_off = seg_.offset_of(w);
}

Status Peer::call(ShmEp ep, ppc::RegSet& regs, std::uint32_t token) {
  ShmWait* w = acquire_wait();
  if (w == nullptr) return Status::kOutOfResources;
  w->reset();

  // Producer side of the lane ring: the MPSC claim protocol of the
  // in-process layer (one CAS on the cursor, one release publish of the
  // cell), kept even though a lane has a single producer — it costs one
  // uncontended CAS and keeps the two implementations line-for-line
  // comparable.
  constexpr std::uint64_t kMask = kShmRingCapacity - 1;
  std::uint64_t pos = lane_->enqueue_pos.load(std::memory_order_relaxed);
  ShmCell* cell;
  for (;;) {
    cell = &ring_[pos & kMask];
    const std::uint64_t seq = cell->seq.load(std::memory_order_acquire);
    if (seq == pos) {
      if (lane_->enqueue_pos.compare_exchange_weak(
              pos, pos + 1, std::memory_order_relaxed)) {
        break;
      }
    } else if (seq < pos) {
      release_wait(w);
      return Status::kOverloaded;  // lane ring full
    } else {
      pos = lane_->enqueue_pos.load(std::memory_order_relaxed);
    }
  }
  cell->ep = rt::cell_pack_ep(ep, token & rt::kCellTokenLaneMask, false);
  cell->caller = static_cast<std::uint32_t>(program_);
  cell->wait_off = seg_.offset_of(w);
  cell->aux = 0;
  cell->regs = regs;
  cell->seq.store(pos + 1, std::memory_order_release);

  // Every call refreshes liveness (a line of its own, so the store never
  // disturbs the state word the server polls); long waits below refresh
  // it again so a caller stuck behind a slow handler is not declared dead.
  slot_->heartbeat_ns.store(now_ns(), std::memory_order_release);

  // Spin-then-yield on the done word. NEVER park: the done word lives in
  // the segment and futex wakeups do not cross address spaces here.
  std::uint32_t done;
  std::uint32_t spins = 0;
  while (((done = w->done.load(std::memory_order_acquire)) &
          ShmWait::kDoneBit) == 0) {
    if (++spins < 128) {
      cpu_relax();
    } else {
      yield_thread();
      if ((spins & 0x3FFF) == 0) {
        slot_->heartbeat_ns.store(now_ns(), std::memory_order_release);
      }
    }
  }
  regs = w->reply;
  release_wait(w);
  counters_->inc(obs::Counter::kCallsRemote);
  return static_cast<Status>(done & 0xFF);
}

std::uint32_t Peer::cancel_token_create() {
  return shm_cancel_token_create(seg_);
}

void Peer::cancel(std::uint32_t token) { shm_cancel(seg_, token); }

std::uint32_t Peer::grant_region(std::size_t bytes, std::uint32_t rights) {
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
  ShmHeader* hdr = header();
  auto* regions = seg_.at<RegionSlot>(hdr->regions_off);
  RegionSlot& rs = regions[region];
  rs.state.store(kRegionFree, std::memory_order_release);
  rs.generation.fetch_add(1, std::memory_order_release);
  regions_[region].unlink();
  regions_[region] = Segment{};
}

std::byte* Peer::region_base(std::uint32_t region) {
  return region < kMaxShmRegions && regions_[region].mapped()
             ? regions_[region].base()
             : nullptr;
}

void Peer::heartbeat() {
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
