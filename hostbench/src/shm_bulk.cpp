// shm_bulk: the cross-process transport and the CopyServer, bypassing rt.
//
// The benchmark forks one shm::Server process whose loop calls the public
// Server::poll() without yielding and Server::reap_dead_peers() every
// kReapEvery polls — the same loop shape as the kv_ring owner. Two pinned
// shm::Peer threads each mix null calls, 4 KiB granted-region calls and
// 1 MiB granted-region calls; bulk payloads are consumed either in place (a
// checksum over the granted bytes) or through CopyServer::copy_from staging
// followed by the same checksum. Every reply checksum is compared with the
// generator's own checksum of the bytes it wrote, so the payload bytes the
// receiver touches are what is counted, not descriptor delivery.
#include <cstring>
#include <memory>
#include <new>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include <signal.h>
#include <sys/mman.h>
#include <sys/prctl.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include "ppc/regs.h"
#include "rt/bulk_desc.h"
#include "shm/layout.h"
#include "shm/transport.h"
#include "workloads.h"

namespace hb {
namespace {

using namespace hppc;

constexpr int kPeers = 2;
constexpr std::size_t kBig = 1u << 20;
constexpr std::size_t kSmall = 4096;
constexpr std::size_t kBigSlots = 4;    // 1 MiB payloads per peer
constexpr std::size_t kSmallSlots = 64; // 4 KiB payloads per peer
constexpr std::size_t kOpsPerThread = 1u << 14;  // every op is sampled
constexpr std::uint32_t kReapEvery = 4096;
constexpr std::uint64_t kDeadAfterNs = 2'000'000'000ull;
constexpr int kMaxWindows = 64;
constexpr ProgramId kProgram = 31;

constexpr shm::ShmEp kEpNull = 1, kEpInPlace = 2, kEpCopy = 3;

enum Kind : std::uint8_t {
  kNull, kSmallInPlace, kSmallCopy, kBigInPlace, kBigCopy, kKinds
};
const std::vector<const char*> kKindNames = {
    "null", "4k_in_place", "4k_copy_from", "1m_in_place", "1m_copy_from"};
// Op weights, in percent: this benchmark's own choice, set so that both
// per-call cost (null and 4 KiB calls) and bytes moved (1 MiB calls) show.
constexpr std::array<int, kKinds> kWeight = {60, 15, 15, 5, 5};

struct Op {
  Kind kind;
  std::uint32_t slot;  // payload slot
  Word val;
};

struct PeerInput {
  std::vector<std::byte> big, small;  // the payload bytes, written at set-up
  std::vector<std::uint64_t> big_sum, small_sum;
  std::vector<Op> ops;
};

/// The checksum both sides compute: four lanes of 64-bit word sums,
/// combined with distinct odd weights. `len` is a multiple of 32.
std::uint64_t checksum(const std::byte* p, std::size_t len) {
  std::uint64_t s0 = 0, s1 = 0, s2 = 0, s3 = 0, w = 0;
  for (std::size_t i = 0; i + 32 <= len; i += 32) {
    std::memcpy(&w, p + i, 8);
    s0 += w;
    std::memcpy(&w, p + i + 8, 8);
    s1 += w;
    std::memcpy(&w, p + i + 16, 8);
    s2 += w;
    std::memcpy(&w, p + i + 24, 8);
    s3 += w;
  }
  return s0 + 3 * s1 + 5 * s2 + 7 * s3;
}

std::vector<PeerInput> generate(std::uint64_t seed) {
  Prng base(seed ^ 0x53484d42554cull);  // "SHMBUL"
  std::vector<PeerInput> in(kPeers);
  for (int p = 0; p < kPeers; ++p) {
    Prng rng = base.split(static_cast<std::uint64_t>(p));
    PeerInput& pi = in[static_cast<std::size_t>(p)];
    const auto fill = [&rng](std::vector<std::byte>& v, std::size_t n) {
      v.resize(n);
      for (std::size_t i = 0; i < n; i += 8) {
        const std::uint64_t x = rng.next();
        std::memcpy(v.data() + i, &x, 8);
      }
    };
    fill(pi.big, kBig * kBigSlots);
    fill(pi.small, kSmall * kSmallSlots);
    for (std::size_t s = 0; s < kBigSlots; ++s) {
      pi.big_sum.push_back(checksum(pi.big.data() + s * kBig, kBig));
    }
    for (std::size_t s = 0; s < kSmallSlots; ++s) {
      pi.small_sum.push_back(checksum(pi.small.data() + s * kSmall, kSmall));
    }
    pi.ops.resize(kOpsPerThread);
    for (Op& op : pi.ops) {
      op.kind = static_cast<Kind>(pick_weighted(rng, kWeight));
      const bool big = op.kind == kBigInPlace || op.kind == kBigCopy;
      op.slot = static_cast<std::uint32_t>(
          rng.below(big ? kBigSlots : kSmallSlots));
      op.val = static_cast<Word>(rng.next());
    }
  }
  return in;
}

/// Process-shared page between the benchmark and its forked server.
struct Shared {
  PhaseClock clock;                    // the server reads the window index
  std::atomic<int> stop{0};
  std::array<double, kMaxWindows + 1> cpu_at{};  // server CPU at window start
  std::array<std::uint8_t, kMaxWindows + 1> cpu_seen{};
  // Server-side tallies, written once at exit.
  std::uint64_t null_calls = 0, bulk_calls = 0, cells = 0;
  std::uint64_t polls = 0, busy_polls = 0, busy_cy = 0, loop_cy = 0;
  double inplace_bytes = 0, copy_bytes = 0;  // traced (sampled) calls only
  double reap_us = 0;
  AllSpans spans{};
};

struct ServerState {
  std::vector<std::byte> stage = std::vector<std::byte>(kBig);
  std::uint64_t null_calls = 0, bulk_calls = 0;
  double inplace_bytes = 0, copy_bytes = 0;
};

Status null_fn(void* self, shm::ShmCtx&, ppc::RegSet& r) {
  ++static_cast<ServerState*>(self)->null_calls;
  r[3] = r[2] + 1;
  return Status::kOk;
}

Status inplace_fn(void* self, shm::ShmCtx& ctx, ppc::RegSet& r) {
  auto* st = static_cast<ServerState*>(self);
  ++st->bulk_calls;
  const std::uint64_t op = r[6];
  Scope h(Sp::kHandlerBulk, op);
  const rt::BulkSeg seg = rt::bulk_seg_unpack(r, 0);
  const std::byte* p;
  {
    Scope s(Sp::kCopyResolve, op);
    p = static_cast<const std::byte*>(
        ctx.copy->resolve(seg.region, seg.addr, seg.len, /*writable=*/false));
  }
  if (p == nullptr) return Status::kBadRegion;
  std::uint64_t sum;
  {
    Scope s(Sp::kCopyInplaceRead, op);
    sum = checksum(p, seg.len);
  }
  if (op != 0) st->inplace_bytes += seg.len;
  ppc::set_u64(r, 4, sum);
  return Status::kOk;
}

Status copy_fn(void* self, shm::ShmCtx& ctx, ppc::RegSet& r) {
  auto* st = static_cast<ServerState*>(self);
  ++st->bulk_calls;
  const std::uint64_t op = r[6];
  Scope h(Sp::kHandlerBulk, op);
  const rt::BulkSeg seg = rt::bulk_seg_unpack(r, 0);
  if (seg.len > st->stage.size()) return Status::kInvalidArgument;
  Status rc;
  {
    Scope s(Sp::kCopyCopyFrom, op);
    rc = ctx.copy->copy_from(seg.region, seg.addr, st->stage.data(), seg.len);
  }
  if (rc != Status::kOk) return rc;
  if (op != 0) st->copy_bytes += seg.len;
  ppc::set_u64(r, 4, checksum(st->stage.data(), seg.len));
  return Status::kOk;
}

/// The forked server: never returns.
[[noreturn]] void server_main(Shared* sh, const std::string& name,
                              const RunConfig& cfg, pid_t parent) {
  ::prctl(PR_SET_PDEATHSIG, SIGKILL);
  if (::getppid() != parent) ::_exit(3);
  pin_self(worker_cpu(0));
  int code = 0;
  try {
    Tracer tracer(cfg.traced);
    tl_tracer = &tracer;
    ServerState st;
    shm::Server server(name);
    server.bind(&null_fn, &st);
    server.bind(&inplace_fn, &st);
    server.bind(&copy_fn, &st);
    const int nwin = sh->clock.windows();
    const bool timed = cfg.traced;
    std::uint64_t polls = 0, busy_polls = 0, busy_cy = 0, loop_cy = 0;
    std::vector<double> reap_ns;
    std::uint32_t since = 0;
    int w = sh->clock.window();
    const auto note_window = [&](int cur) {
      if (cur >= 0 && cur <= nwin && sh->cpu_seen[cur] == 0) {
        sh->cpu_at[cur] = process_cpu_s();
        sh->cpu_seen[cur] = 1;
      }
    };
    for (;;) {
      if (!timed) {
        server.poll();
      } else {
        const std::uint64_t t0 = now_cy();
        const std::size_t n = server.poll();
        const std::uint64_t t1 = now_cy();
        if (w >= 0 && w < nwin) {
          ++polls;
          loop_cy += t1 - t0;
          if (n > 0) {
            ++busy_polls;
            busy_cy += t1 - t0;
          }
        }
      }
      if (++since < kReapEvery) continue;
      since = 0;
      const std::uint64_t r0 = now_cy();
      server.reap_dead_peers(kDeadAfterNs);
      reap_ns.push_back(static_cast<double>(now_cy() - r0) / cy_per_ns());
      w = sh->clock.window();
      note_window(w);
      if (sh->stop.load(std::memory_order_acquire) != 0) break;
    }
    note_window(nwin);
    sh->null_calls = st.null_calls;
    sh->bulk_calls = st.bulk_calls;
    sh->cells = server.counters().get(obs::Counter::kXcallCellsDrained);
    sh->polls = polls;
    sh->busy_polls = busy_polls;
    sh->busy_cy = busy_cy;
    sh->loop_cy = loop_cy;
    sh->inplace_bytes = st.inplace_bytes;
    sh->copy_bytes = st.copy_bytes;
    sh->reap_us = median(reap_ns) / 1000.0;
    tracer.merge_into(sh->spans);
    if (cfg.traced) {
      write_spans(cfg.out_dir + "/spans-shm_bulk-server-seed" +
                      std::to_string(cfg.seed) + ".csv",
                  {&tracer}, "shm_server");
    }
    tl_tracer = nullptr;
  } catch (const std::exception&) {
    code = 4;
  }
  ::_exit(code);
}

bool wait_transport(const std::string& name, std::uint64_t deadline_ns) {
  while (steady_ns() < deadline_ns) {
    shm::Segment s = shm::Segment::try_open(name);
    if (s.mapped()) {
      const auto* hdr = reinterpret_cast<const shm::ShmHeader*>(s.base());
      if (hdr->magic.load(std::memory_order_acquire) == shm::kShmMagic) {
        return true;
      }
    }
    ::usleep(50);
  }
  return false;
}

class Instance {
 public:
  Instance(const RunConfig& cfg, const std::vector<PeerInput>& in, int rep)
      : cfg_(cfg), in_(in) {
    void* mem = ::mmap(nullptr, sizeof(Shared), PROT_READ | PROT_WRITE,
                       MAP_SHARED | MAP_ANONYMOUS, -1, 0);
    if (mem == MAP_FAILED) throw std::bad_alloc();
    sh_ = ::new (mem) Shared();
    sh_->clock.reset(cfg.windows);
    name_ = "/hostbench_" + std::to_string(::getpid()) + "_" +
            std::to_string(rep);
    tallies_.resize(kPeers);
    tracers_.resize(kPeers);
    grant_ns_.assign(kPeers, 0.0);
    const std::uint64_t t0 = steady_ns();
    const pid_t parent = ::getpid();
    child_ = ::fork();
    if (child_ < 0) throw std::runtime_error("fork failed");
    if (child_ == 0) server_main(sh_, name_, cfg_, parent);
    if (!wait_transport(name_, t0 + 20'000'000'000ull)) {
      note_failure("shm_bulk: server never published its transport");
      ok_ = false;
      return;
    }
    fork_to_ready_ns = static_cast<double>(steady_ns() - t0);
    for (int p = 0; p < kPeers; ++p) {
      threads_.emplace_back([this, p] { peer(p); });
    }
    while (ready_.load(std::memory_order_acquire) < kPeers) {
      std::this_thread::yield();
    }
  }

  ~Instance() {
    cmd_.store(2, std::memory_order_release);
    for (std::thread& t : threads_) t.join();
    threads_.clear();
    stop_server();
    sh_->~Shared();
    ::munmap(sh_, sizeof(Shared));
  }

  Instance(const Instance&) = delete;
  Instance& operator=(const Instance&) = delete;

  bool ok() const { return ok_; }
  double grant_ns() const {
    double m = 0;
    for (double g : grant_ns_) m = std::max(m, g);
    return m;
  }
  /// The system's own set-up work: fork until the server published its
  /// transport, then the slowest peer's attach, grants, payload fill and
  /// first mapping calls (the peers run in parallel). Thread start and the
  /// start handshakes are not counted.
  double setup_ns() const { return fork_to_ready_ns + grant_ns(); }

  void measure(Result& r) {
    cmd_.store(1, std::memory_order_release);
    std::vector<Window> win =
        sh_->clock.run(cfg_, [](int) { return process_cpu_s(); });
    for (std::thread& t : threads_) t.join();
    threads_.clear();
    stop_server();

    // Server CPU per window, from its own samples at the window starts.
    for (std::size_t i = 0; i < win.size(); ++i) {
      if (sh_->cpu_seen[i] != 0 && sh_->cpu_seen[i + 1] != 0) {
        win[i].cpu_s += sh_->cpu_at[i + 1] - sh_->cpu_at[i];
      }
    }
    fold_tallies(r, tallies_, win, kKindNames);

    double ops = 0, overloaded = 0;
    std::vector<double> gbps;
    for (std::size_t w = 0; w < win.size(); ++w) {
      double bytes = 0;
      for (const TallyPtr& t : tallies_) bytes += t->bytes[w];
      if (win[w].seconds > 0) gbps.push_back(bytes / win[w].seconds * 1e-9);
    }
    for (const TallyPtr& t : tallies_) {
      for (std::uint64_t k : t->kinds) ops += static_cast<double>(k);
      overloaded += static_cast<double>(t->overloaded);
    }
    Layer& L = r.layer;
    L["payload_gbps"] = median(gbps);
    L["shm.overloaded_per_kop"] = ratio(1000 * overloaded, ops);
    L["shm.reap.us"] = sh_->reap_us;
    L["copy.cells_per_bulk_call"] =
        ratio(static_cast<double>(sh_->cells - sh_->null_calls),
              static_cast<double>(sh_->bulk_calls));
    if (cfg_.traced) {
      AllSpans all = sh_->spans;
      for (const auto& t : tracers_) t->merge_into(all);
      const auto total_s = [&all](Sp s) {
        return all[static_cast<std::size_t>(s)].total_cy / cy_per_ns() * 1e-9;
      };
      L["shm.call_null.ns_p50"] = span_ns(all, Sp::kShmCallNull, 0.5);
      L["shm.call_null.ns_p99"] = span_ns(all, Sp::kShmCallNull, 0.99);
      L["shm.drain.busy_frac"] =
          ratio(static_cast<double>(sh_->busy_cy),
                static_cast<double>(sh_->loop_cy));
      L["shm.drain.useful_poll_ratio"] =
          ratio(static_cast<double>(sh_->busy_polls),
                static_cast<double>(sh_->polls));
      L["copy.resolve.ns_p50"] = span_ns(all, Sp::kCopyResolve, 0.5);
      L["copy.inplace_read.gbps"] =
          ratio(sh_->inplace_bytes * 1e-9, total_s(Sp::kCopyInplaceRead));
      L["copy.copy_from.gbps"] =
          ratio(sh_->copy_bytes * 1e-9, total_s(Sp::kCopyCopyFrom));
      L["copy.bulk_4k.ns_p50"] = span_ns(all, Sp::kShmCall4k, 0.5);
      L["copy.bulk_1m.us_p50"] = span_ns(all, Sp::kShmCall1m, 0.5) / 1000.0;
      std::vector<const Tracer*> tr;
      for (const auto& t : tracers_) tr.push_back(t.get());
      write_spans(cfg_.out_dir + "/spans-shm_bulk-peers-seed" +
                      std::to_string(cfg_.seed) + ".csv",
                  tr, "shm_peer");
    }
  }

  double fork_to_ready_ns = 0;
  double child_peak_rss_mib = 0;

 private:
  void stop_server() {
    if (child_ <= 0) return;
    sh_->stop.store(1, std::memory_order_release);
    int status = 0;
    rusage ru{};
    const std::uint64_t deadline = steady_ns() + 20'000'000'000ull;
    pid_t got = 0;
    while ((got = ::wait4(child_, &status, WNOHANG, &ru)) == 0 &&
           steady_ns() < deadline) {
      ::usleep(1000);
    }
    if (got == 0) {
      ::kill(child_, SIGKILL);
      ::wait4(child_, &status, 0, &ru);
      note_failure("shm_bulk: server did not stop; killed");
      ok_ = false;
    } else if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) {
      note_failure("shm_bulk: server exited abnormally");
      ok_ = false;
    }
    child_peak_rss_mib = static_cast<double>(ru.ru_maxrss) / 1024.0;
    child_ = 0;
  }

  void peer(int p) {
    pin_self(worker_cpu(p + 1));
    const PeerInput& in = in_[static_cast<std::size_t>(p)];
    tallies_[static_cast<std::size_t>(p)] =
        std::make_unique<ThreadTally>(cfg_.windows);
    tracers_[static_cast<std::size_t>(p)] =
        std::make_unique<Tracer>(cfg_.traced);
    ThreadTally& tally = *tallies_[static_cast<std::size_t>(p)];
    tl_tracer = tracers_[static_cast<std::size_t>(p)].get();
    try {
      const std::uint64_t a0 = steady_ns();
      shm::Peer peer(name_, kProgram + static_cast<ProgramId>(p));
      const double attach_ns = static_cast<double>(steady_ns() - a0);
      ppc::RegSet warm;
      while (peer.call(kEpNull, warm) != Status::kOk) ::usleep(100);
      const std::uint64_t g0 = steady_ns();
      const std::uint32_t big = peer.grant_region(kBig * kBigSlots);
      const std::uint32_t small = peer.grant_region(kSmall * kSmallSlots);
      bool granted = big != shm::kMaxShmRegions && small != shm::kMaxShmRegions;
      if (granted) {
        std::memcpy(peer.region_base(big), in.big.data(), in.big.size());
        std::memcpy(peer.region_base(small), in.small.data(), in.small.size());
        // Map both grants in the server before anything is timed.
        for (const std::uint32_t reg : {big, small}) {
          ppc::RegSet r;
          rt::bulk_seg_pack(r, 0, rt::bulk_region(reg, 0, kSmall));
          granted = granted && peer.call(kEpInPlace, r) == Status::kOk;
        }
      }
      grant_ns_[static_cast<std::size_t>(p)] =
          attach_ns + static_cast<double>(steady_ns() - g0);
      if (!granted) note_failure("shm_bulk: grant set-up failed");
      ready_.fetch_add(1, std::memory_order_acq_rel);
      int cmd;
      while ((cmd = cmd_.load(std::memory_order_acquire)) == 0) {
        std::this_thread::yield();
      }
      if (cmd == 1 && granted) run(p, peer, big, small);
    } catch (const std::exception& e) {
      note_failure(std::string("shm_bulk: peer failed: ") + e.what());
      ++tally.failed;
      ++tally.attempted;
      ready_.fetch_add(1, std::memory_order_acq_rel);
    }
    tl_tracer = nullptr;
  }

  void run(int p, shm::Peer& peer, std::uint32_t big, std::uint32_t small) {
    const PeerInput& in = in_[static_cast<std::size_t>(p)];
    ThreadTally& tally = *tallies_[static_cast<std::size_t>(p)];
    Checker chk(cfg_.corrupt_check, p == 0);
    const int nwin = sh_->clock.windows();
    std::size_t idx = 0;
    std::uint32_t seq = 0;
    const auto fail = [](const std::string& what) {
      note_failure("shm_bulk: " + what);
      return false;
    };
    for (;;) {
      const int w = sh_->clock.window();
      if (w >= nwin) break;
      const Op& op = in.ops[idx++ & (kOpsPerThread - 1)];
      const std::uint32_t opid =
          cfg_.traced
              ? (static_cast<std::uint32_t>(p + 1) << 28) | (++seq & 0x0FFFFFFFu)
              : 0;
      const std::uint64_t t0 = now_cy();
      bool ok = true;
      double bytes = 0;
      ppc::RegSet r;
      Status st;
      if (op.kind == kNull) {
        r[2] = op.val;
        {
          Scope s(Sp::kShmCallNull, opid);
          st = peer.call(kEpNull, r);
        }
        ok = st == Status::kOk
                 ? (chk.eq(r[3], op.val + 1) || fail("null reply mismatch"))
                 : fail("null call refused");
      } else {
        const bool is_big = op.kind == kBigInPlace || op.kind == kBigCopy;
        const bool in_place = op.kind == kSmallInPlace || op.kind == kBigInPlace;
        const std::size_t len = is_big ? kBig : kSmall;
        rt::bulk_seg_pack(r, 0,
                          rt::bulk_region(is_big ? big : small,
                                          op.slot * len, len));
        r[6] = opid;
        {
          Scope s(is_big ? Sp::kShmCall1m : Sp::kShmCall4k, opid);
          st = peer.call(in_place ? kEpInPlace : kEpCopy, r);
        }
        const std::uint64_t want =
            is_big ? in.big_sum[op.slot] : in.small_sum[op.slot];
        ok = st == Status::kOk ? (chk.eq(ppc::get_u64(r, 4), want) ||
                                  fail("bulk checksum mismatch"))
                               : fail("bulk call refused");
        if (ok) bytes = static_cast<double>(len);
      }
      if (st == Status::kOverloaded) ++tally.overloaded;
      tally.record(w, t0, ok, op.kind);
      if (w >= 0) tally.bytes[static_cast<std::size_t>(w)] += bytes;
    }
  }

  const RunConfig& cfg_;
  const std::vector<PeerInput>& in_;
  Shared* sh_ = nullptr;
  std::string name_;
  pid_t child_ = 0;
  bool ok_ = true;
  std::vector<TallyPtr> tallies_;  // each allocated by its own thread
  std::vector<std::unique_ptr<Tracer>> tracers_;
  std::vector<double> grant_ns_;
  std::atomic<int> ready_{0};
  std::atomic<int> cmd_{0};
  std::vector<std::thread> threads_;
};

}  // namespace

Result run_shm_bulk(const RunConfig& cfg) {
  Result r;
  pin_self(coordinator_cpu());
  if (cfg.windows > kMaxWindows) {
    note_failure("shm_bulk: too many windows");
    r.failed = r.attempted = 1;
    return r;
  }
  const std::vector<PeerInput> in = generate(cfg.seed);
  std::vector<double> fork_ms, grant_ms;
  for (int rep = 0; rep < cfg.setup_reps; ++rep) {
    auto inst = std::make_unique<Instance>(cfg, in, rep);
    r.setup_s.push_back(inst->setup_ns() * 1e-9);
    if (!inst->ok()) {
      ++r.failed;
      ++r.attempted;
      break;
    }
    fork_ms.push_back(inst->fork_to_ready_ns * 1e-6);
    grant_ms.push_back(inst->grant_ns() * 1e-6);
    if (rep == 0) {
      // Measure the first build, in a fresh process; the other set-ups
      // follow it and are timed only. Both processes' peaks count (pages
      // the server inherited at fork count twice).
      inst->measure(r);
      r.peak_rss_mib = peak_rss_mib() + inst->child_peak_rss_mib;
    }
  }
  r.layer["setup.fork_to_ready_ms"] = median(fork_ms);
  r.layer["setup.grant_ms"] = median(grant_ms);
  return r;
}

}  // namespace hb
