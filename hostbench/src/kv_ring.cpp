// kv_ring: every call rides the xcall ring to a busy owner.
//
// One owner thread loops on Runtime::poll() and never yields or parks, so
// its gate is always held and no caller can steal it: every cross-slot call
// posts a ring cell. KvService runs with the replicated hot set on; the
// owner preloads the 8 hottest keys first so the hot set admits them. Two
// caller threads issue a seeded, Zipf-skewed mix of get_remote (answered by
// the caller's replica on a hot key, by the ring otherwise), put_remote
// (10%), multi_get batches of 16 and null call_remote calls to the owner,
// and poll their own slot between ops so replica nudges land. Each caller
// reads and writes only its own keys, so its shadow copy is exact.
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "rt/kv_service.h"
#include "rt/runtime.h"
#include "workloads.h"

namespace hb {
namespace {

using namespace hppc;

constexpr int kCallers = 2;
constexpr std::uint32_t kSlots = kCallers + 1;
constexpr std::uint32_t kRanks = 2048;  // keys per caller (own choice)
// Key popularity skew: s = 0.9, the skew bench/mixed_workload analyses.
constexpr double kZipfS = 0.9;
constexpr std::uint32_t kHotRanks = 4;  // per caller: 8 hot keys in all
constexpr std::size_t kMulti = 16;
constexpr std::size_t kOpsPerThread = 1u << 15;
constexpr std::uint32_t kSamplePeriod = 4;
constexpr ProgramId kProgram = 23;

enum Kind : std::uint8_t { kGet, kPut, kMultiGet, kNull, kKinds };
const std::vector<const char*> kKindNames = {"get_remote", "put_remote",
                                             "multi_get16", "null_call"};
// Op weights, in percent. 10% puts is the workload's definition (and the
// write share of bench/mixed_workload); the get / multi_get / null split is
// this benchmark's own choice.
constexpr std::array<int, kKinds> kWeight = {75, 10, 10, 5};

struct Op {
  Kind kind;
  Word val;
  std::array<std::uint16_t, kMulti> rank;  // rank[0] for single-key ops
};

/// Caller c owns keys 2*rank + c, so ranks 0..3 of both callers are the
/// eight hottest keys overall: keys 0..7.
Word key_of(int caller, std::uint32_t rank) {
  return static_cast<Word>(2 * rank + static_cast<std::uint32_t>(caller));
}
bool is_hot(std::uint32_t rank) { return rank < kHotRanks; }

struct Input {
  std::vector<Word> preload;            // value of key k, k < 2 * kRanks
  std::vector<std::vector<Op>> ops;     // per caller
};

Input generate(std::uint64_t seed) {
  Prng base(seed ^ 0x4b5652494e47ull);  // "KVRING"
  Input in;
  Prng pre = base.split(99);
  in.preload.resize(2 * kRanks);
  for (Word& v : in.preload) v = static_cast<Word>(pre.next());
  const Zipf zipf(kRanks, kZipfS);
  in.ops.resize(kCallers);
  for (int c = 0; c < kCallers; ++c) {
    Prng rng = base.split(static_cast<std::uint64_t>(c));
    std::vector<Op>& ops = in.ops[static_cast<std::size_t>(c)];
    ops.resize(kOpsPerThread);
    for (Op& op : ops) {
      op.kind = static_cast<Kind>(pick_weighted(rng, kWeight));
      op.val = static_cast<Word>(rng.next());
      const std::size_t n = op.kind == kMultiGet ? kMulti : 1;
      for (std::size_t i = 0; i < n; ++i) {
        op.rank[i] = static_cast<std::uint16_t>(zipf.draw(rng));
      }
    }
  }
  return in;
}

Status null_handler(ppc::RegSet& r) {
  const std::uint64_t op = ppc::get_u64(r, 0);
  Scope s(Sp::kHandlerNull, op);
  r[3] = r[2] + 1;
  ppc::set_rc(r, Status::kOk);
  return Status::kOk;
}

/// Owner-side drain accounting (traced runs time every poll from outside).
struct DrainStats {
  std::uint64_t polls = 0, busy_polls = 0, actions = 0;
  std::uint64_t busy_cy = 0, loop_cy = 0;
};

class Instance {
 public:
  Instance(const RunConfig& cfg, const Input& in, PhaseClock& clock)
      : cfg_(cfg), in_(in), clock_(clock) {
    const std::uint64_t t0 = steady_ns();
    rt_ = std::make_unique<rt::Runtime>(kSlots, /*pin_threads=*/true);
    ctor_ns = static_cast<double>(steady_ns() - t0);
    kv_ = std::make_unique<rt::KvService>(
        *rt_, rt::KvServiceConfig{.name = "kv",
                                  .shard_capacity = 4 * kRanks,
                                  .replicated_hot_capacity =
                                      rt::kKvHotSetCapacity});
    null_ep_ = rt_->bind({.name = "null"}, kProgram,
                         [](rt::RtCtx&, ppc::RegSet& r) { null_handler(r); });
    build_ns_ = static_cast<double>(steady_ns() - t0);
    tallies_.resize(kCallers);
    tracers_.resize(kCallers + 1);
    // Register in a fixed order: owner first, then the callers.
    threads_.emplace_back([this] { owner(); });
    while (registered_.load(std::memory_order_acquire) < 1) {
      std::this_thread::yield();
    }
    for (int c = 0; c < kCallers; ++c) {
      threads_.emplace_back([this, c] { caller(c); });
      while (registered_.load(std::memory_order_acquire) < 2 + c) {
        std::this_thread::yield();
      }
    }
    all_registered_.store(true, std::memory_order_release);  // may preload
    while (ready_.load(std::memory_order_acquire) < kCallers + 1) {
      std::this_thread::yield();
    }
  }

  ~Instance() {
    cmd_.store(2, std::memory_order_release);
    for (std::thread& t : threads_) t.join();
  }

  Instance(const Instance&) = delete;
  Instance& operator=(const Instance&) = delete;

  void measure(Result& r) {
    const obs::CounterSnapshot base = rt_->snapshot();
    const obs::HistSnapshot hbase = rt_->hist_snapshot();
    std::array<obs::CounterSnapshot, kCallers> cbase;
    for (int c = 0; c < kCallers; ++c) {
      cbase[static_cast<std::size_t>(c)] =
          rt_->slot_snapshot(caller_slot_[static_cast<std::size_t>(c)]);
    }
    std::vector<double> scrape_ns;
    cmd_.store(1, std::memory_order_release);
    const std::vector<Window> win = clock_.run(cfg_, [&](int) {
      const std::uint64_t t0 = now_cy();
      const obs::Telemetry tel = rt_->telemetry();
      scrape_ns.push_back(static_cast<double>(now_cy() - t0) / cy_per_ns());
      (void)tel;
      return process_cpu_s();
    });
    for (std::thread& t : threads_) t.join();
    threads_.clear();

    fold_tallies(r, tallies_, win, kKindNames);

    const obs::CounterSnapshot d = rt_->snapshot().delta(base);
    const obs::HistSnapshot h = rt_->hist_snapshot().delta(hbase);
    RtCounts c;
    double caller_posts = 0, nulls = 0;
    for (int k = 0; k < kCallers; ++k) {
      const auto ks = static_cast<std::size_t>(k);
      caller_posts += static_cast<double>(
          rt_->slot_snapshot(caller_slot_[ks])
              .delta(cbase[ks])
              .get(obs::Counter::kXcallPosts));
      const auto& kc = tallies_[ks]->kinds;
      for (int j = 0; j < kKinds; ++j) c.ops += static_cast<double>(kc[j]);
      c.remote_attempted += static_cast<double>(kc[kGet] + kc[kPut] +
                                                kc[kMultiGet] + kc[kNull]);
      c.puts += static_cast<double>(kc[kPut]);
      nulls += static_cast<double>(kc[kNull]);
    }
    c.repl_misses = caller_posts - c.puts - nulls;
    Layer& L = r.layer;
    rt_counter_metrics(L, d, h, rt_->arena_stats(), c);
    L["obs.telemetry.us"] = median(scrape_ns) / 1000.0;
    if (cfg_.traced) {
      AllSpans all{};
      for (const auto& t : tracers_) t->merge_into(all);
      L["kv.get_remote_hot.ns_p50"] = span_ns(all, Sp::kKvGetRemoteHot, 0.5);
      L["kv.get_remote_cold.ns_p50"] = span_ns(all, Sp::kKvGetRemoteCold, 0.5);
      L["kv.put_remote_hot.ns_p50"] = span_ns(all, Sp::kKvPutRemoteHot, 0.5);
      L["kv.multi_get16.ns_per_key_p50"] =
          span_ns(all, Sp::kKvMultiGet16, 0.5) / kMulti;
      L["xcall.remote_null.ns_p50"] = span_ns(all, Sp::kXcallRemoteNull, 0.5);
      L["xcall.remote_null.ns_p99"] = span_ns(all, Sp::kXcallRemoteNull, 0.99);
      L["repl.nudge_poll.ns_p50"] = span_ns(all, Sp::kReplNudgePoll, 0.5);
      L["xcall.drain.busy_frac"] =
          ratio(static_cast<double>(drain_.busy_cy),
                static_cast<double>(drain_.loop_cy));
      L["xcall.drain.useful_poll_ratio"] =
          ratio(static_cast<double>(drain_.busy_polls),
                static_cast<double>(drain_.polls));
      L["xcall.drain.cells_per_busy_poll"] =
          ratio(static_cast<double>(drain_.actions),
                static_cast<double>(drain_.busy_polls));
      std::vector<const Tracer*> tr;
      for (const auto& t : tracers_) tr.push_back(t.get());
      write_spans(cfg_.out_dir + "/spans-kv_ring-seed" +
                      std::to_string(cfg_.seed) + ".csv",
                  tr, "kv_ring");
    }
  }

  double ctor_ns = 0;
  double preload_ns = 0;
  /// The system's own set-up work: runtime construction, binds and the
  /// owner's preload. Thread start and the start handshakes are not counted.
  double setup_ns() const { return build_ns_ + preload_ns; }

 private:
  void owner() {
    owner_slot_ = rt_->register_thread();
    tracers_.back() = std::make_unique<Tracer>(cfg_.traced);
    tl_tracer = tracers_.back().get();
    registered_.fetch_add(1, std::memory_order_acq_rel);
    while (!all_registered_.load(std::memory_order_acquire)) {
      std::this_thread::yield();
    }
    // Preload: the hottest keys first so the hot set admits exactly them.
    const std::uint64_t p0 = steady_ns();
    std::vector<Word> order;
    for (std::uint32_t rank = 0; rank < kRanks; ++rank) {
      for (int c = 0; c < kCallers; ++c) order.push_back(key_of(c, rank));
    }
    for (Word k : order) {
      if (kv_->put(owner_slot_, kProgram, k, in_.preload[k]) != Status::kOk) {
        note_failure("kv_ring: preload put failed");
      }
    }
    preload_ns = static_cast<double>(steady_ns() - p0);
    owner_done_.store(true, std::memory_order_release);
    ready_.fetch_add(1, std::memory_order_acq_rel);

    // Serve: poll, never yield, never park — until both callers are done.
    const int nwin = clock_.windows();
    DrainStats ds;  // local: the owner writes it on every poll
    const bool timed = cfg_.traced;
    while (callers_done_.load(std::memory_order_acquire) < kCallers) {
      if (!timed) {
        rt_->poll(owner_slot_);
        continue;
      }
      const std::uint64_t t0 = now_cy();
      const std::size_t n = rt_->poll(owner_slot_);
      const std::uint64_t t1 = now_cy();
      const int w = clock_.window();
      if (w < 0 || w >= nwin) continue;
      ++ds.polls;
      ds.loop_cy += t1 - t0;
      if (n > 0) {
        ++ds.busy_polls;
        ds.actions += n;
        ds.busy_cy += t1 - t0;
      }
    }
    drain_ = ds;
    // Drain what the last nudges left behind before the runtime dies.
    while (rt_->poll(owner_slot_) > 0) {
    }
    tl_tracer = nullptr;
  }

  void caller(int c) {
    const rt::SlotId me = rt_->register_thread();
    caller_slot_[static_cast<std::size_t>(c)] = me;
    tallies_[static_cast<std::size_t>(c)] =
        std::make_unique<ThreadTally>(cfg_.windows);
    tracers_[static_cast<std::size_t>(c)] =
        std::make_unique<Tracer>(cfg_.traced);
    tl_tracer = tracers_[static_cast<std::size_t>(c)].get();
    registered_.fetch_add(1, std::memory_order_acq_rel);
    while (!owner_done_.load(std::memory_order_acquire)) {
      std::this_thread::yield();
    }
    // The owner's preload nudged this slot's replica: take the nudge (two
    // full-scan periods of polls cover a lost doorbell, too).
    for (int i = 0; i < 128; ++i) rt_->poll(me);
    std::vector<Word> shadow(kRanks);
    for (std::uint32_t rank = 0; rank < kRanks; ++rank) {
      shadow[rank] = in_.preload[key_of(c, rank)];
    }
    ready_.fetch_add(1, std::memory_order_acq_rel);
    int cmd;
    while ((cmd = cmd_.load(std::memory_order_acquire)) == 0) {
      std::this_thread::yield();
    }
    if (cmd == 1) run(c, me, shadow);
    tl_tracer = nullptr;
    callers_done_.fetch_add(1, std::memory_order_acq_rel);
  }

  void run(int c, rt::SlotId me, std::vector<Word>& shadow) {
    const rt::SlotId own = owner_slot_;
    const std::vector<Op>& ops = in_.ops[static_cast<std::size_t>(c)];
    ThreadTally& tally = *tallies_[static_cast<std::size_t>(c)];
    Checker chk(cfg_.corrupt_check, c == 0);
    const int nwin = clock_.windows();
    std::size_t idx = 0;
    std::uint32_t countdown = kSamplePeriod;
    std::uint64_t seq = 0;
    const auto fail = [](const std::string& what) {
      note_failure("kv_ring: " + what);
      return false;
    };
    std::array<Word, kMulti> mkeys{};
    std::array<std::optional<Word>, kMulti> mout{};

    for (;;) {
      const int w = clock_.window();
      if (w >= nwin) break;
      const Op& op = ops[idx++ & (kOpsPerThread - 1)];
      const bool sampled = --countdown == 0;
      if (sampled) countdown = kSamplePeriod;
      const std::uint64_t opid =
          sampled && cfg_.traced
              ? (static_cast<std::uint64_t>(c + 1) << 48) | ++seq
              : 0;
      const std::uint64_t t0 = sampled ? now_cy() : 0;
      bool ok = true;
      const std::uint32_t rank = op.rank[0];
      const Word key = key_of(c, rank);
      switch (op.kind) {
        case kGet: {
          std::optional<Word> v;
          {
            Scope s(is_hot(rank) ? Sp::kKvGetRemoteHot : Sp::kKvGetRemoteCold,
                    opid);
            v = kv_->get_remote(me, own, kProgram, key);
          }
          ok = v.has_value() ? (chk.eq(*v, shadow[rank]) ||
                                fail("get_remote value mismatch"))
                             : fail("get_remote missing key");
          break;
        }
        case kPut: {
          Status st;
          {
            Scope s(is_hot(rank) ? Sp::kKvPutRemoteHot : Sp::kKvPutRemoteCold,
                    opid);
            st = kv_->put_remote(me, own, kProgram, key, op.val);
          }
          if (st == Status::kOk) {
            shadow[rank] = op.val;
          } else {
            ok = fail("put_remote refused");
          }
          break;
        }
        case kMultiGet: {
          for (std::size_t i = 0; i < kMulti; ++i) {
            mkeys[i] = key_of(c, op.rank[i]);
          }
          std::size_t found;
          {
            Scope s(Sp::kKvMultiGet16, opid);
            found = kv_->multi_get(me, own, kProgram, mkeys, mout);
          }
          ok = found == kMulti || fail("multi_get missed keys");
          for (std::size_t i = 0; ok && i < kMulti; ++i) {
            const Word want = shadow[op.rank[i]];
            ok = mout[i].has_value() &&
                 (i == 0 ? chk.eq(*mout[i], want) : *mout[i] == want);
            if (!ok) fail("multi_get value mismatch");
          }
          break;
        }
        case kNull: {
          ppc::RegSet r;
          ppc::set_u64(r, 0, opid);
          r[2] = op.val;
          ppc::set_op(r, 1);
          Status st;
          {
            Scope s(Sp::kXcallRemoteNull, opid);
            st = rt_->call_remote(me, own, kProgram, null_ep_, r);
          }
          ok = st == Status::kOk
                   ? (chk.eq(r[3], op.val + 1) || fail("null reply mismatch"))
                   : fail("null call refused");
          break;
        }
        case kKinds:
          break;
      }
      tally.record(w, t0, ok, op.kind);
      // Take replica nudges between ops (part of the loop, not the op).
      Scope s(Sp::kReplNudgePoll, opid);
      rt_->poll(me);
    }
  }

  const RunConfig& cfg_;
  const Input& in_;
  PhaseClock& clock_;
  std::unique_ptr<rt::Runtime> rt_;
  std::unique_ptr<rt::KvService> kv_;
  EntryPointId null_ep_ = 0;
  rt::SlotId owner_slot_ = 0;
  std::array<rt::SlotId, kCallers> caller_slot_{};
  std::vector<TallyPtr> tallies_;  // each allocated by its own thread
  std::vector<std::unique_ptr<Tracer>> tracers_;  // callers..., owner last
  DrainStats drain_;  // the owner's, copied in when it stops
  double build_ns_ = 0;
  std::atomic<int> registered_{0};
  std::atomic<bool> all_registered_{false};
  std::atomic<bool> owner_done_{false};
  std::atomic<int> ready_{0};
  std::atomic<int> cmd_{0};
  std::atomic<int> callers_done_{0};
  std::vector<std::thread> threads_;
};

}  // namespace

Result run_kv_ring(const RunConfig& cfg) {
  Result r;
  pin_self(coordinator_cpu());
  const Input in = generate(cfg.seed);
  PhaseClock clock;
  std::vector<double> ctor_ms, preload_ms;
  for (int rep = 0; rep < cfg.setup_reps; ++rep) {
    clock.reset(cfg.windows);
    auto inst = std::make_unique<Instance>(cfg, in, clock);
    r.setup_s.push_back(inst->setup_ns() * 1e-9);
    ctor_ms.push_back(inst->ctor_ns * 1e-6);
    preload_ms.push_back(inst->preload_ns * 1e-6);
    if (rep == 0) {
      // Measure the first build, in a fresh process; the other set-ups
      // follow it and are timed only.
      inst->measure(r);
      r.peak_rss_mib = peak_rss_mib();
    }
  }
  r.layer["setup.runtime_ctor_ms"] = median(ctor_ms);
  r.layer["setup.preload_ms"] = median(preload_ms);
  // What the skew produces: the share of single-key ops (get/put) and of
  // all keys read that land on the 8 hot keys.
  double single = 0, single_hot = 0, reads = 0, reads_hot = 0;
  for (const std::vector<Op>& ops : in.ops) {
    for (const Op& op : ops) {
      const std::size_t n = op.kind == kMultiGet ? kMulti : 1;
      if (op.kind == kNull) continue;
      if (op.kind != kMultiGet) {
        ++single;
        single_hot += is_hot(op.rank[0]) ? 1 : 0;
      }
      if (op.kind == kPut) continue;
      for (std::size_t i = 0; i < n; ++i) {
        ++reads;
        reads_hot += is_hot(op.rank[i]) ? 1 : 0;
      }
    }
  }
  r.notes["input.hot_share_single_key_ops"] = ratio(single_hot, single);
  r.notes["input.hot_share_keys_read"] = ratio(reads_hot, reads);
  return r;
}

}  // namespace hb
