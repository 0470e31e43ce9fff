// local_direct: the per-call fast path of rt::Runtime, with no ring, no
// waiter and no shm anywhere on it.
//
// Three pinned threads each own one runtime slot plus one partner slot that
// is never registered (so its gate is always idle). Every thread issues, in
// a closed loop, a seeded mix of:
//   - KvService get/put on its own shard (the typed local call, no hot set,
//     50% puts),
//   - Runtime::call and Runtime::call_frame to bench-owned echo services,
//   - call_remote and call_remote_frame to its idle partner (direct
//     execution under a gate steal),
//   - a nested call (a bench handler that calls KvService from inside).
// Every answer is checked against the thread's shadow copy or the echo rule.
// A traced run adds a short reference phase after the measured one: the
// same three threads call GlobalPoolRuntime (the locked global pool) so the
// per-processor path and the locked baseline are timed in one run.
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "rt/global_pool.h"
#include "rt/kv_service.h"
#include "rt/runtime.h"
#include "workloads.h"

namespace hb {
namespace {

using namespace hppc;

constexpr int kThreads = 3;
constexpr std::uint32_t kSlots = 2 * kThreads;  // own slot + idle partner
constexpr std::uint32_t kKeys = 4096;           // per thread, own shard
constexpr std::size_t kOpsPerThread = 1u << 16;
constexpr std::uint32_t kSamplePeriod = 16;
constexpr ProgramId kProgram = 17;

enum Kind : std::uint8_t {
  kGet, kPut, kCall, kCallFrame, kDirect, kDirectFrame, kNested, kKinds
};
const std::vector<const char*> kKindNames = {
    "kv.get", "kv.put", "call", "call_frame", "direct", "direct_frame",
    "nested"};
// Op weights, in percent. The 50% put share of the KvService ops is the
// workload's definition; the equal split between the other kinds (nested
// calls, each two calls deep, a little less) is this benchmark's own choice.
constexpr std::array<int, kKinds> kWeight = {15, 15, 15, 15, 15, 15, 10};
constexpr int kGlobalPoolCalls = 20000;  // per thread, traced runs only

struct Op {
  Kind kind;
  Word key;
  Word val;
};

struct ThreadInput {
  std::vector<Op> ops;
  std::vector<Word> preload;  // initial value of every key
};

Word echo_word(Word w) { return w * 0x9E3779B1u + 0x7F4A7C15u; }
Word input_word(const Op& op, std::size_t i) {
  return op.val + static_cast<Word>(i) * (op.key | 1u);
}

void echo_regs(ppc::RegSet& r) {
  for (std::size_t i = 0; i < ppc::kOpWord; ++i) r[i] = echo_word(r[i]);
  ppc::set_rc(r, Status::kOk);
}

Status frame_echo_local(void*, rt::FrameCtx&, rt::CallFrame& f) {
  Scope s(Sp::kHandlerFrameEcho, handler_op());
  for (Word& w : f.w) w = echo_word(w);
  return Status::kOk;
}

Status frame_echo_direct(void*, rt::FrameCtx&, rt::CallFrame& f) {
  Scope s(Sp::kHandlerFrameEchoDirect, handler_op());
  for (Word& w : f.w) w = echo_word(w);
  return Status::kOk;
}

std::vector<ThreadInput> generate(std::uint64_t seed) {
  Prng base(seed ^ 0x4c4f43414cull);  // "LOCAL"
  std::vector<ThreadInput> in(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    Prng rng = base.split(static_cast<std::uint64_t>(t));
    ThreadInput& ti = in[static_cast<std::size_t>(t)];
    ti.preload.resize(kKeys);
    for (Word& v : ti.preload) v = static_cast<Word>(rng.next());
    ti.ops.resize(kOpsPerThread);
    for (Op& op : ti.ops) {
      op.kind = static_cast<Kind>(pick_weighted(rng, kWeight));
      op.key = static_cast<Word>(rng.below(kKeys));
      op.val = static_cast<Word>(rng.next());
    }
  }
  return in;
}

/// One complete build of the system under test.
class Instance {
 public:
  Instance(const RunConfig& cfg, const std::vector<ThreadInput>& in,
           PhaseClock& clock)
      : cfg_(cfg), in_(in), clock_(clock) {
    const std::uint64_t t0 = steady_ns();
    rt_ = std::make_unique<rt::Runtime>(kSlots, /*pin_threads=*/true);
    ctor_ns = static_cast<double>(steady_ns() - t0);
    kv_ = std::make_unique<rt::KvService>(
        *rt_, rt::KvServiceConfig{.name = "kv", .shard_capacity = 2 * kKeys});
    echo_ep_ = rt_->bind({.name = "echo"}, kProgram,
                         [](rt::RtCtx&, ppc::RegSet& r) {
                           Scope s(Sp::kHandlerEcho, handler_op());
                           echo_regs(r);
                         });
    echo_direct_ep_ = rt_->bind({.name = "echo_direct"}, kProgram,
                                [](rt::RtCtx&, ppc::RegSet& r) {
                                  Scope s(Sp::kHandlerEchoDirect, handler_op());
                                  echo_regs(r);
                                });
    const EntryPointId kv_ep = kv_->ep();
    nest_ep_ = rt_->bind(
        {.name = "nest"}, kProgram, [kv_ep](rt::RtCtx& ctx, ppc::RegSet& r) {
          Scope s(Sp::kHandlerNest, handler_op());
          ppc::RegSet in;
          in[0] = r[0];
          ppc::set_op(in, rt::kKvGet);
          Status st;
          {
            Scope inner(Sp::kRtNestedInner, handler_op());
            st = ctx.call(kv_ep, in);
          }
          r[1] = in[1] + 1;
          ppc::set_rc(r, st);
        });
    frame_svc_ = rt_->bind_frame(kProgram, &frame_echo_local, nullptr);
    frame_direct_svc_ = rt_->bind_frame(kProgram, &frame_echo_direct, nullptr);
    gp_ep_ = gp_.bind([](ProgramId, ppc::RegSet& r) {
      echo_regs(r);
    });
    build_ns_ = static_cast<double>(steady_ns() - t0);
    tallies_.resize(kThreads);
    tracers_.resize(kThreads);
    preload_ns_.assign(kThreads, 0.0);
    for (int t = 0; t < kThreads; ++t) {
      threads_.emplace_back([this, t] { worker(t); });
    }
    while (ready_.load(std::memory_order_acquire) < kThreads) {
      std::this_thread::yield();
    }
  }

  ~Instance() {
    release(2);
    for (std::thread& t : threads_) t.join();
  }

  Instance(const Instance&) = delete;
  Instance& operator=(const Instance&) = delete;

  void release(int cmd) { cmd_.store(cmd, std::memory_order_release); }

  /// Warm up, measure, join; fold everything into `r`.
  void measure(Result& r) {
    const obs::CounterSnapshot base = rt_->snapshot();
    const obs::HistSnapshot hbase = rt_->hist_snapshot();
    std::vector<double> scrape_ns;
    release(1);
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
    // The fast path's standing claim, checked on every run: once warm, no
    // lock is taken and no mailbox node is allocated.
    if (d.get(obs::Counter::kLocksTaken) != 0 ||
        d.get(obs::Counter::kMailboxAllocs) != 0) {
      ++r.failed;
      note_failure("local_direct: warm phase booked locks_taken=" +
                   std::to_string(d.get(obs::Counter::kLocksTaken)) +
                   " mailbox_allocs=" +
                   std::to_string(d.get(obs::Counter::kMailboxAllocs)));
    }

    RtCounts c;
    for (const TallyPtr& tally : tallies_) {
      const auto& kc = tally->kinds;
      for (int k = 0; k < kKinds; ++k) c.ops += static_cast<double>(kc[k]);
      c.remote_attempted += static_cast<double>(kc[kDirect] + kc[kDirectFrame]);
      c.puts += static_cast<double>(kc[kPut]);
    }
    Layer& L = r.layer;
    rt_counter_metrics(L, d, h, rt_->arena_stats(), c);
    L["obs.telemetry.us"] = median(scrape_ns) / 1000.0;
    if (cfg_.traced) {
      AllSpans all{};
      for (const auto& t : tracers_) t->merge_into(all);
      L["rt.call.ns_p50"] = span_ns(all, Sp::kRtCall, 0.5);
      L["rt.call_frame.ns_p50"] = span_ns(all, Sp::kRtCallFrame, 0.5);
      L["rt.direct.ns_p50"] = span_ns(all, Sp::kRtDirect, 0.5);
      L["rt.direct_frame.ns_p50"] = span_ns(all, Sp::kRtDirectFrame, 0.5);
      L["rt.nested.ns_p50"] = span_ns(all, Sp::kRtNested, 0.5);
      L["rt.global_pool.ns_p50"] = span_ns(all, Sp::kRtGlobalPool, 0.5);
      L["kv.get.ns_p50"] = span_ns(all, Sp::kKvGet, 0.5);
      L["kv.put.ns_p50"] = span_ns(all, Sp::kKvPut, 0.5);
      L["rt.handler_self_frac"] =
          ratio(all[static_cast<std::size_t>(Sp::kHandlerEcho)].total_cy,
                all[static_cast<std::size_t>(Sp::kRtCall)].total_cy);
      std::vector<const Tracer*> tr;
      for (const auto& t : tracers_) tr.push_back(t.get());
      write_spans(cfg_.out_dir + "/spans-local_direct-seed" +
                      std::to_string(cfg_.seed) + ".csv",
                  tr, "local_direct");
    }
  }

  double ctor_ns = 0;
  double preload_ns() const {
    double m = 0;
    for (double v : preload_ns_) m = std::max(m, v);
    return m;
  }
  /// The system's own set-up work: runtime construction, binds, and the
  /// slowest thread's registration and preload (the threads run in
  /// parallel). Thread start and the start handshakes are not counted.
  double setup_ns() const { return build_ns_ + preload_ns(); }

 private:
  void worker(int t) {
    const ThreadInput& in = in_[static_cast<std::size_t>(t)];
    tallies_[static_cast<std::size_t>(t)] =
        std::make_unique<ThreadTally>(cfg_.windows);
    tracers_[static_cast<std::size_t>(t)] =
        std::make_unique<Tracer>(cfg_.traced);
    tl_tracer = tracers_[static_cast<std::size_t>(t)].get();
    std::vector<Word> shadow(kKeys);
    const std::uint64_t p0 = steady_ns();
    const rt::SlotId me = rt_->register_thread();
    const rt::SlotId partner = me + kThreads;
    for (Word k = 0; k < kKeys; ++k) {
      if (kv_->put(me, kProgram, k, in.preload[k]) != Status::kOk) {
        note_failure("local_direct: preload put failed");
      }
      shadow[k] = in.preload[k];
    }
    preload_ns_[static_cast<std::size_t>(t)] =
        static_cast<double>(steady_ns() - p0);
    ready_.fetch_add(1, std::memory_order_acq_rel);
    int cmd;
    while ((cmd = cmd_.load(std::memory_order_acquire)) == 0) {
      std::this_thread::yield();
    }
    if (cmd != 1) {
      tl_tracer = nullptr;
      return;
    }

    ThreadTally& tally = *tallies_[static_cast<std::size_t>(t)];
    Checker chk(cfg_.corrupt_check, t == 0);
    const int nwin = clock_.windows();
    std::size_t idx = 0;
    std::uint32_t countdown = kSamplePeriod;
    std::uint64_t seq = 0;

    const auto fail = [](const std::string& what) {
      note_failure("local_direct: " + what);
      return false;
    };
    const auto check_regs = [&](const ppc::RegSet& r, const Op& op) {
      bool ok = chk.eq(r[0], echo_word(input_word(op, 0)));
      for (std::size_t i = 1; i < ppc::kOpWord; ++i) {
        ok = ok && r[i] == echo_word(input_word(op, i));
      }
      return ok || fail("echo reply mismatch");
    };
    const auto check_frame = [&](const rt::CallFrame& f, const Op& op) {
      bool ok = chk.eq(f.w[0], echo_word(input_word(op, 0)));
      for (std::size_t i = 1; i < f.w.size(); ++i) {
        ok = ok && f.w[i] == echo_word(input_word(op, i));
      }
      return ok || fail("frame echo mismatch");
    };
    const auto fill_regs = [](ppc::RegSet& r, const Op& op) {
      for (std::size_t i = 0; i < ppc::kOpWord; ++i) r[i] = input_word(op, i);
      ppc::set_op(r, 1);
    };
    const auto fill_frame = [](rt::CallFrame& f, const Op& op) {
      for (std::size_t i = 0; i < f.w.size(); ++i) f.w[i] = input_word(op, i);
    };

    for (;;) {
      const int w = clock_.window();
      if (w >= nwin) break;
      const Op& op = in.ops[idx++ & (kOpsPerThread - 1)];
      const bool sampled = --countdown == 0;
      if (sampled) countdown = kSamplePeriod;
      const std::uint64_t opid =
          sampled && cfg_.traced
              ? (static_cast<std::uint64_t>(t + 1) << 48) | ++seq
              : 0;
      const std::uint64_t t0 = sampled ? now_cy() : 0;
      bool ok = true;
      switch (op.kind) {
        case kGet: {
          std::optional<Word> v;
          {
            Scope s(Sp::kKvGet, opid);
            v = kv_->get(me, kProgram, op.key);
          }
          ok = v.has_value() ? (chk.eq(*v, shadow[op.key]) ||
                                fail("kv.get value mismatch"))
                             : fail("kv.get missing key");
          break;
        }
        case kPut: {
          Status st;
          {
            Scope s(Sp::kKvPut, opid);
            st = kv_->put(me, kProgram, op.key, op.val);
          }
          if (st == Status::kOk) {
            shadow[op.key] = op.val;
          } else {
            ok = fail("kv.put refused");
          }
          break;
        }
        case kCall: {
          ppc::RegSet r;
          fill_regs(r, op);
          Status st;
          {
            Scope s(Sp::kRtCall, opid);
            st = rt_->call(me, kProgram, echo_ep_, r);
          }
          ok = st == Status::kOk ? check_regs(r, op) : fail("call refused");
          break;
        }
        case kCallFrame: {
          rt::CallFrame f = rt::make_frame(frame_svc_, 1);
          fill_frame(f, op);
          Status st;
          {
            Scope s(Sp::kRtCallFrame, opid);
            st = rt_->call_frame(me, kProgram, f);
          }
          ok = st == Status::kOk ? check_frame(f, op)
                                 : fail("call_frame refused");
          break;
        }
        case kDirect: {
          ppc::RegSet r;
          fill_regs(r, op);
          Status st;
          {
            Scope s(Sp::kRtDirect, opid);
            st = rt_->call_remote(me, partner, kProgram, echo_direct_ep_, r);
          }
          ok = st == Status::kOk ? check_regs(r, op)
                                 : fail("call_remote refused");
          break;
        }
        case kDirectFrame: {
          rt::CallFrame f = rt::make_frame(frame_direct_svc_, 1);
          fill_frame(f, op);
          Status st;
          {
            Scope s(Sp::kRtDirectFrame, opid);
            st = rt_->call_remote_frame(me, partner, kProgram, f);
          }
          ok = st == Status::kOk ? check_frame(f, op)
                                 : fail("call_remote_frame refused");
          break;
        }
        case kNested: {
          ppc::RegSet r;
          r[0] = op.key;
          ppc::set_op(r, 1);
          Status st;
          {
            Scope s(Sp::kRtNested, opid);
            st = rt_->call(me, kProgram, nest_ep_, r);
          }
          ok = st == Status::kOk ? (chk.eq(r[1], shadow[op.key] + 1) ||
                                    fail("nested reply mismatch"))
                                 : fail("nested call refused");
          break;
        }
        case kKinds:
          break;
      }
      tally.record(w, t0, ok, op.kind);
    }
    if (cfg_.traced) {
      // The locked-pool reference, under the same three-thread load.
      for (int i = 0; i < kGlobalPoolCalls; ++i) {
        const Op& op = in.ops[idx++ & (kOpsPerThread - 1)];
        ppc::RegSet r;
        fill_regs(r, op);
        Status st;
        {
          Scope s(Sp::kRtGlobalPool,
                  (static_cast<std::uint64_t>(t + 1) << 48) | ++seq);
          st = gp_.call(kProgram, gp_ep_, r);
        }
        ++tally.attempted;
        if (!(st == Status::kOk ? check_regs(r, op)
                                : fail("global pool call refused"))) {
          ++tally.failed;
        }
      }
    }
    tl_tracer = nullptr;
  }

  const RunConfig& cfg_;
  const std::vector<ThreadInput>& in_;
  PhaseClock& clock_;
  std::unique_ptr<rt::Runtime> rt_;
  std::unique_ptr<rt::KvService> kv_;
  rt::GlobalPoolRuntime gp_;
  EntryPointId echo_ep_ = 0, echo_direct_ep_ = 0, nest_ep_ = 0, gp_ep_ = 0;
  rt::FrameServiceId frame_svc_ = 0, frame_direct_svc_ = 0;
  std::vector<TallyPtr> tallies_;  // each allocated by its own thread
  std::vector<std::unique_ptr<Tracer>> tracers_;
  std::vector<double> preload_ns_;
  double build_ns_ = 0;
  std::atomic<int> ready_{0};
  std::atomic<int> cmd_{0};
  std::vector<std::thread> threads_;  // last: joined before members above die
};

}  // namespace

Result run_local_direct(const RunConfig& cfg) {
  Result r;
  pin_self(coordinator_cpu());
  const std::vector<ThreadInput> in = generate(cfg.seed);
  PhaseClock clock;
  std::vector<double> ctor_ms, preload_ms;
  for (int rep = 0; rep < cfg.setup_reps; ++rep) {
    clock.reset(cfg.windows);
    auto inst = std::make_unique<Instance>(cfg, in, clock);
    r.setup_s.push_back(inst->setup_ns() * 1e-9);
    ctor_ms.push_back(inst->ctor_ns * 1e-6);
    preload_ms.push_back(inst->preload_ns() * 1e-6);
    if (rep == 0) {
      // Measure the first build, in a fresh process; the other set-ups
      // follow it and are timed only.
      inst->measure(r);
      r.peak_rss_mib = peak_rss_mib();
    }
  }
  r.layer["setup.runtime_ctor_ms"] = median(ctor_ms);
  r.layer["setup.preload_ms"] = median(preload_ms);
  return r;
}

}  // namespace hb
