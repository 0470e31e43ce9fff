// End-to-end call tracing on the host runtime: a traced request must come
// out of the rings as a parent-linked span chain — root on the caller's
// slot, remote/batch spans under it, server-exec spans on the server's
// slot pointing back across the ring — and the chrome exporter must emit
// the nestable async events a viewer needs. Only meaningful in trace
// builds; on a shipping build every test here SKIPs.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <map>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "obs/trace.h"
#include "rt/runtime.h"

namespace hppc {
namespace {

#if defined(HPPC_TRACE) && HPPC_TRACE
constexpr bool kTraceBuild = true;
#else
constexpr bool kTraceBuild = false;
#endif

using obs::SpanKind;
using obs::TraceEvent;
using obs::TraceRecord;

struct Span {
  std::uint32_t id = 0;
  std::uint32_t parent = 0;
  SpanKind kind = SpanKind::kRoot;
  std::uint16_t slot = 0;
  bool ended = false;
};

/// Collect the spans of one trace id from every slot's ring.
std::map<std::uint32_t, Span> collect_spans(rt::Runtime& rt,
                                            std::uint64_t trace_id) {
  std::map<std::uint32_t, Span> spans;
  for (rt::SlotId s = 0; s < rt.slots(); ++s) {
    for (const TraceRecord& r : rt.trace_ring(s).snapshot()) {
      if (r.trace_id != trace_id) continue;
      const auto ev = static_cast<TraceEvent>(r.event);
      if (ev == TraceEvent::kSpanBegin) {
        Span& sp = spans[r.span];
        sp.id = r.span;
        sp.parent = r.parent;
        sp.kind = static_cast<SpanKind>(r.arg);
        sp.slot = r.slot;
      } else if (ev == TraceEvent::kSpanEnd) {
        spans[r.span].ended = true;
      }
    }
  }
  return spans;
}

int count_kind(const std::map<std::uint32_t, Span>& spans, SpanKind k) {
  int n = 0;
  for (const auto& [id, sp] : spans) n += sp.kind == k;
  return n;
}

/// A second thread that busy-polls its slot: its gate stays owned, so
/// remote calls from the main thread take the ring (post -> drain ->
/// complete) instead of the idle-owner direct steal.
class BusyServer {
 public:
  explicit BusyServer(rt::Runtime& rt) : rt_(rt) {
    thread_ = std::thread([this] {
      const rt::SlotId s = rt_.register_thread();
      slot_.store(s, std::memory_order_release);
      up_.store(true, std::memory_order_release);
      while (!stop_.load(std::memory_order_acquire)) rt_.poll(s);
    });
    while (!up_.load(std::memory_order_acquire)) std::this_thread::yield();
  }
  ~BusyServer() { stop(); }
  /// Join the polling thread. Call before snapshotting trace rings: the
  /// rings are single-writer plain stores, so the join is what gives the
  /// reader a happens-before edge over the server's records.
  void stop() {
    stop_.store(true, std::memory_order_release);
    if (thread_.joinable()) thread_.join();
  }
  rt::SlotId slot() const { return slot_.load(std::memory_order_acquire); }

 private:
  rt::Runtime& rt_;
  std::thread thread_;
  std::atomic<rt::SlotId> slot_{0};
  std::atomic<bool> up_{false};
  std::atomic<bool> stop_{false};
};

TEST(TraceSpans, RootSpanOpensAndCloses) {
  if (!kTraceBuild) GTEST_SKIP() << "needs -DHPPC_TRACE=ON";
  rt::Runtime rt(1);
  const rt::SlotId slot = rt.register_thread();
  const obs::TraceCtx ctx = rt.trace_begin(slot);
  EXPECT_TRUE(ctx.traced());
  EXPECT_NE(ctx.span_id, 0u);
  EXPECT_EQ(rt.trace_ctx(slot).trace_id, ctx.trace_id);
  rt.trace_end(slot);
  EXPECT_FALSE(rt.trace_ctx(slot).traced());

  const auto spans = collect_spans(rt, ctx.trace_id);
  ASSERT_EQ(spans.size(), 1u);
  EXPECT_EQ(spans.begin()->second.kind, SpanKind::kRoot);
  EXPECT_TRUE(spans.begin()->second.ended);
}

TEST(TraceSpans, UntracedCallsMintNoSpans) {
  if (!kTraceBuild) GTEST_SKIP() << "needs -DHPPC_TRACE=ON";
  rt::Runtime rt(1);
  const rt::SlotId slot = rt.register_thread();
  const EntryPointId ep = rt.bind(
      {.name = "null"}, 700,
      [](rt::RtCtx&, ppc::RegSet& regs) { ppc::set_rc(regs, Status::kOk); });
  ppc::RegSet regs;
  ppc::set_op(regs, 1);
  ASSERT_EQ(rt.call(slot, 1, ep, regs), Status::kOk);
  for (const TraceRecord& r : rt.trace_ring(slot).snapshot()) {
    EXPECT_NE(static_cast<TraceEvent>(r.event), TraceEvent::kSpanBegin);
  }
}

TEST(TraceSpans, LocalCallNestsUnderRoot) {
  if (!kTraceBuild) GTEST_SKIP() << "needs -DHPPC_TRACE=ON";
  rt::Runtime rt(1);
  const rt::SlotId slot = rt.register_thread();
  const EntryPointId ep = rt.bind(
      {.name = "null"}, 700,
      [](rt::RtCtx&, ppc::RegSet& regs) { ppc::set_rc(regs, Status::kOk); });
  const obs::TraceCtx ctx = rt.trace_begin(slot);
  ppc::RegSet regs;
  ppc::set_op(regs, 1);
  ASSERT_EQ(rt.call(slot, 1, ep, regs), Status::kOk);
  rt.trace_end(slot);

  const auto spans = collect_spans(rt, ctx.trace_id);
  ASSERT_EQ(spans.size(), 2u);
  ASSERT_EQ(count_kind(spans, SpanKind::kLocalCall), 1);
  for (const auto& [id, sp] : spans) {
    EXPECT_TRUE(sp.ended) << id;
    if (sp.kind == SpanKind::kLocalCall) {
      EXPECT_EQ(sp.parent, ctx.span_id);
    }
  }
}

TEST(TraceSpans, BatchRoundTripLinksCallerRingAndServerSlots) {
  // The acceptance chain: one traced call_remote_batch must produce a
  // parent-linked span chain crossing caller slot -> ring -> server slot —
  // a batch span under the root on the caller's slot, and one server_exec
  // span PER CELL on the server's slot whose parent is the batch span.
  if (!kTraceBuild) GTEST_SKIP() << "needs -DHPPC_TRACE=ON";
  rt::Runtime rt(2);
  const rt::SlotId me = rt.register_thread();
  const EntryPointId ep = rt.bind(
      {.name = "echo"}, 700, [](rt::RtCtx&, ppc::RegSet& regs) {
        regs[1] = regs[0] + 1;
        ppc::set_rc(regs, Status::kOk);
      });
  BusyServer server(rt);

  const obs::TraceCtx ctx = rt.trace_begin(me);
  constexpr int kBatch = 4;
  ppc::RegSet batch[kBatch];
  for (int i = 0; i < kBatch; ++i) {
    batch[i] = ppc::RegSet{};
    batch[i][0] = static_cast<Word>(i);
    ppc::set_op(batch[i], 1);
  }
  ASSERT_EQ(rt.call_remote_batch(me, server.slot(), 1, ep,
                                 std::span<ppc::RegSet>(batch, kBatch)),
            Status::kOk);
  rt.trace_end(me);
  server.stop();  // join before reading the server slot's ring

  const auto spans = collect_spans(rt, ctx.trace_id);
  ASSERT_EQ(count_kind(spans, SpanKind::kRoot), 1);
  // The batch may ride the ring (kBatch span) or, if the server briefly
  // yielded its gate, go direct (kRemoteDirect per cell); either way every
  // executed cell emits a server_exec span parent-linked into this trace.
  const int batches = count_kind(spans, SpanKind::kBatch);
  const int directs = count_kind(spans, SpanKind::kRemoteDirect);
  EXPECT_GE(batches + directs, 1);
  EXPECT_EQ(count_kind(spans, SpanKind::kServerExec), kBatch);

  std::uint32_t batch_span = 0;
  for (const auto& [id, sp] : spans) {
    if (sp.kind == SpanKind::kBatch) batch_span = id;
  }
  for (const auto& [id, sp] : spans) {
    EXPECT_TRUE(sp.ended) << "span " << id << " never ended";
    // Every parent link resolves inside this trace (completeness) ...
    if (sp.parent != 0) {
      EXPECT_TRUE(spans.count(sp.parent))
          << "span " << id << " parent " << sp.parent << " missing";
    }
    switch (sp.kind) {
      case SpanKind::kRoot:
        EXPECT_EQ(sp.parent, 0u);
        EXPECT_EQ(sp.slot, me);
        break;
      case SpanKind::kBatch:
      case SpanKind::kRemoteDirect:
        EXPECT_EQ(sp.parent, ctx.span_id);
        EXPECT_EQ(sp.slot, me);
        break;
      case SpanKind::kServerExec:
        if (batch_span != 0) {
          EXPECT_EQ(sp.parent, batch_span);
        }
        EXPECT_EQ(sp.slot, server.slot());
        break;
      default:
        break;
    }
  }
  // ... and the chain is acyclic: every span reaches the root.
  for (const auto& [id, sp] : spans) {
    std::uint32_t cur = id;
    int hops = 0;
    while (cur != 0) {
      ASSERT_LE(++hops, static_cast<int>(spans.size())) << "cycle at " << id;
      const auto it = spans.find(cur);
      ASSERT_NE(it, spans.end());
      cur = it->second.parent;
    }
  }
}

TEST(TraceSpans, RemoteCallCarriesContextIntoNestedWork) {
  if (!kTraceBuild) GTEST_SKIP() << "needs -DHPPC_TRACE=ON";
  rt::Runtime rt(2);
  const rt::SlotId me = rt.register_thread();
  const EntryPointId echo = rt.bind(
      {.name = "echo"}, 700, [](rt::RtCtx&, ppc::RegSet& regs) {
        regs[1] = regs[0] + 1;
        ppc::set_rc(regs, Status::kOk);
      });
  const EntryPointId nested = rt.bind(
      {.name = "nested"}, 700, [echo](rt::RtCtx& ctx, ppc::RegSet& regs) {
        ppc::RegSet inner;
        inner[0] = regs[0];
        ppc::set_op(inner, 1);
        ctx.call(echo, inner);
        regs[1] = inner[1];
        ppc::set_rc(regs, Status::kOk);
      });
  BusyServer server(rt);

  const obs::TraceCtx ctx = rt.trace_begin(me);
  ppc::RegSet regs;
  regs[0] = 7;
  ppc::set_op(regs, 1);
  ASSERT_EQ(rt.call_remote(me, server.slot(), 1, nested, regs), Status::kOk);
  rt.trace_end(me);
  EXPECT_EQ(regs[1], 8u);
  server.stop();  // join before reading the server slot's ring

  const auto spans = collect_spans(rt, ctx.trace_id);
  // The nested ctx.call on the server's slot must appear as a local_call
  // span parented under the server_exec span — the context crossed the
  // ring inside the xcall cell.
  ASSERT_EQ(count_kind(spans, SpanKind::kServerExec) +
                count_kind(spans, SpanKind::kRemoteDirect),
            1);
  ASSERT_EQ(count_kind(spans, SpanKind::kLocalCall), 1);
  std::uint32_t exec_span = 0;
  for (const auto& [id, sp] : spans) {
    if (sp.kind == SpanKind::kServerExec || sp.kind == SpanKind::kRemoteDirect)
      exec_span = id;
  }
  for (const auto& [id, sp] : spans) {
    if (sp.kind == SpanKind::kLocalCall) {
      EXPECT_EQ(sp.parent, exec_span);
      EXPECT_EQ(sp.slot, server.slot());
    }
  }
}

TEST(TraceSpans, ChromeExportEmitsNestableAsyncPairs) {
  if (!kTraceBuild) GTEST_SKIP() << "needs -DHPPC_TRACE=ON";
  rt::Runtime rt(2);
  const rt::SlotId me = rt.register_thread();
  const EntryPointId ep = rt.bind(
      {.name = "echo"}, 700, [](rt::RtCtx&, ppc::RegSet& regs) {
        regs[1] = regs[0] + 1;
        ppc::set_rc(regs, Status::kOk);
      });
  BusyServer server(rt);

  rt.trace_begin(me);
  ppc::RegSet batch[2];
  for (int i = 0; i < 2; ++i) {
    batch[i] = ppc::RegSet{};
    ppc::set_op(batch[i], 1);
  }
  ASSERT_EQ(rt.call_remote_batch(me, server.slot(), 1, ep,
                                 std::span<ppc::RegSet>(batch, 2)),
            Status::kOk);
  rt.trace_end(me);
  server.stop();  // join before exporting the server slot's ring

  std::vector<obs::NamedRing> rings;
  for (rt::SlotId s = 0; s < rt.slots(); ++s) {
    rings.push_back({"slot" + std::to_string(s), &rt.trace_ring(s)});
  }
  const std::string chrome = obs::trace_to_chrome_json(rings);
  EXPECT_NE(chrome.find("\"ph\":\"b\""), std::string::npos);
  EXPECT_NE(chrome.find("\"ph\":\"e\""), std::string::npos);
  EXPECT_NE(chrome.find("\"name\":\"root\""), std::string::npos);
  EXPECT_NE(chrome.find("\"name\":\"server_exec\""), std::string::npos);
  EXPECT_NE(chrome.find("\"parent\":"), std::string::npos);
  EXPECT_NE(chrome.find("\"id\":\"0x"), std::string::npos);
}

TEST(TraceSpans, SpanIdsAreSlotTagged) {
  if (!kTraceBuild) GTEST_SKIP() << "needs -DHPPC_TRACE=ON";
  rt::Runtime rt(2);
  const rt::SlotId me = rt.register_thread();
  const EntryPointId ep = rt.bind(
      {.name = "echo"}, 700, [](rt::RtCtx&, ppc::RegSet& regs) {
        ppc::set_rc(regs, Status::kOk);
      });
  BusyServer server(rt);
  const obs::TraceCtx ctx = rt.trace_begin(me);
  ppc::RegSet regs;
  ppc::set_op(regs, 1);
  ASSERT_EQ(rt.call_remote(me, server.slot(), 1, ep, regs), Status::kOk);
  rt.trace_end(me);
  server.stop();  // join before reading the server slot's ring

  for (const auto& [id, sp] : collect_spans(rt, ctx.trace_id)) {
    // High byte of the span id names the minting slot: concurrent slots
    // can never collide.
    EXPECT_EQ(id >> 24, static_cast<std::uint32_t>(sp.slot)) << id;
  }
}

}  // namespace
}  // namespace hppc
