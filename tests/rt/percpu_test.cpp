#include "rt/percpu.h"

#include <gtest/gtest.h>

#include <memory>
#include <set>
#include <thread>
#include <vector>

namespace hppc::rt {
namespace {

TEST(SlotRegistry, SameThreadSameSlot) {
  SlotRegistry reg(4);
  const SlotId a = reg.register_thread();
  const SlotId b = reg.register_thread();
  EXPECT_EQ(a, b);
}

TEST(SlotRegistry, DistinctThreadsDistinctSlots) {
  SlotRegistry reg(8);
  std::vector<SlotId> slots(4, kInvalidSlot);
  std::vector<std::thread> threads;
  for (int i = 0; i < 4; ++i) {
    threads.emplace_back([&, i] { slots[i] = reg.register_thread(); });
  }
  for (auto& t : threads) t.join();
  std::set<SlotId> unique(slots.begin(), slots.end());
  EXPECT_EQ(unique.size(), 4u);
  for (SlotId s : slots) EXPECT_LT(s, 8u);
}

TEST(SlotRegistry, SeparateRegistriesSeparateSlots) {
  SlotRegistry a(2), b(2);
  const SlotId sa = a.register_thread();
  const SlotId sb = b.register_thread();
  EXPECT_EQ(sa, 0u);
  EXPECT_EQ(sb, 0u);  // fresh count per registry, same thread OK
}

TEST(SlotRegistry, ReusedAddressDoesNotResurrectStaleSlot) {
  // Regression: the TLS cache used to be keyed by the registry's address,
  // so a new registry constructed where a destroyed one lived would hand
  // this thread its old slot id. Arrange for this thread's slot in the
  // first registry to be nonzero (another thread takes 0 first) so a stale
  // hit is distinguishable from the correct fresh assignment.
  void* first_addr = nullptr;
  {
    auto reg = std::make_unique<SlotRegistry>(4);
    first_addr = reg.get();
    std::thread([&] { reg->register_thread(); }).join();
    ASSERT_EQ(reg->register_thread(), 1u);
  }
  auto fresh = std::make_unique<SlotRegistry>(4);
  if (static_cast<void*>(fresh.get()) != first_addr) {
    GTEST_SKIP() << "allocator did not reuse the address; bug not reachable";
  }
  EXPECT_EQ(fresh->register_thread(), 0u);
}

}  // namespace
}  // namespace hppc::rt
