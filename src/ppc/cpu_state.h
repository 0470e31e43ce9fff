// Per-processor PPC state (Figure 1).
//
// "each processor independently maintains a local collection of all the
//  resources required to complete a PPC call ... a pool of worker processes
//  for each server, and a pool of call descriptors (CDs) shared among all
//  the servers for use on that processor. These pools are accessed
//  exclusively by the local processor."
#pragma once

#include <array>
#include <cstdint>
#include <unordered_map>
#include <vector>

#include "common/assert.h"
#include "common/free_stack.h"
#include "common/types.h"
#include "ppc/call_descriptor.h"

namespace hppc::ppc {

class EntryPoint;

/// One CD pool. The default configuration has a single pool (group 0)
/// shared by every service on the processor; §2's trust-group compromise
/// ("collect servers that trust each other into groups and only share
/// stacks between servers in the same group") gives each group its own.
struct CdPool {
  std::uint32_t group = 0;
  FreeStack<CallDescriptor, &CallDescriptor::pool_link> pool;
  SimAddr saddr = kInvalidAddr;  // pool header, node-local
};

struct CpuPpcState {
  /// This processor's copy of the service table: a simple array indexed by
  /// entry-point id (§4.5.5: "a simple array with direct indexing can be
  /// used with each processor having its own copy").
  std::array<EntryPoint*, kMaxEntryPoints> service_table{};

  /// Simulated address of the table copy (node-local; one pointer per
  /// entry, so lookups are a single local load).
  SimAddr table_saddr = kInvalidAddr;

  /// Overflow services beyond the fixed table (§4.5.5's extension: "a more
  /// complex data structure (e.g. hash table with overflow buckets) to
  /// locate service entry points for the rest"). Lookups through here pay
  /// extra loads per probed bucket.
  std::unordered_map<EntryPointId, EntryPoint*> hashed_table;
  SimAddr hashed_table_saddr = kInvalidAddr;

  /// CD pools, one per trust group that has been used on this processor
  /// (group 0 first; linear scan is fine, groups are few). Found, and
  /// created on first use, by PpcFacility::cd_pool_of.
  std::vector<CdPool> cd_pools;

  // Statistics moved to the fixed-id observability block on kernel::Cpu
  // (cpu.counters(), src/obs/counters.h): same per-processor ownership
  // discipline, but uniform ids shared with the host runtime, mergeable
  // snapshots, and reachable through Frank's kFrankStats interface.
};

}  // namespace hppc::ppc
