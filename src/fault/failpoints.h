// Deterministic fault injection: named failpoints compiled into the seams
// of the PPC/xcall/repl paths.
//
// The runtime's recovery story (§4.5.2 kill/reclaim, §4.5.6 Frank's
// resource exhaustion) only means something if the failure branches are
// actually executed. A failpoint is a named site —
//
//   if (HPPC_FAULT_POINT("rt.xcall.ring_full")) { ...take the full path... }
//
// — that evaluates to a compile-time `false` (zero instructions, branches
// folded away) unless the build defines HPPC_FAULT_INJECTION=1
// (cmake -DHPPC_FAULT_INJECTION=ON). In a fault build every site costs one
// relaxed atomic load while disarmed; an armed site consults its trigger:
//
//   off            never fires (armed but inert; keeps the site countable)
//   always         fires on every evaluation
//   oneshot        fires exactly once, then disarms itself
//   count=N        fires on the first N evaluations, then disarms
//   prob=P         fires with probability P per evaluation (deterministic
//                  per-point splitmix64 stream, so a seeded run replays)
//   skip=M         modifier: ignore the first M evaluations before the
//                  trigger starts counting/firing
//   delay=CYCLES   modifier: when the point fires, additionally spin for
//                  CYCLES cpu_relax() rounds before returning true — the
//                  injected-latency primitive (sites named "*.delay" use
//                  only this effect and ignore the return value)
//
// Points are armed at runtime, by tests (fault::arm("name", "prob=0.1")),
// or from the environment: HPPC_FAULTS="a=oneshot;b=prob=0.2,delay=1000"
// is parsed once, when the registry first materializes. Arming a name that
// no site has reached yet is fine — the site adopts the config on first
// evaluation. What a fired point *means* (ring full, pool exhausted,
// dropped completion, aborted handler) is decided by the site; the
// framework only answers "does this seam fail now?".
#pragma once

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "common/cpu_relax.h"

namespace hppc::fault {

/// One named site's trigger state. All fields are atomics so arming from a
/// controller thread races benignly with evaluation from traffic threads
/// (TSan-clean); the registry hands out stable references for the lifetime
/// of the process.
class FailPoint {
 public:
  // "oneshot" is kCount with a budget of 1, so it needs no mode of its own.
  enum class Mode : std::uint8_t { kOff = 0, kAlways, kCount, kProb };

  /// Longest point name the registry stores.
  static constexpr std::size_t kMaxName = 47;

  FailPoint() = default;
  FailPoint(const FailPoint&) = delete;
  FailPoint& operator=(const FailPoint&) = delete;

  std::string_view name() const { return name_; }

  /// The per-site evaluation. Disarmed: one relaxed load. Armed: consult
  /// the trigger, optionally spin the configured delay, and report whether
  /// the site should take its failure branch.
  bool check() {
    if (armed_.load(std::memory_order_relaxed) == 0) return false;
    return check_armed();
  }

  /// Configure from a spec string ("always", "oneshot", "count=3",
  /// "prob=0.25", each optionally "+,skip=M,delay=N"). Returns false and
  /// leaves the point disarmed on a malformed spec.
  bool arm(std::string_view spec);

  void disarm() { armed_.store(0, std::memory_order_relaxed); }
  bool armed() const { return armed_.load(std::memory_order_relaxed) != 0; }

  /// Lifetime tallies (never reset by disarm; reset() is for tests).
  std::uint64_t evaluations() const {
    return evaluations_.load(std::memory_order_relaxed);
  }
  std::uint64_t injected() const {
    return injected_.load(std::memory_order_relaxed);
  }
  void reset_counts() {
    evaluations_.store(0, std::memory_order_relaxed);
    injected_.store(0, std::memory_order_relaxed);
  }

 private:
  friend class Registry;
  bool check_armed();  // out of line: the armed path is not the fast path

  // Written once, by the registry under its mutex, before the point is
  // handed out.
  char name_[kMaxName + 1] = {};
  std::atomic<std::uint32_t> armed_{0};
  std::atomic<Mode> mode_{Mode::kOff};
  // kCount: remaining fires. kProb: fire threshold in 2^-32 fixed point.
  std::atomic<std::uint64_t> budget_{0};
  std::atomic<std::uint64_t> skip_{0};
  std::atomic<std::uint64_t> delay_spins_{0};
  std::atomic<std::uint64_t> rng_{0x9e3779b97f4a7c15ULL};  // splitmix64 walk
  std::atomic<std::uint64_t> evaluations_{0};
  std::atomic<std::uint64_t> injected_{0};
};

/// Process-wide name → FailPoint table. Lookup is a mutex + linear scan —
/// sites cache the reference in a function-local static, so the slow
/// lookup happens once per site, not per evaluation. The table is a fixed
/// array, so a site's first evaluation never allocates: heap audits
/// (common/heap_audit.h) hold in fault builds too.
class Registry {
 public:
  /// Find-or-create. The returned reference is stable forever.
  FailPoint& point(std::string_view name);

  /// Arm `name` with `spec` (creating the point if no site reached it
  /// yet). Returns false on a malformed spec.
  bool arm(std::string_view name, std::string_view spec);

  void disarm(std::string_view name);
  void disarm_all();

  /// Total injections across every point (the registry-side twin of the
  /// per-slot faults_injected counter).
  std::uint64_t total_injected() const;

  /// Injected count for one point (0 if it does not exist).
  std::uint64_t injected(std::string_view name) const;

  /// Every known point name, for catalogs and diagnostics.
  std::vector<std::string> names() const;

  /// Parse a HPPC_FAULTS-style spec list: "name=spec;name=spec,...".
  /// Returns the number of points armed, or -1 on a parse error (points
  /// before the error stay armed).
  int arm_from_spec_list(std::string_view list);

 private:
  friend Registry& registry();
  Registry();  // reads $HPPC_FAULTS once

  static constexpr std::size_t kMaxPoints = 64;

  mutable std::mutex mu_;
  std::array<FailPoint, kMaxPoints> points_;  // [0, count_) in use
  std::size_t count_ = 0;
};

/// The process-wide registry (materialized on first use; arms $HPPC_FAULTS).
Registry& registry();

// Convenience wrappers used by tests and tools.
inline bool arm(std::string_view name, std::string_view spec) {
  return registry().arm(name, spec);
}
inline void disarm(std::string_view name) { registry().disarm(name); }
inline void disarm_all() { registry().disarm_all(); }
inline std::uint64_t injected(std::string_view name) {
  return registry().injected(name);
}

}  // namespace hppc::fault

// The site macro. With fault injection compiled out it is the literal
// `false`: the guarded failure branch is dead code and the optimizer
// removes it — the zero-overhead gate in CI holds by construction. With
// HPPC_FAULT_INJECTION=ON each site resolves its FailPoint once (static
// local) and pays one relaxed load per evaluation while disarmed.
#if defined(HPPC_FAULT_INJECTION) && HPPC_FAULT_INJECTION
#define HPPC_FAULT_POINT(name_literal)                             \
  ([]() -> bool {                                                  \
    static ::hppc::fault::FailPoint& hppc_fp_site =                \
        ::hppc::fault::registry().point(name_literal);             \
    return hppc_fp_site.check();                                   \
  }())
#else
#define HPPC_FAULT_POINT(name_literal) (false)
#endif
