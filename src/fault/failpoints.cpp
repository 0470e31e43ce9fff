#include "fault/failpoints.h"

#include <cstdlib>
#include <span>

#include "common/assert.h"

namespace hppc::fault {

namespace {

/// splitmix64 step — one atomic fetch_add walks the stream, so concurrent
/// evaluations of one probabilistic point draw independent values without
/// a lock (the sequence is deterministic under a deterministic schedule,
/// which is what the seeded chaos soak relies on).
std::uint64_t rng_draw(std::atomic<std::uint64_t>& state) {
  std::uint64_t z = state.fetch_add(0x9e3779b97f4a7c15ULL,
                                    std::memory_order_relaxed) +
                    0x9e3779b97f4a7c15ULL;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

bool parse_u64(std::string_view s, std::uint64_t* out) {
  if (s.empty()) return false;
  std::uint64_t v = 0;
  for (char c : s) {
    if (c < '0' || c > '9') return false;
    v = v * 10 + static_cast<std::uint64_t>(c - '0');
  }
  *out = v;
  return true;
}

bool parse_prob(std::string_view s, double* out) {
  // Minimal "0.25"-style parser: digits [ '.' digits ].
  if (s.empty()) return false;
  double v = 0;
  std::size_t i = 0;
  for (; i < s.size() && s[i] >= '0' && s[i] <= '9'; ++i) {
    v = v * 10 + (s[i] - '0');
  }
  if (i < s.size()) {
    if (s[i] != '.') return false;
    double scale = 0.1;
    for (++i; i < s.size(); ++i) {
      if (s[i] < '0' || s[i] > '9') return false;
      v += (s[i] - '0') * scale;
      scale *= 0.1;
    }
  }
  if (v < 0.0 || v > 1.0) return false;
  *out = v;
  return true;
}

}  // namespace

bool FailPoint::arm(std::string_view spec) {
  Mode mode = Mode::kOff;
  std::uint64_t budget = 0;
  std::uint64_t skip = 0;
  std::uint64_t delay = 0;
  bool have_trigger = false;

  std::size_t pos = 0;
  while (pos <= spec.size()) {
    const std::size_t comma = spec.find(',', pos);
    const std::string_view item = spec.substr(
        pos, comma == std::string_view::npos ? spec.size() - pos : comma - pos);
    pos = comma == std::string_view::npos ? spec.size() + 1 : comma + 1;
    if (item.empty()) continue;

    const std::size_t eq = item.find('=');
    const std::string_view key = item.substr(0, eq);
    const std::string_view val =
        eq == std::string_view::npos ? std::string_view{} : item.substr(eq + 1);

    if (key == "off") {
      mode = Mode::kOff;
      have_trigger = true;
    } else if (key == "always") {
      mode = Mode::kAlways;
      have_trigger = true;
    } else if (key == "oneshot") {
      mode = Mode::kCount;
      budget = 1;
      have_trigger = true;
    } else if (key == "count") {
      if (!parse_u64(val, &budget)) return false;
      mode = Mode::kCount;
      have_trigger = true;
    } else if (key == "prob" || key == "p") {
      double p = 0;
      if (!parse_prob(val, &p)) return false;
      mode = Mode::kProb;
      budget = static_cast<std::uint64_t>(p * 4294967296.0);  // 2^-32 fixed pt
      have_trigger = true;
    } else if (key == "skip") {
      if (!parse_u64(val, &skip)) return false;
    } else if (key == "delay") {
      if (!parse_u64(val, &delay)) return false;
      // A bare delay spec is a valid trigger: fire (spin) on every pass.
      if (!have_trigger) {
        mode = Mode::kAlways;
        have_trigger = true;
      }
    } else {
      return false;
    }
  }
  if (!have_trigger) return false;

  // Publish config before the armed flag so an evaluator that sees
  // armed != 0 reads a complete trigger (release/relaxed pairing is enough:
  // every field is independently atomic and a torn *combination* at the
  // arming instant is indistinguishable from arming a moment later).
  mode_.store(mode, std::memory_order_relaxed);
  budget_.store(budget, std::memory_order_relaxed);
  skip_.store(skip, std::memory_order_relaxed);
  delay_spins_.store(delay, std::memory_order_relaxed);
  armed_.store(mode == Mode::kOff ? 0 : 1, std::memory_order_release);
  return true;
}

bool FailPoint::check_armed() {
  evaluations_.fetch_add(1, std::memory_order_relaxed);

  // skip=M: let the first M armed evaluations pass untouched.
  std::uint64_t sk = skip_.load(std::memory_order_relaxed);
  while (sk > 0) {
    if (skip_.compare_exchange_weak(sk, sk - 1, std::memory_order_relaxed)) {
      return false;
    }
  }

  bool fire = false;
  switch (mode_.load(std::memory_order_relaxed)) {
    case Mode::kOff:
      break;
    case Mode::kAlways:
      fire = true;
      break;
    case Mode::kCount: {
      std::uint64_t left = budget_.load(std::memory_order_relaxed);
      while (left > 0 && !fire) {
        if (budget_.compare_exchange_weak(left, left - 1,
                                          std::memory_order_relaxed)) {
          fire = true;
          if (left == 1) disarm();  // budget spent
        }
      }
      break;
    }
    case Mode::kProb:
      fire = (rng_draw(rng_) >> 32) <
             budget_.load(std::memory_order_relaxed);
      break;
  }
  if (!fire) return false;

  injected_.fetch_add(1, std::memory_order_relaxed);
  const std::uint64_t spins = delay_spins_.load(std::memory_order_relaxed);
  for (std::uint64_t i = 0; i < spins; ++i) cpu_relax();
  return true;
}

// ---------------------------------------------------------------------------
// Registry
// ---------------------------------------------------------------------------

Registry::Registry() {
  if (const char* env = std::getenv("HPPC_FAULTS")) {
    arm_from_spec_list(env);
  }
}

FailPoint& Registry::point(std::string_view name) {
  std::lock_guard<std::mutex> lock(mu_);
  for (std::size_t i = 0; i < count_; ++i) {
    if (points_[i].name() == name) return points_[i];
  }
  HPPC_ASSERT_MSG(count_ < kMaxPoints, "too many failpoints");
  HPPC_ASSERT_MSG(name.size() <= FailPoint::kMaxName,
                  "failpoint name too long");
  FailPoint& p = points_[count_++];
  name.copy(p.name_, name.size());
  return p;
}

bool Registry::arm(std::string_view name, std::string_view spec) {
  return point(name).arm(spec);
}

void Registry::disarm(std::string_view name) {
  std::lock_guard<std::mutex> lock(mu_);
  for (FailPoint& p : std::span(points_.data(), count_)) {
    if (p.name() == name) {
      p.disarm();
      return;
    }
  }
}

void Registry::disarm_all() {
  std::lock_guard<std::mutex> lock(mu_);
  for (FailPoint& p : std::span(points_.data(), count_)) p.disarm();
}

std::uint64_t Registry::total_injected() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::uint64_t n = 0;
  for (const FailPoint& p : std::span(points_.data(), count_)) {
    n += p.injected();
  }
  return n;
}

std::uint64_t Registry::injected(std::string_view name) const {
  std::lock_guard<std::mutex> lock(mu_);
  for (const FailPoint& p : std::span(points_.data(), count_)) {
    if (p.name() == name) return p.injected();
  }
  return 0;
}

std::vector<std::string> Registry::names() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::string> out;
  out.reserve(count_);
  for (const FailPoint& p : std::span(points_.data(), count_)) {
    out.emplace_back(p.name());
  }
  return out;
}

int Registry::arm_from_spec_list(std::string_view list) {
  int armed = 0;
  std::size_t pos = 0;
  while (pos <= list.size()) {
    const std::size_t semi = list.find(';', pos);
    const std::string_view item = list.substr(
        pos, semi == std::string_view::npos ? list.size() - pos : semi - pos);
    pos = semi == std::string_view::npos ? list.size() + 1 : semi + 1;
    if (item.empty()) continue;
    const std::size_t eq = item.find('=');
    if (eq == std::string_view::npos) return -1;
    if (!arm(item.substr(0, eq), item.substr(eq + 1))) return -1;
    ++armed;
  }
  return armed;
}

Registry& registry() {
  static Registry r;
  return r;
}

}  // namespace hppc::fault
