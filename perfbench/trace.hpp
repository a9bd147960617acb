// Traced mode's delegate timing: every binding of a model's DelegateRegistry
// is re-registered behind a timing trampoline, so a simulator built from the
// wrapped registry (interpreted or compiled backend) reports, per delegate,
// its calls, accepted guard calls and host time. Engine services a
// delegate calls (emit_instruction, flush_stage, ...) count toward it. The
// generated backend calls delegates by symbol, bypassing the registry, so it
// cannot be traced this way.
//
// The clock reads of a trampoline cost as much as a small delegate, so the raw
// counts are not the ledger: calibrate_timer() measures that cost on an empty
// delegate, and the ledger subtracts it per call (see TimerCost).
#pragma once

#include <algorithm>
#include <array>
#include <chrono>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "desc/delegate_registry.hpp"

#if defined(__x86_64__) || defined(__i386__)
#include <x86intrin.h>
#define PERFBENCH_TSC 1
#else
#define PERFBENCH_TSC 0
#endif

namespace perfbench {

/// Delegate groups of the ledger: the machine-side layer a delegate belongs
/// to, named after its symbol (pipe_issue_guard -> issue, ...).
inline constexpr std::array<const char*, 8> kGroups = {
    "fetch", "issue", "execute", "mem", "publish", "wb", "exec", "bcast"};

struct DelegateSlot {
  std::string symbol;
  unsigned group = 0;
  rcpn::core::GuardFn guard = nullptr;    // the wrapped binding (guards)
  rcpn::core::ActionFn action = nullptr;  // the wrapped binding (actions)
  std::uint64_t calls = 0;
  std::uint64_t accepted = 0;  // guard calls that returned true
  std::uint64_t ticks = 0;  // of now_ticks()
};

inline constexpr std::size_t kMaxSlots = 24;
/// The registry's slots, then one more that calibrate_timer() uses.
inline std::array<DelegateSlot, kMaxSlots + 1> g_slots;
inline std::size_t g_num_slots = 0;

/// The trampolines' clock: the x86 time-stamp counter where there is one, as
/// it takes a few ns to read and, unlike the ordered read behind steady_clock,
/// does not stall the pipeline around every delegate; else steady_clock in ns.
inline std::uint64_t now_ticks() {
#if PERFBENCH_TSC
  return __rdtsc();
#else
  return static_cast<std::uint64_t>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                                        std::chrono::steady_clock::now().time_since_epoch())
                                        .count());
#endif
}

/// Nanoseconds per tick of now_ticks(), measured once against steady_clock.
inline double ns_per_tick() {
#if PERFBENCH_TSC
  static const double value = [] {
    using std::chrono::steady_clock;
    const steady_clock::time_point c0 = steady_clock::now();
    const std::uint64_t t0 = now_ticks();
    while (steady_clock::now() - c0 < std::chrono::milliseconds(20)) {
    }
    const std::uint64_t t1 = now_ticks();
    const steady_clock::time_point c1 = steady_clock::now();
    return std::chrono::duration<double, std::nano>(c1 - c0).count() /
           static_cast<double>(t1 - t0);
  }();
  return value;
#else
  return 1.0;
#endif
}

template <std::size_t I>
bool traced_guard(void* env, rcpn::core::FireCtx& ctx) {
  DelegateSlot& s = g_slots[I];
  const std::uint64_t t0 = now_ticks();
  const bool ok = s.guard(env, ctx);
  s.ticks += now_ticks() - t0;
  ++s.calls;
  s.accepted += ok ? 1 : 0;
  return ok;
}

template <std::size_t I>
void traced_action(void* env, rcpn::core::FireCtx& ctx) {
  DelegateSlot& s = g_slots[I];
  const std::uint64_t t0 = now_ticks();
  s.action(env, ctx);
  s.ticks += now_ticks() - t0;
  ++s.calls;
}

template <std::size_t... Is>
constexpr auto guard_trampolines(std::index_sequence<Is...>) {
  return std::array<rcpn::core::GuardFn, sizeof...(Is)>{&traced_guard<Is>...};
}
template <std::size_t... Is>
constexpr auto action_trampolines(std::index_sequence<Is...>) {
  return std::array<rcpn::core::ActionFn, sizeof...(Is)>{&traced_action<Is>...};
}

/// Ledger group of a delegate symbol, e.g.
/// "rcpn::machines::pipe_mem_publish_action" -> "mem". Throws on a symbol no
/// group claims, so a new delegate cannot drop out of the ledger unnoticed.
inline unsigned group_of(const std::string& symbol) {
  std::string s = symbol.substr(symbol.rfind(':') + 1);
  for (const char* prefix : {"pipe_", "tomasulo_"})
    if (s.rfind(prefix, 0) == 0) s.erase(0, std::string(prefix).size());
  for (const char* suffix : {"_publish_action", "_guard", "_action"}) {
    const std::string suf = suffix;
    if (s.size() > suf.size() && s.compare(s.size() - suf.size(), suf.size(), suf) == 0) {
      s.erase(s.size() - suf.size());
      break;
    }
  }
  for (unsigned g = 0; g < kGroups.size(); ++g)
    if (s == kGroups[g]) return g;
  throw std::runtime_error("no ledger group for delegate '" + symbol + "'");
}

/// A copy of `base` whose every binding runs behind a timing trampoline.
/// One wrapped registry per process: the slots are global.
inline rcpn::desc::DelegateRegistry traced_registry(const rcpn::desc::DelegateRegistry& base) {
  static constexpr auto kGuards = guard_trampolines(std::make_index_sequence<kMaxSlots>{});
  static constexpr auto kActions = action_trampolines(std::make_index_sequence<kMaxSlots>{});
  if (g_num_slots != 0) throw std::logic_error("traced_registry: already wrapped");
  rcpn::desc::DelegateRegistry out(base.machine_type(), base.includes());
  const auto claim = [](const std::string& symbol) -> DelegateSlot& {
    if (g_num_slots == kMaxSlots) throw std::runtime_error("traced_registry: too many delegates");
    DelegateSlot& s = g_slots[g_num_slots++];
    s.symbol = symbol;
    s.group = group_of(symbol);
    return s;
  };
  for (const std::string& sym : base.guard_symbols()) {
    rcpn::desc::DelegateRegistry::Binding b = *base.find_guard(sym);
    claim(sym).guard = b.guard;
    b.guard = kGuards[g_num_slots - 1];
    out.add_guard(sym, b);
  }
  for (const std::string& sym : base.action_symbols()) {
    rcpn::desc::DelegateRegistry::Binding b = *base.find_action(sym);
    claim(sym).action = b.action;
    b.action = kActions[g_num_slots - 1];
    out.add_action(sym, b);
  }
  return out;
}

/// What timing one delegate call adds, per call, beyond calling the binding
/// directly. `inside_ns` falls between the trampoline's two clock reads, so
/// it is in the slot's time; `outside_ns` is the rest, which lands in the
/// caller's (the engine's) time.
struct TimerCost {
  double inside_ns = 0.0;
  double outside_ns = 0.0;
};

inline bool empty_guard(void*, rcpn::core::FireCtx&) { return true; }

/// Time batches of calls to an empty delegate, once through a trampoline and
/// once directly, and take the medians over the batches.
inline TimerCost calibrate_timer() {
  constexpr std::size_t kSlot = kMaxSlots;
  constexpr int kBatches = 201, kCallsPerBatch = 1000;
  DelegateSlot& s = g_slots[kSlot];
  s.guard = &empty_guard;
  // Called through volatile pointers, so neither call can be inlined away.
  rcpn::core::GuardFn volatile traced = &traced_guard<kSlot>;
  rcpn::core::GuardFn volatile direct = &empty_guard;
  rcpn::core::FireCtx ctx;
  std::vector<double> inside, added;
  const double per_call = ns_per_tick() / kCallsPerBatch;
  for (int batch = 0; batch < kBatches; ++batch) {
    s.ticks = 0;
    const std::uint64_t t0 = now_ticks();
    for (int i = 0; i < kCallsPerBatch; ++i) traced(nullptr, ctx);
    const std::uint64_t t1 = now_ticks();
    for (int i = 0; i < kCallsPerBatch; ++i) direct(nullptr, ctx);
    const std::uint64_t t2 = now_ticks();
    const double direct_ns = static_cast<double>(t2 - t1) * per_call;
    inside.push_back(static_cast<double>(s.ticks) * per_call - direct_ns);
    added.push_back(static_cast<double>(t1 - t0) * per_call - direct_ns);
  }
  const auto median = [](std::vector<double>& v) {
    std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(v.size() / 2), v.end());
    return v[v.size() / 2];
  };
  s = DelegateSlot{};
  const double in = median(inside);
  return {in, median(added) - in};
}

inline void reset_slot_counters() {
  for (std::size_t i = 0; i < g_num_slots; ++i) {
    g_slots[i].calls = 0;
    g_slots[i].accepted = 0;
    g_slots[i].ticks = 0;
  }
}

}  // namespace perfbench
