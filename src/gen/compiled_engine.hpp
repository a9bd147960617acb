// CompiledEngine: the high-performance backend "generated" from a model.
//
// Derives from core::Engine and replaces only the hot loop: candidate lookup
// walks CompiledModel's contiguous Fig 6 runs instead of the net's
// pointer-linked Transition objects, guards and actions dispatch through the
// pre-bound raw delegates in the flat tables, and the latch-to-latch fast
// path is a precomputed flag with the destination stage already resolved.
// Everything that defines the *semantics* — token services, two-list
// promotion, retirement, flush, pools, stats, the deadlock watchdog — is the
// inherited Engine code operating on the same state, so the two backends are
// cycle-for-cycle equivalent by construction (tests/test_gen.cpp pins this
// on all five machine models).
//
// Actions keep calling FireCtx::engine services unchanged: a CompiledEngine
// IS-A core::Engine, so models never know which backend runs them.
//
// The `linear_search` ablation option does not change the candidate lookup
// here (the compiled tables *are* the Fig 6 precomputation); like every
// backend, it only loses the shared stage-level stall, whose exit sets
// Engine::build() does not compute under it. The two-list options act at
// analysis time and are honored by both backends.
#pragma once

#include "core/engine.hpp"
#include "gen/compiled_model.hpp"

namespace rcpn::gen {

class CompiledEngine final : public core::Engine {
 public:
  explicit CompiledEngine(core::Net& net, core::EngineOptions options = {})
      : core::Engine(net, options) {}

  /// Run the shared static extraction, then flatten its products.
  void build() override;
  /// The Fig 8 main loop over the compiled tables.
  bool step() override;

  /// The lowered tables (introspection, emit_cpp, tests).
  const CompiledModel& compiled() const { return cm_; }

 private:
  void process_place_compiled(core::PlaceId p, core::PipelineStage& st);
  /// `hint` is the trigger token's expected slot index in `from`'s pool (the
  /// scan position minus the removals this cycle); validated, never trusted.
  bool try_fire_compiled(const CompiledTransition& ct, core::InstructionToken* tok,
                         core::PipelineStage& from, std::size_t hint);
  bool independent_enabled_compiled(const CompiledTransition& ct);
  void fire_independent_compiled(const CompiledTransition& ct);

  CompiledModel cm_;
  /// Snapshot slot indices parallel to Engine::scratch_ (removal hints).
  std::vector<std::uint32_t> scratch_idx_;
};

}  // namespace rcpn::gen
