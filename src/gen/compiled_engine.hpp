// CompiledEngine: the high-performance backend "generated" from a model.
//
// The runtime table policy of gen::TableEngine: build() lowers the engine's
// static extraction into a CompiledModel (contiguous Fig 6 runs instead of
// the net's pointer-linked Transition objects), and the shared hot loop
// reads those vectors, calls guards and actions through the pre-bound raw
// delegates in the rows, and takes each destination stage from the row,
// resolved at lowering. Everything that defines the *semantics* — token
// services, two-list promotion, retirement, flush, pools, stats, the
// deadlock watchdog — is the inherited Engine code operating on the same
// state, so the backends are cycle-for-cycle equivalent by construction
// (tests/test_gen.cpp pins this on all five machine models).
//
// Actions keep calling FireCtx::engine services unchanged: a CompiledEngine
// IS-A core::Engine, so models never know which backend runs them.
//
// The `linear_search` ablation option does not change the candidate lookup
// here (the compiled tables *are* the Fig 6 precomputation); like every
// backend, it only loses the shared stage-level stall, whose exit sets
// Engine::build() does not compute under it. The two-list options act at
// analysis time and are honored by every backend.
#pragma once

#include <span>

#include "core/engine.hpp"
#include "gen/compiled_model.hpp"
#include "gen/table_engine.hpp"

namespace rcpn::gen {

class CompiledEngine final : public TableEngine<CompiledEngine> {
 public:
  explicit CompiledEngine(core::Net& net, core::EngineOptions options = {})
      : TableEngine(net, options) {}

  /// The lowered tables (introspection, emit_cpp, tests).
  const CompiledModel& compiled() const { return cm_; }

 private:
  friend class TableEngine<CompiledEngine>;

  // -- the runtime table policy (see gen/table_engine.hpp) ----------------------
  void load_tables() { cm_ = CompiledModel::lower(*this); }
  std::uint32_t instr_pool_hint() const { return cm_.instr_pool_hint; }
  std::uint32_t res_pool_hint() const { return cm_.res_pool_hint; }
  CandRange cell(core::PlaceId p, core::TypeId ty) const { return cm_.candidates(p, ty); }
  const CompiledTransition& body(std::uint32_t i) const { return cm_.body[i]; }
  std::span<const CompiledTransition> independent() const { return cm_.independent; }
  core::PlaceId res_in(std::uint32_t i) const { return cm_.res_in[i]; }
  const CompiledOutArc& out_arc(std::uint32_t i) const { return cm_.out_arcs[i]; }
  static core::PipelineStage& out_stage(const CompiledOutArc& a) { return *a.stage; }
  core::StageId place_stage_id(core::PlaceId p) const {
    return cm_.place_stage[static_cast<unsigned>(p)];
  }
  static core::PipelineStage& move_stage(const CompiledTransition& ct) {
    return *ct.move_stage;
  }
  static bool guard(const CompiledTransition& ct, core::FireCtx& ctx) {
    return ct.guard == nullptr || ct.guard(ct.guard_env, ctx);
  }
  static void action(const CompiledTransition& ct, core::FireCtx& ctx) {
    if (ct.action != nullptr) ct.action(ct.action_env, ctx);
  }

  CompiledModel cm_;
};

// The one compiled copy of the loop lives in compiled_engine.cpp.
extern template class TableEngine<CompiledEngine>;

}  // namespace rcpn::gen
