// StaticEngine<Traits>: the engine of a *generated* simulator.
//
// A translation unit emitted by gen::emit_simulator() defines one Traits
// struct per model — the lowered CompiledModel tables as `static constexpr`
// data plus two static dispatch functions whose switch bodies call the
// model's named guard/action delegates *directly*, specialized against the
// typed machine context (no void* environment, no function-pointer
// indirection) — and instantiates this template over it. The instantiation
// happens in the emitted TU, so the compiler sees the whole hot loop, every
// table and every delegate body at once: the paper's "generated C++
// simulator" that whole-program/LTO optimization can specialize end to end.
//
// StaticEngine is the constexpr table policy of gen::TableEngine: the shared
// hot loop reads these arrays and dispatches through the Traits switches,
// and everything else (token services, two-list promotion, retirement,
// flush, pools, stats, the watchdog) is the inherited core::Engine code, so
// all three backends stay cycle-for-cycle equivalent by construction.
//
// Because the tables are constants, the policy specializes the loop per
// place. The Fig 8 place loop is unrolled over Traits::kProcessOrder, so
// every place's scan is its own code with a constant place id. A place is
// *type-uniform* (uniform_row() below) when every type's Fig 6 cell holds
// one simple row and those rows share destination, delay and delegates, as
// in a pipeline whose instruction classes all take the same latch. Such a
// place fires every type through one row: the dispatch switches fold to
// direct delegate calls, and only the transition id that stats and FireCtx
// see still depends on the type, read from a constexpr per-place table.
// Other places keep the cell loop.
//
// A generated artifact can go stale: the model description may change after
// the source was emitted. build() therefore *verifies* every table against
// the engine's own static extraction of the live net and refuses to run on
// any mismatch — CI regenerates on every push, so a stale artifact is a
// build failure, never a silently wrong simulation.
#pragma once

#include <array>
#include <cstdint>
#include <span>
#include <stdexcept>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>

#include "core/engine.hpp"
#include "gen/generated.hpp"
#include "gen/table_engine.hpp"

namespace rcpn::gen {

/// One transition row of a generated table (the POD subset of
/// CompiledTransition: delegates live in the Traits dispatch switches, stage
/// pointers are resolved at build() through Engine's place->stage cache).
struct StaticTx {
  std::int16_t id;
  /// Simple shape only: destination place of the single move arc (-1 else).
  std::int16_t move_place;
  std::uint32_t delay;
  std::uint32_t res_in_begin;
  std::uint32_t out_begin;
  std::uint16_t n_res_in;
  std::uint16_t n_out;
  std::int32_t max_fires;
  bool simple;
};

struct StaticOutArc {
  std::int16_t place;
  bool reservation;
};

struct StaticCandRange {
  std::uint32_t begin, count;
};

/// The body row (an index into Traits::kBody) that every instruction type of
/// place `p` fires through, or -1 when `p` is not type-uniform: uniform means
/// each type's Fig 6 cell holds exactly one row, every such row is simple,
/// and they share the destination place, the delay and the guard and action
/// symbols, so firing any type through the first type's row runs the same
/// code. verify_tables() checks all four tables read here against the live
/// model, so a stale artifact is refused before a wrong collapse can run.
template <typename Traits>
constexpr std::int32_t uniform_row(unsigned p) {
  const auto same = [](const char* a, const char* b) {
    return std::string_view(a) == std::string_view(b);
  };
  std::int32_t u = -1;
  for (unsigned ty = 0; ty < Traits::kNumTypes; ++ty) {
    const StaticCandRange r = Traits::kCell[p * Traits::kNumTypes + ty];
    if (r.count != 1 || !Traits::kBody[r.begin].simple) return -1;
    if (u < 0) {
      u = static_cast<std::int32_t>(r.begin);
      continue;
    }
    const StaticTx& a = Traits::kBody[u];
    const StaticTx& b = Traits::kBody[r.begin];
    if (a.move_place != b.move_place || a.delay != b.delay ||
        !same(Traits::kGuardSym[a.id], Traits::kGuardSym[b.id]) ||
        !same(Traits::kActionSym[a.id], Traits::kActionSym[b.id]))
      return -1;
  }
  return u;
}

template <typename Traits>
class StaticEngine final : public TableEngine<StaticEngine<Traits>> {
  using Base = TableEngine<StaticEngine<Traits>>;

 public:
  using Machine = typename Traits::Machine;

  StaticEngine(core::Net& net, core::EngineOptions options) : Base(net, options) {}

 private:
  friend Base;
  // Engine members named below (the base class is dependent).
  using core::Engine::candidates;
  using core::Engine::net_;
  using core::Engine::options_;
  using core::Engine::place_stage_;
  using core::Engine::process_order;

  // -- the constexpr table policy (see gen/table_engine.hpp) --------------------
  /// Verify the generated tables against the live extraction (throws
  /// std::runtime_error on a stale artifact) and bind the typed machine.
  void load_tables() {
    verify_tables();
    m_ = &this->template machine<Machine>();
  }
  static std::uint32_t instr_pool_hint() { return Traits::kInstrPoolHint; }
  static std::uint32_t res_pool_hint() { return Traits::kResPoolHint; }
  static StaticCandRange cell(core::PlaceId p, core::TypeId ty) {
    return Traits::kCell[static_cast<std::size_t>(p) * Traits::kNumTypes +
                         static_cast<unsigned>(ty)];
  }
  static const StaticTx& body(std::uint32_t i) { return Traits::kBody[i]; }
  static std::span<const StaticTx> independent() {
    return {Traits::kIndependent, Traits::kNumIndependent};
  }
  static core::PlaceId res_in(std::uint32_t i) { return Traits::kResIn[i]; }
  static const StaticOutArc& out_arc(std::uint32_t i) { return Traits::kOutArcs[i]; }
  core::PipelineStage& out_stage(const StaticOutArc& a) const {
    return *place_stage_[static_cast<unsigned>(a.place)];
  }
  static core::StageId place_stage_id(core::PlaceId p) {
    return Traits::kPlaceStage[static_cast<unsigned>(p)];
  }
  core::PipelineStage& move_stage(const StaticTx& ct) const {
    return *place_stage_[static_cast<unsigned>(ct.move_place)];
  }
  // kHasGuard/kHasAction gate the dispatch so a transition without a
  // delegate costs one constexpr table load, like the other backends' null
  // check. With a constant row (a uniform place) both fold away.
  bool guard(const StaticTx& ct, core::FireCtx& ctx) const {
    if (!Traits::kHasGuard[static_cast<unsigned>(ct.id)]) return true;
    return Traits::guard(ct.id, *m_, ctx);
  }
  void action(const StaticTx& ct, core::FireCtx& ctx) const {
    if (Traits::kHasAction[static_cast<unsigned>(ct.id)]) Traits::action(ct.id, *m_, ctx);
  }

  // -- per-place specialization ------------------------------------------------

  template <core::PlaceId P>
  using PlaceConst = std::integral_constant<core::PlaceId, P>;

  /// The unrolled Fig 8 place loop.
  void scan_places() {
    [this]<std::size_t... I>(std::index_sequence<I...>) {
      (scan_place<I>(), ...);
    }(std::make_index_sequence<Traits::kNumOrder>{});
  }
  template <std::size_t I>
  void scan_place() {
    core::PipelineStage& st = *this->order_stages()[I];
    if (!st.store().empty())
      this->process_place(PlaceConst<Traits::kProcessOrder[I]>{}, st);
  }

  /// A uniform place fires through its one row under the type's own id;
  /// any other place tries its cell as the compiled backend does.
  template <core::PlaceId P>
  bool fire_token(PlaceConst<P> place, core::InstructionToken* tok,
                  core::PipelineStage& from, std::size_t hint) {
    constexpr std::int32_t u = uniform_row<Traits>(static_cast<unsigned>(P));
    if constexpr (u < 0) {
      return Base::fire_token(place, tok, from, hint);
    } else {
      return this->try_fire(kTypeTx<P>[static_cast<unsigned>(tok->type)], Traits::kBody[u],
                            tok, from, hint);
    }
  }
  /// Per type, the transition of place P's one-row cell.
  template <core::PlaceId P>
  static constexpr auto kTypeTx = [] {
    std::array<core::TransitionId, Traits::kNumTypes> ids{};
    for (unsigned ty = 0; ty < Traits::kNumTypes; ++ty) {
      const StaticCandRange r = Traits::kCell[static_cast<std::size_t>(P) * Traits::kNumTypes + ty];
      ids[ty] = Traits::kBody[r.begin].id;
    }
    return ids;
  }();

  // -- staleness verification -------------------------------------------------

  [[noreturn]] void stale(const std::string& what) const {
    throw std::runtime_error(
        std::string("generated simulator for model '") + Traits::kModelName +
        "' does not match the live model (" + what +
        ") — regenerate with gen::emit_simulator (or check EngineOptions: the "
        "tables were emitted under the options the model was generated with)");
  }

  void verify_tables() {
    // The schedule-affecting options first: a binary built for one ablation
    // variant must refuse to run under another *before* the table diffs
    // produce a confusing structural message (satisfying the contract that a
    // wrong-ablation artifact throws instead of silently diverging).
    const std::uint32_t stamped = Traits::kOptionsKey;
    const std::uint32_t live = generated_options_key(options_);
    if (stamped != live)
      stale("EngineOptions: tables were emitted for [" +
            generated_options_desc(stamped) + "] but the engine runs with [" +
            generated_options_desc(live) + "]");

    if (Traits::kNumStages != net_.num_stages()) stale("stage count");
    if (Traits::kNumPlaces != net_.num_places()) stale("place count");
    if (Traits::kNumTypes != net_.num_types()) stale("type count");
    if (Traits::kNumTransitions != net_.num_transitions()) stale("transition count");

    for (unsigned p = 0; p < Traits::kNumPlaces; ++p) {
      const core::Place& pl = net_.place(static_cast<core::PlaceId>(p));
      if (Traits::kPlaceStage[p] != pl.stage)
        stale("owning stage of place '" + pl.name + "'");
      if (Traits::kPlaceDelay[p] != pl.delay)
        stale("residence delay of place '" + pl.name + "'");
    }

    if (Traits::kNumOrder != process_order().size()) stale("process-order length");
    for (unsigned i = 0; i < Traits::kNumOrder; ++i)
      if (Traits::kProcessOrder[i] != process_order()[i]) stale("process order");

    unsigned n_two_list = 0;
    for (unsigned s = 0; s < Traits::kNumStages; ++s)
      if (net_.stage(static_cast<core::StageId>(s)).two_list()) ++n_two_list;
    if (Traits::kNumTwoList != n_two_list) stale("two-list stage set size");
    for (unsigned i = 0; i < Traits::kNumTwoList; ++i)
      if (!net_.stage(static_cast<core::StageId>(Traits::kTwoListStages[i])).two_list())
        stale("two-list stage set");

    for (unsigned t = 0; t < Traits::kNumTransitions; ++t) {
      const core::Transition& tr = net_.transition(static_cast<core::TransitionId>(t));
      if (Traits::kHasGuard[t] != tr.has_guard())
        stale("guard presence on transition '" + tr.name() + "'");
      if (Traits::kHasAction[t] != tr.has_action())
        stale("action presence on transition '" + tr.name() + "'");
      // The *binding*, not just presence: a model edit that swaps one named
      // delegate for another leaves every structural table identical, but
      // this binary's dispatch switch still calls the old function.
      if (tr.guard_symbol() != Traits::kGuardSym[t])
        stale("guard binding of '" + tr.name() + "' (emitted for '" +
              Traits::kGuardSym[t] + "', model now binds '" + tr.guard_symbol() + "')");
      if (tr.action_symbol() != Traits::kActionSym[t])
        stale("action binding of '" + tr.name() + "' (emitted for '" +
              Traits::kActionSym[t] + "', model now binds '" + tr.action_symbol() +
              "')");
    }

    // Fig 6 cells: the candidate id sequence of every (place, type) pair.
    for (unsigned p = 0; p < Traits::kNumPlaces; ++p) {
      for (unsigned ty = 0; ty < Traits::kNumTypes; ++ty) {
        const auto& cands = candidates(static_cast<core::PlaceId>(p),
                                       static_cast<core::TypeId>(ty));
        const StaticCandRange r =
            Traits::kCell[static_cast<std::size_t>(p) * Traits::kNumTypes + ty];
        if (r.count != cands.size()) stale("candidate count of a (place, type) cell");
        for (unsigned i = 0; i < r.count; ++i)
          if (Traits::kBody[r.begin + i].id != cands[i]->id())
            stale("candidate order of a (place, type) cell");
      }
    }
    for (unsigned i = 0; i < Traits::kNumBody; ++i)
      verify_tx(Traits::kBody[i], /*independent=*/false);

    if (Traits::kNumIndependent != net_.independent_transitions().size())
      stale("independent-transition count");
    for (unsigned i = 0; i < Traits::kNumIndependent; ++i) {
      if (Traits::kIndependent[i].id != net_.independent_transitions()[i])
        stale("independent-transition order");
      verify_tx(Traits::kIndependent[i], /*independent=*/true);
    }
  }

  void verify_tx(const StaticTx& ct, bool independent) {
    const core::Transition& tr = net_.transition(ct.id);
    const std::string& name = tr.name();
    if (tr.independent() != independent) stale("sub-net kind of '" + name + "'");
    if (ct.delay != tr.delay()) stale("delay of '" + name + "'");
    if (ct.max_fires != tr.max_fires_per_cycle()) stale("max_fires of '" + name + "'");
    unsigned nres = 0;
    for (const core::InArc& a : tr.inputs()) {
      if (a.need != core::ArcNeed::reservation) continue;
      if (nres >= ct.n_res_in || Traits::kResIn[ct.res_in_begin + nres] != a.place)
        stale("reservation inputs of '" + name + "'");
      ++nres;
    }
    if (nres != ct.n_res_in) stale("reservation-input count of '" + name + "'");
    if (ct.n_out != tr.outputs().size()) stale("output-arc count of '" + name + "'");
    for (unsigned i = 0; i < ct.n_out; ++i) {
      const StaticOutArc a = Traits::kOutArcs[ct.out_begin + i];
      if (a.place != tr.outputs()[i].place ||
          a.reservation != (tr.outputs()[i].emit == core::ArcEmit::reservation))
        stale("output arcs of '" + name + "'");
    }
    const bool simple = !tr.independent() && tr.inputs().size() == 1 &&
                        tr.outputs().size() == 1 &&
                        tr.outputs()[0].emit == core::ArcEmit::move;
    if (ct.simple != simple) stale("fast-path shape of '" + name + "'");
    if (simple && ct.move_place != tr.outputs()[0].place)
      stale("move destination of '" + name + "'");
  }

  Machine* m_ = nullptr;
};

}  // namespace rcpn::gen
