// TableEngine<Tables>: the table-driven hot loop of the compiled and the
// generated backends, written once.
//
// Both backends run the paper's static schedule from flat tables: the Fig 6
// candidate runs, the Fig 8 process order and the two-list stage set. They
// differ only in where the tables live and how a delegate is called:
//  * gen::CompiledEngine reads the CompiledModel vectors lowered at build()
//    and calls guards/actions through function pointer + environment, with
//    the destination stages pre-resolved in the rows;
//  * gen::StaticEngine<Traits> reads constexpr arrays of an emitted
//    translation unit and calls the named delegates through its switch
//    dispatch, so the compiler sees the whole loop in one TU.
// Each is a table policy over this template (CRTP: `Tables` is the derived
// engine). The loop reads the tables only through this static interface:
//
//   void load_tables();                      // lower or verify (build time)
//   std::uint32_t instr_pool_hint(), res_pool_hint();
//   Range cell(PlaceId, TypeId);             // .begin/.count into body()
//   const Row& body(std::uint32_t i);
//   std::span<const Row> independent();
//   PlaceId res_in(std::uint32_t i);
//   const OutArc& out_arc(std::uint32_t i);  // .place, .reservation
//   PipelineStage& out_stage(const OutArc&);
//   StageId place_stage_id(PlaceId);
//   PipelineStage& move_stage(const Row&);   // simple rows only
//   bool guard(const Row&, FireCtx&);        // true when the row has none
//   void action(const Row&, FireCtx&);
//
// where Row has the fields id, move_place, delay, res_in_begin, out_begin,
// n_res_in, n_out, max_fires and simple. Two hooks are optional; a policy
// that declares its own hides the default defined here:
//
//   void scan_places();                      // the Fig 8 place loop
//   bool fire_token(Place, InstructionToken*, PipelineStage&, size_t hint);
//                                            // one token's candidate dispatch
//
// `Place` is a core::PlaceId at run time (the compiled policy) or a
// std::integral_constant of one (StaticEngine unrolls the place loop over
// its constexpr process order, so each place's scan is its own code with a
// constant id). process_place() and try_fire() are written once for both.
//
// The place scan has two shapes. A stage that holds one token at scan time
// (always so for a capacity-1 latch, the in-order pipelines' every stage)
// tests slot 0's key and ready lanes and fires that token directly, with
// removal hint 0: nothing fired in this place yet, so the lanes are current
// and no snapshot or re-check is needed. A wider pool is snapshotted first,
// since firing mutates it, and each snapshot token is re-checked.
//
// Semantics are inherited: token services, two-list promotion, retirement,
// flush, pools, stats and the watchdog are the shared core::Engine code, so
// every backend stays cycle-for-cycle equivalent by construction. The
// interpreted core::Engine keeps its own loop over the net's Transition
// objects: it is the independent reference the differential tests compare
// this loop against.
//
// Only core/ headers are included: a freestanding generated simulator
// inlines this file (gen/static_engine.hpp roots that amalgamation).
#pragma once

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "core/engine.hpp"
#include "core/soa_scan.hpp"

namespace rcpn::gen {

template <class Tables>
class TableEngine : public core::Engine {
 public:
  TableEngine(core::Net& net, core::EngineOptions options) : core::Engine(net, options) {}

  /// The shared static extraction, then the policy's table load, the arena
  /// reservation and the per-cycle stage-pointer arrays.
  void build() override;
  /// The Fig 8 main loop over the tables.
  bool step() override;

  /// Owning stage of each process_order() entry (same index), resolved once
  /// at build() so the per-cycle loop never translates an id.
  std::span<core::PipelineStage* const> order_stages() const { return order_stage_; }
  /// The two-list stages, resolved for the per-cycle promote loop.
  std::span<core::PipelineStage* const> two_list_stage_ptrs() const {
    return two_list_ptrs_;
  }

 protected:
  /// The default place loop: process_order() with its owning stages.
  void scan_places();
  /// Scan one non-empty place. `Place` converts to the core::PlaceId. Out
  /// of line: each place's scan is optimized as a function of its own.
  template <class Place>
  [[gnu::noinline]] void process_place(Place place, core::PipelineStage& st);
  /// The default candidate dispatch: try the token's Fig 6 cell in priority
  /// order until one row fires.
  template <class Place>
  bool fire_token(Place place, core::InstructionToken* tok, core::PipelineStage& from,
                  std::size_t hint);
  /// Try one candidate: `row` supplies the shape, destination and delegates,
  /// `id` the transition counted and handed to FireCtx (the row's own id,
  /// unless a policy fires several transitions through one shared row).
  /// `hint` is the trigger token's expected slot index in `from`'s pool (the
  /// scan position minus the removals this cycle); validated, never trusted.
  /// Forced inline: with a constant row (a uniform place of StaticEngine)
  /// its shape test and both delegate dispatches fold to direct calls.
  template <class Row>
  [[gnu::always_inline]] inline bool try_fire(core::TransitionId id, const Row& row,
                                              core::InstructionToken* tok,
                                              core::PipelineStage& from, std::size_t hint);
  /// try_fire() of a row that is not simple (reservations, several outputs),
  /// kept out of line so each inlined latch-to-latch path stays small.
  template <class Row>
  [[gnu::noinline]] bool try_fire_general(core::TransitionId id, const Row& row,
                                          core::InstructionToken* tok,
                                          core::PipelineStage& from, std::size_t hint);

 private:
  Tables& tables() { return static_cast<Tables&>(*this); }

  /// Fire an instruction-independent row if it is enabled; false (and
  /// nothing changed) otherwise.
  template <class Row>
  bool fire_independent(const Row& row);

  std::vector<core::PipelineStage*> order_stage_;
  std::vector<core::PipelineStage*> two_list_ptrs_;
  /// Snapshot slot indices parallel to Engine::scratch_ (removal hints).
  std::vector<std::uint32_t> scratch_idx_;
};

// The members are defined out of class (not implicitly inline), so an
// `extern template` declaration keeps other translation units from
// instantiating the loop: the library holds one compiled copy.

template <class Tables>
void TableEngine<Tables>::build() {
  core::Engine::build();
  tables().load_tables();
  // Pre-size the recycling arenas (the per-stage SoA slots are born at
  // capacity), so the steady state never allocates.
  const std::uint32_t instr_hint = tables().instr_pool_hint();
  reserve_token_pools(instr_hint, tables().res_pool_hint());
  scratch_.reserve(instr_hint);
  scratch_idx_.reserve(instr_hint);
  // The tables were lowered from (or verified against) Engine::build()'s
  // order and two-list set, so the engine's own lists index them.
  order_stage_.clear();
  for (core::PlaceId p : order_)
    order_stage_.push_back(place_stage_[static_cast<unsigned>(p)]);
  two_list_ptrs_.clear();
  for (core::StageId s : two_list_stages_) two_list_ptrs_.push_back(&net_.stage(s));
}

template <class Tables>
bool TableEngine<Tables>::step() {
  if (!built()) build();
  if (stopped()) return false;

  for (core::PipelineStage* st : two_list_ptrs_) st->promote_incoming();

  tables().scan_places();

  for (const auto& row : tables().independent()) {
    for (std::int32_t f = 0; f < row.max_fires; ++f)
      if (!fire_independent(row)) break;
  }

  return finish_cycle();
}

template <class Tables>
void TableEngine<Tables>::scan_places() {
  const std::size_t np = order_.size();
  for (std::size_t i = 0; i < np; ++i) {
    core::PipelineStage& st = *order_stage_[i];
    // Hoisted empty check: most places are empty most cycles, and the pool
    // size is one load away.
    if (!st.store().empty()) process_place(order_[i], st);
  }
}

template <class Tables>
template <class Row>
bool TableEngine<Tables>::try_fire(core::TransitionId id, const Row& row,
                                   core::InstructionToken* tok, core::PipelineStage& from,
                                   std::size_t hint) {
  Tables& t = tables();
  count_attempt(id);
  if (!row.simple) return try_fire_general(id, row, tok, from, hint);
  // Latch-to-latch: shape and destination were resolved ahead of time.
  core::PipelineStage& to = t.move_stage(row);
  if (&to != &from && !to.has_room(1, 0)) {
    reject_cause_ = core::StallCause::capacity_backpressure;
    return false;
  }
  core::FireCtx ctx{this, tok, id};
  if (!t.guard(row, ctx)) {
    reject_cause_ = core::StallCause::guard_rejected;
    return false;
  }
  const bool removed = from.remove_at(hint, tok);
  assert(removed && "trigger token not visible in its place");
  (void)removed;
  tok->place = core::kNoPlace;
  tok->state = core::kNoPlace;
  t.action(row, ctx);
  enter_place_in(tok, row.move_place, to, row.delay);
  count_fire(id);
  return true;
}

template <class Tables>
template <class Row>
bool TableEngine<Tables>::try_fire_general(core::TransitionId id, const Row& row,
                                           core::InstructionToken* tok,
                                           core::PipelineStage& from, std::size_t hint) {
  // Engine::try_fire over the flat arc arrays.
  Tables& t = tables();
  core::Token* reservations[core::kMaxReservationInputs];
  unsigned nres = 0;
  for (unsigned i = 0; i < row.n_res_in; ++i) {
    core::Token* r = find_ready_reservation(t.res_in(row.res_in_begin + i));
    if (r == nullptr) {
      reject_cause_ = core::StallCause::no_ready_token;
      return false;
    }
    assert(nres < core::kMaxReservationInputs);
    reservations[nres++] = r;
  }

  StageDelta deltas[core::kMaxTransitionArcs];
  unsigned nd = 0;
  auto delta_for = [&](core::StageId s) -> StageDelta& {
    for (unsigned i = 0; i < nd; ++i)
      if (deltas[i].stage == s) return deltas[i];
    assert(nd < core::kMaxTransitionArcs);
    deltas[nd].stage = s;
    deltas[nd].removals = 0;
    deltas[nd].additions = 0;
    return deltas[nd++];
  };
  delta_for(t.place_stage_id(tok->place)).removals += 1;
  for (unsigned i = 0; i < nres; ++i)
    delta_for(t.place_stage_id(reservations[i]->place)).removals += 1;
  for (unsigned i = 0; i < row.n_out; ++i)
    delta_for(t.place_stage_id(t.out_arc(row.out_begin + i).place)).additions += 1;
  for (unsigned i = 0; i < nd; ++i) {
    const core::PipelineStage& st = net_.stage(deltas[i].stage);
    if (!st.has_room(static_cast<std::uint32_t>(deltas[i].additions),
                     static_cast<std::uint32_t>(deltas[i].removals))) {
      reject_cause_ = core::StallCause::capacity_backpressure;
      return false;
    }
  }

  core::FireCtx ctx{this, tok, id};
  if (!t.guard(row, ctx)) {
    reject_cause_ = core::StallCause::guard_rejected;
    return false;
  }

  // ---- fire ----
  const bool removed = from.remove_at(hint, tok);
  assert(removed && "trigger token not visible in its place");
  (void)removed;
  tok->place = core::kNoPlace;
  tok->state = core::kNoPlace;
  for (unsigned i = 0; i < nres; ++i) {
    core::PipelineStage& rs = *place_stage_[static_cast<unsigned>(reservations[i]->place)];
    rs.remove(reservations[i]);
    recycle(reservations[i]);
  }

  t.action(row, ctx);

  for (unsigned i = 0; i < row.n_out; ++i) {
    const auto& a = t.out_arc(row.out_begin + i);
    if (!a.reservation) {
      enter_place_in(tok, a.place, t.out_stage(a), row.delay);
    } else {
      core::Token* r = acquire_reservation();
      ++stats_.reservations;
      enter_place_in(r, a.place, t.out_stage(a), row.delay);
    }
  }

  count_fire(id);
  return true;
}

template <class Tables>
template <class Place>
void TableEngine<Tables>::process_place(Place place, core::PipelineStage& st) {
  const core::PlaceId p = place;
  // SoA filter over the stage's token pool: one packed-key compare and one
  // ready compare per slot, in age order — tokens are only dereferenced once
  // they pass (the interpreted engine walks the Token objects instead).
  const core::TokenStore& ts = st.store();
  if (stall_place_if_exit_full(p, ts)) return;
  const core::TokenStore::Key want = core::TokenStore::key(p, core::TokenKind::instruction);
  // Same last-candidate-wins attribution as Engine::process_place: each
  // refused candidate overwrites reject_cause_.
  if (ts.size() == 1) [[likely]] {
    // One token: nothing has fired in this place yet, so its lanes are
    // current and it fires straight from slot 0.
    if (ts.keys()[0] != want || ts.ready()[0] > clock_) return;
    auto* tok = static_cast<core::InstructionToken*>(ts.at(0));
    assert(tok->place == p && !tok->squashed && tok->ready <= clock_ &&
           "slot lanes disagree with their token");
    reject_cause_ = core::StallCause::no_ready_token;
    if (!tables().fire_token(place, tok, st, 0)) count_stall(p, tok);
    return;
  }

  // Snapshot: firing mutates the pool. Slot indices ride along so each
  // firing can hand remove_visible a same-index hint (snapshot position
  // minus the removals already performed this pass) instead of searching.
  scratch_.clear();
  scratch_idx_.clear();
  const auto take = [&](std::size_t i) {
    scratch_.push_back(static_cast<core::InstructionToken*>(ts.at(i)));
    scratch_idx_.push_back(static_cast<std::uint32_t>(i));
  };
  core::soa::for_each_match_ready(ts.keys(), ts.ready(), ts.size(), want, clock_, take);
  if (scratch_.empty()) return;

  std::size_t removed_here = 0;
  for (std::size_t k = 0; k < scratch_.size(); ++k) {
    core::InstructionToken* tok = scratch_[k];
    // Re-check: an earlier firing in this cycle may have consumed, flushed or
    // even recycled-and-reinjected this token.
    if (tok->place != p || tok->squashed || tok->ready > clock_) continue;
    reject_cause_ = core::StallCause::no_ready_token;
    const std::size_t hint =
        scratch_idx_[k] >= removed_here ? scratch_idx_[k] - removed_here : 0;
    if (tables().fire_token(place, tok, st, hint)) {
      ++removed_here;
      continue;
    }
    count_stall(p, tok);
    if (reject_cause_ == core::StallCause::capacity_backpressure &&
        stall_rest_if_exits_full(p, k + 1))
      return;
  }
}

template <class Tables>
template <class Place>
bool TableEngine<Tables>::fire_token(Place place, core::InstructionToken* tok,
                                     core::PipelineStage& from, std::size_t hint) {
  const auto r = tables().cell(place, tok->type);
  for (std::uint32_t i = r.begin; i < r.begin + r.count; ++i) {
    const auto& row = tables().body(i);
    if (try_fire(row.id, row, tok, from, hint)) return true;
  }
  return false;
}

template <class Tables>
template <class Row>
bool TableEngine<Tables>::fire_independent(const Row& row) {
  Tables& t = tables();
  count_attempt(row.id);
  for (unsigned i = 0; i < row.n_res_in; ++i)
    if (find_ready_reservation(t.res_in(row.res_in_begin + i)) == nullptr) return false;
  if (!outputs_have_room(row.n_out, [&](unsigned i) {
        return &t.out_stage(t.out_arc(row.out_begin + i));
      }))
    return false;
  core::FireCtx guard_ctx{this, nullptr, row.id};
  if (!t.guard(row, guard_ctx)) return false;

  for (unsigned i = 0; i < row.n_res_in; ++i) {
    const core::PlaceId p = t.res_in(row.res_in_begin + i);
    core::Token* r = find_ready_reservation(p);
    core::PipelineStage& rs = *place_stage_[static_cast<unsigned>(p)];
    rs.remove(r);
    recycle(r);
  }
  core::FireCtx ctx{this, nullptr, row.id};
  t.action(row, ctx);
  for (unsigned i = 0; i < row.n_out; ++i) {
    const auto& a = t.out_arc(row.out_begin + i);
    if (a.reservation) {
      core::Token* r = acquire_reservation();
      ++stats_.reservations;
      enter_place_in(r, a.place, t.out_stage(a), row.delay);
    }
    // Move targets declare capacity intent only; the action emits instruction
    // tokens itself via emit_instruction().
  }
  count_fire(row.id);
  return true;
}

}  // namespace rcpn::gen
