// The compiled backend's contract: gen::CompiledEngine is cycle-for-cycle
// equivalent to the interpreted core::Engine on every machine model — same
// clock, same retire order (cycle-stamped), same statistics down to
// per-transition firing and per-place stall counts. Plus the lowering pass
// invariants (flat Fig 6 runs match the engine's candidate lists) and the
// emit_cpp / emit_dot exporters.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <memory>
#include <string>
#include <vector>

#include "gen/compiled_engine.hpp"
#include "gen/emit.hpp"
#include "gen/static_engine.hpp"
#include "machines/fig5_processor.hpp"
#include "machines/simple_pipeline.hpp"
#include "machines/strongarm.hpp"
#include "machines/tomasulo.hpp"
#include "machines/xscale.hpp"
#include "model/simulator.hpp"
#include "workloads/workloads.hpp"

namespace rcpn {
namespace {

core::EngineOptions compiled_opts() {
  core::EngineOptions o;
  o.backend = core::Backend::compiled;
  return o;
}

struct RetireEvent {
  core::Cycle cycle = 0;
  std::uint64_t pc = 0;
  std::uint32_t seq = 0;
  bool operator==(const RetireEvent&) const = default;
};

/// Record every retirement with the cycle it happened in: equal traces mean
/// the two engines agree not just on totals but on *when* and in which order
/// every instruction left the pipeline.
void record_retires(core::Engine& eng, std::vector<RetireEvent>& out) {
  out.clear();
  eng.hooks().on_retire = [&eng, &out](core::InstructionToken* t) {
    out.push_back(RetireEvent{eng.clock(), t->pc, t->seq});
  };
}

void expect_stats_equal(const core::Stats& interp, const core::Stats& comp) {
  EXPECT_EQ(interp.cycles, comp.cycles);
  EXPECT_EQ(interp.retired, comp.retired);
  EXPECT_EQ(interp.fetched, comp.fetched);
  EXPECT_EQ(interp.squashed, comp.squashed);
  EXPECT_EQ(interp.reservations, comp.reservations);
  EXPECT_EQ(interp.firings, comp.firings);
  EXPECT_EQ(interp.transition_fires, comp.transition_fires);
  EXPECT_EQ(interp.place_stalls, comp.place_stalls);
  EXPECT_EQ(interp.place_stall_causes, comp.place_stall_causes);
}

// ---------------------------------------------------------------------------
// Lockstep equivalence on all five machine models
// ---------------------------------------------------------------------------

TEST(CompiledLockstep, Fig2PipelineStepwise) {
  machines::SimplePipeline interp(500);
  machines::SimplePipeline comp(500, compiled_opts());
  ASSERT_NE(dynamic_cast<gen::CompiledEngine*>(&comp.engine()), nullptr);
  ASSERT_EQ(dynamic_cast<gen::CompiledEngine*>(&interp.engine()), nullptr);

  // Step the two engines side by side and compare after every single cycle.
  for (int cycle = 0; cycle < 1200; ++cycle) {
    interp.engine().step();
    comp.engine().step();
    ASSERT_EQ(interp.engine().clock(), comp.engine().clock());
    ASSERT_EQ(interp.engine().tokens_in_flight(), comp.engine().tokens_in_flight());
    ASSERT_EQ(interp.engine().stats().retired, comp.engine().stats().retired);
    ASSERT_EQ(interp.engine().stats().firings, comp.engine().stats().firings);
  }
  EXPECT_EQ(comp.engine().stats().retired, 500u);
  expect_stats_equal(interp.engine().stats(), comp.engine().stats());
}

TEST(CompiledLockstep, Fig5Processor) {
  using I = machines::Fig5Instr;
  const std::vector<I> prog = {
      I::alui(I::AluOp::add, 1, 0, 7),
      I::alui(I::AluOp::add, 2, 1, 1),   // RAW: exercises the L3 feedback path
      I::store(2, 0x100),
      I::load(3, 0x100),
      I::branch(2),
      I::alui(I::AluOp::add, 4, 0, 99),  // squashed by the branch
      I::alu(I::AluOp::mul, 5, 2, 3),
  };
  machines::Fig5Processor interp;
  machines::Fig5Processor comp(compiled_opts());
  std::vector<RetireEvent> ti, tc;
  record_retires(interp.engine(), ti);
  record_retires(comp.engine(), tc);

  interp.load(prog);
  comp.load(prog);
  interp.run();
  comp.run();

  EXPECT_EQ(ti, tc);
  expect_stats_equal(interp.engine().stats(), comp.engine().stats());
  for (unsigned r = 0; r < machines::Fig5Processor::kNumRegs; ++r)
    EXPECT_EQ(interp.reg(r), comp.reg(r)) << "r" << r;
  EXPECT_EQ(interp.alu_issues_forwarded(), comp.alu_issues_forwarded());
  EXPECT_EQ(interp.alu_issues_direct(), comp.alu_issues_direct());
}

TEST(CompiledLockstep, TomasuloOutOfOrderCore) {
  using I = machines::Fig5Instr;
  const std::vector<I> prog = {
      I::alui(I::AluOp::add, 1, 0, 3),
      I::alu(I::AluOp::mul, 2, 1, 1),   // dependent chain
      I::alu(I::AluOp::mul, 3, 2, 2),
      I::alui(I::AluOp::add, 4, 0, 5),  // independent — issues out of order
      I::alui(I::AluOp::add, 5, 4, 1),
      I::alu(I::AluOp::xor_op, 6, 3, 5),
  };
  machines::TomasuloCore interp;
  machines::TomasuloCore comp(4, 2, compiled_opts());
  std::vector<RetireEvent> ti, tc;
  record_retires(interp.engine(), ti);
  record_retires(comp.engine(), tc);

  interp.load(prog);
  comp.load(prog);
  interp.run();
  comp.run();

  EXPECT_EQ(ti, tc);
  expect_stats_equal(interp.engine().stats(), comp.engine().stats());
  for (unsigned r = 0; r < machines::TomasuloCore::kNumRegs; ++r)
    EXPECT_EQ(interp.reg(r), comp.reg(r)) << "r" << r;
  EXPECT_EQ(interp.observed_ooo_issue(), comp.observed_ooo_issue());
}

TEST(CompiledLockstep, StrongArmFullProgram) {
  const workloads::Workload* w = workloads::find("crc");
  ASSERT_NE(w, nullptr);
  const sys::Program prog = workloads::build(*w, w->test_scale);

  machines::StrongArmSim interp;
  machines::StrongArmConfig ccfg;
  ccfg.engine.backend = core::Backend::compiled;
  machines::StrongArmSim comp(ccfg);
  std::vector<RetireEvent> ti, tc;
  record_retires(interp.engine(), ti);
  record_retires(comp.engine(), tc);

  const machines::RunResult ri = interp.run(prog);
  const machines::RunResult rc = comp.run(prog);

  EXPECT_EQ(ri.cycles, rc.cycles);
  EXPECT_EQ(ri.instructions, rc.instructions);
  EXPECT_EQ(ri.output, rc.output);
  EXPECT_EQ(ri.exit_code, rc.exit_code);
  EXPECT_EQ(ri.icache_misses, rc.icache_misses);
  EXPECT_EQ(ri.dcache_misses, rc.dcache_misses);
  EXPECT_EQ(ti, tc);
  expect_stats_equal(interp.engine().stats(), comp.engine().stats());
}

TEST(CompiledLockstep, XScaleFullProgram) {
  const workloads::Workload* w = workloads::find("g721");
  ASSERT_NE(w, nullptr);
  const sys::Program prog = workloads::build(*w, w->test_scale);

  machines::XScaleSim interp;
  machines::XScaleConfig ccfg;
  ccfg.engine.backend = core::Backend::compiled;
  machines::XScaleSim comp(ccfg);
  std::vector<RetireEvent> ti, tc;
  record_retires(interp.engine(), ti);
  record_retires(comp.engine(), tc);

  const machines::RunResult ri = interp.run(prog);
  const machines::RunResult rc = comp.run(prog);

  EXPECT_EQ(ri.cycles, rc.cycles);
  EXPECT_EQ(ri.instructions, rc.instructions);
  EXPECT_EQ(ri.output, rc.output);
  EXPECT_EQ(ri.mispredicts, rc.mispredicts);
  EXPECT_EQ(ti, tc);
  expect_stats_equal(interp.engine().stats(), comp.engine().stats());
}

// ---------------------------------------------------------------------------
// Stage-level backpressure: a place whose exit stages are all full is stalled
// in one step (Engine::stall_place_if_exit_full / stall_rest_if_exits_full).
// The interpreted engine under linear_search never takes that path, so it is
// the per-token reference each case is compared against.
// ---------------------------------------------------------------------------

core::EngineOptions linear_search_opts() {
  core::EngineOptions o;
  o.linear_search = true;
  return o;
}

std::uint64_t cause_count(const core::Stats& s, core::PlaceId p, core::StallCause c) {
  return s.place_stall_causes[static_cast<unsigned>(p) * core::kNumStallCauses +
                              static_cast<unsigned>(c)];
}

TEST(StageBackpressure, WideTomasuloStallsMatchPerTokenSearch) {
  // The wide reservation-station shape: 32 RS slots draining into one EX
  // slot, fed a 600-instruction ALU stream (every other one a multiply).
  using I = machines::Fig5Instr;
  std::vector<I> prog;
  std::uint32_t lcg = 12345;
  for (unsigned i = 0; i < 600; ++i) {
    lcg = lcg * 1103515245u + 12345u;
    const unsigned d = i % machines::TomasuloCore::kNumRegs;
    const unsigned s1 = (lcg >> 8) % machines::TomasuloCore::kNumRegs;
    const unsigned s2 = (lcg >> 16) % machines::TomasuloCore::kNumRegs;
    prog.push_back(i % 2 == 1 ? I::alu(I::AluOp::mul, d, s1, s2)
                              : I::alui(I::AluOp::add, d, s1, lcg >> 24));
  }

  machines::TomasuloCore ref(32, 1, linear_search_opts());
  machines::TomasuloCore interp(32, 1);
  machines::TomasuloCore comp(32, 1, compiled_opts());
  const core::PlaceId rs = ref.net().find_place("RS");
  const core::PlaceId ex = ref.net().find_place("EX");
  EXPECT_EQ(ref.engine().sole_exit_stage(rs), nullptr);
  EXPECT_EQ(interp.engine().sole_exit_stage(rs), &interp.net().stage_of(ex));
  EXPECT_EQ(comp.engine().sole_exit_stage(rs), &comp.net().stage_of(ex));

  std::vector<RetireEvent> tr, ti, tc;
  record_retires(ref.engine(), tr);
  record_retires(interp.engine(), ti);
  record_retires(comp.engine(), tc);
  for (machines::TomasuloCore* core : {&ref, &interp, &comp}) {
    core->load(prog);
    core->run();
  }

  ASSERT_EQ(tr.size(), prog.size());
  EXPECT_EQ(tr, ti);
  EXPECT_EQ(tr, tc);
  expect_stats_equal(ref.engine().stats(), interp.engine().stats());
  expect_stats_equal(ref.engine().stats(), comp.engine().stats());
  // The RS really spends its time blocked on the one EX slot: several tokens
  // per cycle on average.
  const core::Stats& s = ref.engine().stats();
  EXPECT_GT(cause_count(s, rs, core::StallCause::capacity_backpressure), 5 * s.cycles);
  for (unsigned r = 0; r < machines::TomasuloCore::kNumRegs; ++r) {
    EXPECT_EQ(ref.reg(r), interp.reg(r)) << "r" << r;
    EXPECT_EQ(ref.reg(r), comp.reg(r)) << "r" << r;
  }
}

/// Machine context of the hand-built nets below: fetch injects `pattern`
/// (one type per token) into `entry`, up to `width` tokens per cycle.
struct PatternMachine {
  std::vector<core::TypeId> pattern;
  std::size_t emitted = 0;
  core::PlaceId entry = core::kNoPlace;
  /// Stage the first firing flushes one younger token from (kNoStage: none).
  core::StageId flush_stage = core::kNoStage;
  std::uint32_t flush_seq = 0;
};

void add_pattern_fetch(model::ModelBuilder<PatternMachine>& b, model::PlaceHandle entry,
                       int width) {
  b.add_independent_transition("fetch")
      .guard([](PatternMachine& m, core::FireCtx& ctx) {
        return m.emitted < m.pattern.size() && ctx.engine->place_has_room(m.entry);
      })
      .action([](PatternMachine& m, core::FireCtx& ctx) {
        core::InstructionToken* t = ctx.engine->acquire_pooled_instruction();
        t->type = m.pattern[m.emitted++];
        ctx.engine->emit_instruction(t, m.entry);
      })
      .max_fires_per_cycle(width)
      .to(entry);
}

/// Run `sims` side by side for `cycles` cycles and compare each against the
/// first (the linear-search reference): clock, stats, retire and squash order.
template <std::size_t N>
void expect_lockstep(std::array<model::Simulator<PatternMachine>*, N> sims,
                     std::uint64_t cycles) {
  std::array<std::vector<RetireEvent>, N> retired, squashed;
  for (std::size_t i = 0; i < N; ++i) {
    core::Engine& eng = sims[i]->engine();
    record_retires(eng, retired[i]);
    eng.hooks().on_squash = [&eng, &out = squashed[i]](core::InstructionToken* t) {
      out.push_back(RetireEvent{eng.clock(), t->pc, t->seq});
    };
  }
  for (std::uint64_t c = 0; c < cycles; ++c)
    for (auto* sim : sims) sim->step();
  for (std::size_t i = 1; i < N; ++i) {
    SCOPED_TRACE("engine " + std::to_string(i));
    EXPECT_EQ(sims[0]->clock(), sims[i]->clock());
    EXPECT_EQ(retired[0], retired[i]);
    EXPECT_EQ(squashed[0], squashed[i]);
    expect_stats_equal(sims[0]->stats(), sims[i]->stats());
  }
}

TEST(StageBackpressure, MidScanStallSkipsFlushedTokensAndEmptyCells) {
  // POOL (6 slots) holds tokens of types A and B. A has no transition out of
  // POOL (an empty Fig 6 cell: no_ready_token); B's only exit is the
  // one-slot X. Fetch fills POOL with B B A B B A in one cycle. Next cycle
  // the first B fires into X and its action flushes the fourth token (a B
  // later in the same snapshot); the second B is then refused on capacity
  // with X full, and the rest of the snapshot — A, the flushed B, B, A — is
  // attributed in one step.
  model::TypeHandle ty_a, ty_b;
  model::PlaceHandle pool_place, x_place;
  auto describe = [&](model::ModelBuilder<PatternMachine>& b, PatternMachine& m) {
    const model::StageHandle pool = b.add_stage("POOL", 6);
    const model::StageHandle x = b.add_stage("X", 1);
    pool_place = b.add_place("POOL", pool);
    x_place = b.add_place("X", x, /*delay=*/2);
    ty_a = b.add_type("A");
    ty_b = b.add_type("B");
    b.add_transition("go", ty_b)
        .from(pool_place)
        .action([](PatternMachine& m, core::FireCtx& ctx) {
          if (m.flush_stage == core::kNoStage || ctx.token->seq != 0) return;
          const std::uint32_t victim = m.flush_seq;
          ctx.engine->flush_stage_if(m.flush_stage, [victim](const core::Token& t) {
            return t.kind == core::TokenKind::instruction &&
                   static_cast<const core::InstructionToken&>(t).seq == victim;
          });
        })
        .to(x_place);
    b.add_transition("leave", ty_b).from(x_place).to(b.end());
    m.entry = pool_place;
    m.flush_stage = pool;
    m.flush_seq = 3;
    add_pattern_fetch(b, pool_place, 6);
  };
  auto make = [&](core::EngineOptions o) {
    auto sim = std::make_unique<model::Simulator<PatternMachine>>("bulk-mid-scan", o,
                                                                  describe);
    const core::TypeId a = ty_a, bt = ty_b;
    sim->machine().pattern = {bt, bt, a, bt, bt, a};
    return sim;
  };
  auto ref = make(linear_search_opts());
  auto interp = make({});
  auto comp = make(compiled_opts());

  const core::PlaceId pool = pool_place;
  const core::PlaceId x = x_place;
  ASSERT_EQ(interp->engine().exit_stages(pool).size(), 1u);
  EXPECT_EQ(interp->engine().exit_stages(pool)[0], &interp->net().stage_of(x));
  // Type A has no candidate, so the scan-entry shortcut does not apply.
  EXPECT_EQ(interp->engine().sole_exit_stage(pool), nullptr);

  expect_lockstep<3>({ref.get(), interp.get(), comp.get()}, 12);

  // Cycle 1: B0 fires and flushes B3; B1 and B4 stall on capacity, A2 and A5
  // on no_ready_token. Cycle 2 (X still holds B0): B1 and B4 on capacity.
  // Cycle 3: B1 fires, B4 on capacity. Cycle 4: B4 on capacity. Cycle 5: B4
  // fires. The two As stall on no_ready_token in every cycle from 1 on.
  const core::Stats& s = ref->stats();
  EXPECT_EQ(s.squashed, 1u);
  EXPECT_EQ(s.retired, 3u);
  EXPECT_EQ(cause_count(s, pool, core::StallCause::capacity_backpressure), 6u);
  EXPECT_EQ(cause_count(s, pool, core::StallCause::no_ready_token), 2u * 11u);
  EXPECT_EQ(cause_count(s, pool, core::StallCause::guard_rejected), 0u);
}

TEST(StageBackpressure, OwnStageAndEndExitsNeverTakeTheStageStall) {
  // P0 moves into P1 of its own stage (the move frees the slot it fills, so
  // capacity is never checked); P1 exits to the unlimited end stage. Neither
  // place gets an exit set, although S is full most cycles.
  model::PlaceHandle p0, p1;
  model::TransitionHandle advance;
  auto describe = [&](model::ModelBuilder<PatternMachine>& b, PatternMachine& m) {
    const model::StageHandle st = b.add_stage("S", 2);
    p0 = b.add_place("P0", st);
    p1 = b.add_place("P1", st, /*delay=*/3);
    const model::TypeHandle ty = b.add_type("T");
    advance = b.add_transition("advance", ty).from(p0).to(p1).handle();
    b.add_transition("retire", ty).from(p1).to(b.end());
    m.entry = p0;
    add_pattern_fetch(b, p0, 2);
  };
  auto make = [&](core::EngineOptions o) {
    auto sim =
        std::make_unique<model::Simulator<PatternMachine>>("bulk-ineligible", o, describe);
    sim->machine().pattern.assign(40, core::TypeId{0});
    return sim;
  };
  auto ref = make(linear_search_opts());
  auto interp = make({});
  auto comp = make(compiled_opts());
  for (auto* sim : {interp.get(), comp.get()}) {
    EXPECT_TRUE(sim->engine().exit_stages(p0).empty());
    EXPECT_TRUE(sim->engine().exit_stages(p1).empty());
    EXPECT_EQ(sim->engine().sole_exit_stage(p0), nullptr);
    EXPECT_EQ(sim->engine().sole_exit_stage(p1), nullptr);
  }

  expect_lockstep<3>({ref.get(), interp.get(), comp.get()}, 200);
  EXPECT_EQ(ref->stats().retired, 40u);
  // P0 moved into a full stage: the firing that a stage-level stall on S
  // would have refused.
  EXPECT_EQ(ref->stats().transition_fires[static_cast<unsigned>(advance.id())], 40u);
}

TEST(ArcLimits, TransitionAtTheLimitsFiresInLockstep) {
  // "wide" uses every slot of the per-firing buffers: kMaxReservationInputs
  // reservation inputs, and kMaxTransitionArcs arcs in all (trigger, move,
  // four inputs R0-R3, two reservation outputs Q0/Q1). The independent
  // sub-net refills R0-R3 and drains Q0/Q1.
  static_assert(core::kMaxReservationInputs == 4 && core::kMaxTransitionArcs == 8);
  model::TransitionHandle wide;
  auto describe = [&](model::ModelBuilder<PatternMachine>& b, PatternMachine& m) {
    const model::StageHandle s = b.add_stage("S", 1);
    const model::PlaceHandle p = b.add_place("P", s);
    // One 4-slot stage per reservation place.
    std::vector<model::PlaceHandle> r;
    for (const char* name : {"R0", "R1", "R2", "R3", "Q0", "Q1"})
      r.push_back(b.add_place(name, b.add_stage(name, 4)));
    const model::TypeHandle ty = b.add_type("T");
    auto refill = b.add_independent_transition("refill");
    for (int i = 0; i < 4; ++i) refill.emit_reservation(r[i]);
    b.add_independent_transition("drain").consume_reservation(r[4]).consume_reservation(r[5]);
    auto t = b.add_transition("wide", ty).from(p).to(b.end());
    for (int i = 0; i < 4; ++i) t.consume_reservation(r[i]);
    t.emit_reservation(r[4]).emit_reservation(r[5]);
    wide = t.handle();
    m.entry = p;
    add_pattern_fetch(b, p, 1);
  };
  auto make = [&](core::EngineOptions o) {
    auto sim = std::make_unique<model::Simulator<PatternMachine>>("arc-limits", o, describe);
    sim->machine().pattern.assign(20, core::TypeId{0});
    return sim;
  };
  auto ref = make(linear_search_opts());
  auto interp = make({});
  auto comp = make(compiled_opts());
  expect_lockstep<3>({ref.get(), interp.get(), comp.get()}, 100);
  EXPECT_EQ(ref->stats().retired, 20u);
  EXPECT_EQ(ref->stats().transition_fires[static_cast<unsigned>(wide.id())], 20u);
}

TEST(ArcLimits, IndependentOutputsIntoOneStageNeedRoomForAll) {
  // "refill" emits four reservations into R (one 16-slot stage) per firing;
  // "use" consumes one per instruction, so R's occupancy climbs by three a
  // cycle and reaches 13-15 before a refill. Refill may fire only when all
  // four fit: a per-arc room check would let it fire at 15 and overflow R.
  model::TransitionHandle refill_h;
  auto describe = [&](model::ModelBuilder<PatternMachine>& b, PatternMachine& m) {
    const model::PlaceHandle p = b.add_place("P", b.add_stage("S", 1));
    const model::PlaceHandle r = b.add_place("R", b.add_stage("R", 16));
    const model::TypeHandle ty = b.add_type("T");
    auto refill = b.add_independent_transition("refill");
    for (int i = 0; i < 4; ++i) refill.emit_reservation(r);
    refill_h = refill.handle();
    b.add_transition("use", ty).from(p).consume_reservation(r).to(b.end());
    m.entry = p;
    add_pattern_fetch(b, p, 1);
  };
  auto make = [&](core::EngineOptions o) {
    auto sim = std::make_unique<model::Simulator<PatternMachine>>("refill-one-stage", o,
                                                                  describe);
    sim->machine().pattern.assign(40, core::TypeId{0});
    return sim;
  };
  auto ref = make(linear_search_opts());
  auto interp = make({});
  auto comp = make(compiled_opts());
  expect_lockstep<3>({ref.get(), interp.get(), comp.get()}, 100);
  EXPECT_EQ(ref->stats().retired, 40u);
  // Every reservation emitted was either consumed (one per retirement) or
  // still fits in R.
  EXPECT_LE(4 * ref->stats().transition_fires[static_cast<unsigned>(refill_h.id())],
            40u + 16u);
}

// ---------------------------------------------------------------------------
// The one-slot scan path: a stage that holds one token at scan time is read
// straight from slot 0 (gen::TableEngine::process_place). Each net below
// keeps its latches at capacity 1 and runs in lockstep against the
// linear-search reference, full Stats included.
// ---------------------------------------------------------------------------

TEST(OneSlotScan, SharedLatchHoldsTheOtherPlacesTokenNotYetReady) {
  // One capacity-1 stage S holds two places: P and, after it, Q with a
  // three-cycle residence. While Q's token waits in the one slot, Q's scan
  // finds a token that is not yet ready and P's scan finds a token of
  // another place; neither may fire or count a stall.
  model::PlaceHandle p, q;
  auto describe = [&](model::ModelBuilder<PatternMachine>& b, PatternMachine& m) {
    const model::StageHandle s = b.add_stage("S", 1);
    p = b.add_place("P", s);
    q = b.add_place("Q", s, /*delay=*/3);
    const model::TypeHandle ty = b.add_type("T");
    b.add_transition("step", ty).from(p).to(q);
    b.add_transition("leave", ty).from(q).to(b.end());
    m.entry = p;
    add_pattern_fetch(b, p, 1);
  };
  auto make = [&](core::EngineOptions o) {
    auto sim = std::make_unique<model::Simulator<PatternMachine>>("one-slot-shared", o,
                                                                  describe);
    sim->machine().pattern.assign(10, core::TypeId{0});
    return sim;
  };
  auto ref = make(linear_search_opts());
  auto interp = make({});
  auto comp = make(compiled_opts());
  expect_lockstep<3>({ref.get(), interp.get(), comp.get()}, 80);
  const core::Stats& s = ref->stats();
  EXPECT_EQ(s.retired, 10u);
  EXPECT_EQ(s.place_stalls[static_cast<unsigned>(core::PlaceId{p})], 0u);
  EXPECT_EQ(s.place_stalls[static_cast<unsigned>(core::PlaceId{q})], 0u);
}

/// A - B - end, both capacity 1. B's exit guard fires only every fourth
/// cycle. Type U has no transition at all, so no place gets a sole exit
/// stage and A's capacity stalls are counted by the per-token scan, not by
/// the stage-level shortcut.
struct StallNet {
  model::PlaceHandle a, b;
  model::StageHandle b_stage;

  void describe(model::ModelBuilder<PatternMachine>& mb, PatternMachine& m) {
    const model::StageHandle sa = mb.add_stage("A", 1);
    b_stage = mb.add_stage("B", 1);
    a = mb.add_place("A", sa);
    b = mb.add_place("B", b_stage);
    const model::TypeHandle t = mb.add_type("T");
    mb.add_type("U");
    mb.add_transition("advance", t).from(a).to(b);
    mb.add_transition("leave", t)
        .from(b)
        .guard([](PatternMachine&, core::FireCtx& ctx) {
          return ctx.engine->clock() % 4 == 0;
        })
        .to(mb.end());
    m.entry = a;
    add_pattern_fetch(mb, a, 1);
  }

  std::unique_ptr<model::Simulator<PatternMachine>> make(core::EngineOptions o) {
    auto sim = std::make_unique<model::Simulator<PatternMachine>>(
        "one-slot-stalls", o,
        [this](model::ModelBuilder<PatternMachine>& mb, PatternMachine& m) {
          describe(mb, m);
        });
    sim->machine().pattern.assign(12, core::TypeId{0});
    return sim;
  }

  /// Lockstep over 80 cycles; then B's lone token was refused by its guard,
  /// and A's by B's full slot, each under its own cause only.
  void run_and_check(core::EngineOptions base) {
    core::EngineOptions ref_opts = base;
    ref_opts.linear_search = true;
    core::EngineOptions comp_opts = base;
    comp_opts.backend = core::Backend::compiled;
    auto ref = make(ref_opts);
    auto interp = make(base);
    auto comp = make(comp_opts);
    EXPECT_EQ(interp->engine().sole_exit_stage(a), nullptr);
    expect_lockstep<3>({ref.get(), interp.get(), comp.get()}, 80);

    const core::Stats& s = ref->stats();
    EXPECT_EQ(s.retired, 12u);
    EXPECT_GT(cause_count(s, b, core::StallCause::guard_rejected), 0u);
    EXPECT_EQ(cause_count(s, b, core::StallCause::capacity_backpressure), 0u);
    EXPECT_GT(cause_count(s, a, core::StallCause::capacity_backpressure), 0u);
    EXPECT_EQ(cause_count(s, a, core::StallCause::guard_rejected), 0u);
  }
};

TEST(OneSlotScan, GuardAndCapacityStallsOfASingleToken) {
  StallNet net;
  net.run_and_check({});
}

TEST(OneSlotScan, TwoListLatch) {
  // The same net with every stage double-buffered: a token entering a latch
  // waits in its incoming lane and becomes visible to the scan one cycle
  // later.
  StallNet net;
  core::EngineOptions o;
  o.force_two_list_all = true;
  auto probe = net.make(o);
  probe->engine().build();
  ASSERT_TRUE(probe->engine().stage_is_two_list(net.b_stage));
  net.run_and_check(o);
}

// ---------------------------------------------------------------------------
// gen::uniform_row: the generated backend's test for a place that fires
// every instruction type through one shared row.
// ---------------------------------------------------------------------------

enum class Flaw { none, guard, action, destination, delay, empty_cell, two_rows, not_simple };

constexpr gen::StaticTx hand_row(std::int16_t id, std::int16_t to, std::uint32_t delay,
                                 bool simple) {
  return {id, to, delay, 0, 0, 0, 1, 1, simple};
}

/// Equal to "g", at another address: symbols compare as strings.
constexpr char kGuardCopy[] = "g";

/// Place 0 with two types; each flaw spoils type 1's cell. Body row 0 is
/// type 0's, row 1 type 1's, and row 2 a second row of type 1 (two_rows).
template <Flaw F>
struct HandTraits {
  static constexpr unsigned kNumTypes = 2;
  static constexpr gen::StaticCandRange kCell[kNumTypes] = {
      {0, 1}, {1, F == Flaw::empty_cell ? 0u : F == Flaw::two_rows ? 2u : 1u}};
  static constexpr gen::StaticTx kBody[3] = {
      hand_row(0, 1, 0, true),
      hand_row(1, F == Flaw::destination ? 2 : 1, F == Flaw::delay ? 1u : 0u,
               F != Flaw::not_simple),
      hand_row(2, 1, 0, true)};
  static constexpr const char* kGuardSym[3] = {"g", F == Flaw::guard ? "h" : kGuardCopy, "g"};
  static constexpr const char* kActionSym[3] = {"a", F == Flaw::action ? "b" : "a", "a"};
};

TEST(UniformPlace, DetectorAcceptsOnlyOneSharedSimpleRowPerType) {
  constexpr std::int32_t uniform = gen::uniform_row<HandTraits<Flaw::none>>(0);
  EXPECT_EQ(uniform, 0);
  constexpr std::int32_t rejected[] = {
      gen::uniform_row<HandTraits<Flaw::guard>>(0),
      gen::uniform_row<HandTraits<Flaw::action>>(0),
      gen::uniform_row<HandTraits<Flaw::destination>>(0),
      gen::uniform_row<HandTraits<Flaw::delay>>(0),
      gen::uniform_row<HandTraits<Flaw::empty_cell>>(0),
      gen::uniform_row<HandTraits<Flaw::two_rows>>(0),
      gen::uniform_row<HandTraits<Flaw::not_simple>>(0)};
  for (std::size_t i = 0; i < std::size(rejected); ++i)
    EXPECT_EQ(rejected[i], -1) << "flaw " << i + 1;
}

// ---------------------------------------------------------------------------
// Lowering-pass invariants
// ---------------------------------------------------------------------------

TEST(CompiledModelLowering, Fig6RunsMatchInterpretedCandidates) {
  machines::Fig5Processor comp(compiled_opts());
  auto* ce = dynamic_cast<gen::CompiledEngine*>(&comp.engine());
  ASSERT_NE(ce, nullptr);
  const gen::CompiledModel& cm = ce->compiled();
  const core::Net& net = comp.net();

  ASSERT_EQ(cm.num_places, net.num_places());
  ASSERT_EQ(cm.num_types, net.num_types());
  for (unsigned p = 0; p < cm.num_places; ++p) {
    for (unsigned ty = 0; ty < cm.num_types; ++ty) {
      const auto& interp_cands =
          ce->candidates(static_cast<core::PlaceId>(p), static_cast<core::TypeId>(ty));
      const gen::CandRange& r =
          cm.candidates(static_cast<core::PlaceId>(p), static_cast<core::TypeId>(ty));
      ASSERT_EQ(interp_cands.size(), r.count);
      for (unsigned i = 0; i < r.count; ++i)
        EXPECT_EQ(interp_cands[i]->id(), cm.body[r.begin + i].id)
            << "cell (" << p << ", " << ty << ") slot " << i;
    }
  }
  // Every sub-net transition appears exactly once in the body table.
  std::vector<unsigned> seen(net.num_transitions(), 0);
  for (const gen::CompiledTransition& ct : cm.body) ++seen[static_cast<unsigned>(ct.id)];
  for (const gen::CompiledTransition& ct : cm.independent)
    ++seen[static_cast<unsigned>(ct.id)];
  for (unsigned t = 0; t < net.num_transitions(); ++t) EXPECT_EQ(seen[t], 1u) << "t" << t;

  // Process order and two-list set mirror the engine's build products.
  EXPECT_EQ(cm.order, ce->process_order());
  for (core::StageId s : cm.two_list_stages) EXPECT_TRUE(ce->stage_is_two_list(s));
}

TEST(CompiledModelLowering, SimpleShapePrecomputed) {
  machines::SimplePipeline comp(1, compiled_opts());
  auto* ce = dynamic_cast<gen::CompiledEngine*>(&comp.engine());
  ASSERT_NE(ce, nullptr);
  // U2/U3/U4 are plain latch-to-latch moves; the lowering must take the
  // fast-path flag and pre-resolve the destination stage.
  for (const gen::CompiledTransition& ct : ce->compiled().body) {
    EXPECT_TRUE(ct.simple);
    ASSERT_NE(ct.move_stage, nullptr);
    EXPECT_EQ(ct.move_stage, &comp.net().stage_of(ct.move_place));
  }
}

TEST(CompiledModelLowering, PoolSizingAndPreResolvedStages) {
  machines::Fig5Processor comp(compiled_opts());
  auto* ce = dynamic_cast<gen::CompiledEngine*>(&comp.engine());
  ASSERT_NE(ce, nullptr);
  const gen::CompiledModel& cm = ce->compiled();
  const core::Net& net = comp.net();

  // SoA pool sizing: every store is born at its stage's capacity (the end
  // stage, which retires on entry, owns no slots) and lowering leaves it so,
  // on both in-process backends; the arena hints cover every bounded slot.
  machines::Fig5Processor interp;
  std::uint64_t bounded = 0;
  const core::Net* nets[] = {&net, &interp.net()};
  for (const core::Net* n : nets) {
    for (unsigned s = 0; s < n->num_stages(); ++s) {
      const core::PipelineStage& st = n->stage(static_cast<core::StageId>(s));
      EXPECT_EQ(st.store().capacity(), st.is_end() ? 0u : st.capacity()) << "stage " << s;
      if (n == &net) bounded += st.capacity();
    }
  }
  EXPECT_EQ(cm.instr_pool_hint, bounded);
  EXPECT_EQ(cm.res_pool_hint, bounded);

  // Pre-resolved stage pointers agree with the net's id mapping everywhere:
  // the loop's per-cycle arrays (built by TableEngine::build()) index the
  // lowered order and two-list set.
  ASSERT_EQ(ce->order_stages().size(), cm.order.size());
  for (std::size_t i = 0; i < cm.order.size(); ++i)
    EXPECT_EQ(ce->order_stages()[i], &net.stage_of(cm.order[i])) << "order slot " << i;
  ASSERT_EQ(ce->two_list_stage_ptrs().size(), cm.two_list_stages.size());
  for (std::size_t i = 0; i < cm.two_list_stages.size(); ++i)
    EXPECT_EQ(ce->two_list_stage_ptrs()[i], &net.stage(cm.two_list_stages[i]));
  for (const gen::CompiledOutArc& a : cm.out_arcs)
    EXPECT_EQ(a.stage, &net.stage_of(a.place));
}

// ---------------------------------------------------------------------------
// Exporters
// ---------------------------------------------------------------------------

TEST(Exporters, EmitCppContainsScheduleTables) {
  machines::StrongArmConfig ccfg;
  ccfg.engine.backend = core::Backend::compiled;
  machines::StrongArmSim sim(ccfg);
  auto* ce = dynamic_cast<gen::CompiledEngine*>(&sim.engine());
  ASSERT_NE(ce, nullptr);

  const std::string src = gen::emit_cpp(ce->compiled(), sim.net());
  EXPECT_NE(src.find("namespace rcpn_gen::StrongArm"), std::string::npos);
  EXPECT_NE(src.find("kProcessOrder"), std::string::npos);
  EXPECT_NE(src.find("kTwoListStages"), std::string::npos);
  EXPECT_NE(src.find("kCell["), std::string::npos);
  EXPECT_NE(src.find("kBody["), std::string::npos);
  EXPECT_NE(src.find("kInstrPoolHint"), std::string::npos);
  // Names travel along as comments.
  EXPECT_NE(src.find("FD"), std::string::npos);
  EXPECT_NE(src.find("constexpr"), std::string::npos);
}

TEST(Exporters, EmitDotDescribesTheNet) {
  machines::SimplePipeline pipe(1);
  const std::string dot = gen::emit_dot(pipe.net());
  EXPECT_NE(dot.find("digraph \"Fig2\""), std::string::npos);
  EXPECT_NE(dot.find("U2"), std::string::npos);
  EXPECT_NE(dot.find("cluster_s"), std::string::npos);
  EXPECT_NE(dot.find("doublecircle"), std::string::npos);  // virtual end place
  EXPECT_NE(dot.find("(independent)"), std::string::npos);  // the U1 generator
  // Balanced braces, roughly: it must at least close what it opens.
  EXPECT_EQ(std::count(dot.begin(), dot.end(), '{'),
            std::count(dot.begin(), dot.end(), '}'));
}

}  // namespace
}  // namespace rcpn
