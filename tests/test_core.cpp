// Core RCPN engine tests on small synthetic nets: enabling semantics,
// capacity sharing, priorities, delays, reservation tokens, two-list
// analysis, flush/squash and the Fig 6 static extraction.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "core/engine.hpp"
#include "core/soa_scan.hpp"
#include "core/token_store.hpp"
#include "regfile/reg_ref.hpp"

namespace rcpn::core {
namespace {

InstructionToken* emit(Engine& eng, TypeId type, PlaceId where) {
  InstructionToken* t = eng.acquire_pooled_instruction();
  t->type = type;
  eng.emit_instruction(t, where);
  return t;
}

TEST(Net, EndStageCreatedAutomatically) {
  Net net("n");
  EXPECT_EQ(net.num_stages(), 1u);
  EXPECT_EQ(net.num_places(), 1u);
  EXPECT_TRUE(net.stage(net.end_stage()).is_end());
  EXPECT_TRUE(net.stage(net.end_stage()).unlimited());
}

TEST(Net, FindByName) {
  Net net("n");
  const StageId s = net.add_stage("L1", 1);
  const PlaceId p = net.add_place("L1", s);
  EXPECT_EQ(net.find_stage("L1"), s);
  EXPECT_EQ(net.find_place("L1"), p);
  EXPECT_EQ(net.find_place("nope"), kNoPlace);
}

TEST(Net, ModelStatsCountArcs) {
  Net net("n");
  const StageId s = net.add_stage("L1", 1);
  const PlaceId p = net.add_place("L1", s);
  const TypeId ty = net.add_type("T");
  net.add_transition("t", ty).from(p).to(net.end_place());
  const auto ms = net.model_stats();
  EXPECT_EQ(ms.places, 2u);
  EXPECT_EQ(ms.transitions, 1u);
  EXPECT_EQ(ms.subnets, 1u);
  EXPECT_EQ(ms.arcs, 2u);
}

class LinearNetTest : public ::testing::Test {
 protected:
  LinearNetTest() : net_("linear"), eng_(net_) {
    s1_ = net_.add_stage("L1", 1);
    s2_ = net_.add_stage("L2", 1);
    p1_ = net_.add_place("L1", s1_);
    p2_ = net_.add_place("L2", s2_);
    ty_ = net_.add_type("T");
    net_.add_transition("T1", ty_).from(p1_).to(p2_);
    net_.add_transition("T2", ty_).from(p2_).to(net_.end_place());
  }
  Net net_;
  Engine eng_;
  StageId s1_, s2_;
  PlaceId p1_, p2_;
  TypeId ty_;
};

TEST_F(LinearNetTest, TokenFlowsOneStagePerCycle) {
  eng_.build();
  emit(eng_, ty_, p1_);
  EXPECT_EQ(eng_.tokens_in_flight(), 1u);
  eng_.step();  // cycle 0: not ready yet
  eng_.step();  // cycle 1: L1 -> L2
  EXPECT_EQ(eng_.tokens_in_place(p2_), 1u);
  eng_.step();  // cycle 2: L2 -> end
  EXPECT_EQ(eng_.stats().retired, 1u);
  EXPECT_EQ(eng_.tokens_in_flight(), 0u);
}

TEST_F(LinearNetTest, ReverseTopologicalOrderSinksFirst) {
  eng_.build();
  const auto& order = eng_.process_order();
  // End places are excluded (tokens retire on entry); downstream first.
  ASSERT_EQ(order.size(), 2u);
  EXPECT_EQ(order[0], p2_);
  EXPECT_EQ(order[1], p1_);
}

TEST_F(LinearNetTest, BackToBackTokensPipeline) {
  eng_.build();
  emit(eng_, ty_, p1_);
  eng_.step();  // cycle 0: tok1 entered during cycle 0, ready at 1
  eng_.step();  // cycle 1: tok1 L1->L2; L1 free at end of cycle
  emit(eng_, ty_, p1_);  // entered during cycle 2, ready at 3
  eng_.step();  // cycle 2: tok1 retires
  eng_.step();  // cycle 3: tok2 L1->L2
  eng_.step();  // cycle 4: tok2 retires
  EXPECT_EQ(eng_.stats().retired, 2u);
}

TEST_F(LinearNetTest, CapacityBlocksUpstreamToken) {
  eng_.build();
  emit(eng_, ty_, p2_);  // occupies L2
  // Block T2 so the L2 token cannot drain.
  // (re-build a net is cheaper: here we just also fill L1 and check stall.)
  emit(eng_, ty_, p1_);
  EXPECT_FALSE(eng_.place_has_room(p1_));
  eng_.step();
  eng_.step();
  // Both retire eventually; stall counter must have fired at least once if
  // L1's token ever found L2 full. With reverse-topo order L2 drains first,
  // so no stall is expected here — this documents the shift-register effect.
  eng_.run(10);
  EXPECT_EQ(eng_.stats().retired, 2u);
}

TEST_F(LinearNetTest, ResetClearsState) {
  eng_.build();
  emit(eng_, ty_, p1_);
  eng_.run(5);
  EXPECT_EQ(eng_.stats().retired, 1u);
  eng_.reset();
  EXPECT_EQ(eng_.stats().retired, 0u);
  EXPECT_EQ(eng_.clock(), 0u);
  EXPECT_EQ(eng_.tokens_in_flight(), 0u);
  emit(eng_, ty_, p1_);
  eng_.run(5);
  EXPECT_EQ(eng_.stats().retired, 1u);
}

TEST(EnginePriority, LowerPriorityArcFiresFirst) {
  Net net("prio");
  const StageId s = net.add_stage("L1", 1);
  const PlaceId p = net.add_place("L1", s);
  const PlaceId e2 = net.add_end_place("end2");
  const TypeId ty = net.add_type("T");
  bool allow_fast = true;
  net.add_transition("slow", ty).from(p, /*priority=*/1).to(net.end_place());
  net.add_transition("fast", ty)
      .from(p, /*priority=*/0)
      .guard([](void* env, FireCtx&) { return *static_cast<bool*>(env); }, &allow_fast)
      .to(e2);
  Engine eng(net);
  eng.build();

  // Sorted candidate list: priority 0 first.
  const auto& cands = eng.candidates(p, ty);
  ASSERT_EQ(cands.size(), 2u);
  EXPECT_EQ(cands[0]->name(), "fast");
  EXPECT_EQ(cands[1]->name(), "slow");

  emit(eng, ty, p);
  eng.run(3);
  EXPECT_EQ(eng.stats().transition_fires[cands[0]->id()], 1u);
  EXPECT_EQ(eng.stats().transition_fires[cands[1]->id()], 0u);

  // With the guard closed, the priority-1 alternative fires instead
  // (exactly the Fig 5 forwarding-vs-stall pattern).
  allow_fast = false;
  emit(eng, ty, p);
  eng.run(3);
  EXPECT_EQ(eng.stats().transition_fires[cands[1]->id()], 1u);
}

TEST(EngineGuard, FalseGuardStallsToken) {
  Net net("guard");
  const StageId s = net.add_stage("L1", 1);
  const PlaceId p = net.add_place("L1", s);
  const TypeId ty = net.add_type("T");
  bool open = false;
  net.add_transition("t", ty)
      .from(p)
      .guard([](void* env, FireCtx&) { return *static_cast<bool*>(env); }, &open)
      .to(net.end_place());
  Engine eng(net);
  eng.build();
  emit(eng, ty, p);
  eng.run(4);
  EXPECT_EQ(eng.stats().retired, 0u);
  EXPECT_GT(eng.stats().place_stalls[p], 0u);
  open = true;
  eng.run(2);
  EXPECT_EQ(eng.stats().retired, 1u);
}

TEST(EngineDelay, PlaceDelayHoldsToken) {
  Net net("delay");
  const StageId s = net.add_stage("L1", 1);
  const PlaceId p = net.add_place("L1", s, /*delay=*/3);
  const TypeId ty = net.add_type("T");
  net.add_transition("t", ty).from(p).to(net.end_place());
  Engine eng(net);
  eng.build();
  emit(eng, ty, p);
  eng.run(2);
  EXPECT_EQ(eng.stats().retired, 0u);  // still waiting
  eng.run(2);
  EXPECT_EQ(eng.stats().retired, 1u);
  EXPECT_EQ(eng.clock(), 4u);  // entered at 0, residence 3, fired cycle 3
}

TEST(EngineDelay, TokenDelayOverridesPlaceDelay) {
  // Fig 5 LoadStore pattern: the transition sets t.delay = mem.delay(addr).
  Net net("tokdelay");
  const StageId s1 = net.add_stage("L1", 1);
  const StageId s2 = net.add_stage("L2", 4);
  const PlaceId p1 = net.add_place("L1", s1);
  const PlaceId p2 = net.add_place("L2", s2, /*delay=*/1);
  const TypeId ty = net.add_type("T");
  net.add_transition("M", ty)
      .from(p1)
      .action([](void*, FireCtx& ctx) { ctx.token->next_delay = 5; }, nullptr)
      .to(p2);
  net.add_transition("W", ty).from(p2).to(net.end_place());
  Engine eng(net);
  eng.build();
  emit(eng, ty, p1);
  eng.run(3);  // fired M at cycle 1, entered L2 with residence 5
  EXPECT_EQ(eng.stats().retired, 0u);
  eng.run(10);
  EXPECT_EQ(eng.stats().retired, 1u);
}

TEST(EngineReservation, BranchStylefetchStall) {
  // Mirror of the paper's branch sub-net: issuing emits a reservation into
  // L1 which disables an independent "fetch"; resolving consumes it.
  Net net("resv");
  const StageId s1 = net.add_stage("L1", 1);
  const StageId s2 = net.add_stage("L2", 1);
  const PlaceId p1 = net.add_place("L1", s1);
  const PlaceId p2 = net.add_place("L2", s2);
  const TypeId ty = net.add_type("Branch");
  struct FetchEnv {
    int fetched = 0;
    TypeId ty;
    PlaceId p1;
  } fenv{0, ty, p1};
  net.add_transition("D", ty).from(p1).to(p2).emit_reservation(p1);
  net.add_transition("B", ty).from(p2).consume_reservation(p1).to(net.end_place());
  net.add_independent_transition("F")
      .guard(
          [](void* env, FireCtx& ctx) {
            return ctx.engine->place_has_room(static_cast<FetchEnv*>(env)->p1);
          },
          &fenv)
      .action(
          [](void* env, FireCtx& ctx) {
            auto* fe = static_cast<FetchEnv*>(env);
            ++fe->fetched;
            InstructionToken* t = ctx.engine->acquire_pooled_instruction();
            t->type = fe->ty;
            ctx.engine->emit_instruction(t, fe->p1);
          },
          &fenv);
  Engine eng(net);
  eng.build();
  eng.step();  // cycle 0: fetch fires -> token in L1
  EXPECT_EQ(fenv.fetched, 1);
  eng.step();  // cycle 1: D fires (token->L2, reservation->L1); fetch blocked
  EXPECT_EQ(fenv.fetched, 1);
  eng.step();  // cycle 2: B consumes reservation + branch token; fetch free again
  EXPECT_EQ(fenv.fetched, 2);
  EXPECT_EQ(eng.stats().retired, 1u);
  EXPECT_GT(eng.stats().reservations, 0u);
}

TEST(EngineSharedStage, PlacesShareCapacity) {
  Net net("shared");
  const StageId s = net.add_stage("RS", 2);
  const PlaceId pa = net.add_place("RS.a", s);
  const PlaceId pb = net.add_place("RS.b", s);
  const TypeId ty = net.add_type("T");
  net.add_transition("ta", ty).from(pa).to(net.end_place());
  net.add_transition("tb", ty).from(pb).to(net.end_place());
  Engine eng(net);
  eng.build();
  emit(eng, ty, pa);
  emit(eng, ty, pb);
  EXPECT_FALSE(eng.place_has_room(pa));
  EXPECT_FALSE(eng.place_has_room(pb));  // shared capacity exhausted
  eng.run(3);
  EXPECT_EQ(eng.stats().retired, 2u);
}

TEST(EngineTwoList, StateRefCycleMarksReferencedStage) {
  // Fig 5: D (from L1) reads the state of L3 which is downstream of L1 ->
  // L3's stage must get the two-list algorithm; L1/L2 must not.
  Net net("fig5ish");
  const StageId s1 = net.add_stage("L1", 1);
  const StageId s2 = net.add_stage("L2", 1);
  const StageId s3 = net.add_stage("L3", 1);
  const PlaceId p1 = net.add_place("L1", s1);
  const PlaceId p2 = net.add_place("L2", s2);
  const PlaceId p3 = net.add_place("L3", s3);
  const TypeId ty = net.add_type("ALU");
  net.add_transition("D", ty).from(p1).to(p2).reads_state(p3);
  net.add_transition("E", ty).from(p2).to(p3);
  net.add_transition("W", ty).from(p3).to(net.end_place());
  Engine eng(net);
  eng.build();
  EXPECT_TRUE(eng.stage_is_two_list(s3));
  EXPECT_FALSE(eng.stage_is_two_list(s1));
  EXPECT_FALSE(eng.stage_is_two_list(s2));

  // Same net with the paper optimization disabled per model override.
  net.stage(s3).force_two_list(false);
  Engine eng2(net);
  eng2.build();
  EXPECT_FALSE(eng2.stage_is_two_list(s3));
}

TEST(EngineTwoList, NonCircularStateRefNotMarked) {
  // Reading the state of an upstream place is not circular.
  Net net("noncirc");
  const StageId s1 = net.add_stage("L1", 1);
  const StageId s2 = net.add_stage("L2", 1);
  const PlaceId p1 = net.add_place("L1", s1);
  const PlaceId p2 = net.add_place("L2", s2);
  const TypeId ty = net.add_type("T");
  net.add_transition("a", ty).from(p1).to(p2);
  net.add_transition("b", ty).from(p2).reads_state(p1).to(net.end_place());
  Engine eng(net);
  eng.build();
  EXPECT_FALSE(eng.stage_is_two_list(s1));
  EXPECT_FALSE(eng.stage_is_two_list(s2));
}

TEST(EngineTwoList, TokenCycleMarksWholeComponent) {
  Net net("cycle");
  const StageId s1 = net.add_stage("A", 2);
  const StageId s2 = net.add_stage("B", 2);
  const PlaceId p1 = net.add_place("A", s1);
  const PlaceId p2 = net.add_place("B", s2);
  const TypeId ty = net.add_type("T");
  net.add_transition("fwd", ty).from(p1).to(p2);
  net.add_transition("bwd", ty).from(p2).to(p1);
  Engine eng(net);
  eng.build();
  EXPECT_TRUE(eng.stage_is_two_list(s1));
  EXPECT_TRUE(eng.stage_is_two_list(s2));
}

TEST(EngineTwoList, ForceAllAblationStillCompletes) {
  Net net("all2l");
  const StageId s1 = net.add_stage("L1", 1);
  const StageId s2 = net.add_stage("L2", 1);
  const PlaceId p1 = net.add_place("L1", s1);
  const PlaceId p2 = net.add_place("L2", s2);
  const TypeId ty = net.add_type("T");
  net.add_transition("t1", ty).from(p1).to(p2);
  net.add_transition("t2", ty).from(p2).to(net.end_place());
  EngineOptions opt;
  opt.force_two_list_all = true;
  Engine eng(net, opt);
  eng.build();
  EXPECT_TRUE(eng.stage_is_two_list(s1));
  EXPECT_TRUE(eng.stage_is_two_list(s2));
  emit(eng, ty, p1);
  eng.run(10);
  EXPECT_EQ(eng.stats().retired, 1u);
}

TEST(EngineFlush, SquashReleasesRegisterReservations) {
  Net net("flush");
  const StageId s1 = net.add_stage("L1", 2);
  const PlaceId p1 = net.add_place("L1", s1);
  const TypeId ty = net.add_type("T");
  net.add_transition("t", ty)
      .from(p1)
      .guard([](void*, FireCtx&) { return false; }, nullptr)
      .to(net.end_place());
  Engine eng(net);
  eng.build();

  regfile::RegisterFile rf(1, regfile::WritePolicy::single_writer);
  rf.add_identity_registers(1);
  regfile::RegRef ref;

  InstructionToken* tok = eng.acquire_pooled_instruction();
  tok->type = ty;
  ref.bind(&rf, 0, &tok->state);
  tok->ops[0] = &ref;
  ref.reserve_write();
  int squashes = 0;
  eng.hooks().on_squash = [&](InstructionToken*) { ++squashes; };
  eng.emit_instruction(tok, p1);
  eng.step();
  EXPECT_TRUE(rf.has_writer(0));
  eng.flush_stage(s1);
  EXPECT_FALSE(rf.has_writer(0));
  EXPECT_EQ(squashes, 1);
  EXPECT_EQ(eng.stats().squashed, 1u);
  EXPECT_EQ(eng.tokens_in_flight(), 0u);
}

TEST(EngineFlush, PredicateFlushKeepsOlderTokens) {
  Net net("pflush");
  const StageId s1 = net.add_stage("L1", 4);
  const PlaceId p1 = net.add_place("L1", s1);
  const TypeId ty = net.add_type("T");
  net.add_transition("t", ty)
      .from(p1)
      .guard([](void*, FireCtx&) { return false; }, nullptr)
      .to(net.end_place());
  Engine eng(net);
  eng.build();
  InstructionToken* a = emit(eng, ty, p1);
  InstructionToken* b = emit(eng, ty, p1);
  ASSERT_LT(a->seq, b->seq);
  const std::uint32_t pivot = b->seq;
  eng.flush_stage_if(s1, [&](const Token& t) {
    return t.kind == TokenKind::instruction &&
           static_cast<const InstructionToken&>(t).seq >= pivot;
  });
  EXPECT_EQ(eng.stats().squashed, 1u);
  EXPECT_EQ(eng.tokens_in_place(p1), 1u);
}

TEST(EngineMicroOps, ActionEmitsAdditionalTokens) {
  // "Any sub-net can generate an instruction token" — LDM-style expansion.
  Net net("uops");
  const StageId s1 = net.add_stage("L1", 1);
  const StageId s2 = net.add_stage("L2", 4);
  const PlaceId p1 = net.add_place("L1", s1);
  const PlaceId p2 = net.add_place("L2", s2);
  const TypeId ty = net.add_type("LSM");
  struct ExpandEnv {
    TypeId ty;
    PlaceId p2;
  } xenv{ty, p2};
  net.add_transition("expand", ty)
      .from(p1)
      .guard(
          [](void* env, FireCtx& ctx) {
            return ctx.engine->place_has_room(static_cast<ExpandEnv*>(env)->p2, 3);
          },
          &xenv)
      .action(
          [](void* env, FireCtx& ctx) {
            auto* xe = static_cast<ExpandEnv*>(env);
            for (int i = 0; i < 2; ++i) {
              InstructionToken* u = ctx.engine->acquire_pooled_instruction();
              u->type = xe->ty;
              ctx.engine->emit_instruction(u, xe->p2);
            }
          },
          &xenv)
      .to(p2);
  net.add_transition("drain", ty).from(p2).to(net.end_place());
  Engine eng(net);
  eng.build();
  emit(eng, ty, p1);
  eng.run(6);
  EXPECT_EQ(eng.stats().retired, 3u);  // original + 2 µ-ops
}

TEST(EngineWatchdog, DeadlockStopsEngine) {
  Net net("dead");
  const StageId s1 = net.add_stage("L1", 1);
  const PlaceId p1 = net.add_place("L1", s1);
  const TypeId ty = net.add_type("T");
  net.add_transition("never", ty)
      .from(p1)
      .guard([](void*, FireCtx&) { return false; }, nullptr)
      .to(net.end_place());
  EngineOptions opt;
  opt.deadlock_limit = 50;
  Engine eng(net, opt);
  eng.build();
  emit(eng, ty, p1);
  const std::uint64_t ran = eng.run(10000);
  EXPECT_TRUE(eng.stopped());
  EXPECT_LT(ran, 10000u);
}

TEST(SoaScan, KernelsMatchNaiveLoopsInBothPaths) {
  // The vectorized scans must be drop-in equivalent to the scalar loops they
  // replaced — for every length (tail handling), below soa::kSimdMinSlots
  // (the scalar path) and at or above it (the block path in AVX2 builds).
  std::uint32_t rng = 99;
  auto next = [&] { return rng = rng * 1664525u + 1013904223u; };
  for (std::size_t n = 0; n <= 40; ++n) {
    std::vector<TokenStore::Key> keys(n);
    std::vector<Cycle> ready(n);
    for (std::size_t i = 0; i < n; ++i) {
      keys[i] = next() % 3;  // few distinct keys: plenty of matches
      ready[i] = next() % 4;
    }
    const TokenStore::Key want = next() % 3;
    const Cycle now = next() % 4;

    std::size_t naive_count = 0, naive_first = n;
    std::vector<std::size_t> naive_visits;
    for (std::size_t i = 0; i < n; ++i) {
      if (keys[i] == want) ++naive_count;
      if (keys[i] == want && ready[i] <= now) {
        if (naive_first == n) naive_first = i;
        naive_visits.push_back(i);
      }
    }

    EXPECT_EQ(soa::count_matches(keys.data(), n, want), naive_count) << n;
    EXPECT_EQ(soa::find_match_ready(keys.data(), ready.data(), n, want, now),
              naive_first)
        << n;
    std::vector<std::size_t> visits;
    soa::for_each_match_ready(keys.data(), ready.data(), n, want, now,
                              [&](std::size_t i) { visits.push_back(i); });
    EXPECT_EQ(visits, naive_visits) << n;
  }
}

TEST(TokenStore, HintedRemovalEquivalentToLinearFindUnderChurn) {
  // remove_visible_at's hint is an optimization, never a semantic input: a
  // correct hint, a stale one (earlier removals shifted the slots) and pure
  // garbage must all leave the store byte-identical to plain remove_visible.
  // Two stores churn in lockstep — one removed with deliberately varied
  // hints, one with the linear find — and must agree after every operation.
  // Each op inserts at most one token, so kOps slots can never overflow.
  constexpr int kOps = 4000;
  TokenStore hinted(kOps), plain(kOps);
  std::vector<std::unique_ptr<Token>> owned;
  std::vector<Token*> live_h, live_p;
  std::uint32_t rng = 12345, id = 0;
  auto next = [&] { return rng = rng * 1664525u + 1013904223u; };
  auto check_equal = [&] {
    ASSERT_EQ(hinted.size(), plain.size());
    for (std::size_t i = 0; i < hinted.size(); ++i) {
      // next_delay doubles as the creation id: same age order in both stores.
      ASSERT_EQ(hinted.at(i)->next_delay, plain.at(i)->next_delay) << "slot " << i;
      ASSERT_EQ(hinted.keys()[i], plain.keys()[i]) << "slot " << i;
      ASSERT_EQ(hinted.ready()[i], plain.ready()[i]) << "slot " << i;
      ASSERT_EQ(hinted.keys()[i],
                TokenStore::key(hinted.at(i)->place, hinted.at(i)->kind));
    }
  };
  for (int op = 0; op < kOps; ++op) {
    if (live_h.empty() || next() % 3 != 0) {
      auto th = std::make_unique<Token>();
      auto tp = std::make_unique<Token>();
      th->place = tp->place = static_cast<PlaceId>(next() % 4);
      th->kind = tp->kind =
          (next() % 4 == 0) ? TokenKind::reservation : TokenKind::instruction;
      th->ready = tp->ready = next() % 16;
      th->next_delay = tp->next_delay = id++;
      hinted.insert_visible(th.get());
      plain.insert_visible(tp.get());
      live_h.push_back(th.get());
      live_p.push_back(tp.get());
      owned.push_back(std::move(th));
      owned.push_back(std::move(tp));
    } else {
      const std::size_t vic = next() % live_h.size();
      std::size_t true_slot = hinted.size();
      for (std::size_t i = 0; i < hinted.size(); ++i)
        if (hinted.at(i) == live_h[vic]) true_slot = i;
      std::size_t hint = true_slot;
      switch (next() % 4) {
        case 0: break;                                   // exact
        case 1: hint = true_slot + 1; break;             // shifted (stale)
        case 2: hint = true_slot == 0 ? 7 : true_slot - 1; break;
        case 3: hint = 1u << 20; break;                  // far out of range
      }
      EXPECT_TRUE(hinted.remove_visible_at(hint, live_h[vic]));
      EXPECT_TRUE(plain.remove_visible(live_p[vic]));
      live_h.erase(live_h.begin() + static_cast<std::ptrdiff_t>(vic));
      live_p.erase(live_p.begin() + static_cast<std::ptrdiff_t>(vic));
    }
    check_equal();
  }
}

// -- fixed-slot stores --------------------------------------------------------

/// Token with a distinct (place, ready) so keys()/ready() lanes are checkable.
InstructionToken make_token(int place, Cycle ready) {
  InstructionToken t;
  t.place = static_cast<PlaceId>(place);
  t.ready = ready;
  return t;
}

/// The visible lane in age order, with each slot's key/ready checked against
/// the token it belongs to (the three arrays must move together).
std::vector<Token*> visible(const TokenStore& ts) {
  std::vector<Token*> out;
  for (std::size_t i = 0; i < ts.size(); ++i) {
    EXPECT_EQ(ts.keys()[i], TokenStore::key(ts.at(i)->place, ts.at(i)->kind)) << i;
    EXPECT_EQ(ts.ready()[i], ts.at(i)->ready) << i;
    out.push_back(ts.at(i));
  }
  EXPECT_EQ(out, std::vector<Token*>(ts.ptrs().begin(), ts.ptrs().end()));
  return out;
}

TEST(TokenStore, LanesAreBornAtCapacity) {
  PipelineStage st("EX", StageId{1}, 3, /*is_end=*/false);
  EXPECT_EQ(st.store().capacity(), 3u);
  EXPECT_TRUE(st.store().empty());
  EXPECT_EQ(st.occupancy(), 0u);
  // The end stage retires tokens on entry: it owns no slots at all.
  const PipelineStage end("end", StageId{0}, 0, /*is_end=*/true);
  EXPECT_EQ(end.store().capacity(), 0u);

  // Net keeps its stages in a vector: a moved stage keeps its slots and
  // contents.
  InstructionToken a = make_token(1, 4);
  st.insert(&a);
  const PipelineStage moved(std::move(st));
  EXPECT_EQ(moved.store().capacity(), 3u);
  EXPECT_EQ(visible(moved.store()), std::vector<Token*>{&a});
}

TEST(PipelineStage, InsertBeyondCapacityThrowsNamedError) {
  PipelineStage st("ALU", StageId{1}, 2, /*is_end=*/false);
  InstructionToken a = make_token(1, 0), b = make_token(1, 1), c = make_token(1, 2);
  st.insert(&a);
  st.insert(&b);
  try {
    st.insert(&c);
    FAIL() << "insert into a full stage was accepted";
  } catch (const StageOverflowError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("'ALU'"), std::string::npos) << what;
    EXPECT_NE(what.find("capacity of 2"), std::string::npos) << what;
  }
  EXPECT_EQ(visible(st.store()), (std::vector<Token*>{&a, &b}));

  // Incoming tokens occupy the latch too: one visible + one incoming fill a
  // capacity-2 two-list stage, on both the routed and the restore path.
  PipelineStage tl("L3", StageId{2}, 2, /*is_end=*/false);
  tl.force_two_list(true);
  tl.insert_restored(&a, /*incoming=*/false);
  tl.insert(&b);
  EXPECT_EQ(tl.store().incoming_size(), 1u);
  EXPECT_THROW(tl.insert_restored(&c, /*incoming=*/true), StageOverflowError);
  EXPECT_THROW(tl.insert(&c), StageOverflowError);
  EXPECT_EQ(tl.occupancy(), 2u);
}

TEST(TokenStore, EraseKeepsAgeOrderAtHeadMiddleAndTail) {
  TokenStore ts(5);
  InstructionToken t[5] = {make_token(0, 10), make_token(1, 11), make_token(2, 12),
                           make_token(3, 13), make_token(4, 14)};
  for (InstructionToken& tok : t) ts.insert_visible(&tok);
  EXPECT_TRUE(ts.remove_visible(&t[0]));  // head
  EXPECT_EQ(visible(ts), (std::vector<Token*>{&t[1], &t[2], &t[3], &t[4]}));
  EXPECT_TRUE(ts.remove_visible_at(1, &t[2]));  // middle, exact hint
  EXPECT_EQ(visible(ts), (std::vector<Token*>{&t[1], &t[3], &t[4]}));
  EXPECT_TRUE(ts.remove_visible_at(0, &t[4]));  // tail, stale hint
  EXPECT_EQ(visible(ts), (std::vector<Token*>{&t[1], &t[3]}));
  EXPECT_FALSE(ts.remove_visible(&t[4]));
  // Freed slots are reused at the young end.
  ts.insert_visible(&t[0]);
  EXPECT_EQ(visible(ts), (std::vector<Token*>{&t[1], &t[3], &t[0]}));
}

TEST(TokenStore, PromoteAppendsInOrderAndPublishesState) {
  TokenStore ts(4);
  InstructionToken a = make_token(1, 0), b = make_token(2, 1), c = make_token(3, 2);
  Token r;
  r.place = 2;
  r.ready = 3;
  ts.insert_visible(&a);
  ts.insert_incoming(&b);
  ts.insert_incoming(&r);
  ts.insert_incoming(&c);
  EXPECT_EQ(ts.occupancy(), 4u);
  EXPECT_EQ(b.state, kNoPlace);
  ts.promote();
  EXPECT_EQ(ts.incoming_size(), 0u);
  EXPECT_EQ(visible(ts), (std::vector<Token*>{&a, &b, &r, &c}));
  EXPECT_EQ(b.state, PlaceId{2});
  EXPECT_EQ(c.state, PlaceId{3});
  EXPECT_EQ(a.state, kNoPlace);  // already visible: untouched by promote
}

TEST(TokenStore, RemoveAnyFindsIncomingTokens) {
  TokenStore ts(3);
  InstructionToken a = make_token(1, 0), b = make_token(1, 1), c = make_token(1, 2);
  ts.insert_visible(&a);
  ts.insert_incoming(&b);
  ts.insert_incoming(&c);
  EXPECT_TRUE(ts.remove_any(&b));
  EXPECT_EQ(ts.incoming_size(), 1u);
  EXPECT_EQ(ts.incoming_ptrs()[0], &c);
  EXPECT_FALSE(ts.remove_any(&b));
  EXPECT_TRUE(ts.remove_any(&a));
  EXPECT_TRUE(ts.empty());
  EXPECT_EQ(ts.occupancy(), 1u);
}

TEST(TokenStore, ClearVisitsVisibleThenIncoming) {
  TokenStore ts(4);
  InstructionToken a = make_token(1, 0), b = make_token(1, 1), c = make_token(1, 2),
                   d = make_token(1, 3);
  ts.insert_incoming(&c);
  ts.insert_visible(&a);
  ts.insert_incoming(&d);
  ts.insert_visible(&b);
  std::vector<Token*> seen;
  ts.clear([&](Token* t) { seen.push_back(t); });
  EXPECT_EQ(seen, (std::vector<Token*>{&a, &b, &c, &d}));
  EXPECT_EQ(ts.occupancy(), 0u);
  EXPECT_EQ(ts.capacity(), 4u);
}

TEST(EngineSearch, LinearSearchAblationMatchesSortedTable) {
  auto build = [](Net& net, PlaceId& p1) {
    const StageId s1 = net.add_stage("L1", 1);
    const StageId s2 = net.add_stage("L2", 1);
    p1 = net.add_place("L1", s1);
    const PlaceId p2 = net.add_place("L2", s2);
    const TypeId ty = net.add_type("T");
    net.add_transition("t1", ty).from(p1).to(p2);
    net.add_transition("t2", ty).from(p2).to(net.end_place());
    return ty;
  };
  Net n1("sorted"), n2("linear");
  PlaceId p1a, p1b;
  const TypeId ta = build(n1, p1a);
  const TypeId tb = build(n2, p1b);
  Engine e1(n1);
  EngineOptions opt;
  opt.linear_search = true;
  Engine e2(n2, opt);
  e1.build();
  e2.build();
  emit(e1, ta, p1a);
  emit(e2, tb, p1b);
  e1.run(6);
  e2.run(6);
  EXPECT_EQ(e1.stats().retired, e2.stats().retired);
  EXPECT_EQ(e1.stats().firings, e2.stats().firings);
}

}  // namespace
}  // namespace rcpn::core
