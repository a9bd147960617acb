// DecodeCache unit tests: fast-path/slow-path coherence under self-modifying
// code, in-flight clone chaining, the reset_runtime staleness protocol, the
// pc table under byte and instruction-index pcs, and the lifecycle of the
// pooled entries and arena-built objects.
#include <gtest/gtest.h>

#include <deque>
#include <set>
#include <vector>

#include "isa/decoder.hpp"

namespace rcpn::isa {
namespace {

// Factory that stamps the encoding into token.type so a returned token
// proves which raw it was decoded from (build_entry pre-sets pc/raw).
DecodeCache make_cache() {
  return DecodeCache([](DecodeCache::Entry& e) {
    e.token.type = static_cast<core::TypeId>(e.raw & 0x7fff);
  });
}

TEST(DecodeCache, HitReusesEntryAndResetsDynamicState) {
  DecodeCache dc = make_cache();
  core::InstructionToken* t0 = dc.get(0x100, 0xaa);
  t0->in_flight = true;
  t0->ready = 99;
  t0->in_flight = false;
  core::InstructionToken* t1 = dc.get(0x100, 0xaa);
  EXPECT_EQ(t0, t1);
  EXPECT_EQ(t1->ready, 0u);
  EXPECT_EQ(dc.stats().hits, 1u);
  EXPECT_EQ(dc.stats().misses, 1u);
}

TEST(DecodeCache, SmcRebuildDecodesNewEncoding) {
  DecodeCache dc = make_cache();
  EXPECT_EQ(dc.get(0x100, 0xaa)->type, 0xaa);
  core::InstructionToken* t = dc.get(0x100, 0xbb);
  EXPECT_EQ(t->type, 0xbb);
  EXPECT_EQ(t->raw, 0xbbu);
  EXPECT_EQ(dc.stats().rebuilds, 1u);
}

// Regression: an SMC write sequence A -> B -> A. The B rebuild reuses the
// Entry in place; if the direct-mapped fast slot keeps its old {pc, A}
// snapshot paired with that entry, the final get(pc, A) fast-hits the stale
// slot and returns the token decoded for B.
TEST(DecodeCache, SmcToggleBackToOldEncodingReturnsCorrectDecode) {
  DecodeCache dc = make_cache();
  EXPECT_EQ(dc.get(0x100, 0xaa)->type, 0xaa);
  EXPECT_EQ(dc.get(0x100, 0xbb)->type, 0xbb);  // rebuild A -> B
  core::InstructionToken* t = dc.get(0x100, 0xaa);  // restore A
  EXPECT_EQ(t->type, 0xaa);
  EXPECT_EQ(t->raw, 0xaau);
  EXPECT_EQ(dc.stats().rebuilds, 2u);
}

TEST(DecodeCache, InFlightCollisionChainsClone) {
  DecodeCache dc = make_cache();
  core::InstructionToken* t0 = dc.get(0x100, 0xaa);
  t0->in_flight = true;  // tight loop: same static instruction fetched again
  core::InstructionToken* t1 = dc.get(0x100, 0xaa);
  EXPECT_NE(t0, t1);
  EXPECT_EQ(t1->type, 0xaa);
  EXPECT_EQ(dc.stats().clones, 1u);
  t0->in_flight = false;
  EXPECT_EQ(dc.get(0x100, 0xaa), t0);  // head free again
}

TEST(DecodeCache, ResetRuntimeRebuildsFormerlyInFlightEntry) {
  DecodeCache dc = make_cache();
  core::InstructionToken* t0 = dc.get(0x100, 0xaa);
  t0->in_flight = true;  // run interrupted with the token in flight
  dc.reset_runtime();
  core::InstructionToken* t1 = dc.get(0x100, 0xaa);
  EXPECT_EQ(t1->type, 0xaa);
  EXPECT_FALSE(t1->in_flight);
  EXPECT_EQ(dc.stats().rebuilds, 1u);
  // The republished fast slot must serve the rebuilt entry, not re-rebuild.
  EXPECT_EQ(dc.get(0x100, 0xaa), t1);
  EXPECT_EQ(dc.stats().rebuilds, 1u);
}

TEST(DecodeCache, BypassDecodesFreshEveryTime) {
  DecodeCache dc = make_cache();
  dc.set_bypass(true);
  core::InstructionToken* t0 = dc.get(0x100, 0xaa);
  core::InstructionToken* t1 = dc.get(0x100, 0xaa);
  EXPECT_NE(t0, t1);
  EXPECT_EQ(dc.stats().misses, 2u);
  EXPECT_EQ(dc.stats().hits, 0u);
}

// Interleaves instruction-index pcs (Fig5/Tomasulo, stride 1) with byte pcs
// (ARM, stride 4). A table indexed by pc >> 2 put pcs 0-3 in one slot, so
// three of every four loop hits fell through to the slow path.
TEST(DecodeCache, StrideOneAndStrideFourPcsKeepTheirOwnTokens) {
  DecodeCache dc = make_cache();
  std::vector<std::uint32_t> pcs;
  for (std::uint32_t i = 0; i < 64; ++i) {
    pcs.push_back(i);
    pcs.push_back(0x8000 + 4 * i);
  }
  for (const std::uint32_t salt : {0x100u, 0x400u}) {  // a new program after clear()
    std::vector<core::InstructionToken*> first;
    for (int pass = 0; pass < 3; ++pass) {
      for (std::size_t i = 0; i < pcs.size(); ++i) {
        const std::uint32_t raw = salt + static_cast<std::uint32_t>(i);
        core::InstructionToken* t = dc.get(pcs[i], raw);
        ASSERT_EQ(t->pc, pcs[i]);
        ASSERT_EQ(t->raw, raw);
        ASSERT_EQ(t->type, static_cast<core::TypeId>(raw));
        if (pass == 0)
          first.push_back(t);
        else
          ASSERT_EQ(t, first[i]);
        t->in_flight = true;  // issue and retire
        t->in_flight = false;
      }
    }
    EXPECT_EQ(std::set<core::InstructionToken*>(first.begin(), first.end()).size(),
              pcs.size());
    EXPECT_EQ(dc.size(), pcs.size());
    EXPECT_EQ(dc.stats().misses, pcs.size());
    EXPECT_EQ(dc.stats().hits, 2 * pcs.size());
    EXPECT_EQ(dc.stats().clones, 0u);
    EXPECT_EQ(dc.stats().rebuilds, 0u);
    dc.clear();
    EXPECT_EQ(dc.size(), 0u);
    EXPECT_EQ(dc.stats().misses + dc.stats().hits, 0u);
  }
}

// -- lifecycle of the arena-built objects -------------------------------------------

// Every object the counting factory builds registers itself here on
// construction and must leave exactly once on destruction.
std::set<const void*>& live() {
  static std::set<const void*> objects;
  return objects;
}
void enter(const void* p) { EXPECT_TRUE(live().insert(p).second) << "built over a live object"; }
void leave(const void* p) { EXPECT_EQ(live().erase(p), 1u) << "destroyed twice"; }

struct CountingPayload final : Payload {
  CountingPayload() { enter(this); }
  ~CountingPayload() override { leave(this); }
};

class CountingOperand final : public regfile::Operand {
 public:
  CountingOperand() { enter(this); }
  ~CountingOperand() override { leave(this); }
  bool can_read() const override { return true; }
  bool can_read_in(regfile::PlaceId) const override { return false; }
  void read() override {}
  void read_in(regfile::PlaceId) override {}
  bool can_write() const override { return true; }
  void reserve_write() override {}
  void writeback() override {}
  void release() override {}
  regfile::Word peek() const override { return value_; }
  regfile::Word peek_in(regfile::PlaceId) const override { return value_; }
};

/// Objects the counting factory builds for encoding `raw`: a payload plus
/// 1 + raw % 6 operands, so encodings differ in decode size.
std::size_t objects_for(std::uint32_t raw) {
  return 2 + raw % core::InstructionToken::kMaxOps;
}

DecodeCache make_counting_cache() {
  return DecodeCache([](DecodeCache::Entry& e) {
    e.token.type = static_cast<core::TypeId>(e.raw & 0x7fff);
    e.token.payload = e.make<CountingPayload>();
    for (std::size_t i = 0; i + 1 < objects_for(e.raw); ++i)
      e.token.ops[i] = e.make<CountingOperand>();
  });
}

TEST(DecodeCacheLifecycle, EveryObjectIsDestroyedExactlyOnce) {
  live().clear();
  {
    DecodeCache dc = make_counting_cache();
    core::InstructionToken* a = dc.get(0x100, 0);
    dc.get(0x104, 5);
    EXPECT_EQ(live().size(), objects_for(0) + objects_for(5));

    a->in_flight = true;
    EXPECT_NE(dc.get(0x100, 0), a);  // clone
    EXPECT_EQ(live().size(), 2 * objects_for(0) + objects_for(5));

    dc.get(0x104, 1);  // SMC rebuild 5 -> 1 in place
    EXPECT_EQ(dc.stats().rebuilds, 1u);
    EXPECT_EQ(live().size(), 2 * objects_for(0) + objects_for(1));

    dc.reset_runtime();  // the clone goes; the in-flight head turns stale
    EXPECT_EQ(live().size(), objects_for(0) + objects_for(1));
    EXPECT_EQ(dc.get(0x100, 0), a);  // stale rebuild
    EXPECT_EQ(dc.stats().rebuilds, 2u);
    EXPECT_EQ(live().size(), objects_for(0) + objects_for(1));

    dc.clear();
    EXPECT_TRUE(live().empty());
    dc.get(0x200, 3);
    a = dc.get(0x204, 4);
    a->in_flight = true;
    dc.get(0x204, 4);  // a clone alive at destruction
    EXPECT_EQ(live().size(), objects_for(3) + 2 * objects_for(4));
  }
  EXPECT_TRUE(live().empty());
}

TEST(DecodeCacheLifecycle, ClearThenRedecodeReusesTheSameAddresses) {
  DecodeCache dc = make_counting_cache();
  std::vector<core::InstructionToken*> tokens;
  std::vector<regfile::Operand*> operands;
  for (std::uint32_t pc = 0; pc < 300; ++pc) {
    core::InstructionToken* t = dc.get(pc, pc);
    tokens.push_back(t);
    operands.push_back(t->ops[0]);
  }
  for (int load = 0; load < 3; ++load) {
    dc.clear();
    for (std::uint32_t pc = 0; pc < 300; ++pc) {
      core::InstructionToken* t = dc.get(pc, pc);
      ASSERT_EQ(t, tokens[pc]);
      ASSERT_EQ(t->ops[0], operands[pc]);
    }
    EXPECT_EQ(dc.stats().misses, 300u);
  }
}

// Storage stays bounded: after a warm-up, every token and operand handed out
// comes from the addresses the warm-up already saw.
struct AddressSet {
  std::set<const void*> tokens;
  std::set<const void*> operands;
  std::size_t frozen_tokens = 0;
  std::size_t frozen_operands = 0;
  void add(const core::InstructionToken* t) {
    tokens.insert(t);
    for (const regfile::Operand* o : t->ops)
      if (o != nullptr) operands.insert(o);
  }
  void freeze() {
    frozen_tokens = tokens.size();
    frozen_operands = operands.size();
  }
};

TEST(DecodeCacheLifecycle, BypassFetchesRecycleAFixedSetOfEntries) {
  DecodeCache dc = make_counting_cache();
  dc.set_bypass(true);
  std::deque<core::InstructionToken*> pipeline;  // eight tokens in flight
  AddressSet addrs;
  for (std::uint32_t i = 0; i < 100'000; ++i) {
    core::InstructionToken* t = dc.get(0x1000 + 4 * (i % 50), i % 7);
    ASSERT_FALSE(t->in_flight);
    ASSERT_EQ(t->type, static_cast<core::TypeId>(i % 7));
    t->in_flight = true;
    pipeline.push_back(t);
    if (pipeline.size() > 8) {
      pipeline.front()->in_flight = false;
      pipeline.pop_front();
    }
    addrs.add(t);
    if (i == 50'000) addrs.freeze();
  }
  EXPECT_EQ(addrs.tokens.size(), addrs.frozen_tokens);
  EXPECT_LE(addrs.tokens.size(), 4096u + 16u);
  // A recycled entry's block still grows (once per larger decode size) until
  // the entry has seen the largest decode, so operand addresses are bounded
  // per entry rather than frozen at the warm-up.
  EXPECT_LE(addrs.operands.size(),
            addrs.tokens.size() * 4 * core::InstructionToken::kMaxOps);
  EXPECT_LE(live().size(), addrs.tokens.size() * (1 + core::InstructionToken::kMaxOps));
  EXPECT_EQ(dc.stats().misses, 100'000u);
}

TEST(DecodeCacheLifecycle, SmcTogglesSettleInOneBlock) {
  DecodeCache dc = make_counting_cache();
  AddressSet addrs;
  for (int i = 0; i < 1000; ++i) {
    const std::uint32_t raw = i % 2 == 0 ? 6 : 5;  // 1 operand <-> 6 operands
    core::InstructionToken* t = dc.get(0x100, raw);
    ASSERT_EQ(t->type, static_cast<core::TypeId>(raw));
    addrs.add(t);
    if (i == 9) addrs.freeze();
  }
  EXPECT_EQ(addrs.tokens.size(), addrs.frozen_tokens);
  EXPECT_EQ(addrs.operands.size(), addrs.frozen_operands);
  EXPECT_EQ(dc.stats().rebuilds, 999u);
  EXPECT_EQ(live().size(), objects_for(5));
}

TEST(DecodeCacheLifecycle, InterruptedReloadsWithClonesInFlightStayBounded) {
  DecodeCache dc = make_counting_cache();
  AddressSet addrs;
  for (int reload = 0; reload < 1000; ++reload) {
    // A four-instruction loop fetched three times, stopped with every token
    // in flight: the second and third fetch of each pc are clones.
    for (int rep = 0; rep < 3; ++rep) {
      for (std::uint32_t pc = 0; pc < 4; ++pc) {
        core::InstructionToken* t = dc.get(4 * pc, pc + 1);
        ASSERT_FALSE(t->in_flight);
        ASSERT_EQ(t->type, static_cast<core::TypeId>(pc + 1));
        t->in_flight = true;
        addrs.add(t);
      }
    }
    if (reload % 3 == 2)
      dc.clear();
    else
      dc.reset_runtime();
    if (reload == 9) addrs.freeze();
  }
  EXPECT_EQ(addrs.tokens.size(), addrs.frozen_tokens);
  EXPECT_EQ(addrs.operands.size(), addrs.frozen_operands);
}

#ifdef RCPN_DECODE_ASAN
// Arena space and pooled tokens are poisoned when clear() rewinds them, so a
// pointer kept across clear() trips AddressSanitizer like freed heap memory.
void touch_after_clear(bool operand) {
  DecodeCache dc = make_counting_cache();
  core::InstructionToken* t = dc.get(0x100, 1);
  regfile::Operand* op = t->ops[0];
  dc.clear();
  volatile regfile::Word sink = operand ? op->value() : static_cast<regfile::Word>(t->type);
  (void)sink;
}

TEST(DecodeCacheDeathTest, PointerKeptAcrossClearIsReported) {
  ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
  EXPECT_DEATH(touch_after_clear(false), "use-after-poison");
  EXPECT_DEATH(touch_after_clear(true), "use-after-poison");
}
#endif

}  // namespace
}  // namespace rcpn::isa
