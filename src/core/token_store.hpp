// TokenStore: per-stage structure-of-arrays token storage, plus the dense
// chunked arenas the engine's token pools recycle from.
//
// The paper's speed argument (§4) is that the generated simulator performs no
// dynamic discovery in the hot loop. The last discovery left after the PR-2
// lowering pass was *token* discovery: every Process(place) scanned a
// std::vector<Token*> and dereferenced each heap token just to test
// (place, kind, ready) — three fields scattered across a ~160-byte
// InstructionToken. This class splits exactly those filter fields into
// parallel arrays maintained alongside the pointer list:
//
//   ptrs[i]   the token itself (only touched once a slot passes the filter)
//   keys[i]   place | kind<<16, packed so one 32-bit compare tests both
//   ready[i]  first cycle output transitions may consume the slot
//
// Slots are age-ordered (insertion order), matching the firing order the
// interpreted engine established, so every backend sees identical semantics
// by construction: this *is* the storage — there is no mirror to drift. The
// fields are written on insert and never change while a token resides in a
// stage (place/ready are only mutated after removal; kind is immutable), so
// no coherence protocol is needed. A second lane implements the two-list
// (master/slave) incoming buffer.
//
// Both lanes are fixed-slot: the store is born with `capacity` slots per lane
// (the owning stage's capacity, which bounds visible + incoming together), in
// one allocation made when the stage is constructed, and never grows. Insert
// is three stores and an increment; erase shifts the younger slots down in
// place, which on the capacity-1 latches that dominate in-order pipelines is
// a single decrement. Every operation is inline, so a latch-to-latch firing
// in any backend compiles to straight-line code with no call into the core.
// The store itself does not check for room: PipelineStage::insert does, with
// one compare against the capacity, and throws StageOverflowError.
#pragma once

#include <algorithm>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "core/token.hpp"

namespace rcpn::core {

class TokenStore {
 public:
  /// Packed (place, kind) filter key: one compare replaces two field loads
  /// from the token. Tokens resident in a stage always have place >= 0.
  using Key = std::uint32_t;
  static constexpr Key key(PlaceId place, TokenKind kind) {
    return static_cast<Key>(static_cast<std::uint16_t>(place)) |
           (static_cast<Key>(static_cast<std::uint8_t>(kind)) << 16);
  }

  /// A store with `capacity` slots in each lane (0: no storage at all — the
  /// virtual end stage, where tokens retire on entry).
  explicit TokenStore(std::uint32_t capacity) : cap_(capacity) {
    if (capacity == 0) return;
    // One allocation: the four 8-byte arrays first, then the two key arrays,
    // so every array is naturally aligned whatever the capacity.
    const std::size_t n = capacity;
    mem_ = std::make_unique_for_overwrite<std::byte[]>(
        2 * n * (sizeof(Token*) + sizeof(Cycle) + sizeof(Key)));
    vis_.ptrs = reinterpret_cast<Token**>(mem_.get());
    in_.ptrs = vis_.ptrs + n;
    vis_.ready = reinterpret_cast<Cycle*>(in_.ptrs + n);
    in_.ready = vis_.ready + n;
    vis_.keys = reinterpret_cast<Key*>(in_.ready + n);
    in_.keys = vis_.keys + n;
  }

  /// Slots per lane.
  std::uint32_t capacity() const { return cap_; }

  // -- visible slots (age order) ----------------------------------------------
  std::size_t size() const { return vis_.n; }
  bool empty() const { return vis_.n == 0; }
  std::span<Token* const> ptrs() const { return {vis_.ptrs, vis_.n}; }
  Token* at(std::size_t i) const { return vis_.ptrs[i]; }
  /// Raw SoA views for filter scans (compiled hot loop).
  const Key* keys() const { return vis_.keys; }
  const Cycle* ready() const { return vis_.ready; }

  // -- incoming buffer (two-list stages) --------------------------------------
  std::size_t incoming_size() const { return in_.n; }
  std::span<Token* const> incoming_ptrs() const { return {in_.ptrs, in_.n}; }

  std::size_t occupancy() const { return vis_.n + in_.n; }

  /// Record `t` with its current (place, kind, ready) — callers set those
  /// fields before insertion (Engine::enter_place) and never mutate them
  /// while the token resides here. The caller guarantees a free slot.
  void insert_visible(Token* t) { vis_.push(t, key(t->place, t->kind), t->ready); }
  void insert_incoming(Token* t) { in_.push(t, key(t->place, t->kind), t->ready); }

  /// Remove a visible token, preserving age order; false if absent.
  bool remove_visible(Token* t) { return vis_.remove(t); }
  /// Same, but with the caller's best guess of the slot index (the compiled
  /// scan loop knows where it saw the token). A correct hint removes without
  /// searching; a stale one (earlier removals, flush actions) falls back to
  /// the linear find, so the hint is never trusted for correctness.
  bool remove_visible_at(std::size_t hint, Token* t) {
    if (hint < vis_.n && vis_.ptrs[hint] == t) {
      // Pointer equality is only a sufficient check if `t` occupies a single
      // slot: a double insertion would make a stale hint erase the *wrong
      // age* copy, silently reordering the store. Engine semantics forbid
      // double residency, so enforce it where the hint shortcut relies on it.
      assert(std::count(vis_.ptrs, vis_.ptrs + vis_.n, t) == 1);
      vis_.erase(hint);
      return true;
    }
    return vis_.remove(t);
  }
  /// Remove from either list (flush path); false if absent.
  bool remove_any(Token* t) { return vis_.remove(t) || in_.remove(t); }

  /// Make tokens written during the previous cycle visible and publish their
  /// pipeline state (InstructionToken::state) for hazard queries.
  void promote() {
    for (std::uint32_t i = 0; i < in_.n; ++i) {
      Token* t = in_.ptrs[i];
      vis_.push(t, in_.keys[i], in_.ready[i]);
      if (t->kind == TokenKind::instruction)
        static_cast<InstructionToken*>(t)->state = t->place;
    }
    in_.n = 0;
  }

  /// Drop every token, visible first then incoming (the established squash
  /// order); invokes `fn(token)` for each.
  template <typename Fn>
  void clear(Fn&& fn) {
    for (Token* t : ptrs()) fn(t);
    for (Token* t : incoming_ptrs()) fn(t);
    vis_.n = 0;
    in_.n = 0;
  }

 private:
  /// One age-ordered lane: `capacity` slots of each array, `n` in use.
  struct Lane {
    Token** ptrs = nullptr;
    Key* keys = nullptr;
    Cycle* ready = nullptr;
    std::uint32_t n = 0;

    void push(Token* t, Key k, Cycle r) {
      ptrs[n] = t;
      keys[n] = k;
      ready[n] = r;
      ++n;
    }
    void erase(std::size_t i) {
      --n;
      for (std::size_t j = i; j < n; ++j) {
        ptrs[j] = ptrs[j + 1];
        keys[j] = keys[j + 1];
        ready[j] = ready[j + 1];
      }
    }
    bool remove(Token* t) {
      for (std::size_t i = 0; i < n; ++i) {
        if (ptrs[i] == t) {
          erase(i);
          return true;
        }
      }
      return false;
    }
  };

  /// Both lanes point into this buffer; the implicit moves carry the buffer
  /// and the pointers along together.
  std::unique_ptr<std::byte[]> mem_;
  Lane vis_;
  Lane in_;
  std::uint32_t cap_ = 0;
};

/// Dense chunked token arena: contiguous blocks instead of one heap object
/// per token (the old vector<unique_ptr<T>> pools), so recycled tokens of the
/// same pool share cache lines. Pointers are stable for the arena's lifetime;
/// the engine's free lists hand slots back out LIFO, exactly as before.
template <typename T>
class TokenArena {
 public:
  T* allocate() {
    if (chunks_.empty() || chunks_.back().used == chunks_.back().cap) grow(0);
    Chunk& c = chunks_.back();
    return &c.data[c.used++];
  }

  /// Ensure at least `n` more slots exist without further allocation.
  /// allocate() only serves from the newest chunk, so when the current one
  /// cannot cover `n` a fresh chunk of at least `n` is opened (the old
  /// chunk's tail stays owned-but-unused; reserve is a pre-warm call, not a
  /// steady-state one).
  void reserve(std::size_t n) {
    const std::size_t spare =
        chunks_.empty() ? 0 : chunks_.back().cap - chunks_.back().used;
    if (spare < n) grow(n);
  }

  std::size_t allocated() const {
    std::size_t n = 0;
    for (const Chunk& c : chunks_) n += c.used;
    return n;
  }

 private:
  struct Chunk {
    std::unique_ptr<T[]> data;
    std::size_t cap = 0;
    std::size_t used = 0;
  };

  void grow(std::size_t at_least) {
    std::size_t cap = chunks_.empty() ? 64 : chunks_.back().cap * 2;
    if (cap < at_least) cap = at_least;
    chunks_.push_back(Chunk{std::make_unique<T[]>(cap), cap, 0});
  }

  std::vector<Chunk> chunks_;
};

}  // namespace rcpn::core
