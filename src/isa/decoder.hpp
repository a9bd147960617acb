// Decode cache: decode-once, token-cached instruction instances.
//
// This implements two of the paper's three §5 speedup ingredients:
//  * "when an instruction token is generated, the corresponding instruction
//    is decoded and stored in the token … we do not need to re-decode the
//    instruction in different pipeline stages";
//  * "the tokens are cached for later reuse in the simulator" — a static
//    instruction keeps its fully-bound token (operands already pointing at
//    RegRefs/Consts, sub-net already selected via token.type) across dynamic
//    executions. If the same static instruction is in flight more than once
//    (tight loop shorter than the pipeline), the cache transparently chains
//    clones.
//
// Storage model. A decode miss in steady state touches no general heap:
//  * Entries (token + bookkeeping) live in a chunked pool owned by the cache
//    (chunks of 16 entries, doubling up to 512). A free list takes back the
//    clones reset_runtime() drops and the drained entries of the bypass mode.
//  * The factory builds an entry's operands and payload with
//    Entry::make<T>(args...) into the entry's block, carved from a per-cache
//    bump arena (chunks of 2 KiB, doubling up to 64 KiB). A fresh entry's
//    block is sized by its first decode. An entry keeps its block when it is
//    rebuilt (self-modifying code, stale) or recycled from the free list; a
//    decode that outgrows it chains one more block, and the next rebuild
//    folds the chain into a single block of the largest size seen. Storage
//    per entry is therefore bounded by its largest decode.
//  * One open-addressed table maps pc -> {raw, Entry*} with linear probing.
//    Its index spreads byte pcs (ARM, stride 4) and instruction-index pcs
//    (Fig5/Tomasulo, stride 1) alike while keeping neighbouring pcs in
//    neighbouring slots (see home()). A hit is one slot load plus the
//    entry's in-flight flag.
//  * clear() runs every object's destructor, then rewinds the pool, the
//    arena and the table without freeing anything: re-decoding the same pcs
//    in the same order hands out the same token addresses. The constructor
//    allocates nothing; the first lookup does.
//
// Why the ARM models keep their entries across a program reload
// (reset_runtime()) while Fig5 and Tomasulo throw them away (clear()): an
// entry is reused only while its (pc, raw) matches. The ARM fetch passes the
// real encoding read from memory, so a reloaded program that changed an
// instruction rebuilds it. Fig5 and Tomasulo fetch from an instruction
// vector and pass raw = 0 for every instruction, so a kept entry could not
// tell a changed program from the old one.
//
// Under AddressSanitizer, rewound and recycled storage (arena bytes, pooled
// tokens) is poisoned until it is handed out again, so a token or operand
// pointer kept across clear() is reported (use-after-poison) just as the
// freed heap memory of a per-entry allocation would be.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <new>
#include <utility>
#include <vector>

#include "core/token.hpp"
#include "isa/operation_class.hpp"
#include "regfile/operand.hpp"

#if defined(__SANITIZE_ADDRESS__)
#define RCPN_DECODE_ASAN 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define RCPN_DECODE_ASAN 1
#endif
#endif
#ifdef RCPN_DECODE_ASAN
#include <sanitizer/asan_interface.h>
#endif

namespace rcpn::isa {

namespace detail {
/// Mark recycled decode storage unaddressable (ASan builds only).
inline void poison(const void* p, std::size_t n) {
#ifdef RCPN_DECODE_ASAN
  ASAN_POISON_MEMORY_REGION(p, n);
#else
  (void)p;
  (void)n;
#endif
}
inline void unpoison(const void* p, std::size_t n) {
#ifdef RCPN_DECODE_ASAN
  ASAN_UNPOISON_MEMORY_REGION(p, n);
#else
  (void)p;
  (void)n;
#endif
}
}  // namespace detail

class DecodeCache {
  /// Arena granule: every block and object starts on it.
  static constexpr std::uint32_t kAlign = 8;
  static constexpr std::uint32_t round_up(std::size_t n) {
    return static_cast<std::uint32_t>((n + kAlign - 1) & ~std::size_t{kAlign - 1});
  }

  /// Header of one run of arena storage owned by an entry; the entry's
  /// objects follow it back to back.
  struct Block {
    Block* prev;         // older block of the same entry (after an overflow)
    std::uint32_t cap;   // bytes after the header
    std::uint32_t used;  // bytes holding objects
    std::byte* data() { return reinterpret_cast<std::byte*>(this + 1); }
  };
  /// Per-type record every object header points at: how to destroy the
  /// object and how far to step to the next one.
  struct ObjType {
    void (*destroy)(void*);
    std::uint32_t size;  // header + object, rounded up to kAlign
  };
  struct ObjHeader {
    const ObjType* type;
  };
  template <typename T>
  static void destroy_as(void* p) {
    static_cast<T*>(p)->~T();
  }
  template <typename T>
  static constexpr ObjType kObjType{&destroy_as<T>,
                                    round_up(sizeof(ObjHeader) + sizeof(T))};

 public:
  class Entry {
   public:
    core::InstructionToken token;
    std::uint32_t pc = 0;
    std::uint32_t raw = 0;

    /// Construct the operand or payload object a factory binds into the
    /// token. It lives in this entry's block until the entry is rebuilt,
    /// recycled, or the cache is cleared or destroyed.
    template <typename T, typename... Args>
    T* make(Args&&... args) {
      static_assert(alignof(T) <= kAlign, "decode objects are 8-byte aligned");
      constexpr std::uint32_t need = kObjType<T>.size;
      if (block_ == nullptr || block_->cap - block_->used < need) grow(need);
      std::byte* p = block_->data() + block_->used;
      detail::unpoison(p, need);
      T* obj = ::new (p + sizeof(ObjHeader)) T(std::forward<Args>(args)...);
      ::new (p) ObjHeader{&kObjType<T>};
      block_->used += need;
      return obj;
    }

   private:
    friend class DecodeCache;
    Entry() = default;  // entries exist only in a cache's pool
    /// Chain a new arena block of at least `need` bytes.
    void grow(std::uint32_t need);
    /// Run the destructor of every object in the block chain and empty it.
    void destroy_objects();

    DecodeCache* cache_ = nullptr;
    Block* block_ = nullptr;
    /// Clone chain (table head), free list or bypass list link.
    Entry* next_ = nullptr;
    /// Largest number of object bytes one decode of this entry has needed.
    std::uint32_t peak_ = 0;
    /// Set by reset_runtime() for an entry whose token was in flight when the
    /// previous run stopped: its operands may hold reservations into machine
    /// state that was since torn down, so it is rebuilt on its next lookup.
    /// Its token keeps in_flight set, which sends the hit path to get_slow.
    bool stale_ = false;
  };

  /// Fills a fresh entry: sets token.type/payload and binds the operand
  /// slots, building each object with Entry::make. token.pc/raw are pre-set
  /// by the cache.
  using Factory = std::function<void(Entry&)>;

  struct Stats {
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t clones = 0;
    std::uint64_t rebuilds = 0;
  };

  explicit DecodeCache(Factory factory) : factory_(std::move(factory)) {}
  ~DecodeCache();
  /// Table slots and entries point into the cache itself.
  DecodeCache(const DecodeCache&) = delete;
  DecodeCache& operator=(const DecodeCache&) = delete;

  /// Get a ready-to-issue token for the instruction at `pc` with encoding
  /// `raw`. Never returns a token that is still in flight. The steady-state
  /// (loop) lookup is the pc's home slot and the entry's in-flight flag.
  core::InstructionToken* get(std::uint32_t pc, std::uint32_t raw) {
    if (!bypass_) {
      // The SMC raw-check compares against the slot's own copy of the head
      // entry's encoding, so the hit touches the entry exactly once (the
      // in-flight check). A vacant slot points at vacant(), which is always
      // "in flight".
      const Slot& slot = slots_[home(pc)];
      if (slot.pc == pc && slot.raw == raw && !slot.entry->token.in_flight) {
        ++stats_.hits;
        slot.entry->token.reset_dynamic();
        slot.entry->token.pc = pc;
        return &slot.entry->token;
      }
    }
    return get_slow(pc, raw);
  }

  /// Ablation hook (bench_ablation_decode): bypass the cache entirely —
  /// every fetch re-decodes and re-binds as if tokens were not cached.
  void set_bypass(bool v) { bypass_ = v; }

  const Stats& stats() const { return stats_; }
  /// Number of distinct pcs decoded since the last clear().
  std::size_t size() const { return count_; }
  /// Throw all decode work away (see the header comment for who calls it).
  void clear();

  /// Program-reload reset that *keeps* the decoded entries (clear() throws
  /// all decode work away): returns clones and bypass entries to the free
  /// list and resets every head token's dynamic state. Heads whose token was
  /// still in flight are marked stale and rebuilt on next use. Stats are
  /// preserved (they span reloads).
  void reset_runtime();

 private:
  struct Slot {
    std::uint32_t pc;
    /// Copy of the head entry's raw: the hit path's SMC check without
    /// dereferencing the entry. A memory write at `pc` makes the fetched raw
    /// differ, falling through to get_slow's rebuild.
    std::uint32_t raw;
    Entry* entry;  // vacant() when the slot is empty
  };

  /// Chunked bump allocator for entry blocks. One block at a time is open:
  /// it runs to the end of the current chunk while a factory builds into it,
  /// and seal() trims it to what the build used.
  class Arena {
   public:
    /// Open a block of at least `min_cap` bytes at the arena head, sealing
    /// the block open before it.
    Block* open(std::uint32_t min_cap);
    /// Fix the open block's size at max(bytes used, its min_cap).
    void seal();
    /// Hand the whole arena out again from its first chunk (nothing freed).
    void rewind();
    void unpoison_all();

   private:
    void next_chunk(std::size_t bytes);
    struct Chunk {
      std::unique_ptr<std::uint64_t[]> mem;
      std::size_t bytes;
    };
    std::vector<Chunk> chunks_;
    std::size_t next_ = 0;  // index of the next chunk to hand out
    std::byte* head_ = nullptr;
    std::byte* end_ = nullptr;
    Block* open_ = nullptr;
    std::uint32_t open_min_ = 0;
  };

  static constexpr std::uint32_t kVacantPc = 0xffff'ffff;
  /// Home slot of `pc`. A run of byte pcs (ARM, stride 4) lands in
  /// consecutive slots, as pc >> 2 would place it; the two low pc bits are
  /// folded into the top of the index, so instruction-index pcs (Fig5 and
  /// Tomasulo, stride 1) fill four interleaved runs instead of sharing slots.
  /// Consecutive slots keep a loop's lookups on few cache lines; a
  /// multiplicative hash that scattered them ran the ARM loops slower.
  std::size_t home(std::uint32_t pc) const {
    return ((pc >> 2) ^ (pc << (bits_ - 2))) & (capacity() - 1);
  }
  std::size_t capacity() const { return std::size_t{1} << bits_; }
  /// The slot holding `pc`, or the vacant slot where it belongs.
  Slot* find(std::uint32_t pc);
  void grow_table();

  Entry* take_entry();
  void release(Entry* e);
  Entry* build_entry(Entry* e, std::uint32_t pc, std::uint32_t raw);
  core::InstructionToken* get_slow(std::uint32_t pc, std::uint32_t raw);
  core::InstructionToken* get_bypass(std::uint32_t pc, std::uint32_t raw);
  template <typename Fn>
  void for_each_handed_out(Fn&& fn);

  /// Target of every vacant slot; its token is permanently "in flight".
  static Entry* vacant();

  Factory factory_;
  // pc table. Until the first insert it is the four vacant inline slots.
  Slot inline_slots_[4] = {{kVacantPc, 0, vacant()},
                           {kVacantPc, 0, vacant()},
                           {kVacantPc, 0, vacant()},
                           {kVacantPc, 0, vacant()}};
  Slot* slots_ = inline_slots_;
  std::unique_ptr<Slot[]> table_;
  unsigned bits_ = 2;  // log2(capacity), at least 2 (see home())
  std::size_t count_ = 0;

  // Entry pool: chunk i holds min(16 << i, 512) entries.
  std::vector<std::unique_ptr<Entry[]>> pool_;
  std::size_t pool_chunk_ = 0;  // chunk the next fresh entry comes from
  std::size_t pool_used_ = 0;   // entries handed out of that chunk
  Entry* free_ = nullptr;
  Entry* bypass_live_ = nullptr;
  std::size_t bypass_count_ = 0;

  Arena arena_;
  Stats stats_;
  bool bypass_ = false;
};

}  // namespace rcpn::isa
