#include "isa/decoder.hpp"

#include <algorithm>

namespace rcpn::isa {

namespace {
constexpr std::size_t kFirstArenaChunk = 2 * 1024;
constexpr std::size_t kMaxArenaChunk = 64 * 1024;
constexpr std::size_t kFirstPoolChunk = 16;
constexpr std::size_t kMaxPoolChunk = 512;
constexpr unsigned kFirstTableBits = 6;
/// Bypass entries still listed as live before drained ones are recycled.
constexpr std::size_t kBypassSweep = 4096;

std::size_t pool_chunk_size(std::size_t i) {
  return i >= 5 ? kMaxPoolChunk : kFirstPoolChunk << i;
}
}  // namespace

// -- arena ------------------------------------------------------------------------

DecodeCache::Block* DecodeCache::Arena::open(std::uint32_t min_cap) {
  seal();
  const std::size_t bytes = sizeof(Block) + min_cap;
  if (static_cast<std::size_t>(end_ - head_) < bytes) next_chunk(bytes);
  detail::unpoison(head_, sizeof(Block));
  open_ = ::new (head_) Block{nullptr,
                              static_cast<std::uint32_t>(end_ - head_ - sizeof(Block)), 0};
  open_min_ = min_cap;
  return open_;
}

void DecodeCache::Arena::seal() {
  if (open_ == nullptr) return;
  open_->cap = std::max(open_->used, open_min_);
  head_ = open_->data() + open_->cap;
  open_ = nullptr;
}

void DecodeCache::Arena::next_chunk(std::size_t bytes) {
  // Reuse the chunks a rewind handed back, skipping any too small for this
  // block; past them, each new chunk doubles the last, up to the cap.
  while (next_ < chunks_.size() && chunks_[next_].bytes < bytes) ++next_;
  if (next_ == chunks_.size()) {
    const std::size_t grown = chunks_.empty()
                                  ? kFirstArenaChunk
                                  : std::min(2 * chunks_.back().bytes, kMaxArenaChunk);
    const std::size_t size = std::max<std::size_t>(grown, round_up(bytes));
    chunks_.push_back({std::make_unique<std::uint64_t[]>(size / 8), size});
    detail::poison(chunks_.back().mem.get(), size);
  }
  head_ = reinterpret_cast<std::byte*>(chunks_[next_].mem.get());
  end_ = head_ + chunks_[next_].bytes;
  ++next_;
}

void DecodeCache::Arena::rewind() {
  for (const Chunk& c : chunks_) detail::poison(c.mem.get(), c.bytes);
  next_ = 0;
  head_ = end_ = nullptr;
  open_ = nullptr;
}

void DecodeCache::Arena::unpoison_all() {
  for (const Chunk& c : chunks_) detail::unpoison(c.mem.get(), c.bytes);
}

// -- entries ----------------------------------------------------------------------

void DecodeCache::Entry::grow(std::uint32_t need) {
  Block* b = cache_->arena_.open(need);
  b->prev = block_;
  block_ = b;
}

void DecodeCache::Entry::destroy_objects() {
  std::uint32_t total = 0;
  for (Block* b = block_; b != nullptr; b = b->prev) {
    for (std::uint32_t off = 0; off < b->used;) {
      auto* h = reinterpret_cast<ObjHeader*>(b->data() + off);
      off += h->type->size;
      h->type->destroy(h + 1);
    }
    total += b->used;
    detail::poison(b->data(), b->used);
    b->used = 0;
  }
  peak_ = std::max(peak_, total);
}

DecodeCache::Entry* DecodeCache::vacant() {
  static Entry v = [] {
    Entry e;
    e.token.in_flight = true;
    return e;
  }();
  return &v;
}

template <typename Fn>
void DecodeCache::for_each_handed_out(Fn&& fn) {
  for (std::size_t c = 0; c < pool_.size() && c <= pool_chunk_; ++c) {
    const std::size_t n = c < pool_chunk_ ? pool_chunk_size(c) : pool_used_;
    for (std::size_t i = 0; i < n; ++i) fn(pool_[c][i]);
  }
}

DecodeCache::Entry* DecodeCache::take_entry() {
  Entry* e = free_;
  if (e != nullptr) {
    free_ = e->next_;
  } else {
    if (pool_chunk_ < pool_.size() && pool_used_ == pool_chunk_size(pool_chunk_)) {
      ++pool_chunk_;
      pool_used_ = 0;
    }
    if (pool_chunk_ == pool_.size()) {
      const std::size_t n = pool_chunk_size(pool_chunk_);
      pool_.push_back(std::unique_ptr<Entry[]>(new Entry[n]));
      for (std::size_t i = 0; i < n; ++i) {
        pool_.back()[i].cache_ = this;
        detail::poison(&pool_.back()[i].token, sizeof(core::InstructionToken));
      }
    }
    e = &pool_[pool_chunk_][pool_used_++];
  }
  detail::unpoison(&e->token, sizeof(core::InstructionToken));
  e->next_ = nullptr;
  return e;
}

void DecodeCache::release(Entry* e) {
  e->destroy_objects();
  detail::poison(&e->token, sizeof(core::InstructionToken));
  e->next_ = free_;
  free_ = e;
}

DecodeCache::Entry* DecodeCache::build_entry(Entry* e, std::uint32_t pc,
                                             std::uint32_t raw) {
  e->destroy_objects();
  if (e->block_ != nullptr && e->block_->prev != nullptr) {
    // An earlier decode outgrew the block and chained more: fold the chain
    // into one block of the largest size seen, so toggling between a small
    // and a large decode settles instead of chaining on every rebuild.
    for (Block* b = e->block_; b != nullptr;) {
      Block* prev = b->prev;
      detail::poison(b, sizeof(Block) + b->cap);
      b = prev;
    }
    e->block_ = arena_.open(e->peak_);
  }
  e->pc = pc;
  e->raw = raw;
  e->stale_ = false;
  e->token = core::InstructionToken{};
  e->token.pc = pc;
  e->token.raw = raw;
  // Seal the open block even if the factory throws, so the next build
  // starts from a consistent arena.
  struct Seal {
    Arena& a;
    ~Seal() { a.seal(); }
  } seal{arena_};
  factory_(*e);
  return e;
}

// -- pc table ---------------------------------------------------------------------

DecodeCache::Slot* DecodeCache::find(std::uint32_t pc) {
  const std::size_t mask = capacity() - 1;
  for (std::size_t i = home(pc);; i = (i + 1) & mask) {
    Slot* s = &slots_[i];
    if (s->entry == vacant() || s->pc == pc) return s;
  }
}

void DecodeCache::grow_table() {
  const unsigned bits = table_ == nullptr ? kFirstTableBits : bits_ + 1;
  const std::size_t old_cap = table_ == nullptr ? 0 : capacity();
  std::unique_ptr<Slot[]> old = std::move(table_);
  table_ = std::make_unique<Slot[]>(std::size_t{1} << bits);
  std::fill_n(table_.get(), std::size_t{1} << bits, Slot{kVacantPc, 0, vacant()});
  slots_ = table_.get();
  bits_ = bits;
  for (std::size_t i = 0; i < old_cap; ++i)
    if (old[i].entry != vacant()) *find(old[i].pc) = old[i];
}

// -- lookup -----------------------------------------------------------------------

core::InstructionToken* DecodeCache::get_slow(std::uint32_t pc, std::uint32_t raw) {
  if (bypass_) return get_bypass(pc, raw);

  Slot* slot = find(pc);
  if (slot->entry == vacant()) {
    ++stats_.misses;
    if (table_ == nullptr || 2 * (count_ + 1) > capacity()) {
      grow_table();
      slot = find(pc);
    }
    Entry* e = build_entry(take_entry(), pc, raw);
    *slot = Slot{pc, raw, e};
    ++count_;
    return &e->token;
  }

  // Walk the clone chain for a token that is not in flight (a stale head
  // counts as free: its in-flight flag is left over from an interrupted run).
  // A free entry decoded from another encoding — self-modifying code, or a
  // clone made before the write — is rebuilt in place; an in-flight one is
  // never touched.
  Entry* head = slot->entry;
  for (Entry* cur = head;; cur = cur->next_) {
    if (cur->stale_ || !cur->token.in_flight) {
      if (cur->stale_ || cur->raw != raw) {
        ++stats_.rebuilds;
        build_entry(cur, pc, raw);
        if (cur == head) slot->raw = raw;
        return &cur->token;
      }
      ++stats_.hits;
      cur->token.reset_dynamic();
      cur->token.pc = pc;
      return &cur->token;
    }
    if (cur->next_ == nullptr) {
      ++stats_.clones;
      cur->next_ = build_entry(take_entry(), pc, raw);
      return &cur->next_->token;
    }
  }
}

core::InstructionToken* DecodeCache::get_bypass(std::uint32_t pc, std::uint32_t raw) {
  // Ablation: decode and bind from scratch on every fetch. Entries that may
  // still be in flight stay on the live list; once it is long, the drained
  // ones go back to the free list (blocks kept) *before* the next build — the
  // fresh entry's token is not marked in flight until emit_instruction.
  if (bypass_count_ > kBypassSweep) {
    Entry** link = &bypass_live_;
    while (Entry* e = *link) {
      if (e->token.in_flight) {
        link = &e->next_;
      } else {
        *link = e->next_;
        release(e);
        --bypass_count_;
      }
    }
  }
  ++stats_.misses;
  Entry* e = build_entry(take_entry(), pc, raw);
  e->next_ = bypass_live_;
  bypass_live_ = e;
  ++bypass_count_;
  return &e->token;
}

// -- reset ------------------------------------------------------------------------

void DecodeCache::clear() {
  for_each_handed_out([](Entry& e) {
    e.destroy_objects();
    e.block_ = nullptr;
    e.next_ = nullptr;
    e.peak_ = 0;
    e.stale_ = false;
    detail::poison(&e.token, sizeof(core::InstructionToken));
  });
  pool_chunk_ = pool_used_ = 0;
  free_ = bypass_live_ = nullptr;
  bypass_count_ = 0;
  arena_.rewind();
  if (table_ != nullptr) std::fill_n(slots_, capacity(), Slot{kVacantPc, 0, vacant()});
  count_ = 0;
  stats_ = Stats{};
}

void DecodeCache::reset_runtime() {
  if (table_ != nullptr) {
    for (std::size_t i = 0, n = capacity(); i < n; ++i) {
      Entry* head = slots_[i].entry;
      if (head == vacant()) continue;
      // Clones exist only for in-flight collisions; after an engine reset no
      // token is legitimately in flight, so the chains are dead weight.
      for (Entry* c = head->next_; c != nullptr;) {
        Entry* next = c->next_;
        release(c);
        c = next;
      }
      head->next_ = nullptr;
      if (head->token.in_flight)
        head->stale_ = true;
      else
        head->token.reset_dynamic();
    }
  }
  for (Entry* e = bypass_live_; e != nullptr;) {
    Entry* next = e->next_;
    release(e);
    e = next;
  }
  bypass_live_ = nullptr;
  bypass_count_ = 0;
}

DecodeCache::~DecodeCache() {
  for_each_handed_out([](Entry& e) { e.destroy_objects(); });
  // Hand the storage back to the allocator addressable.
  arena_.unpoison_all();
  for (std::size_t c = 0; c < pool_.size(); ++c)
    detail::unpoison(pool_[c].get(), pool_chunk_size(c) * sizeof(Entry));
}

}  // namespace rcpn::isa
