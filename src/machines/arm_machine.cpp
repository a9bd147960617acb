#include "machines/arm_machine.hpp"

#include <cassert>

#include "desc/delegate_registry.hpp"

namespace rcpn::machines {

using arm::Cond;
using arm::DecodedInstruction;
using arm::OpClass;
using core::FireCtx;
using core::InstructionToken;
using isa::kSlotDst;
using isa::kSlotFlags;
using isa::kSlotSrc1;
using isa::kSlotSrc2;
using isa::kSlotSrc3;
using regfile::ConstOperand;
using regfile::Operand;
using regfile::RegRef;

namespace {

constexpr std::uint32_t kNzcvMask =
    arm::kFlagN | arm::kFlagZ | arm::kFlagC | arm::kFlagV;

/// Does this load/store write its base register back?
bool ls_base_writeback(const DecodedInstruction& d) {
  return !d.pre_index || d.writeback;
}

/// LDM with the base in the register list suppresses the base writeback
/// (the loaded value wins) — mirrored in the ISS.
bool lsm_base_writeback(const DecodedInstruction& d) {
  if (!d.writeback) return false;
  if (d.is_load && (d.reg_list & (1u << d.rn))) return false;
  return true;
}

// Direct RegRef hazard helpers (RegRef is final: these devirtualize).
bool ref_ready(const RegRef* r, std::span<const core::PlaceId> fwd) {
  if (r->can_read()) return true;
  for (core::PlaceId p : fwd)
    if (r->can_read_in(p)) return true;
  return false;
}

std::uint32_t ref_peek(const RegRef* r, std::span<const core::PlaceId> fwd) {
  if (r->can_read()) return r->peek();
  for (core::PlaceId p : fwd)
    if (r->can_read_in(p)) return r->peek_in(p);
  assert(false && "ref_peek without ref_ready");
  return 0;
}

void ref_fetch(RegRef* r, std::span<const core::PlaceId> fwd) {
  if (r->can_read()) {
    r->read();
    return;
  }
  for (core::PlaceId p : fwd) {
    if (r->can_read_in(p)) {
      r->read_in(p);
      return;
    }
  }
  assert(false && "ref_fetch without ref_ready");
}

bool drained(const PipeEnv& env, core::Engine& eng) {
  for (core::PlaceId p : env.drain)
    if (eng.tokens_in_place(p) != 0) return false;
  return true;
}

}  // namespace

bool operand_ready(const Operand* op, std::span<const core::PlaceId> fwd) {
  if (op->can_read()) return true;
  for (core::PlaceId p : fwd)
    if (op->can_read_in(p)) return true;
  return false;
}

// ---------------------------------------------------------------------------
// Machine context & decode binding
// ---------------------------------------------------------------------------

ArmMachine::ArmMachine(const Config& config)
    : rf(arm::kNumCells, config.policy),
      mem(config.mem),
      dcache([this](isa::DecodeCache::Entry& e) { bind(e); }) {
  rf.add_identity_registers(arm::kNumRegs);
  rf.add_register("cpsr", arm::kCpsrCell);
}

void ArmMachine::load_program(const sys::Program& program) {
  rf.reset();
  mem.memory().clear();
  mem.reset_timing();
  program.load_into(mem.memory());
  rf.write_cell(arm::kRegSp, program.initial_sp);
  pc = program.entry;
  sys.reset();
  // Keep decoded entries across reloads (paper §5: decode once, cache the
  // token): a changed encoding at a pc rebuilds via the raw check, and
  // entries whose token was mid-flight when the previous run stopped are
  // rebuilt via the stale flag. Only the dynamic state resets here.
  dcache.reset_runtime();
  if (bp) bp->reset();
  nullified_count = mispredicts = taken_branches = 0;
}

void ArmMachine::bind(isa::DecodeCache::Entry& e) {
  ArmPayload* pl = e.make<ArmPayload>();
  pl->d = arm::decode(e.raw, e.pc);
  const DecodedInstruction& d = pl->d;
  InstructionToken& t = e.token;
  t.type = static_cast<core::TypeId>(d.cls);

  const core::PlaceId* owner = &t.state;
  auto make_regref = [&](unsigned r) -> RegRef* {
    RegRef* ref = e.make<RegRef>();
    ref->bind(&rf, static_cast<regfile::RegisterId>(r), owner);
    return ref;
  };
  auto make_const = [&](std::uint32_t v) -> Operand* {
    return e.make<ConstOperand>(v);
  };
  auto add_read = [&](RegRef* r) {
    assert(pl->n_reads < 4);
    pl->reads[pl->n_reads++] = r;
  };
  auto add_reserve = [&](RegRef* r) {
    assert(pl->n_reserves < 4);
    pl->reserves[pl->n_reserves++] = r;
  };
  // Register symbol -> RegRef (tracked in the issue plan); the architectural
  // pc reads as a decode-time constant (pc + 8) — per-instance partial
  // evaluation.
  auto src_operand = [&](std::uint8_t r) -> Operand* {
    if (r >= arm::kNumRegs) return make_const(0);
    if (r == arm::kRegPc) return make_const(e.pc + 8);
    RegRef* ref = make_regref(r);
    add_read(ref);
    return ref;
  };

  RegRef* flags = make_regref(arm::kCpsrCell);
  t.ops[kSlotFlags] = flags;
  t.ops[kSlotDst] = make_const(0);
  t.ops[kSlotSrc1] = make_const(0);
  t.ops[kSlotSrc2] = make_const(0);
  t.ops[kSlotSrc3] = make_const(0);

  pl->flags_ref = flags;
  pl->check_cond = d.cond != Cond::al;
  const bool rrx_offset = d.cls == OpClass::load_store && d.reg_offset &&
                          d.shift == arm::ShiftKind::rrx;
  pl->write_flags = d.sets_flags && d.cls != OpClass::swi;
  pl->read_flags =
      pl->check_cond || d.reads_carry() || rrx_offset || pl->write_flags;

  switch (d.cls) {
    case OpClass::data_proc: {
      if (d.writes_rd()) {
        RegRef* dst = make_regref(d.rd);
        t.ops[kSlotDst] = dst;
        add_reserve(dst);
      }
      t.ops[kSlotSrc1] = src_operand(d.rn);
      t.ops[kSlotSrc2] = d.imm_operand ? make_const(d.imm) : src_operand(d.rm);
      if (d.shift_by_reg) t.ops[kSlotSrc3] = src_operand(d.rs);
      break;
    }
    case OpClass::multiply: {
      RegRef* dst = make_regref(d.rd);
      t.ops[kSlotDst] = dst;
      add_reserve(dst);
      if (d.accumulate) t.ops[kSlotSrc1] = src_operand(d.rn);
      t.ops[kSlotSrc2] = src_operand(d.rm);
      t.ops[kSlotSrc3] = src_operand(d.rs);
      break;
    }
    case OpClass::load_store: {
      pl->has_pc = d.is_load && d.rd == arm::kRegPc;
      pl->base_wb_static = ls_base_writeback(d);
      if (d.is_load) {
        if (!pl->has_pc) {
          RegRef* dst = make_regref(d.rd);
          t.ops[kSlotDst] = dst;
          add_reserve(dst);
        }
      } else {
        t.ops[kSlotDst] = src_operand(d.rd);  // store data (str pc: pc+8)
      }
      t.ops[kSlotSrc1] = src_operand(d.rn);
      if (d.reg_offset) t.ops[kSlotSrc2] = src_operand(d.rm);
      if (pl->base_wb_static && d.rn != arm::kRegPc) {
        // The base RegRef was just added as a read; it is also reserved.
        add_reserve(static_cast<RegRef*>(t.ops[kSlotSrc1]));
      }
      pl->needs_class_guard = pl->has_pc;
      break;
    }
    case OpClass::load_store_multiple: {
      pl->has_pc = (d.reg_list & (1u << arm::kRegPc)) != 0;
      pl->base_wb_static = lsm_base_writeback(d);
      RegRef* base = make_regref(d.rn);
      t.ops[kSlotSrc1] = base;
      add_read(base);
      if (pl->base_wb_static) add_reserve(base);
      for (unsigned r = 0; r < arm::kRegPc; ++r)
        if (d.reg_list & (1u << r)) pl->list_refs.push_back(make_regref(r));
      pl->needs_class_guard = true;  // list hazards (+ drain for pop-to-pc)
      break;
    }
    case OpClass::branch: {
      if (d.link) {
        RegRef* dst = make_regref(arm::kRegLr);
        t.ops[kSlotDst] = dst;
        add_reserve(dst);
      }
      if (d.branch_via_reg) {
        t.ops[kSlotSrc1] = src_operand(d.rn);
        t.ops[kSlotSrc2] = d.imm_operand ? make_const(d.imm) : src_operand(d.rm);
        if (d.shift_by_reg) t.ops[kSlotSrc3] = src_operand(d.rs);
      }
      break;
    }
    case OpClass::swi: {
      t.ops[kSlotSrc1] = src_operand(0);
      t.ops[kSlotSrc2] = src_operand(1);
      pl->needs_class_guard = true;  // serializing drain
      break;
    }
    default:
      break;
  }

  t.payload = pl;
}

// ---------------------------------------------------------------------------
// Shared class behaviours
// ---------------------------------------------------------------------------

namespace {

/// Class-specific guard extras: LSM register lists and serializing drains.
bool class_guard_extra(const PipeEnv& env, FireCtx& ctx, const ArmPayload& p) {
  const DecodedInstruction& d = p.d;
  if (d.cls == OpClass::load_store_multiple) {
    for (RegRef* r : p.list_refs) {
      if (d.is_load) {
        if (!r->can_write()) return false;
      } else if (!ref_ready(r, env.fwd)) {
        return false;
      }
    }
  }
  if ((d.cls == OpClass::swi || p.has_pc) && !drained(env, *ctx.engine))
    return false;
  return true;
}

}  // namespace

bool issue_guard(const PipeEnv& env, FireCtx& ctx) {
  InstructionToken& t = *ctx.token;
  const ArmPayload& p = ArmMachine::payload(t);
  const std::span<const core::PlaceId> fwd(env.fwd);

  if (p.read_flags && !ref_ready(p.flags_ref, fwd)) return false;
  if (p.check_cond && !arm::cond_pass(p.d.cond, ref_peek(p.flags_ref, fwd)))
    return true;  // issues as a nullified bubble; no other hazards matter
  if (p.write_flags && !p.flags_ref->can_write()) return false;
  for (unsigned i = 0; i < p.n_reads; ++i)
    if (!ref_ready(p.reads[i], fwd)) return false;
  for (unsigned i = 0; i < p.n_reserves; ++i)
    if (!p.reserves[i]->can_write()) return false;
  if (p.needs_class_guard) return class_guard_extra(env, ctx, p);
  return true;
}

void issue_action(const PipeEnv& env, FireCtx& ctx) {
  InstructionToken& t = *ctx.token;
  ArmPayload& p = ArmMachine::payload(t);
  const DecodedInstruction& d = p.d;
  ArmMachine* m = env.m;
  const std::span<const core::PlaceId> fwd(env.fwd);

  if (p.read_flags) ref_fetch(p.flags_ref, fwd);
  p.nullified = p.check_cond && !arm::cond_pass(d.cond, p.flags_ref->value());
  if (p.nullified) {
    ++m->nullified_count;
    return;
  }

  for (unsigned i = 0; i < p.n_reads; ++i) ref_fetch(p.reads[i], fwd);

  // Class-specific issue work (addresses, burst plans, LSM list handling).
  switch (d.cls) {
    case OpClass::load_store: {
      const arm::LsAddress a =
          arm::ls_address(d, t.ops[kSlotSrc1]->value(), t.ops[kSlotSrc2]->value(),
                          p.flags_ref->value());
      p.ea = a.ea;
      p.base_after = a.rn_after;
      break;
    }
    case OpClass::load_store_multiple: {
      const arm::LsmPlan plan = arm::lsm_plan(d, t.ops[kSlotSrc1]->value());
      p.ea = plan.start;
      p.base_after = plan.rn_after;
      for (RegRef* r : p.list_refs) {
        if (d.is_load)
          r->reserve_write();
        else
          ref_fetch(r, fwd);
      }
      break;
    }
    default:
      break;
  }

  for (unsigned i = 0; i < p.n_reserves; ++i) p.reserves[i]->reserve_write();
  if (p.write_flags) p.flags_ref->reserve_write();
  if (d.cls == OpClass::branch && d.link)
    t.ops[kSlotDst]->set_value(static_cast<std::uint32_t>(t.pc) + 4);
}

namespace {

void resolve_branch(const PipeEnv& env, FireCtx& ctx) {
  InstructionToken& t = *ctx.token;
  ArmPayload& p = ArmMachine::payload(t);
  const DecodedInstruction& d = p.d;
  ArmMachine* m = env.m;
  p.resolved = true;

  bool taken = false;
  std::uint32_t actual_next = static_cast<std::uint32_t>(t.pc) + 4;
  if (!p.nullified) {
    taken = true;
    if (d.branch_via_reg) {
      Operand* fl = t.ops[kSlotFlags];
      const arm::DataProcOut out = arm::exec_dataproc(
          d, t.ops[kSlotSrc1]->value(), t.ops[kSlotSrc2]->value(),
          t.ops[kSlotSrc3]->value(), fl->value());
      actual_next = out.result & ~3u;
      if (out.writes_flags)
        fl->set_value((fl->value() & ~kNzcvMask) | out.nzcv);
    } else {
      actual_next = static_cast<std::uint32_t>(
          static_cast<std::int64_t>(t.pc) + 8 + d.branch_offset);
    }
    ++m->taken_branches;
  }

  const bool mispredicted = actual_next != p.pred_next;
  if (m->bp) m->bp->update(static_cast<std::uint32_t>(t.pc), taken, actual_next,
                           mispredicted);
  if (mispredicted) {
    ++m->mispredicts;
    m->pc = actual_next;
    // Everything younger is still on the fetch side (in-order issue with
    // unit-capacity latches); squash it.
    for (core::StageId s : env.flush_on_redirect) ctx.engine->flush_stage(s);
  }
}

}  // namespace

void execute_action(const PipeEnv& env, FireCtx& ctx) {
  InstructionToken& t = *ctx.token;
  ArmPayload& p = ArmMachine::payload(t);
  const DecodedInstruction& d = p.d;

  if (d.cls == OpClass::branch) {
    resolve_branch(env, ctx);
    return;
  }
  if (p.nullified) return;

  switch (d.cls) {
    case OpClass::data_proc: {
      Operand* fl = t.ops[kSlotFlags];
      const arm::DataProcOut out = arm::exec_dataproc(
          d, t.ops[kSlotSrc1]->value(), t.ops[kSlotSrc2]->value(),
          t.ops[kSlotSrc3]->value(), fl->value());
      if (out.writes_rd) t.ops[kSlotDst]->set_value(out.result);
      if (out.writes_flags)
        fl->set_value((fl->value() & ~kNzcvMask) | out.nzcv);
      break;
    }
    case OpClass::multiply: {
      Operand* fl = t.ops[kSlotFlags];
      const arm::MulOut out =
          arm::exec_mul(d, t.ops[kSlotSrc2]->value(), t.ops[kSlotSrc3]->value(),
                        t.ops[kSlotSrc1]->value(), fl->value());
      p.result = out.result;  // published at the memory/M2 stage
      if (out.writes_flags)
        fl->set_value((fl->value() & ~kNzcvMask) | out.nzcv);
      // Early-terminating multiplier occupies the stage for extra cycles.
      t.next_delay = 1 + arm::mul_extra_cycles(t.ops[kSlotSrc3]->value());
      break;
    }
    case OpClass::swi: {
      const sys::SyscallResult res = env.m->sys.handle(
          {d.swi_imm, t.ops[kSlotSrc1]->value(), t.ops[kSlotSrc2]->value()},
          env.m->mem.memory());
      if (res.exited) ctx.engine->stop();
      break;
    }
    default:
      break;  // load/store address work happened at issue
  }
}

void mem_action(const PipeEnv& env, FireCtx& ctx, bool publish) {
  InstructionToken& t = *ctx.token;
  ArmPayload& p = ArmMachine::payload(t);
  const DecodedInstruction& d = p.d;
  ArmMachine* m = env.m;
  if (p.nullified) return;

  switch (d.cls) {
    case OpClass::load_store: {
      t.next_delay = m->mem.data_delay(p.ea, !d.is_load);
      mem::Memory& mm = m->mem.memory();
      if (d.is_load) {
        const std::uint32_t v = d.is_byte ? mm.read8(p.ea) : mm.read32(p.ea);
        if (p.has_pc) {
          p.loaded_pc = v & ~3u;
        } else {
          p.result = v;
          if (publish) t.ops[kSlotDst]->set_value(v);
        }
      } else {
        const std::uint32_t v = t.ops[kSlotDst]->value();
        if (d.is_byte)
          mm.write8(p.ea, static_cast<std::uint8_t>(v));
        else
          mm.write32(p.ea, v);
      }
      if (p.base_wb_static) t.ops[kSlotSrc1]->set_value(p.base_after);
      break;
    }
    case OpClass::load_store_multiple: {
      mem::Memory& mm = m->mem.memory();
      std::uint32_t addr = p.ea;
      std::uint32_t total = 0;
      for (RegRef* r : p.list_refs) {
        total += m->mem.data_delay(addr, !d.is_load);
        if (d.is_load)
          r->set_value(mm.read32(addr));
        else
          mm.write32(addr, r->value());
        addr += 4;
      }
      if (p.has_pc) {
        total += m->mem.data_delay(addr, !d.is_load);
        if (d.is_load)
          p.loaded_pc = mm.read32(addr) & ~3u;
        else
          mm.write32(addr, static_cast<std::uint32_t>(t.pc) + 8);
        addr += 4;
      }
      t.next_delay = total == 0 ? 1 : total;
      if (p.base_wb_static) t.ops[kSlotSrc1]->set_value(p.base_after);
      break;
    }
    case OpClass::multiply:
      if (publish) t.ops[kSlotDst]->set_value(p.result);
      break;
    default:
      break;
  }
}

void publish_action(const PipeEnv&, FireCtx& ctx) {
  InstructionToken& t = *ctx.token;
  ArmPayload& p = ArmMachine::payload(t);
  const DecodedInstruction& d = p.d;
  if (p.nullified) return;
  if (d.cls == OpClass::multiply ||
      (d.cls == OpClass::load_store && d.is_load && !p.has_pc))
    t.ops[kSlotDst]->set_value(p.result);
}

void wb_action(const PipeEnv& env, FireCtx& ctx) {
  InstructionToken& t = *ctx.token;
  ArmPayload& p = ArmMachine::payload(t);
  const DecodedInstruction& d = p.d;
  if (p.nullified) return;

  // Commit everything the issue plan reserved.
  for (unsigned i = 0; i < p.n_reserves; ++i) p.reserves[i]->writeback();
  if (p.write_flags) p.flags_ref->writeback();
  if (d.cls == OpClass::load_store_multiple && d.is_load)
    for (RegRef* r : p.list_refs) r->writeback();

  // Pop-to-pc / ldr pc: redirect once the loaded value commits. The issue
  // guard serialized the pipeline, so only fetch-side state needs squashing.
  if (p.has_pc && d.is_load) {
    env.m->pc = p.loaded_pc;
    for (core::StageId s : env.flush_on_redirect) ctx.engine->flush_stage(s);
  }
}

void fetch_action(const PipeEnv& env, FireCtx& ctx) {
  ArmMachine* m = env.m;
  if (m->sys.exited()) return;
  const std::uint32_t fpc = m->pc;
  const std::uint32_t raw = m->mem.memory().read32(fpc);
  InstructionToken* t = m->dcache.get(fpc, raw);
  ArmPayload& p = ArmMachine::payload(*t);
  p.nullified = false;
  p.resolved = false;

  std::uint32_t next = fpc + 4;
  if (env.use_predictor && m->bp) {
    const predictor::Prediction pred = m->bp->predict(fpc);
    if (pred.taken && pred.target_known) next = pred.target;
  }
  p.pred_next = next;
  m->pc = next;
  t->next_delay = m->mem.fetch_delay(fpc);
  ctx.engine->emit_instruction(t, env.fetch_into);
}

// -- named delegates over ArmPipeMachine --------------------------------------

bool pipe_issue_guard(ArmPipeMachine& m, FireCtx& ctx) {
  return issue_guard(m.env, ctx);
}

void pipe_issue_action(ArmPipeMachine& m, FireCtx& ctx) { issue_action(m.env, ctx); }

void pipe_execute_action(ArmPipeMachine& m, FireCtx& ctx) { execute_action(m.env, ctx); }

void pipe_mem_publish_action(ArmPipeMachine& m, FireCtx& ctx) {
  mem_action(m.env, ctx, /*publish=*/true);
}

void pipe_mem_action(ArmPipeMachine& m, FireCtx& ctx) {
  mem_action(m.env, ctx, /*publish=*/false);
}

void pipe_publish_action(ArmPipeMachine& m, FireCtx& ctx) { publish_action(m.env, ctx); }

void pipe_wb_action(ArmPipeMachine& m, FireCtx& ctx) { wb_action(m.env, ctx); }

bool pipe_fetch_guard(ArmPipeMachine& m, FireCtx&) { return !m.m.sys.exited(); }

void pipe_fetch_action(ArmPipeMachine& m, FireCtx& ctx) { fetch_action(m.env, ctx); }

const desc::DelegateRegistry& arm_pipe_delegates() {
  static const desc::DelegateRegistry reg = [] {
    desc::DelegateRegistry r("rcpn::machines::ArmPipeMachine",
                             {"machines/arm_machine.hpp"});
    auto d = r.bind<ArmPipeMachine>();
    d.guard<&pipe_issue_guard>("rcpn::machines::pipe_issue_guard");
    d.action<&pipe_issue_action>("rcpn::machines::pipe_issue_action");
    d.action<&pipe_execute_action>("rcpn::machines::pipe_execute_action");
    d.action<&pipe_mem_publish_action>("rcpn::machines::pipe_mem_publish_action");
    d.action<&pipe_mem_action>("rcpn::machines::pipe_mem_action");
    d.action<&pipe_publish_action>("rcpn::machines::pipe_publish_action");
    d.action<&pipe_wb_action>("rcpn::machines::pipe_wb_action");
    d.guard<&pipe_fetch_guard>("rcpn::machines::pipe_fetch_guard");
    d.action<&pipe_fetch_action>("rcpn::machines::pipe_fetch_action");
    return r;
  }();
  return reg;
}

}  // namespace rcpn::machines
