#include "machines/fig5_processor.hpp"

#include <cassert>

#include "desc/delegate_registry.hpp"
#include "isa/operation_class.hpp"
#include "machines/golden_session.hpp"

namespace rcpn::machines {

using core::FireCtx;
using core::InstructionToken;
using isa::kSlotDst;
using isa::kSlotSrc1;
using isa::kSlotSrc2;
using regfile::ConstOperand;
using regfile::Operand;
using regfile::RegRef;

// -- instruction constructors ---------------------------------------------------

Fig5Instr Fig5Instr::alu(AluOp op, unsigned d, unsigned s1, unsigned s2) {
  Fig5Instr i;
  i.kind = Kind::alu;
  i.op = op;
  i.d = static_cast<std::uint8_t>(d);
  i.s1 = static_cast<std::uint8_t>(s1);
  i.s2 = static_cast<std::uint8_t>(s2);
  return i;
}

Fig5Instr Fig5Instr::alui(AluOp op, unsigned d, unsigned s1, std::uint32_t imm) {
  Fig5Instr i = alu(op, d, s1, 0);
  i.s2_is_imm = true;
  i.imm = imm;
  return i;
}

Fig5Instr Fig5Instr::load(unsigned r, std::uint32_t addr) {
  Fig5Instr i;
  i.kind = Kind::load_store;
  i.is_load = true;
  i.r = static_cast<std::uint8_t>(r);
  i.addr = addr;
  return i;
}

Fig5Instr Fig5Instr::store(unsigned r, std::uint32_t addr) {
  Fig5Instr i = load(r, addr);
  i.is_load = false;
  return i;
}

Fig5Instr Fig5Instr::branch(std::int32_t offset) {
  Fig5Instr i;
  i.kind = Kind::branch;
  i.offset = offset;
  return i;
}

// -- payload ---------------------------------------------------------------------

struct Fig5Machine::Payload final : isa::Payload {
  Fig5Instr instr;
};

namespace {
std::uint32_t alu_eval(Fig5Instr::AluOp op, std::uint32_t a, std::uint32_t b) {
  switch (op) {
    case Fig5Instr::AluOp::add: return a + b;
    case Fig5Instr::AluOp::sub: return a - b;
    case Fig5Instr::AluOp::mul: return a * b;
    case Fig5Instr::AluOp::xor_op: return a ^ b;
  }
  return 0;
}

const Fig5Instr& instr_of(const InstructionToken& t) {
  return static_cast<Fig5Machine::Payload*>(t.payload)->instr;
}
}  // namespace

// -- machine context --------------------------------------------------------------

Fig5Machine::Fig5Machine()
    : rf(kNumRegs, regfile::WritePolicy::single_writer),
      cache({/*size*/ 256, /*line*/ 16, /*assoc*/ 2, /*hit*/ 1, /*miss*/ 6, true},
            "fig5-dcache"),
      dcache([this](isa::DecodeCache::Entry& e) { bind(e); }) {
  rf.add_identity_registers(kNumRegs);
}

void Fig5Machine::load(std::vector<Fig5Instr> p) {
  program = std::move(p);
  pc = 0;
  rf.reset();
  mem.clear();
  cache.reset();
  // Fetch passes raw = 0, so a kept entry could not notice a changed
  // program: throw the decode work away (DecodeCache reuses its storage).
  dcache.clear();
}

void Fig5Machine::bind(isa::DecodeCache::Entry& e) {
  Payload* pl = e.make<Payload>();
  pl->instr = program[e.pc];
  const Fig5Instr& i = pl->instr;
  InstructionToken& t = e.token;
  const core::PlaceId* owner = &t.state;

  auto make_reg = [&](unsigned r) -> Operand* {
    RegRef* ref = e.make<RegRef>();
    ref->bind(&rf, static_cast<regfile::RegisterId>(r), owner);
    return ref;
  };
  auto make_const = [&](std::uint32_t v) -> Operand* {
    return e.make<ConstOperand>(v);
  };

  switch (i.kind) {
    case Fig5Instr::Kind::alu:
      t.type = ty_alu;
      t.ops[kSlotDst] = make_reg(i.d);
      t.ops[kSlotSrc1] = make_reg(i.s1);
      t.ops[kSlotSrc2] = i.s2_is_imm ? make_const(i.imm) : make_reg(i.s2);
      break;
    case Fig5Instr::Kind::load_store:
      t.type = ty_ls;
      t.ops[kSlotDst] = make_reg(i.r);  // the r symbol: dest (load) or data (store)
      t.ops[kSlotSrc1] =
          i.addr_is_imm ? make_const(i.addr) : make_reg(i.addr_reg);
      break;
    case Fig5Instr::Kind::branch:
      t.type = ty_br;
      // offset: {Register | Constant} — constant form here.
      t.ops[kSlotSrc1] = make_const(static_cast<std::uint32_t>(i.offset));
      break;
  }
  t.payload = pl;
}

// -- named delegates ---------------------------------------------------------------
// Each transition's functionality as a free function over the typed machine
// context: the emittable registration form (gen::emit_simulator references
// these by symbol and calls them directly in the generated simulator).

// priority 0: [t.s1.canRead(), t.s2.canRead(), t.d.canWrite()]
bool fig5_d0_guard(Fig5Machine&, FireCtx& ctx) {
  InstructionToken& t = *ctx.token;
  return t.ops[kSlotSrc1]->can_read() && t.ops[kSlotSrc2]->can_read() &&
         t.ops[kSlotDst]->can_write();
}

void fig5_d0_action(Fig5Machine&, FireCtx& ctx) {
  InstructionToken& t = *ctx.token;
  t.ops[kSlotSrc1]->read();
  t.ops[kSlotSrc2]->read();
  t.ops[kSlotDst]->reserve_write();
}

// priority 1: [t.s1.canRead(L3), ...] — the feedback path, s1 only (§3.2).
bool fig5_d1_guard(Fig5Machine& m, FireCtx& ctx) {
  InstructionToken& t = *ctx.token;
  return t.ops[kSlotSrc1]->can_read_in(m.fwd_from) && t.ops[kSlotSrc2]->can_read() &&
         t.ops[kSlotDst]->can_write();
}

void fig5_d1_action(Fig5Machine& m, FireCtx& ctx) {
  InstructionToken& t = *ctx.token;
  t.ops[kSlotSrc1]->read_in(m.fwd_from);
  t.ops[kSlotSrc2]->read();
  t.ops[kSlotDst]->reserve_write();
}

void fig5_alu_e_action(Fig5Machine&, FireCtx& ctx) {
  InstructionToken& t = *ctx.token;
  const Fig5Instr& i = instr_of(t);
  t.ops[kSlotDst]->set_value(
      alu_eval(i.op, t.ops[kSlotSrc1]->value(), t.ops[kSlotSrc2]->value()));
}

void fig5_alu_we_action(Fig5Machine&, FireCtx& ctx) {
  ctx.token->ops[kSlotDst]->writeback();
}

bool fig5_ls_d_guard(Fig5Machine&, FireCtx& ctx) {
  InstructionToken& t = *ctx.token;
  const Fig5Instr& i = instr_of(t);
  // [!t.L || t.r.canWrite(), t.L || t.r.canRead(), t.addr.canRead()]
  if (!t.ops[kSlotSrc1]->can_read()) return false;
  return i.is_load ? t.ops[kSlotDst]->can_write() : t.ops[kSlotDst]->can_read();
}

void fig5_ls_d_action(Fig5Machine&, FireCtx& ctx) {
  InstructionToken& t = *ctx.token;
  const Fig5Instr& i = instr_of(t);
  t.ops[kSlotSrc1]->read();
  if (i.is_load)
    t.ops[kSlotDst]->reserve_write();
  else
    t.ops[kSlotDst]->read();
}

void fig5_ls_m_action(Fig5Machine& m, FireCtx& ctx) {
  InstructionToken& t = *ctx.token;
  const Fig5Instr& i = instr_of(t);
  const std::uint32_t addr = t.ops[kSlotSrc1]->value();
  // if (t.L) t.r = mem[addr]; else mem[addr] = t.r;
  if (i.is_load)
    t.ops[kSlotDst]->set_value(m.mem.read32(addr));
  else
    m.mem.write32(addr, t.ops[kSlotDst]->value());
  // t.delay = mem.delay(addr);
  t.next_delay = m.cache.access(addr, !i.is_load);
}

void fig5_ls_wm_action(Fig5Machine&, FireCtx& ctx) {
  InstructionToken& t = *ctx.token;
  if (instr_of(t).is_load) t.ops[kSlotDst]->writeback();
}

bool fig5_br_d_guard(Fig5Machine&, FireCtx& ctx) {
  return ctx.token->ops[kSlotSrc1]->can_read();
}

void fig5_br_d_action(Fig5Machine&, FireCtx& ctx) { ctx.token->ops[kSlotSrc1]->read(); }

void fig5_br_b_action(Fig5Machine& m, FireCtx& ctx) {
  InstructionToken& t = *ctx.token;
  // pc = pc + offset (relative to the branch's own index).
  m.pc = static_cast<std::uint32_t>(static_cast<std::int64_t>(t.pc) +
                                    static_cast<std::int32_t>(t.ops[kSlotSrc1]->value()));
}

bool fig5_fetch_guard(Fig5Machine& m, FireCtx&) { return m.pc < m.program.size(); }

void fig5_fetch_action(Fig5Machine& m, FireCtx& ctx) {
  InstructionToken* t = m.dcache.get(m.pc, /*raw=*/0);
  ++m.pc;
  ctx.engine->emit_instruction(t, m.fetch_into);
}

// -- delegate registry --------------------------------------------------------------

const desc::DelegateRegistry& fig5_delegates() {
  static const desc::DelegateRegistry reg = [] {
    desc::DelegateRegistry r("rcpn::machines::Fig5Machine",
                             {"machines/fig5_processor.hpp"});
    auto d = r.bind<Fig5Machine>();
    d.guard<&fig5_d0_guard>("rcpn::machines::fig5_d0_guard");
    d.action<&fig5_d0_action>("rcpn::machines::fig5_d0_action");
    d.guard<&fig5_d1_guard>("rcpn::machines::fig5_d1_guard");
    d.action<&fig5_d1_action>("rcpn::machines::fig5_d1_action");
    d.action<&fig5_alu_e_action>("rcpn::machines::fig5_alu_e_action");
    d.action<&fig5_alu_we_action>("rcpn::machines::fig5_alu_we_action");
    d.guard<&fig5_ls_d_guard>("rcpn::machines::fig5_ls_d_guard");
    d.action<&fig5_ls_d_action>("rcpn::machines::fig5_ls_d_action");
    d.action<&fig5_ls_m_action>("rcpn::machines::fig5_ls_m_action");
    d.action<&fig5_ls_wm_action>("rcpn::machines::fig5_ls_wm_action");
    d.guard<&fig5_br_d_guard>("rcpn::machines::fig5_br_d_guard");
    d.action<&fig5_br_d_action>("rcpn::machines::fig5_br_d_action");
    d.action<&fig5_br_b_action>("rcpn::machines::fig5_br_b_action");
    d.guard<&fig5_fetch_guard>("rcpn::machines::fig5_fetch_guard");
    d.action<&fig5_fetch_action>("rcpn::machines::fig5_fetch_action");
    return r;
  }();
  return reg;
}

void bind_fig5_context(const core::Net& net, Fig5Machine& m) {
  m.ty_alu = net.find_type("ALU");
  m.ty_ls = net.find_type("LoadStore");
  m.ty_br = net.find_type("Branch");
  m.fetch_into = net.find_place("L1");
  m.fwd_from = net.find_place("L3");
}

// -- model description -------------------------------------------------------------

Fig5Processor::Fig5Processor(core::EngineOptions options)
    : sim_("Fig5", options,
           [this](model::ModelBuilder<Fig5Machine>& b, Fig5Machine& m) {
             describe(b, m);
           }) {
  bind_fig5_context(sim_.net(), sim_.machine());
}

void Fig5Processor::describe(model::ModelBuilder<Fig5Machine>& b, Fig5Machine&) {
  b.use_delegates(fig5_delegates());
  const model::StageHandle s1 = b.add_stage("L1", 1);
  const model::StageHandle s2 = b.add_stage("L2", 1);
  const model::StageHandle s3 = b.add_stage("L3", 1);
  const model::StageHandle s4 = b.add_stage("L4", 1);
  l1_ = b.add_place("L1", s1);
  l2_ = b.add_place("L2", s2);
  // L3 holds results for two cycles before writeback (a result latch ahead
  // of the register-file port). That residence is what makes the feedback
  // path useful: a dependent instruction can take the priority-1 canRead(L3)
  // route one cycle before the value commits.
  l3_ = b.add_place("L3", s3, /*delay=*/2);
  l4_ = b.add_place("L4", s4);
  const model::TypeHandle ty_alu = b.add_type("ALU");
  const model::TypeHandle ty_ls = b.add_type("LoadStore");
  const model::TypeHandle ty_br = b.add_type("Branch");

  // ---- ALU sub-net (two prioritized issue transitions, Fig 5 left) ---------
  d0_ = b.add_transition("ALU.D0", ty_alu)
            .from(l1_, /*priority=*/0)
            .guard_ref("rcpn::machines::fig5_d0_guard")
            .action_ref("rcpn::machines::fig5_d0_action")
            .to(l2_);
  d1_ = b.add_transition("ALU.D1", ty_alu)
            .from(l1_, /*priority=*/1)
            .guard_ref("rcpn::machines::fig5_d1_guard")
            .action_ref("rcpn::machines::fig5_d1_action")
            .to(l2_)
            .reads_state(l3_);
  b.add_transition("ALU.E", ty_alu)
      .from(l2_)
      .action_ref("rcpn::machines::fig5_alu_e_action")
      .to(l3_);
  b.add_transition("ALU.We", ty_alu)
      .from(l3_)
      .action_ref("rcpn::machines::fig5_alu_we_action")
      .to(b.end());

  // ---- LoadStore sub-net (variable memory delay, Fig 5 bottom) -------------
  b.add_transition("LS.D", ty_ls)
      .from(l1_)
      .guard_ref("rcpn::machines::fig5_ls_d_guard")
      .action_ref("rcpn::machines::fig5_ls_d_action")
      .to(l2_);
  b.add_transition("LS.M", ty_ls)
      .from(l2_)
      .action_ref("rcpn::machines::fig5_ls_m_action")
      .to(l4_);
  b.add_transition("LS.Wm", ty_ls)
      .from(l4_)
      .action_ref("rcpn::machines::fig5_ls_wm_action")
      .to(b.end());

  // ---- Branch sub-net (reservation-token fetch stall, Fig 5 right) ---------
  b.add_transition("BR.D", ty_br)
      .from(l1_)
      .guard_ref("rcpn::machines::fig5_br_d_guard")
      .action_ref("rcpn::machines::fig5_br_d_action")
      .to(l2_)
      .emit_reservation(l1_);
  b.add_transition("BR.B", ty_br)
      .from(l2_)
      .consume_reservation(l1_)
      .action_ref("rcpn::machines::fig5_br_b_action")
      .to(b.end());

  // ---- instruction-independent sub-net (F) ----------------------------------
  b.add_independent_transition("F")
      .guard_ref("rcpn::machines::fig5_fetch_guard")
      .action_ref("rcpn::machines::fig5_fetch_action")
      .to(l1_);
}

std::uint64_t Fig5Processor::run(std::uint64_t max_cycles) {
  return sim_.drain(
      [](const Fig5Machine& m) { return m.pc >= m.program.size(); }, max_cycles);
}

namespace {

std::vector<Fig5Instr> fig5_golden_workload() {
  using I = Fig5Instr;
  return {
      I::alui(I::AluOp::add, 1, 0, 7),
      I::alui(I::AluOp::add, 2, 1, 1),   // RAW hazard
      I::store(2, 0x100),
      I::load(3, 0x100),
      I::branch(2),
      I::alui(I::AluOp::add, 4, 0, 99),  // squashed by the branch
      I::alu(I::AluOp::mul, 5, 2, 3),
      I::alu(I::AluOp::xor_op, 6, 5, 1),
  };
}

}  // namespace

GoldenRunResult golden_finish_fig5(Fig5Processor& sim) {
  GoldenRunResult r;
  record_golden_retires(sim.engine(), r.trace);
  sim.load(fig5_golden_workload());
  sim.run();
  r.stats = sim.engine().stats();
  return r;
}

GoldenRunResult golden_run_fig5(core::EngineOptions options) {
  Fig5Processor sim(options);
  return golden_finish_fig5(sim);
}

void golden_inspect_fig5(core::EngineOptions options, const GoldenInspectFn& fn) {
  Fig5Processor sim(options);
  fn(sim.net(), sim.engine());
}

namespace {

class Fig5Session final : public SessionBase {
 public:
  explicit Fig5Session(core::EngineOptions options) : sim_(options) {
    record_golden_retires(sim_.engine(), trace_);
    sim_.load(fig5_golden_workload());
  }

  core::Engine& engine() override { return sim_.engine(); }

  bool advance(std::uint64_t cycles) override {
    if (finished()) return false;
    sim_.run(cycles);
    return !finished();
  }

  std::string machine_key() const override { return "fig5"; }
  std::string workload_id() const override { return "golden-8"; }

  void save_machine(ckpt::StateWriter& w, const ckpt::RefCoder& refs) const override {
    const Fig5Machine& m = sim_.machine();
    w.begin("fig5").field("pc", static_cast<std::uint64_t>(m.pc)).end();
    ckpt::save_register_file(w, m.rf, refs);
    ckpt::save_memory(w, m.mem);
    ckpt::save_cache(w, m.cache);
  }

  void restore_machine(ckpt::StateReader& r, const ckpt::RefCoder& refs) override {
    Fig5Machine& m = sim_.machine();
    r.next("fig5");
    m.pc = static_cast<std::uint32_t>(r.get_u64("pc"));
    ckpt::restore_register_file(r, m.rf, refs);
    ckpt::restore_memory(r, m.mem);
    ckpt::restore_cache(r, m.cache);
  }

  core::InstructionToken* materialize(std::uint64_t pc, std::uint32_t raw) override {
    return sim_.machine().dcache.get(static_cast<std::uint32_t>(pc), raw);
  }

 private:
  bool finished() {
    return sim_.engine().stopped() ||
           (sim_.machine().pc >= sim_.machine().program.size() &&
            sim_.engine().tokens_in_flight() == 0);
  }

  Fig5Processor sim_;
};

}  // namespace

std::unique_ptr<GoldenSession> golden_session_fig5(core::EngineOptions options) {
  return std::make_unique<Fig5Session>(options);
}

}  // namespace rcpn::machines
