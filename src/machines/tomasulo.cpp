#include "machines/tomasulo.hpp"

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

struct TomasuloMachine::Payload final : isa::Payload {
  Fig5Instr instr;
};

namespace {
std::uint32_t tomasulo_alu_eval(Fig5Instr::AluOp op, std::uint32_t a, std::uint32_t b) {
  switch (op) {
    case Fig5Instr::AluOp::add: return a + b;
    case Fig5Instr::AluOp::sub: return a - b;
    case Fig5Instr::AluOp::mul: return a * b;
    case Fig5Instr::AluOp::xor_op: return a ^ b;
  }
  return 0;
}

const Fig5Instr& tomasulo_instr_of(const InstructionToken& t) {
  return static_cast<TomasuloMachine::Payload*>(t.payload)->instr;
}

// Tomasulo source capture at issue: either the value is current (read it now
// — the Vj/Vk field) or the newest in-flight writer becomes the tag (Qj/Qk).
// Only RegRefs can be unreadable, so the cast below is safe.
void src_capture(Operand* op) {
  if (op->can_read()) {
    op->read();
  } else {
    static_cast<RegRef*>(op)->capture_writer();
  }
}

bool src_ready(const Operand* op) {
  if (op->value_ready()) return true;
  return static_cast<const RegRef*>(op)->captured_ready();
}

void src_fetch(Operand* op) {
  if (op->value_ready()) return;
  static_cast<RegRef*>(op)->read_captured();
}
}  // namespace

TomasuloMachine::TomasuloMachine()
    : rf(kNumRegs, regfile::WritePolicy::multi_writer),  // renaming (§3.1)
      dcache([this](isa::DecodeCache::Entry& e) { bind(e); }) {
  rf.add_identity_registers(kNumRegs);
}

void TomasuloMachine::load(std::vector<Fig5Instr> p) {
  program = std::move(p);
  pc = 0;
  rf.reset();
  // Fetch passes raw = 0, so a kept entry could not notice a changed
  // program: throw the decode work away (DecodeCache reuses its storage).
  dcache.clear();
  last_exec_seq = 0;
  observed_ooo = false;
}

void TomasuloMachine::bind(isa::DecodeCache::Entry& e) {
  Payload* pl = e.make<Payload>();
  pl->instr = program[e.pc];
  const Fig5Instr& i = pl->instr;
  InstructionToken& t = e.token;
  t.type = ty_alu;
  const core::PlaceId* owner = &t.state;

  auto make_reg = [&](unsigned r) -> Operand* {
    RegRef* ref = e.make<RegRef>();
    ref->bind(&rf, static_cast<regfile::RegisterId>(r), owner);
    return ref;
  };
  auto make_const = [&](std::uint32_t v) -> Operand* {
    return e.make<ConstOperand>(v);
  };

  t.ops[kSlotDst] = make_reg(i.d);
  t.ops[kSlotSrc1] = make_reg(i.s1);
  t.ops[kSlotSrc2] = i.s2_is_imm ? make_const(i.imm) : make_reg(i.s2);
  t.payload = pl;
}

// -- named delegates ---------------------------------------------------------------
// The per-transition functionality as free functions over the typed machine
// context: the emittable registration form (gen::emit_simulator references
// these by symbol and calls them directly in the generated simulator).

bool tomasulo_issue_guard(TomasuloMachine&, FireCtx& ctx) {
  return ctx.token->ops[kSlotDst]->can_write();
}

// Issue: read available sources (Vj/Vk), capture the producer tag of pending
// ones (Qj/Qk), and rename the destination (reserve_write on a multi-writer
// file == allocate a new name).
void tomasulo_issue_action(TomasuloMachine&, FireCtx& ctx) {
  InstructionToken& t = *ctx.token;
  src_capture(t.ops[kSlotSrc1]);
  src_capture(t.ops[kSlotSrc2]);
  t.ops[kSlotDst]->reserve_write();
}

bool tomasulo_exec_guard(TomasuloMachine&, FireCtx& ctx) {
  InstructionToken& t = *ctx.token;
  return src_ready(t.ops[kSlotSrc1]) && src_ready(t.ops[kSlotSrc2]);
}

void tomasulo_exec_action(TomasuloMachine& m, FireCtx& ctx) {
  InstructionToken& t = *ctx.token;
  src_fetch(t.ops[kSlotSrc1]);
  src_fetch(t.ops[kSlotSrc2]);
  // FU latency: multiplies occupy the unit longer.
  t.next_delay = tomasulo_instr_of(t).op == Fig5Instr::AluOp::mul ? 3 : 1;
  if (t.seq < m.last_exec_seq) m.observed_ooo = true;
  if (t.seq > m.last_exec_seq) m.last_exec_seq = t.seq;
}

void tomasulo_bcast_action(TomasuloMachine&, FireCtx& ctx) {
  InstructionToken& t = *ctx.token;
  const Fig5Instr& i = tomasulo_instr_of(t);
  t.ops[kSlotDst]->set_value(
      tomasulo_alu_eval(i.op, t.ops[kSlotSrc1]->value(), t.ops[kSlotSrc2]->value()));
}

void tomasulo_wb_action(TomasuloMachine&, FireCtx& ctx) {
  ctx.token->ops[kSlotDst]->writeback();
}

bool tomasulo_fetch_guard(TomasuloMachine& m, FireCtx&) {
  return m.pc < m.program.size();
}

void tomasulo_fetch_action(TomasuloMachine& m, FireCtx& ctx) {
  InstructionToken* t = m.dcache.get(m.pc, 0);
  ++m.pc;
  ctx.engine->emit_instruction(t, m.fetch_into);
}

const desc::DelegateRegistry& tomasulo_delegates() {
  static const desc::DelegateRegistry reg = [] {
    desc::DelegateRegistry r("rcpn::machines::TomasuloMachine",
                             {"machines/tomasulo.hpp"});
    auto d = r.bind<TomasuloMachine>();
    d.guard<&tomasulo_issue_guard>("rcpn::machines::tomasulo_issue_guard");
    d.action<&tomasulo_issue_action>("rcpn::machines::tomasulo_issue_action");
    d.guard<&tomasulo_exec_guard>("rcpn::machines::tomasulo_exec_guard");
    d.action<&tomasulo_exec_action>("rcpn::machines::tomasulo_exec_action");
    d.action<&tomasulo_bcast_action>("rcpn::machines::tomasulo_bcast_action");
    d.action<&tomasulo_wb_action>("rcpn::machines::tomasulo_wb_action");
    d.guard<&tomasulo_fetch_guard>("rcpn::machines::tomasulo_fetch_guard");
    d.action<&tomasulo_fetch_action>("rcpn::machines::tomasulo_fetch_action");
    return r;
  }();
  return reg;
}

void bind_tomasulo_context(const core::Net& net, TomasuloMachine& m) {
  m.ty_alu = net.find_type("ALU");
  m.fetch_into = net.find_place("DISP");
}

TomasuloCore::TomasuloCore(unsigned rs_entries, unsigned num_fus,
                           core::EngineOptions options)
    : sim_("Tomasulo", options,
           [this, rs_entries, num_fus](model::ModelBuilder<TomasuloMachine>& b,
                                       TomasuloMachine& m) {
             describe(b, m, rs_entries, num_fus);
           }) {
  bind_tomasulo_context(sim_.net(), sim_.machine());
}

void TomasuloCore::describe(model::ModelBuilder<TomasuloMachine>& b, TomasuloMachine&,
                            unsigned rs_entries, unsigned num_fus) {
  b.use_delegates(tomasulo_delegates());
  const model::StageHandle sDisp = b.add_stage("DISP", 1);
  const model::StageHandle sRs = b.add_stage("RS", rs_entries);
  const model::StageHandle sEx = b.add_stage("EX", num_fus);
  const model::StageHandle sCdb = b.add_stage("CDB", 1);
  const model::PlaceHandle disp = b.add_place("DISP", sDisp);
  const model::PlaceHandle rs = b.add_place("RS", sRs);
  const model::PlaceHandle ex = b.add_place("EX", sEx);
  const model::PlaceHandle cdb = b.add_place("CDB", sCdb);
  const model::TypeHandle ty_alu = b.add_type("ALU");

  // Issue: claim an RS entry; see tomasulo_issue_action.
  b.add_transition("Issue", ty_alu)
      .from(disp)
      .guard_ref("rcpn::machines::tomasulo_issue_guard")
      .action_ref("rcpn::machines::tomasulo_issue_action")
      .to(rs);

  // Dispatch-to-execute: fires for ANY token in the reservation station whose
  // operands have arrived (value captured at issue, or the tagged producer
  // has broadcast) — out-of-order issue is just the enabling rule over a
  // capacity>1 stage.
  b.add_transition("Exec", ty_alu)
      .from(rs)
      .guard_ref("rcpn::machines::tomasulo_exec_guard")
      .action_ref("rcpn::machines::tomasulo_exec_action")
      .to(ex)
      .reads_state(cdb);

  // Broadcast: one result per cycle crosses the common data bus.
  b.add_transition("Bcast", ty_alu)
      .from(ex)
      .action_ref("rcpn::machines::tomasulo_bcast_action")
      .to(cdb);

  // Writeback/retire.
  b.add_transition("Wb", ty_alu)
      .from(cdb)
      .action_ref("rcpn::machines::tomasulo_wb_action")
      .to(b.end());

  b.add_independent_transition("Fetch")
      .guard_ref("rcpn::machines::tomasulo_fetch_guard")
      .action_ref("rcpn::machines::tomasulo_fetch_action")
      .to(disp);
}

std::uint64_t TomasuloCore::run(std::uint64_t max_cycles) {
  return sim_.drain(
      [](const TomasuloMachine& m) { return m.pc >= m.program.size(); }, max_cycles);
}

namespace {

std::vector<Fig5Instr> tomasulo_golden_workload() {
  using I = Fig5Instr;
  return {
      I::alui(I::AluOp::add, 1, 0, 3),
      I::alu(I::AluOp::mul, 2, 1, 1),   // dependent chain
      I::alu(I::AluOp::mul, 3, 2, 2),
      I::alui(I::AluOp::add, 4, 0, 5),  // independent — issues out of order
      I::alui(I::AluOp::add, 5, 4, 1),
      I::alu(I::AluOp::xor_op, 6, 3, 5),
  };
}

}  // namespace

GoldenRunResult golden_finish_tomasulo(TomasuloCore& sim) {
  GoldenRunResult r;
  record_golden_retires(sim.engine(), r.trace);
  sim.load(tomasulo_golden_workload());
  sim.run();
  r.stats = sim.engine().stats();
  return r;
}

GoldenRunResult golden_run_tomasulo(core::EngineOptions options) {
  TomasuloCore sim(4, 2, options);
  return golden_finish_tomasulo(sim);
}

void golden_inspect_tomasulo(core::EngineOptions options, const GoldenInspectFn& fn) {
  TomasuloCore sim(4, 2, options);
  fn(sim.net(), sim.engine());
}

namespace {

class TomasuloSession final : public SessionBase {
 public:
  explicit TomasuloSession(core::EngineOptions options) : sim_(4, 2, options) {
    record_golden_retires(sim_.engine(), trace_);
    sim_.load(tomasulo_golden_workload());
  }

  core::Engine& engine() override { return sim_.engine(); }

  bool advance(std::uint64_t cycles) override {
    if (finished()) return false;
    sim_.run(cycles);
    return !finished();
  }

  std::string machine_key() const override { return "tomasulo"; }
  std::string workload_id() const override { return "golden-6"; }

  void save_machine(ckpt::StateWriter& w, const ckpt::RefCoder& refs) const override {
    const TomasuloMachine& m = sim_.machine();
    w.begin("tomasulo")
        .field("pc", static_cast<std::uint64_t>(m.pc))
        .field("last_exec_seq", static_cast<std::uint64_t>(m.last_exec_seq))
        .field("observed_ooo", m.observed_ooo)
        .end();
    ckpt::save_register_file(w, m.rf, refs);
  }

  void restore_machine(ckpt::StateReader& r, const ckpt::RefCoder& refs) override {
    TomasuloMachine& m = sim_.machine();
    r.next("tomasulo");
    m.pc = static_cast<std::uint32_t>(r.get_u64("pc"));
    m.last_exec_seq = static_cast<std::uint32_t>(r.get_u64("last_exec_seq"));
    m.observed_ooo = r.get_bool("observed_ooo");
    ckpt::restore_register_file(r, m.rf, refs);
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

  TomasuloCore sim_;
};

}  // namespace

std::unique_ptr<GoldenSession> golden_session_tomasulo(core::EngineOptions options) {
  return std::make_unique<TomasuloSession>(options);
}

}  // namespace rcpn::machines
