#include "model/model_builder.hpp"

#include <atomic>
#include <cassert>
#include <unordered_set>

namespace rcpn::model {

namespace {
detail::ModelTag next_tag() {
  static std::atomic<detail::ModelTag> counter{detail::kNoModel};
  return ++counter;
}
}  // namespace

ModelBuilderBase::ModelBuilderBase(std::string name)
    : name_(std::move(name)), tag_(next_tag()) {}

StageHandle ModelBuilderBase::add_stage(std::string name, std::uint32_t capacity) {
  // Mirrors core::Net id assignment: id 0 is the virtual end stage.
  const auto id = static_cast<core::StageId>(stages_.size() + 1);
  stages_.push_back(StageDef{std::move(name), capacity, std::nullopt});
  return StageHandle(tag_, id);
}

PlaceHandle ModelBuilderBase::add_place(std::string name, StageHandle stage,
                                        std::uint32_t delay) {
  const auto id = static_cast<core::PlaceId>(places_.size() + 1);
  places_.push_back(PlaceDef{std::move(name), stage, delay, /*end=*/false});
  return PlaceHandle(tag_, id);
}

PlaceHandle ModelBuilderBase::add_end_place(std::string name) {
  const auto id = static_cast<core::PlaceId>(places_.size() + 1);
  places_.push_back(PlaceDef{std::move(name), StageHandle{}, 1, /*end=*/true});
  return PlaceHandle(tag_, id);
}

TypeHandle ModelBuilderBase::add_type(std::string name) {
  const auto id = static_cast<core::TypeId>(types_.size());
  types_.push_back(std::move(name));
  return TypeHandle(tag_, id);
}

void ModelBuilderBase::force_two_list(StageHandle stage, bool value) {
  check_handle(stage, "stage", stages_.size(), "force_two_list()");
  if (stage.id() == 0) fail("force_two_list(): the virtual end stage cannot be two-list");
  stages_[static_cast<unsigned>(stage.id()) - 1].forced_two_list = value;
}

core::Net& ModelBuilderBase::net() {
  if (!net_) fail("net() before build()");
  return *net_;
}

const core::Net& ModelBuilderBase::net() const {
  if (!net_) fail("net() before build()");
  return *net_;
}

ModelBuilderBase::TransitionDef& ModelBuilderBase::add_transition_def(
    std::string name, TypeHandle type, bool independent, TransitionHandle* out_handle) {
  const auto id = static_cast<core::TransitionId>(transitions_.size());
  transitions_.push_back(TransitionDef{});
  TransitionDef& def = transitions_.back();
  def.name = std::move(name);
  def.type = type;
  def.independent = independent;
  *out_handle = TransitionHandle(tag_, id);
  return def;
}

void ModelBuilderBase::fail(const std::string& what) const {
  throw ModelError("model '" + name_ + "': " + what);
}

void ModelBuilderBase::check_handle_base(detail::ModelTag model, const char* kind, int id,
                                         std::size_t limit,
                                         const std::string& context) const {
  if (model == detail::kNoModel)
    fail(context + ": dangling " + kind + " handle (default-constructed, never declared)");
  if (model != tag_)
    fail(context + ": " + kind + " handle belongs to a different model");
  if (id < 0 || static_cast<std::size_t>(id) > limit)
    fail(context + ": " + kind + " handle out of range");
}

void ModelBuilderBase::validate() const {
  // -- entity declarations ----------------------------------------------------
  std::unordered_set<std::string> seen;
  for (const StageDef& s : stages_) {
    if (s.capacity == 0)
      fail("stage '" + s.name + "' has zero capacity (capacity 0 is reserved for the end stage)");
    if (!seen.insert(s.name).second) fail("duplicate stage name '" + s.name + "'");
  }
  seen.clear();
  for (const PlaceDef& p : places_) {
    if (p.delay == 0)
      fail("place '" + p.name + "' has zero delay (a place holds its token for >= 1 cycle)");
    if (!p.end) {
      check_handle(p.stage, "stage", stages_.size(), "place '" + p.name + "'");
      if (p.stage.id() == 0)
        fail("place '" + p.name + "' binds to the virtual end stage; use add_end_place()");
    }
    if (!seen.insert(p.name).second) fail("duplicate place name '" + p.name + "'");
  }
  seen.clear();
  for (const std::string& t : types_)
    if (!seen.insert(t).second) fail("duplicate operation-class name '" + t + "'");

  // Unreachable stages: a stage no place binds to can never hold a token, so
  // its declared capacity is dead weight — almost certainly a model typo
  // (a place bound to the wrong StageHandle).
  std::vector<bool> stage_used(stages_.size(), false);
  for (const PlaceDef& p : places_)
    if (!p.end) stage_used[static_cast<unsigned>(p.stage.id()) - 1] = true;
  for (std::size_t i = 0; i < stages_.size(); ++i)
    if (!stage_used[i])
      fail("stage '" + stages_[i].name +
           "' is unreachable: no place binds to it, so no token can ever enter it");

  // -- transitions ------------------------------------------------------------
  for (const TransitionDef& t : transitions_) {
    const std::string ctx = "transition '" + t.name + "'";
    if (!t.independent)
      check_handle(t.type, "operation-class", types_.empty() ? 0 : types_.size() - 1, ctx);

    unsigned triggers = 0, moves = 0;
    for (const InArcDef& a : t.in) {
      check_handle(a.place, "place", places_.size(), ctx + " input arc");
      // Tokens retire (or recycle) the moment they enter an end place, so an
      // arc consuming from one can never be satisfied: the transition is dead.
      const int pid = a.place.id();
      if (pid == 0 || places_[static_cast<unsigned>(pid) - 1].end)
        fail(ctx + ": input arc consumes from an end place, where tokens retire on "
                   "entry — the transition could never fire");
      if (!a.reservation) ++triggers;
    }
    for (const OutArcDef& a : t.out) {
      check_handle(a.place, "place", places_.size(), ctx + " output arc");
      if (!a.reservation) ++moves;
    }
    for (const PlaceHandle& p : t.state_refs)
      check_handle(p, "place", places_.size(), ctx + " reads_state");

    // A firing takes its reservation tokens and its per-stage capacity
    // deltas into fixed buffers, and two reservation arcs from one place
    // would both pick the same token.
    unsigned reservations = 0;
    for (std::size_t i = 0; i < t.in.size(); ++i) {
      if (!t.in[i].reservation) continue;
      ++reservations;
      for (std::size_t j = 0; j < i; ++j)
        if (t.in[j].reservation && t.in[j].place.id() == t.in[i].place.id())
          fail(ctx + ": two reservation input arcs consume from place '" +
               places_[static_cast<unsigned>(t.in[i].place.id()) - 1].name +
               "' (one arc per place: each arc takes its own token)");
    }
    if (reservations > core::kMaxReservationInputs)
      fail(ctx + ": " + std::to_string(reservations) +
           " reservation input arcs, more than the " +
           std::to_string(core::kMaxReservationInputs) + " a transition may have");
    if (t.in.size() + t.out.size() > core::kMaxTransitionArcs)
      fail(ctx + ": " + std::to_string(t.in.size() + t.out.size()) +
           " arcs, more than the " + std::to_string(core::kMaxTransitionArcs) +
           " a transition may have");

    if (t.independent) {
      if (triggers != 0)
        fail(ctx + ": instruction-independent transitions cannot have trigger arcs");
      if (t.priority_override)
        fail(ctx + ": priority applies to the trigger arc of sub-net transitions only");
      if (t.max_fires < 1)
        fail(ctx + ": max_fires_per_cycle must be >= 1 (a transition that can never "
                   "fire is a dead model)");
    } else {
      if (triggers == 0) fail(ctx + ": no trigger arc (missing from())");
      if (triggers > 1) fail(ctx + ": more than one trigger arc");
      if (moves == 0)
        fail(ctx + ": the instruction token is never moved (missing to(); route finished "
                   "instructions to end())");
      if (moves > 1) fail(ctx + ": a transition moves its token to one place, got several");
      if (t.max_fires != 1)
        fail(ctx + ": max_fires_per_cycle applies to independent transitions only");
    }
  }
}

void ModelBuilderBase::lower_structure_into(core::Net& net) const {
  net.set_emit_machine_type(emit_machine_type_);
  for (const std::string& inc : emit_includes_) net.add_emit_include(inc);
  for (std::size_t i = 0; i < stages_.size(); ++i) {
    const StageDef& s = stages_[i];
    const core::StageId id = net.add_stage(s.name, s.capacity);
    assert(static_cast<std::size_t>(id) == i + 1 && "handle/id mismatch");
    (void)id;
    if (s.forced_two_list) net.stage(id).force_two_list(*s.forced_two_list);
  }
  for (std::size_t i = 0; i < places_.size(); ++i) {
    const PlaceDef& p = places_[i];
    const core::PlaceId id = p.end ? net.add_end_place(p.name)
                                   : net.add_place(p.name, p.stage.id(), p.delay);
    assert(static_cast<std::size_t>(id) == i + 1 && "handle/id mismatch");
    (void)id;
  }
  for (const std::string& t : types_) net.add_type(t);

  for (const TransitionDef& def : transitions_) {
    core::TransitionBuilder tb = def.independent
                                     ? net.add_independent_transition(def.name)
                                     : net.add_transition(def.name, def.type.id());
    for (const InArcDef& a : def.in) {
      if (a.reservation) {
        tb.consume_reservation(a.place.id());
      } else {
        tb.from(a.place.id(), def.priority_override.value_or(a.priority));
      }
    }
    for (const OutArcDef& a : def.out) {
      if (a.reservation) {
        tb.emit_reservation(a.place.id());
      } else {
        tb.to(a.place.id());
      }
    }
    for (const PlaceHandle& p : def.state_refs) tb.reads_state(p.id());
    if (def.delay != 0) tb.delay(def.delay);
    if (def.independent && def.max_fires != 1) tb.max_fires_per_cycle(def.max_fires);
  }
}

core::Net ModelBuilderBase::structural_net() const {
  validate();
  core::Net net(name_);
  lower_structure_into(net);
  return net;
}

core::Net& ModelBuilderBase::build_erased(void* machine) {
  if (net_) fail("build() called twice");
  validate();
  if (machine == nullptr) {
    for (const TransitionDef& t : transitions_)
      if (t.needs_machine)
        fail("transition '" + t.name +
             "' has a typed (Machine&) guard or action but build() got no machine context");
  }

  net_.emplace(name_);
  core::Net& net = *net_;
  lower_structure_into(net);

  // Second pass: bind guards/actions with the machine context. Ids are
  // assigned in declaration order, so def i lowered to transition i.
  for (std::size_t i = 0; i < transitions_.size(); ++i) {
    TransitionDef& def = transitions_[i];
    core::TransitionBuilder tb = net.edit_transition(static_cast<core::TransitionId>(i));

    // Stateless callables: single raw-delegate call, env = machine pointer.
    if (def.fast_guard != nullptr) tb.guard(def.fast_guard, machine);
    if (def.fast_action != nullptr) tb.action(def.fast_action, machine);
    if (!def.guard_symbol.empty())
      tb.guard_symbol(def.guard_symbol, def.guard_symbol_machine);
    if (!def.action_symbol.empty())
      tb.action_symbol(def.action_symbol, def.action_symbol_machine);

    if (def.guard || def.action) {
      bound_.push_back(Bound{std::move(def.guard), std::move(def.action), machine});
      Bound& b = bound_.back();
      if (b.guard)
        tb.guard(
            +[](void* env, core::FireCtx& ctx) {
              Bound* bd = static_cast<Bound*>(env);
              return bd->guard(bd->machine, ctx);
            },
            &b);
      if (b.action)
        tb.action(
            +[](void* env, core::FireCtx& ctx) {
              Bound* bd = static_cast<Bound*>(env);
              bd->action(bd->machine, ctx);
            },
            &b);
    }
  }
  return net;
}

}  // namespace rcpn::model
