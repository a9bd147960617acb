// The simulator emitter (gen::emit_simulator) and its contract:
//
//  * determinism — two independently constructed instances of the same model
//    emit byte-identical sources (emit_cpp and emit_simulator both); CI's
//    generate→compile→verify pipeline depends on regeneration being a pure
//    function of the model description;
//  * coverage — all five machines are fully emittable (every guard/action a
//    named delegate, machine type + includes registered), and the emitted
//    source contains the direct-call dispatch, the registrar and (when asked
//    for) the golden-runner main();
//  * refusal — models with anonymous closures are rejected with the offending
//    transitions named; Backend::generated without a linked generated TU is a
//    ModelError, not a silent fallback.
//
// The end-to-end proof that the emitted source *compiles and reproduces the
// golden traces* is the gen_sim_* ctest entries the build adds per machine
// (and the generated-sim CI job).
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "core/options_signature.hpp"
#include "desc/delegate_registry.hpp"
#include "gen/compiled_engine.hpp"
#include "gen/embed.hpp"
#include "gen/emit.hpp"
#include "gen/emit_simulator.hpp"
#include "gen/generated.hpp"
#include "machines/golden_runner.hpp"
#include "model/simulator.hpp"

namespace rcpn {
namespace {

struct Emitted {
  std::string tables;
  std::string simulator;
  std::string simulator_no_main;
  std::string freestanding;
};

Emitted emit_machine(const std::string& key, core::EngineOptions opts = {}) {
  opts.backend = core::Backend::compiled;
  Emitted out;
  machines::inspect_golden_machine(key, opts, [&](core::Net& net, core::Engine& eng) {
    auto& ce = dynamic_cast<gen::CompiledEngine&>(eng);
    out.tables = gen::emit_cpp(ce.compiled(), net);
    gen::EmitSimOptions main_opts;
    main_opts.machine_key = key;
    main_opts.engine_options = opts;
    out.simulator = gen::emit_simulator(ce.compiled(), net, main_opts);
    gen::EmitSimOptions no_main;
    no_main.engine_options = opts;
    out.simulator_no_main = gen::emit_simulator(ce.compiled(), net, no_main);
    // Freestanding emission needs the embedded source table; builds with
    // RCPN_NO_EMBED=ON leave out.freestanding empty and skip its assertions.
    if (!gen::embedded_file_paths().empty()) {
      gen::EmitSimOptions fs;
      fs.mode = gen::EmitMode::freestanding;
      fs.engine_options = opts;
      fs.machine_key = key;
      fs.run_expr = machines::golden_run_expr(key);
      fs.extra_roots.push_back(machines::golden_run_header(key));
      out.freestanding = gen::emit_simulator(ce.compiled(), net, fs);
    }
  });
  return out;
}

class Emitter : public ::testing::TestWithParam<const char*> {};

TEST_P(Emitter, DeterministicByteIdenticalAcrossConstructions) {
  const std::string key = GetParam();
  const Emitted first = emit_machine(key);
  const Emitted second = emit_machine(key);
  EXPECT_EQ(first.tables, second.tables) << key << ": emit_cpp not deterministic";
  EXPECT_EQ(first.simulator, second.simulator)
      << key << ": emit_simulator not deterministic";
  EXPECT_EQ(first.simulator_no_main, second.simulator_no_main);
  EXPECT_EQ(first.freestanding, second.freestanding)
      << key << ": freestanding emission not deterministic";
}

TEST_P(Emitter, FreestandingInlinesTheRuntimeWithZeroRepoIncludes) {
  if (gen::embedded_file_paths().empty())
    GTEST_SKIP() << "embedded source table stripped (RCPN_NO_EMBED=ON)";
  const std::string key = GetParam();
  const Emitted e = emit_machine(key);

  // Zero quoted includes anywhere: the whole runtime subset is inlined.
  EXPECT_EQ(e.freestanding.find("#include \""), std::string::npos);
  // The inlined pieces the tentpole names: token storage + arena, the static
  // engine, the model layer, and the golden-runner trace IO + CLI.
  EXPECT_NE(e.freestanding.find("class TokenStore"), std::string::npos);
  EXPECT_NE(e.freestanding.find("class TokenArena"), std::string::npos);
  EXPECT_NE(e.freestanding.find("class StaticEngine"), std::string::npos);
  EXPECT_NE(e.freestanding.find("class ModelBuilderBase"), std::string::npos);
  EXPECT_NE(e.freestanding.find("golden_cli_main"), std::string::npos);
  // The same Traits/dispatch/registrar structure as the linked emission.
  EXPECT_NE(e.freestanding.find("struct Traits"), std::string::npos);
  EXPECT_NE(e.freestanding.find("register_generated_engine"), std::string::npos);
  EXPECT_NE(e.freestanding.find("int main(int argc, char** argv)"), std::string::npos);
  // The default-schedule options stamp: the registry key plus the canonical
  // core::options_signature rendering as a comment.
  const std::uint32_t def_key = core::options_bits(core::EngineOptions{});
  EXPECT_NE(e.freestanding.find("kOptionsKey = " + std::to_string(def_key) + "u"),
            std::string::npos);
  EXPECT_NE(e.freestanding.find(core::options_signature(core::EngineOptions{})),
            std::string::npos);
}

// Every ablation-variant schedule is emittable per machine: the stamped
// options flip, the registrar key follows, and emission stays deterministic.
TEST_P(Emitter, EmitsAblationVariantSchedules) {
  const std::string key = GetParam();
  const Emitted def = emit_machine(key);

  const auto key_stamp = [](const core::EngineOptions& o) {
    return "kOptionsKey = " + std::to_string(core::options_bits(o)) + "u";
  };

  core::EngineOptions two_list_all;
  two_list_all.force_two_list_all = true;
  const Emitted all = emit_machine(key, two_list_all);
  EXPECT_NE(all.simulator_no_main.find(key_stamp(two_list_all)), std::string::npos);
  EXPECT_NE(all.simulator_no_main.find("force_two_list_all=1"), std::string::npos);
  if (!all.freestanding.empty())
    EXPECT_NE(all.freestanding.find(key_stamp(two_list_all)), std::string::npos);
  EXPECT_NE(all.simulator_no_main, def.simulator_no_main)
      << key << ": variant schedule emitted identical to the default";
  EXPECT_EQ(all.simulator_no_main, emit_machine(key, two_list_all).simulator_no_main)
      << key << ": variant emission not deterministic";

  core::EngineOptions no_refs;
  no_refs.two_list_state_refs = false;
  EXPECT_NE(emit_machine(key, no_refs).simulator_no_main.find(key_stamp(no_refs)),
            std::string::npos);

  core::EngineOptions linear;
  linear.linear_search = true;
  EXPECT_NE(emit_machine(key, linear).simulator_no_main.find(key_stamp(linear)),
            std::string::npos);
}

TEST_P(Emitter, EmitsCompleteStandaloneSimulator) {
  const std::string key = GetParam();
  const Emitted e = emit_machine(key);
  const std::string model = machines::golden_model_name(key);

  // The standalone pieces: traits over the machine type, registrar, main.
  EXPECT_NE(e.simulator.find("struct Traits"), std::string::npos);
  EXPECT_NE(e.simulator.find("rcpn::gen::StaticEngine<Traits>"), std::string::npos);
  EXPECT_NE(e.simulator.find("register_generated_engine("), std::string::npos);
  EXPECT_NE(e.simulator.find("\"" + model + "\","), std::string::npos);
  EXPECT_NE(e.simulator.find("Traits::kOptionsKey,"), std::string::npos);
  EXPECT_NE(e.simulator.find("int main(int argc, char** argv)"), std::string::npos);
  EXPECT_NE(e.simulator.find("generated_main(argc, argv, \"" + key + "\")"),
            std::string::npos);
  EXPECT_EQ(e.simulator_no_main.find("int main"), std::string::npos);

  // Direct calls: at least one named delegate dispatched by symbol, and no
  // void*-environment indirection anywhere in the dispatch.
  EXPECT_NE(e.simulator.find("case "), std::string::npos);
  EXPECT_NE(e.simulator.find("::rcpn::machines::"), std::string::npos);
  EXPECT_EQ(e.simulator.find("guard_env"), std::string::npos);
  EXPECT_EQ(e.simulator.find("action_env"), std::string::npos);

  // Tables are constexpr data.
  EXPECT_NE(e.simulator.find("static constexpr rcpn::gen::StaticTx kBody"),
            std::string::npos);
  EXPECT_NE(e.simulator.find("kProcessOrder"), std::string::npos);
  EXPECT_NE(e.simulator.find("kInstrPoolHint"), std::string::npos);
  EXPECT_NE(e.simulator.find("kHasGuard"), std::string::npos);
}

INSTANTIATE_TEST_SUITE_P(AllMachines, Emitter,
                         ::testing::Values("fig2", "fig5", "tomasulo", "strongarm_crc",
                                           "xscale_adpcm"),
                         [](const auto& info) { return std::string(info.param); });

// emit_cpp records the lowered delegate symbols next to the rows it dumps.
TEST(Emitter, TablesNameTheBoundDelegates) {
  const Emitted e = emit_machine("strongarm_crc");
  EXPECT_NE(e.tables.find("guard=rcpn::machines::pipe_issue_guard"), std::string::npos);
  EXPECT_NE(e.tables.find("action=rcpn::machines::pipe_wb_action"), std::string::npos);
}

struct ClosureMachine {
  int hits = 0;
};

bool ctx_only_guard(core::FireCtx& ctx) { return ctx.token != nullptr; }
void machine_action(ClosureMachine& m, core::FireCtx&) { ++m.hits; }

// Named delegates come in both arities; the emitted dispatch must call each
// with the arguments it was registered with.
TEST(Emitter, EmitsTheRegisteredDelegateArity) {
  desc::DelegateRegistry reg("rcpn::ClosureMachine");
  reg.bind<ClosureMachine>()
      .guard<&ctx_only_guard>("rcpn::ctx_only_guard")
      .action<&machine_action>("rcpn::machine_action");
  core::EngineOptions opts;
  opts.backend = core::Backend::compiled;
  model::Simulator<ClosureMachine> sim(
      "arity", opts,
      [&reg](model::ModelBuilder<ClosureMachine>& b, ClosureMachine&) {
        b.use_delegates(reg);
        const model::StageHandle s = b.add_stage("S", 1);
        const model::PlaceHandle p = b.add_place("P", s);
        const model::TypeHandle ty = b.add_type("T");
        b.add_transition("t", ty)
            .from(p)
            .guard_ref("rcpn::ctx_only_guard")
            .action_ref("rcpn::machine_action")
            .to(b.end());
      },
      ClosureMachine{});
  auto& ce = dynamic_cast<gen::CompiledEngine&>(sim.engine());
  const std::string src = gen::emit_simulator(ce.compiled(), sim.net());
  EXPECT_NE(src.find("::rcpn::ctx_only_guard(ctx)"), std::string::npos) << src;
  EXPECT_NE(src.find("::rcpn::machine_action(m, ctx)"), std::string::npos);
  // The binding symbols are in the verification tables too.
  EXPECT_NE(src.find("kGuardSym"), std::string::npos);
  EXPECT_NE(src.find("kActionSym"), std::string::npos);
}

TEST(Emitter, RejectsAnonymousClosuresNamingTheTransition) {
  core::EngineOptions opts;
  opts.backend = core::Backend::compiled;
  model::Simulator<ClosureMachine> sim(
      "closures", opts,
      [](model::ModelBuilder<ClosureMachine>& b, ClosureMachine&) {
        b.emit_machine_type("rcpn::ClosureMachine");
        const model::StageHandle s = b.add_stage("S", 1);
        const model::PlaceHandle p = b.add_place("P", s);
        const model::TypeHandle ty = b.add_type("T");
        int captured = 7;  // forces a boxed closure
        b.add_transition("boxed", ty)
            .from(p)
            .guard([captured](core::FireCtx&) { return captured > 0; })
            .to(b.end());
      },
      ClosureMachine{});
  auto& ce = dynamic_cast<gen::CompiledEngine&>(sim.engine());
  try {
    gen::emit_simulator(ce.compiled(), sim.net());
    FAIL() << "emit_simulator accepted an anonymous closure";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("guard of 'boxed'"), std::string::npos)
        << e.what();
  }
}

TEST(Emitter, RejectsModelsWithoutMachineType) {
  core::EngineOptions opts;
  opts.backend = core::Backend::compiled;
  model::Simulator<ClosureMachine> sim(
      "untyped", opts,
      [](model::ModelBuilder<ClosureMachine>& b, ClosureMachine&) {
        const model::StageHandle s = b.add_stage("S", 1);
        const model::PlaceHandle p = b.add_place("P", s);
        const model::TypeHandle ty = b.add_type("T");
        b.add_transition("t", ty).from(p).to(b.end());
      },
      ClosureMachine{});
  auto& ce = dynamic_cast<gen::CompiledEngine&>(sim.engine());
  EXPECT_THROW(gen::emit_simulator(ce.compiled(), sim.net()), std::runtime_error);
}

TEST(GeneratedBackend, UnregisteredModelThrowsModelError) {
  ASSERT_EQ(gen::find_generated_engine("never-registered"), nullptr);
  core::EngineOptions opts;
  opts.backend = core::Backend::generated;
  EXPECT_THROW(model::Simulator<ClosureMachine>(
                   "never-registered", opts,
                   [](model::ModelBuilder<ClosureMachine>& b, ClosureMachine&) {
                     const model::StageHandle s = b.add_stage("S", 1);
                     const model::PlaceHandle p = b.add_place("P", s);
                     const model::TypeHandle ty = b.add_type("T");
                     b.add_transition("t", ty).from(p).to(b.end());
                   },
                   ClosureMachine{}),
               model::ModelError);
}

TEST(GeneratedBackend, RegistryRoundTripKeyedByOptions) {
  const auto factory = [](core::Net& net, core::EngineOptions o)
      -> std::unique_ptr<core::Engine> { return std::make_unique<core::Engine>(net, o); };
  const std::uint32_t default_key = gen::generated_options_key(core::EngineOptions{});
  gen::register_generated_engine("test-registry-model", default_key, factory);
  EXPECT_NE(gen::find_generated_engine("test-registry-model"), nullptr);
  // A variant key is a different registration slot.
  core::EngineOptions variant;
  variant.force_two_list_all = true;
  EXPECT_EQ(gen::find_generated_engine("test-registry-model", variant), nullptr);
  gen::register_generated_engine("test-registry-model",
                                 gen::generated_options_key(variant), factory);
  EXPECT_NE(gen::find_generated_engine("test-registry-model", variant), nullptr);
  const std::vector<std::string> names = gen::registered_generated_models();
  EXPECT_EQ(std::count(names.begin(), names.end(), "test-registry-model"), 1)
      << "variant registrations must not duplicate the model listing";
}

// Freestanding refusal: anonymous closures are rejected exactly as in linked
// mode, and a model whose emit_include() is outside the embedded source set
// is rejected naming the offending path.
TEST(Emitter, FreestandingRejectsAnonymousClosures) {
  if (gen::embedded_file_paths().empty())
    GTEST_SKIP() << "embedded source table stripped (RCPN_NO_EMBED=ON)";
  core::EngineOptions opts;
  opts.backend = core::Backend::compiled;
  model::Simulator<ClosureMachine> sim(
      "closures-fs", opts,
      [](model::ModelBuilder<ClosureMachine>& b, ClosureMachine&) {
        b.emit_machine_type("rcpn::ClosureMachine");
        const model::StageHandle s = b.add_stage("S", 1);
        const model::PlaceHandle p = b.add_place("P", s);
        const model::TypeHandle ty = b.add_type("T");
        int captured = 7;  // forces a boxed closure
        b.add_transition("boxed", ty)
            .from(p)
            .guard([captured](core::FireCtx&) { return captured > 0; })
            .to(b.end());
      },
      ClosureMachine{});
  auto& ce = dynamic_cast<gen::CompiledEngine&>(sim.engine());
  gen::EmitSimOptions fs;
  fs.mode = gen::EmitMode::freestanding;
  try {
    gen::emit_simulator(ce.compiled(), sim.net(), fs);
    FAIL() << "freestanding emission accepted an anonymous closure";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("guard of 'boxed'"), std::string::npos)
        << e.what();
  }
}

TEST(Emitter, FreestandingRejectsIncludesOutsideTheEmbeddedSet) {
  if (gen::embedded_file_paths().empty())
    GTEST_SKIP() << "embedded source table stripped (RCPN_NO_EMBED=ON)";
  core::EngineOptions opts;
  opts.backend = core::Backend::compiled;
  model::Simulator<ClosureMachine> sim(
      "foreign-include", opts,
      [](model::ModelBuilder<ClosureMachine>& b, ClosureMachine&) {
        b.emit_machine_type("rcpn::ClosureMachine");
        b.emit_include("not/embedded.hpp");
        const model::StageHandle s = b.add_stage("S", 1);
        const model::PlaceHandle p = b.add_place("P", s);
        const model::TypeHandle ty = b.add_type("T");
        b.add_transition("t", ty).from(p).to(b.end());
      },
      ClosureMachine{});
  auto& ce = dynamic_cast<gen::CompiledEngine&>(sim.engine());
  gen::EmitSimOptions fs;
  fs.mode = gen::EmitMode::freestanding;
  try {
    gen::emit_simulator(ce.compiled(), sim.net(), fs);
    FAIL() << "freestanding emission accepted a non-embedded include";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("not/embedded.hpp"), std::string::npos)
        << e.what();
  }
}

}  // namespace
}  // namespace rcpn
