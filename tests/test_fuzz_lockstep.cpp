// Randomized lockstep-equivalence fuzzing: the compiled backend's contract
// (cycle-for-cycle equality with the interpreted engine) pinned on *generated*
// models, not just the five curated machines.
//
// A seeded generator builds random pipeline topologies through ModelBuilder —
// varying stage counts and capacities, place delays, fork/join edges,
// multi-issue fetch widths, guard mixes (periodic stalls, clock windows,
// state-referencing backpressure), token delay overrides, reservation
// emit/consume pairs, age-based flushes and *looping* topologies (Fig 5-style
// feedback arcs that send a token back to an earlier place a bounded number
// of times, forcing real token cycles through the SCC/two-list analysis) —
// and runs the interpreted and compiled engines in lockstep, comparing the
// clock, in-flight counts and aggregate stats after every cycle, and the full
// cycle-stamped retire and squash traces plus per-transition/per-place
// statistics at the end.
//
// A third engine runs alongside as an independent oracle: the interpreted
// engine with linear_search, which searches per token and never takes the
// stage-level stall (Engine::stall_place_if_exit_full /
// stall_rest_if_exits_full) that the other two share. Its full statistics,
// stall causes included, and its traces must match theirs.
//
// Every seed is a different machine; a divergence report names the seed, so
// any future backend change that breaks token semantics reproduces with
// FuzzLockstep + that seed. The SoA token-pool rewrite landed gated on this
// suite.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <string>
#include <sys/wait.h>
#include <vector>

#include "gen/compiled_engine.hpp"
#include "gen/emit_simulator.hpp"
#include "gen/embed.hpp"
#include "machines/fuzz_model.hpp"
#include "machines/generic_main.hpp"
#include "model/simulator.hpp"

namespace rcpn {
namespace {

using machines::FuzzMachine;

struct TraceEvent {
  core::Cycle cycle = 0;
  std::uint64_t pc = 0;
  std::uint32_t seq = 0;
  bool operator==(const TraceEvent&) const = default;
};

struct Traces {
  std::vector<TraceEvent> retired;
  std::vector<TraceEvent> squashed;
};

void record(core::Engine& eng, Traces& out) {
  eng.hooks().on_retire = [&eng, &out](core::InstructionToken* t) {
    out.retired.push_back(TraceEvent{eng.clock(), t->pc, t->seq});
  };
  eng.hooks().on_squash = [&eng, &out](core::InstructionToken* t) {
    out.squashed.push_back(TraceEvent{eng.clock(), t->pc, t->seq});
  };
}


void expect_stats_equal(unsigned seed, const core::Stats& i, const core::Stats& c) {
  EXPECT_EQ(i.cycles, c.cycles) << "seed=" << seed;
  EXPECT_EQ(i.retired, c.retired) << "seed=" << seed;
  EXPECT_EQ(i.fetched, c.fetched) << "seed=" << seed;
  EXPECT_EQ(i.squashed, c.squashed) << "seed=" << seed;
  EXPECT_EQ(i.reservations, c.reservations) << "seed=" << seed;
  EXPECT_EQ(i.firings, c.firings) << "seed=" << seed;
  EXPECT_EQ(i.transition_fires, c.transition_fires) << "seed=" << seed;
  EXPECT_EQ(i.place_stalls, c.place_stalls) << "seed=" << seed;
  EXPECT_EQ(i.place_stall_causes, c.place_stall_causes) << "seed=" << seed;
}

/// Aggregate workload exercised by a seed range: guards that the corpus
/// really covers the mechanisms it claims to fuzz (flushes happened,
/// reservations were emitted and consumed, stalls occurred, some models ran
/// two-list stages), not just straight-line pipelines.
struct Coverage {
  std::uint64_t retired = 0;
  std::uint64_t squashed = 0;
  std::uint64_t reservations = 0;
  std::uint64_t stalls = 0;
  std::uint64_t loops_taken = 0;
  unsigned models_with_two_list = 0;
  /// capacity_backpressure stalls in places with an exit set whose stage
  /// holds two or more tokens: the shape where the stage-level stall can
  /// end a scan midway.
  std::uint64_t multi_slot_capacity_stalls = 0;
};

void run_seed(unsigned seed, Coverage& cov) {
  SCOPED_TRACE("seed=" + std::to_string(seed));
  auto make = [seed](const core::EngineOptions& options) {
    return std::make_unique<model::Simulator<FuzzMachine>>(
        machines::fuzz_model_name(seed), options,
        [seed](model::ModelBuilder<FuzzMachine>& b, FuzzMachine& m) {
          machines::describe_fuzz_model(seed, b, m);
        },
        FuzzMachine{});
  };
  auto interp = make(machines::fuzz_options_for(seed, core::Backend::interpreted));
  auto comp = make(machines::fuzz_options_for(seed, core::Backend::compiled));
  core::EngineOptions ref_options =
      machines::fuzz_options_for(seed, core::Backend::interpreted);
  ref_options.linear_search = true;
  auto ref = make(ref_options);
  ASSERT_NE(dynamic_cast<gen::CompiledEngine*>(&comp->engine()), nullptr);
  ASSERT_EQ(dynamic_cast<gen::CompiledEngine*>(&interp->engine()), nullptr);
  for (unsigned p = 0; p < ref->net().num_places(); ++p)
    ASSERT_TRUE(ref->engine().exit_stages(static_cast<core::PlaceId>(p)).empty())
        << "the per-token reference built an exit set";

  Traces ti, tc, tr;
  record(interp->engine(), ti);
  record(comp->engine(), tc);
  record(ref->engine(), tr);

  // Lockstep: compare the cheap aggregates after every cycle so a divergence
  // is localized to the first bad cycle, not discovered at the end.
  constexpr std::uint64_t kMaxCycles = 25000;
  std::uint64_t cycle = 0;
  for (; cycle < kMaxCycles; ++cycle) {
    const bool idone = interp->machine().emitted >= interp->machine().to_emit &&
                       interp->engine().tokens_in_flight() == 0;
    const bool cdone = comp->machine().emitted >= comp->machine().to_emit &&
                       comp->engine().tokens_in_flight() == 0;
    ASSERT_EQ(idone, cdone) << "seed=" << seed << " cycle=" << cycle;
    if (idone) break;
    ASSERT_TRUE(interp->step()) << "seed=" << seed << " interpreted engine stopped"
                                << " (deadlocked model?) at cycle " << cycle;
    ASSERT_TRUE(comp->step()) << "seed=" << seed << " compiled engine stopped"
                              << " (deadlocked model?) at cycle " << cycle;
    ASSERT_TRUE(ref->step()) << "seed=" << seed << " linear-search engine stopped"
                             << " at cycle " << cycle;
    ASSERT_EQ(interp->clock(), comp->clock()) << "seed=" << seed;
    ASSERT_EQ(interp->clock(), ref->clock()) << "seed=" << seed;
    ASSERT_EQ(interp->engine().tokens_in_flight(), comp->engine().tokens_in_flight())
        << "seed=" << seed << " cycle=" << cycle;
    ASSERT_EQ(interp->engine().tokens_in_flight(), ref->engine().tokens_in_flight())
        << "seed=" << seed << " cycle=" << cycle;
    ASSERT_EQ(interp->stats().retired, comp->stats().retired)
        << "seed=" << seed << " cycle=" << cycle;
    ASSERT_EQ(interp->stats().retired, ref->stats().retired)
        << "seed=" << seed << " cycle=" << cycle;
    ASSERT_EQ(interp->stats().firings, comp->stats().firings)
        << "seed=" << seed << " cycle=" << cycle;
    ASSERT_EQ(interp->stats().firings, ref->stats().firings)
        << "seed=" << seed << " cycle=" << cycle;
  }
  ASSERT_LT(cycle, kMaxCycles) << "seed=" << seed << ": model did not drain "
                               << "(emitted=" << interp->machine().emitted << "/"
                               << interp->machine().to_emit << ", in flight "
                               << interp->engine().tokens_in_flight() << ")";

  // Full end-state comparison: every retirement and squash, cycle-stamped and
  // in order; all statistics; all machine-side counters.
  for (const auto* other : {comp.get(), ref.get()}) {
    const Traces& t = other == comp.get() ? tc : tr;
    SCOPED_TRACE(other == comp.get() ? "compiled" : "linear-search reference");
    EXPECT_EQ(ti.retired, t.retired) << "seed=" << seed;
    EXPECT_EQ(ti.squashed, t.squashed) << "seed=" << seed;
    expect_stats_equal(seed, interp->stats(), other->stats());
    EXPECT_EQ(interp->machine().emitted, other->machine().emitted) << "seed=" << seed;
    EXPECT_EQ(interp->machine().actions_run, other->machine().actions_run)
        << "seed=" << seed;
    EXPECT_EQ(interp->machine().flushes, other->machine().flushes) << "seed=" << seed;
    EXPECT_EQ(interp->machine().loops_taken, other->machine().loops_taken)
        << "seed=" << seed;
  }
  // Conservation: every fetched token either retired or was squashed.
  EXPECT_EQ(interp->stats().fetched,
            interp->stats().retired + interp->stats().squashed)
      << "seed=" << seed;

  cov.retired += interp->stats().retired;
  cov.squashed += interp->stats().squashed;
  cov.reservations += interp->stats().reservations;
  cov.loops_taken += interp->machine().loops_taken;
  for (std::uint64_t s : interp->stats().place_stalls) cov.stalls += s;
  for (unsigned p = 0; p < interp->net().num_places(); ++p) {
    const auto place = static_cast<core::PlaceId>(p);
    if (!interp->engine().exit_stages(place).empty() &&
        interp->net().stage_of(place).capacity() >= 2)
      cov.multi_slot_capacity_stalls +=
          interp->stats().place_stall_causes[p * core::kNumStallCauses +
                                             static_cast<unsigned>(
                                                 core::StallCause::capacity_backpressure)];
  }
  for (unsigned s = 0; s < interp->net().num_stages(); ++s)
    if (interp->engine().stage_is_two_list(static_cast<core::StageId>(s))) {
      ++cov.models_with_two_list;
      break;
    }
}

Coverage run_seed_range(unsigned first, unsigned last) {
  Coverage cov;
  for (unsigned seed = first; seed <= last; ++seed) run_seed(seed, cov);
  // Each ~40-seed shard must have exercised every fuzzed mechanism.
  EXPECT_GT(cov.retired, 1000u);
  EXPECT_GT(cov.squashed, 0u) << "no flush ever squashed an instruction";
  EXPECT_GT(cov.reservations, 0u) << "no reservation token was ever emitted";
  EXPECT_GT(cov.stalls, 0u) << "no guard or capacity stall ever happened";
  EXPECT_GT(cov.models_with_two_list, 0u) << "no model used a two-list stage";
  EXPECT_GT(cov.loops_taken, 0u)
      << "no token ever traversed a feedback arc — looping topologies uncovered";
  EXPECT_GT(cov.multi_slot_capacity_stalls, 0u)
      << "no multi-slot place with an exit set ever stalled on capacity — the "
         "mid-scan stage-level stall is uncovered";
  return cov;
}

// 128 seeds ≥ the 100 the acceptance bar asks for; three shards keep any
// failure's scope (and ctest's parallelism) reasonable.
TEST(FuzzLockstep, Seeds1To48) { run_seed_range(1, 48); }

TEST(FuzzLockstep, Seeds49To88) { run_seed_range(49, 88); }

TEST(FuzzLockstep, Seeds89To128) { run_seed_range(89, 128); }

// ---------------------------------------------------------------------------
// Freestanding shard: fuzz coverage reaches the *emitter*, not just the
// in-process backends. A small CI-budgeted set of seeded topologies is
// emitted as freestanding single-file simulators (gen::emit_simulator,
// EmitMode::freestanding), compiled at test time with the configured host
// compiler — zero repo includes, no library objects on the link line — run,
// and trace-diffed against the interpreted backend through the emitted
// binary's own --golden first-diverging-cycle reporting. The seeds cross the
// option mix of fuzz_options_for, so ablation-variant emission is fuzzed too.
//
// The generated engine fires a type-uniform place (gen::uniform_row) through
// one shared row while each type keeps its own FireCtx::transition. Seeds
// 1-8 have no such place with two types, so the shard adds seed 3129: at its
// P3 both types share fuzz_action_flush with different victim stages, and a
// flush handed the wrong type's transition would squash other tokens.
// ---------------------------------------------------------------------------

/// Places where every type fires one simple row sharing destination, delay
/// and delegates, counted only when a shared delegate reads a per-transition
/// parameter that differs between the types.
unsigned id_sensitive_uniform_places(model::Simulator<FuzzMachine>& sim) {
  const core::Net& net = sim.net();
  const core::Engine& eng = sim.engine();
  const auto param = [](const std::vector<std::int32_t>& v, core::TransitionId t) {
    return static_cast<std::size_t>(t) < v.size() ? v[static_cast<std::size_t>(t)] : 0;
  };
  unsigned found = 0;
  for (unsigned p = 0; p < net.num_places(); ++p) {
    const core::Transition* first = nullptr;
    bool uniform = net.num_types() > 1, params_differ = false;
    for (unsigned ty = 0; uniform && ty < net.num_types(); ++ty) {
      const auto& cands =
          eng.candidates(static_cast<core::PlaceId>(p), static_cast<core::TypeId>(ty));
      const core::Transition* t = cands.size() == 1 ? cands[0] : nullptr;
      uniform = t != nullptr && t->inputs().size() == 1 && t->outputs().size() == 1 &&
                t->outputs()[0].emit == core::ArcEmit::move;
      if (!uniform || first == nullptr) {
        first = t;
        continue;
      }
      uniform = t->outputs()[0].place == first->outputs()[0].place &&
                t->delay() == first->delay() &&
                t->guard_symbol() == first->guard_symbol() &&
                t->action_symbol() == first->action_symbol();
      params_differ |=
          param(sim.machine().guard_param, t->id()) !=
              param(sim.machine().guard_param, first->id()) ||
          param(sim.machine().action_param, t->id()) !=
              param(sim.machine().action_param, first->id());
    }
    if (uniform && params_differ) ++found;
  }
  return found;
}

int run_command(const std::string& cmd) {
  const int status = std::system(cmd.c_str());
  if (status < 0 || !WIFEXITED(status)) return -1;  // signal death != exit 0
  return WEXITSTATUS(status);
}

std::string slurp(const std::string& path) {
  std::ifstream in(path);
  return std::string(std::istreambuf_iterator<char>(in), {});
}

TEST(FuzzFreestanding, EmittedShardMatchesInterpretedTraces) {
#ifndef RCPN_CXX_COMPILER
  GTEST_SKIP() << "host compiler not configured (RCPN_CXX_COMPILER)";
#else
  if (gen::embedded_file_paths().empty())
    GTEST_SKIP() << "embedded source table stripped (RCPN_NO_EMBED=ON)";
  const std::string dir = ::testing::TempDir() + "fuzz_freestanding";
  ASSERT_EQ(run_command("mkdir -p " + dir), 0);

  unsigned emitted_variants = 0, id_sensitive = 0;
  for (const unsigned seed : {1u, 2u, 3u, 4u, 5u, 6u, 7u, 8u, 3129u}) {
    SCOPED_TRACE("seed=" + std::to_string(seed));
    const std::string name = machines::fuzz_model_name(seed);
    const core::EngineOptions opts =
        machines::fuzz_options_for(seed, core::Backend::compiled);
    if (opts.force_two_list_all || !opts.two_list_state_refs) ++emitted_variants;

    // Emit the freestanding TU from a lowered in-process construction.
    model::Simulator<FuzzMachine> sim(
        name, opts,
        [seed](model::ModelBuilder<FuzzMachine>& b, FuzzMachine& m) {
          machines::describe_fuzz_model(seed, b, m);
        },
        FuzzMachine{});
    auto& ce = dynamic_cast<gen::CompiledEngine&>(sim.engine());
    id_sensitive += id_sensitive_uniform_places(sim);
    gen::EmitSimOptions fs;
    fs.mode = gen::EmitMode::freestanding;
    fs.engine_options = opts;
    fs.machine_key = name;
    fs.run_expr =
        "rcpn::machines::golden_run_fuzz(" + std::to_string(seed) + "u, options)";
    fs.extra_roots.push_back("machines/fuzz_model.hpp");
    const std::string src = gen::emit_simulator(ce.compiled(), sim.net(), fs);
    ASSERT_EQ(src.find("#include \""), std::string::npos)
        << "freestanding TU pulled a repo include";
    ASSERT_NE(src.find("fuzz_"), std::string::npos)
        << "dispatch lost the fuzz delegates";

    const std::string base = dir + "/" + name;
    { std::ofstream(base + ".cpp") << src; }

    // The interpreted backend's trace is the reference the binary diffs.
    const machines::GoldenRunResult interp = machines::golden_run_fuzz(
        seed, machines::fuzz_options_for(seed, core::Backend::interpreted));
    ASSERT_FALSE(interp.trace.empty());
    { std::ofstream(base + ".trace") << machines::format_golden_trace(name, interp.trace); }

    // Compile standalone: no include dirs, no library objects.
    const std::string compile = std::string(RCPN_CXX_COMPILER) + " -std=c++20 -O0 -o " +
                                base + " " + base + ".cpp 2> " + base + ".err";
    ASSERT_EQ(run_command(compile), 0)
        << "freestanding TU failed to compile:\n" << slurp(base + ".err");

    const std::string run = base + " --golden " + base + ".trace > " + base +
                            ".out 2>&1";
    EXPECT_EQ(run_command(run), 0)
        << "freestanding binary diverged from the interpreted backend:\n"
        << slurp(base + ".out");
  }
  EXPECT_GT(emitted_variants, 0u)
      << "the shard never emitted an ablation-variant schedule";
  EXPECT_GT(id_sensitive, 0u) << "the shard has no type-uniform place whose shared "
                                 "delegate reads FireCtx::transition";
#endif
}

// A freestanding artifact emitted with the *generic* main
// (machines/generic_main.hpp, via generic_describe_expr) instead of a golden
// runner: the binary must honour workload-from-argv (positional emit count)
// and --cycles, and replicate the in-process generic run loop exactly.
TEST(FuzzFreestanding, GenericMainBinaryHonoursWorkloadArgsAndCycleCap) {
#ifndef RCPN_CXX_COMPILER
  GTEST_SKIP() << "host compiler not configured (RCPN_CXX_COMPILER)";
#else
  if (gen::embedded_file_paths().empty())
    GTEST_SKIP() << "embedded source table stripped (RCPN_NO_EMBED=ON)";
  const unsigned seed = 3;
  const std::uint64_t to_emit = 5;   // downward override: always completes
  const std::uint64_t cycles = 2000;
  const std::string dir = ::testing::TempDir() + "fuzz_generic_main";
  ASSERT_EQ(run_command("mkdir -p " + dir), 0);
  const std::string name = machines::fuzz_model_name(seed);
  core::EngineOptions opts;
  opts.backend = core::Backend::compiled;

  const auto describe = [](model::ModelBuilder<FuzzMachine>& b, FuzzMachine& m) {
    machines::describe_fuzz_model(seed, b, m);
  };

  // Emit the freestanding TU with the generic main.
  std::string src;
  {
    model::Simulator<FuzzMachine> sim(name, opts, describe, FuzzMachine{});
    auto& ce = dynamic_cast<gen::CompiledEngine&>(sim.engine());
    gen::EmitSimOptions fs;
    fs.mode = gen::EmitMode::freestanding;
    fs.engine_options = opts;
    fs.extra_roots.push_back("machines/fuzz_model.hpp");
    const std::string m = "rcpn::machines::FuzzMachine";
    fs.generic_describe_expr =
        "[](rcpn::model::ModelBuilder<" + m + ">& b, " + m +
        "& m) { rcpn::machines::describe_fuzz_model(" + std::to_string(seed) +
        "u, b, m); }";
    fs.generic_workload_expr =
        "[](" + m + "& m, const std::vector<std::string>& args) { if (!args.empty()) "
        "m.to_emit = std::strtoull(args[0].c_str(), nullptr, 10); }";
    fs.generic_done_expr = "[](const " + m + "& m) { return m.emitted >= m.to_emit; }";
    src = gen::emit_simulator(ce.compiled(), sim.net(), fs);
  }
  ASSERT_EQ(src.find("#include \""), std::string::npos)
      << "freestanding TU pulled a repo include";
  ASSERT_NE(src.find("generic_cli_main"), std::string::npos)
      << "emitted main is not the generic CLI";

  const std::string base = dir + "/" + name;
  { std::ofstream(base + ".cpp") << src; }
  const std::string compile = std::string(RCPN_CXX_COMPILER) + " -std=c++20 -O0 -o " +
                              base + " " + base + ".cpp 2> " + base + ".err";
  ASSERT_EQ(run_command(compile), 0)
      << "freestanding TU failed to compile:\n" << slurp(base + ".err");

  // In-process reference: the same (describe, workload, done) run loop as
  // generic_cli_main, on the compiled backend.
  machines::GoldenRunResult ref;
  {
    model::Simulator<FuzzMachine> sim(name, opts, describe, FuzzMachine{});
    sim.machine().to_emit = to_emit;
    machines::record_golden_retires(sim.engine(), ref.trace);
    for (std::uint64_t c = 0; c < cycles; ++c) {
      if (sim.machine().emitted >= sim.machine().to_emit &&
          sim.engine().tokens_in_flight() == 0)
        break;
      if (!sim.step()) break;
    }
    ref.stats = sim.engine().stats();
  }
  ASSERT_EQ(ref.trace.size(), to_emit) << "reference run did not drain";

  // The binary with the same workload args must match the reference exactly.
  const std::string run = base + " " + std::to_string(to_emit) + " --cycles " +
                          std::to_string(cycles) + " --stats > " + base + ".out 2>&1";
  ASSERT_EQ(run_command(run), 0) << slurp(base + ".out");
  const std::string out = slurp(base + ".out");
  std::vector<machines::GoldenRetireEvent> fs_trace;
  core::Stats fs_stats;
  ASSERT_TRUE(machines::parse_golden_trace(out, fs_trace)) << out;
  ASSERT_TRUE(machines::parse_golden_stats(out, fs_stats)) << out;
  const std::string diff = machines::diff_golden_traces(ref.trace, fs_trace);
  EXPECT_TRUE(diff.empty()) << "generic-main binary vs in-process: " << diff;
  EXPECT_EQ(fs_stats.cycles, ref.stats.cycles);
  EXPECT_EQ(fs_stats.retired, ref.stats.retired);

  // A --cycles budget below the full run truncates the trace instead of
  // erroring out (exit 1 = "retired nothing" is the legitimate floor; exit 2
  // would be a real failure).
  const std::uint64_t cap = ref.trace.back().cycle - 1;
  const std::string capped = base + " " + std::to_string(to_emit) + " --cycles " +
                             std::to_string(cap) + " --stats > " + base +
                             ".capped 2>&1";
  const int capped_rc = run_command(capped);
  const std::string capped_out = slurp(base + ".capped");
  if (capped_rc == 0) {
    std::vector<machines::GoldenRetireEvent> capped_trace;
    ASSERT_TRUE(machines::parse_golden_trace(capped_out, capped_trace)) << capped_out;
    EXPECT_LT(capped_trace.size(), ref.trace.size())
        << "budget " << cap << " did not truncate the run";
  } else {
    EXPECT_EQ(capped_rc, 1) << capped_out;
    EXPECT_NE(capped_out.find("retired nothing"), std::string::npos) << capped_out;
  }
#endif
}

}  // namespace
}  // namespace rcpn
