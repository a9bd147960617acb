// perfbench: the repository benchmark. One workload per process, single
// threaded. See README.md for the workloads, the metrics and how each layer
// metric maps to the end-to-end metric it should move.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//
// --trace 0 times whole simulation runs on every backend and the SimpleScalar
// control, checks every run against the interpreted reference, and prints
// the end-to-end metrics. --trace 1 prints the per-layer ledger instead:
// delegate and engine self time on the interpreted and compiled backends,
// model counters and set-up phases. Either way the last stdout line is one
// JSON object; the exit code is nonzero when any run was wrong.
#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "arm/assembler.hpp"
#include "baseline/simplescalar_sim.hpp"
#include "desc/delegate_registry.hpp"
#include "desc/description.hpp"
#include "machines/desc_machines.hpp"
#include "machines/strongarm.hpp"
#include "machines/tomasulo.hpp"
#include "machines/xscale.hpp"
#include "params.hpp"
#include "trace.hpp"
#include "workloads/workloads.hpp"

using namespace rcpn;

namespace {

using Clock = std::chrono::steady_clock;

double since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// The q-quantile of `v` (linear interpolation between order statistics).
double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

/// "median [p10, p90] (n=...)" of a per-repetition sample.
void print_sample(const char* name, const std::vector<double>& v, const char* unit) {
  std::printf("  %-22s %10.4f %s  [p10 %.4f, p90 %.4f] (n=%zu)\n", name, median(v), unit,
              quantile(v, 0.1), quantile(v, 0.9), v.size());
}

std::uint64_t splitmix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

// -- what one simulation run produced -----------------------------------------

struct Outcome {
  std::uint64_t cycles = 0;
  std::uint64_t retired = 0;
  /// Architectural result: program output and exit status, or a register dump.
  std::string output;
  core::Stats stats;
};

bool same_stats(const core::Stats& a, const core::Stats& b) {
  return a.cycles == b.cycles && a.retired == b.retired && a.fetched == b.fetched &&
         a.squashed == b.squashed && a.reservations == b.reservations &&
         a.firings == b.firings && a.quiesced_cycles == b.quiesced_cycles &&
         a.transition_fires == b.transition_fires && a.place_stalls == b.place_stalls &&
         a.place_stall_causes == b.place_stall_causes;
}

/// Empty when `got` matches the reference, else what differs.
std::string diff_outcome(const Outcome& ref, const Outcome& got) {
  if (got.cycles != ref.cycles)
    return "cycles " + std::to_string(got.cycles) + " != " + std::to_string(ref.cycles);
  if (got.retired != ref.retired) return "retired instruction count differs";
  if (got.output != ref.output) return "architectural output differs";
  if (!same_stats(got.stats, ref.stats)) return "engine Stats differ";
  return "";
}

/// Machine-side counters of one run (zero where the machine has no such
/// component). The caches and the predictor restart at every load; the
/// decode cache keeps its entries across loads, so its counts are deltas.
struct LayerCounters {
  std::uint64_t decode_hits = 0, decode_misses = 0;
  std::uint64_t icache_accesses = 0, icache_misses = 0;
  std::uint64_t dcache_accesses = 0, dcache_misses = 0;
  std::uint64_t mispredicts = 0, taken = 0;
};

/// One simulator of the workload's machine on one backend.
class Target {
 public:
  virtual ~Target() = default;
  /// Load the workload's program (resets the engine and the machine).
  virtual void load() = 0;
  /// Run to completion through the model's public run call.
  virtual void run() = 0;
  /// Completion test for step()-driven runs, besides the engine stopping.
  virtual bool finished() = 0;
  virtual core::Engine& engine() = 0;
  virtual Outcome outcome() = 0;
  virtual LayerCounters counters() = 0;
};

/// The SimpleScalar control: runs the same program and reports architectural
/// output comparable with the RCPN outcome.
class Baseline {
 public:
  virtual ~Baseline() = default;
  /// One complete run (the simulator resets itself first).
  virtual void run() = 0;
  /// Result of the last run (no engine Stats: a different simulator).
  virtual Outcome outcome() const = 0;
};

std::string arm_output(const std::string& out, int exit_code, bool exited) {
  return out + "\nexit " + std::to_string(exit_code) + (exited ? "" : " (did not exit)");
}

template <typename Sim, typename Config>
class ArmTarget final : public Target {
 public:
  ArmTarget(const desc::Description& d, const desc::DelegateRegistry& reg, Config cfg,
            const sys::Program& program)
      : sim_(d, reg, std::move(cfg)), program_(program) {}
  void load() override { sim_.begin(program_); }
  void run() override { sim_.advance(~0ull); }
  bool finished() override { return false; }  // the exit SWI stops the engine
  core::Engine& engine() override { return sim_.engine(); }
  Outcome outcome() override {
    const machines::RunResult r = machines::collect_result(sim_.engine(), sim_.machine());
    return {r.cycles, r.instructions, arm_output(r.output, r.exit_code, r.exited),
            sim_.engine().stats()};
  }
  LayerCounters counters() override {
    const machines::ArmMachine& m = sim_.machine();
    const mem::CacheStats& ic = m.mem.icache().stats();
    const mem::CacheStats& dc = m.mem.dcache().stats();
    return {m.dcache.stats().hits, m.dcache.stats().misses, ic.accesses, ic.misses,
            dc.accesses, dc.misses, m.mispredicts, m.taken_branches};
  }

 private:
  Sim sim_;
  const sys::Program& program_;
};

class ArmBaseline final : public Baseline {
 public:
  ArmBaseline(const baseline::SimpleScalarConfig& cfg, const sys::Program& program)
      : ss_(cfg), program_(program) {}
  void run() override { last_ = ss_.run(program_); }
  Outcome outcome() const override {
    return {last_.cycles, last_.instructions,
            arm_output(last_.output, last_.exit_code, last_.exited), {}};
  }

 private:
  baseline::SimpleScalarSim ss_;
  const sys::Program& program_;
  machines::RunResult last_;
};

std::string reg_dump(const std::function<std::uint32_t(unsigned)>& reg) {
  std::string s;
  for (unsigned i = 0; i < machines::TomasuloMachine::kNumRegs; ++i)
    s += "r" + std::to_string(i) + "=" + std::to_string(reg(i)) + " ";
  return s;
}

class TomasuloTarget final : public Target {
 public:
  TomasuloTarget(const desc::Description& d, const desc::DelegateRegistry& reg,
                 core::EngineOptions options, const std::vector<machines::Fig5Instr>& stream)
      : core_(d, reg, options), stream_(stream) {}
  void load() override { core_.load(stream_); }
  void run() override { core_.run(~0ull); }
  bool finished() override {
    const machines::TomasuloMachine& m = core_.machine();
    return m.pc >= m.program.size() && core_.engine().tokens_in_flight() == 0;
  }
  core::Engine& engine() override { return core_.engine(); }
  Outcome outcome() override {
    const core::Stats& s = core_.engine().stats();
    return {s.cycles, s.retired, reg_dump([this](unsigned i) { return core_.reg(i); }), s};
  }
  LayerCounters counters() override {
    const isa::DecodeCache::Stats& d = core_.machine().dcache.stats();
    return {d.hits, d.misses, 0, 0, 0, 0, 0, 0};
  }

 private:
  machines::TomasuloCore core_;
  const std::vector<machines::Fig5Instr>& stream_;
};

class RegsBaseline final : public Baseline {
 public:
  explicit RegsBaseline(const sys::Program& program) : program_(program) {}
  void run() override { ss_.run(program_); }
  Outcome outcome() const override {
    return {ss_.cycles(), ss_.instructions(),
            reg_dump([this](unsigned i) { return ss_.reg(i); }), {}};
  }

 private:
  baseline::SimpleScalarSim ss_;
  const sys::Program& program_;
};

// -- workloads ----------------------------------------------------------------

class Workload {
 public:
  virtual ~Workload() = default;
  /// Generate / assemble the seeded program.
  virtual void make_inputs(std::uint64_t seed) = 0;
  /// The machine's model description (before serialization).
  virtual desc::Description describe() const = 0;
  virtual const desc::DelegateRegistry& registry() const = 0;
  virtual std::unique_ptr<Target> make_target(const desc::Description& d,
                                              const desc::DelegateRegistry& reg,
                                              core::Backend backend) const = 0;
  virtual std::unique_ptr<Baseline> make_baseline() const = 0;
  /// Empty when the interpreted run completed correctly, else why not.
  virtual std::string check_reference(const Outcome& interp) const = 0;
  /// Architectural output the SimpleScalar control must reproduce.
  virtual std::string expected_output(const Outcome& interp) const { return interp.output; }
};

core::EngineOptions options_for(const desc::Description& d, core::Backend backend) {
  core::EngineOptions base;
  base.backend = backend;
  return desc::engine_options(d, base);
}

/// Replace the one occurrence of `from` in `src` (a kernel's embedded LCG
/// seed) with `to`. Throws if the kernel no longer contains it exactly once.
std::string substitute_once(std::string src, const std::string& from, const std::string& to) {
  const std::size_t at = src.find(from);
  if (at == std::string::npos || src.find(from, at + 1) != std::string::npos)
    throw std::runtime_error("kernel seed line '" + from + "' not found exactly once");
  return src.replace(at, from.size(), to);
}

/// An ARM kernel from workloads:: (one pass of its outer loop) with its data
/// generator re-seeded, on a StrongArm or XScale pipeline, against
/// SimpleScalar with the same caches.
template <typename Sim, typename Config>
class ArmKernel final : public Workload {
 public:
  using Edit = std::optional<std::pair<std::string, std::string>>;

  /// `seed_line` is the kernel's LCG seed line; `size_edit` an optional
  /// (from, to) replacement of the kernel source that sets its data size.
  ArmKernel(std::string kernel, std::string seed_line, Edit size_edit, std::string model_key,
            Config cfg, baseline::SimpleScalarConfig ss_cfg)
      : kernel_(std::move(kernel)),
        seed_line_(std::move(seed_line)),
        size_edit_(std::move(size_edit)),
        model_key_(std::move(model_key)),
        cfg_(std::move(cfg)),
        ss_cfg_(std::move(ss_cfg)) {}

  void make_inputs(std::uint64_t seed) override {
    const workloads::Workload* w = workloads::find(kernel_);
    if (w == nullptr) throw std::runtime_error("no workloads:: kernel '" + kernel_ + "'");
    // A nonzero 31-bit LCG seed derived from the benchmark seed.
    const std::uint64_t v = (splitmix64(seed) & 0x7fff'ffffull) | 1;
    const std::string prefix = seed_line_.substr(0, seed_line_.find('=') + 1);
    std::string src = substitute_once(w->source(1), seed_line_, prefix + std::to_string(v));
    if (size_edit_) src = substitute_once(std::move(src), size_edit_->first, size_edit_->second);
    program_ = arm::assemble(src, kernel_).program;
  }
  desc::Description describe() const override {
    return machines::describe_machine(model_key_, core::EngineOptions{});
  }
  const desc::DelegateRegistry& registry() const override {
    return machines::arm_pipe_delegates();
  }
  std::unique_ptr<Target> make_target(const desc::Description& d,
                                      const desc::DelegateRegistry& reg,
                                      core::Backend backend) const override {
    Config cfg = cfg_;
    cfg.engine = options_for(d, backend);
    return std::make_unique<ArmTarget<Sim, Config>>(d, reg, cfg, program_);
  }
  std::unique_ptr<Baseline> make_baseline() const override {
    return std::make_unique<ArmBaseline>(ss_cfg_, program_);
  }
  std::string check_reference(const Outcome& interp) const override {
    if (interp.output.size() < 7 || interp.output.compare(interp.output.size() - 7, 7, "\nexit 0") != 0)
      return "program did not exit cleanly";
    return interp.retired == 0 ? "no instructions retired" : "";
  }

 private:
  std::string kernel_;
  std::string seed_line_;
  Edit size_edit_;
  std::string model_key_;
  Config cfg_;
  baseline::SimpleScalarConfig ss_cfg_;
  sys::Program program_;
};

/// A seeded straight-line stream of Fig5-ISA ALU instructions on the wide
/// Tomasulo core. The same stream, encoded as ARM data-processing
/// instructions, runs on SimpleScalar as the control.
class TomasuloStream final : public Workload {
 public:
  static constexpr unsigned kLength = 2500;

  void make_inputs(std::uint64_t seed) override {
    using I = machines::Fig5Instr;
    static const I::AluOp kOtherOps[] = {I::AluOp::add, I::AluOp::sub, I::AluOp::xor_op};
    static const char* kMnemonic[] = {"add", "sub", "mul", "eor"};  // by AluOp
    stream_.clear();
    std::array<std::uint32_t, machines::TomasuloMachine::kNumRegs> regs{};
    std::string arm = "_start:\n";
    std::uint64_t state = splitmix64(seed ^ 0x70a5'd1e0ull);
    for (unsigned i = 0; i < kLength; ++i) {
      const auto r = static_cast<std::uint32_t>((state = splitmix64(state)) >> 32);
      I in;
      if (i < regs.size()) {
        in = I::alui(I::AluOp::add, i, i, 1 + (r & 0xff));  // seed every register
      } else {
        // Destinations rotate over the registers: each register allows only a
        // few in-flight writers, so random destinations would stall issue long
        // before the RS fills. Every other instruction multiplies (3-cycle FU
        // occupancy), so the RS backs up.
        const unsigned d = i % regs.size(), s1 = (r >> 3) & 7, s2 = (r >> 6) & 7;
        if (i % 2 == 1) {
          in = I::alu(I::AluOp::mul, d, s1, s2);
        } else {
          const I::AluOp op = kOtherOps[(r >> 10) % 3];
          in = ((r >> 12) & 3) == 0 ? I::alui(op, d, s1, (r >> 14) & 0xff)
                                    : I::alu(op, d, s1, s2);
        }
      }
      stream_.push_back(in);
      const std::uint32_t b = in.s2_is_imm ? in.imm : regs[in.s2];
      switch (in.op) {
        case I::AluOp::add: regs[in.d] = regs[in.s1] + b; break;
        case I::AluOp::sub: regs[in.d] = regs[in.s1] - b; break;
        case I::AluOp::mul: regs[in.d] = regs[in.s1] * b; break;
        case I::AluOp::xor_op: regs[in.d] = regs[in.s1] ^ b; break;
      }
      arm += std::string(kMnemonic[static_cast<unsigned>(in.op)]) + " r" +
             std::to_string(in.d) + ", r" + std::to_string(in.s1) + ", " +
             (in.s2_is_imm ? "#" + std::to_string(in.imm) : "r" + std::to_string(in.s2)) +
             "\n";
    }
    arm += "swi 0\n";
    arm_program_ = arm::assemble(arm, "tomasulo-wide").program;
    expected_ = reg_dump([&regs](unsigned i) { return regs[i]; });
  }
  desc::Description describe() const override {
    const core::EngineOptions options;
    machines::TomasuloCore core(perfbench::kTomasuloRsSlots, perfbench::kTomasuloFus, options);
    return desc::describe_net(core.net(), options);
  }
  const desc::DelegateRegistry& registry() const override {
    return machines::tomasulo_delegates();
  }
  std::unique_ptr<Target> make_target(const desc::Description& d,
                                      const desc::DelegateRegistry& reg,
                                      core::Backend backend) const override {
    return std::make_unique<TomasuloTarget>(d, reg, options_for(d, backend), stream_);
  }
  std::unique_ptr<Baseline> make_baseline() const override {
    return std::make_unique<RegsBaseline>(arm_program_);
  }
  std::string check_reference(const Outcome& interp) const override {
    if (interp.retired != kLength) return "not every instruction retired";
    return interp.output == expected_ ? "" : "registers differ from the ISA reference";
  }
  std::string expected_output(const Outcome&) const override { return expected_; }

 private:
  std::vector<machines::Fig5Instr> stream_;
  sys::Program arm_program_;
  std::string expected_;  // register dump of the ISA-level evaluation
};

// Runs are kept short (tens of milliseconds) on purpose: the host's speed
// wanders on a scale of 100 ms, so the shorter the runs, the closer in time
// the two sides of a per-repetition ratio are measured, and the more
// repetitions a run gets.
std::unique_ptr<Workload> make_workload(const std::string& name) {
  using SaKernel = ArmKernel<machines::StrongArmSim, machines::StrongArmConfig>;
  using XsKernel = ArmKernel<machines::XScaleSim, machines::XScaleConfig>;
  if (name == "sa-crc") {
    const machines::StrongArmConfig cfg;
    baseline::SimpleScalarConfig ss;
    ss.mem = cfg.mem;
    return std::make_unique<SaKernel>("crc", "ldr r2, =12345", std::nullopt, "strongarm_crc",
                                      cfg, ss);
  }
  if (name == "xs-blowfish-1k") {
    machines::XScaleConfig cfg;
    const mem::CacheConfig direct_1k{1024, 32, 1, 1, cfg.mem.dcache.miss_penalty, true};
    cfg.mem.icache = direct_1k;
    cfg.mem.dcache = direct_1k;
    baseline::SimpleScalarConfig ss;
    ss.mem = cfg.mem;
    // 64 of the kernel's 256 blocks per pass.
    return std::make_unique<XsKernel>("blowfish", "ldr r2, =424242",
                                      std::pair{".equ NBLK, 256", ".equ NBLK, 64"},
                                      "xscale_adpcm", cfg, ss);
  }
  if (name == "tomasulo-wide") return std::make_unique<TomasuloStream>();
  return nullptr;
}

// -- set-up -------------------------------------------------------------------

constexpr std::array<core::Backend, 3> kBackends = {
    core::Backend::interpreted, core::Backend::compiled, core::Backend::generated};
constexpr std::array<const char*, 3> kBackendNames = {"interp", "compiled", "generated"};

/// One simulator per backend and the SimpleScalar control. `spacer` is heap
/// allocated before them (see run_untraced) and never written, so it moves
/// their addresses without adding resident pages.
struct Simulators {
  std::unique_ptr<char[]> spacer;
  std::array<std::unique_ptr<Target>, 3> targets;
  std::unique_ptr<Baseline> ss;
};

/// Everything a measurement needs: the model description (after a round trip
/// through the rcpn-model/1 text form) and the loaded simulators.
struct Setup {
  desc::Description desc;
  Simulators sims;
};

/// Per-phase seconds of every set-up repetition.
struct SetupTimes {
  static constexpr std::size_t kMaxReps = 2000;

  // Sized up front, so that what they take (part of peak_rss_mb) does not
  // depend on how many repetitions the host fits into a run.
  SetupTimes() {
    for (std::vector<double>* v : {&assemble, &desc_parse, &build_ss, &load, &total, &build[0],
                                   &build[1], &build[2]})
      v->reserve(kMaxReps);
  }

  std::vector<double> assemble, desc_parse, build_ss, load, total;
  std::array<std::vector<double>, 3> build;
};

std::unique_ptr<Setup> set_up_once(Workload& w, std::uint64_t seed, SetupTimes& times) {
  auto s = std::make_unique<Setup>();
  const Clock::time_point t0 = Clock::now();
  Clock::time_point t = t0;
  const auto lap = [&t](std::vector<double>& into) {
    const Clock::time_point now = Clock::now();
    into.push_back(std::chrono::duration<double>(now - t).count());
    t = now;
  };
  w.make_inputs(seed);
  lap(times.assemble);
  s->desc = desc::parse(desc::to_text(w.describe()));
  lap(times.desc_parse);
  for (std::size_t b = 0; b < kBackends.size(); ++b) {
    s->sims.targets[b] = w.make_target(s->desc, w.registry(), kBackends[b]);
    lap(times.build[b]);
  }
  s->sims.ss = w.make_baseline();
  lap(times.build_ss);
  for (const std::unique_ptr<Target>& target : s->sims.targets) target->load();
  lap(times.load);
  times.total.push_back(std::chrono::duration<double>(t - t0).count());
  return s;
}

/// Set up repeatedly (one construction is well under a millisecond on the
/// ARM models, so a single sample is noise) and keep the last set-up.
std::unique_ptr<Setup> set_up(Workload& w, std::uint64_t seed, SetupTimes& times) {
  constexpr double kBudgetSeconds = 1.0;
  constexpr std::size_t kMinReps = 5;
  const Clock::time_point start = Clock::now();
  std::unique_ptr<Setup> s;
  while (times.total.size() < kMinReps ||
         (times.total.size() < SetupTimes::kMaxReps && since(start) < kBudgetSeconds)) {
    s.reset();  // targets refer to the workload's inputs, which the next rep rebuilds
    s = set_up_once(w, seed, times);
  }
  return s;
}

// -- checked, timed runs ------------------------------------------------------

struct Tally {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
};

/// One runnable simulator: a complete run (timed), its result check (empty
/// when right) and its simulated cycle count.
struct Runner {
  std::string name;
  std::function<void()> run;
  std::function<std::string()> check;
  std::function<std::uint64_t()> cycles;
};

/// Run, time and check `r` once. Returns the host seconds, or a negative
/// value when the run threw or produced a wrong result.
double attempt(const Runner& r, Tally& tally) {
  ++tally.attempted;
  std::string why;
  double secs = -1.0;
  try {
    const Clock::time_point t0 = Clock::now();
    r.run();
    secs = since(t0);
    why = r.check();
  } catch (const std::exception& e) {
    why = std::string("threw: ") + e.what();
  }
  if (why.empty()) return secs;
  ++tally.failed;
  std::fprintf(stderr, "perfbench: %s run failed: %s\n", r.name.c_str(), why.c_str());
  return -1.0;
}

Runner target_runner(std::string name, Target& t, const Outcome& ref) {
  return {std::move(name), [&t] {
            t.load();
            t.run();
          },
          [&t, &ref] { return diff_outcome(ref, t.outcome()); },
          [&t] { return t.engine().stats().cycles; }};
}

/// A step()-driven run: the same cycles as Target::run, with the loop in the
/// benchmark so the traced mode can sample between cycles.
template <typename PerCycle>
void step_run(Target& t, PerCycle&& per_cycle) {
  t.load();
  core::Engine& e = t.engine();
  while (!e.stopped() && !t.finished()) {
    e.step();
    per_cycle(e);
  }
}

// -- report -------------------------------------------------------------------

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

void report(const std::string& workload, const std::vector<Metric>& metrics,
            const Tally& tally) {
  for (const Metric& m : metrics)
    std::printf("%-16s %-44s %14.6g %s\n", workload.c_str(), m.name.c_str(), m.value,
                m.unit.c_str());
  std::printf("%-16s %-44s %14.6g (%llu of %llu runs)\n", workload.c_str(), "run_fail_frac",
              tally.attempted == 0 ? 1.0
                                   : static_cast<double>(tally.failed) /
                                         static_cast<double>(tally.attempted),
              static_cast<unsigned long long>(tally.failed),
              static_cast<unsigned long long>(tally.attempted));
  std::string json = "{\"correct\": ";
  json += tally.failed == 0 && tally.attempted > 0 ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(tally.attempted);
  json += ", \"failed\": " + std::to_string(tally.failed) + ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    char value[64];
    std::snprintf(value, sizeof(value), "%.17g", metrics[i].value);
    json += (i == 0 ? "\"" : ", \"") + metrics[i].name + "\": {\"value\": " + value +
            ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
}

/// The process's peak resident set so far, in MB: VmHWM of /proc/self/status.
/// (getrusage's ru_maxrss would not do: execve carries the parent's peak
/// over, so it reports the launching Python process's footprint.)
double max_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line))
    if (line.rfind("VmHWM:", 0) == 0) return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
  throw std::runtime_error("no VmHWM in /proc/self/status");
}

/// The peak at entry to main: the binary, its libraries and the C++ runtime.
double g_startup_rss_mb = 0.0;

/// The workload's own peak: how far the workload raised the process's peak
/// resident set above its start-up footprint.
double peak_rss_mb() { return max_rss_mb() - g_startup_rss_mb; }

double per(double num, double den) { return den == 0.0 ? 0.0 : num / den; }

/// Run the interpreted reference (set_up left it loaded) and check that it
/// completed correctly; every other run is compared against it.
bool reference_run(const Workload& w, Target& interp, Outcome& ref, Tally& tally) {
  const Runner r{"interp reference", [&interp] { interp.run(); },
                 [&] {
                   ref = interp.outcome();
                   return w.check_reference(ref);
                 },
                 [&interp] { return interp.engine().stats().cycles; }};
  return attempt(r, tally) >= 0.0;
}

// -- untraced mode: end-to-end metrics ----------------------------------------

/// The simulators of the timed runs, rebuilt from the set-up's description
/// behind a heap spacer of `spacer_bytes`, so each rebuild puts their token
/// pools and decode caches at other addresses.
std::unique_ptr<Simulators> relayout(const Workload& w, const desc::Description& d,
                                     std::size_t spacer_bytes) {
  auto l = std::make_unique<Simulators>();
  l->spacer.reset(new char[spacer_bytes]);
  for (std::size_t b = 0; b < kBackends.size(); ++b)
    l->targets[b] = w.make_target(d, w.registry(), kBackends[b]);
  l->ss = w.make_baseline();
  return l;
}

/// The SimpleScalar control's runner; its check is the architectural output.
Runner ss_runner(Baseline& ss, const std::string& expected) {
  return {"simplescalar", [&ss] { ss.run(); },
          [&ss, &expected] {
            return ss.outcome().output == expected
                       ? std::string()
                       : std::string("architectural output differs from the RCPN run");
          },
          [&ss] { return ss.outcome().cycles; }};
}

/// One runner per backend, then SimpleScalar (last).
std::vector<Runner> runners_for(Simulators& sims, const Outcome& ref,
                                const std::string& expected) {
  std::vector<Runner> runners;
  for (std::size_t b = 0; b < kBackends.size(); ++b)
    runners.push_back(target_runner(kBackendNames[b], *sims.targets[b], ref));
  runners.push_back(ss_runner(*sims.ss, expected));
  return runners;
}

std::vector<Metric> run_untraced(Workload& w, std::uint64_t seed, double seconds,
                                 Tally& tally) {
  SetupTimes times;
  std::unique_ptr<Setup> s = set_up_once(w, seed, times);
  Outcome ref;
  if (!reference_run(w, *s->sims.targets[0], ref, tally)) return {};
  const std::string expected = w.expected_output(ref);
  const desc::Description desc = s->desc;
  s.reset();

  // Where the heap puts the simulators' pools moves their speed by several
  // percent, differently for each program, so a run that kept one layout
  // would carry that offset in every sample. The timed runs rebuild all
  // simulators every kRepsPerLayout repetitions behind a pseudo-random
  // spacer instead, and the medians average over the layouts.
  constexpr std::size_t kRepsPerLayout = 4;
  std::uint64_t layout_state = splitmix64(seed ^ 0x1a70'0017ull);
  const auto next_spacer = [&layout_state] {
    layout_state = splitmix64(layout_state);
    return static_cast<std::size_t>(layout_state % 1024) * 64;  // up to 64 KiB
  };
  std::unique_ptr<Simulators> layout = relayout(w, desc, next_spacer());
  std::vector<Runner> runners = runners_for(*layout, ref, expected);
  const std::size_t kSs = runners.size() - 1;

  // Warm-up, checked. It also sizes each simulator's timed sample: a fast
  // simulator repeats its run until the sample lasts about as long as one
  // interpreted run, so no column is a handful of milliseconds that a host
  // hiccup can swamp.
  std::vector<double> warm(runners.size());
  for (std::size_t i = 0; i < runners.size(); ++i) warm[i] = attempt(runners[i], tally);
  std::vector<unsigned> runs_per_sample(runners.size(), 1);
  for (std::size_t i = 0; i < runners.size(); ++i)
    if (warm[i] > 0.0 && warm[0] > warm[i])
      runs_per_sample[i] = static_cast<unsigned>(std::lround(warm[0] / warm[i]));

  // Interleaved repetitions, rotating which simulator goes first. Each RCPN
  // backend's rate is divided by the SimpleScalar rate of the same
  // repetition: host drift moves both sides together, so the ratios are far
  // steadier across runs than the absolute rates.
  std::vector<std::vector<double>> mcps(runners.size());
  std::array<std::vector<double>, kBackends.size()> vs_ss;
  const Clock::time_point start = Clock::now();
  for (std::size_t rep = 0; rep < 3 || since(start) < seconds; ++rep) {
    // One complete set-up per layout, thrown away: spread over the run like
    // the timed runs, the set-up samples see the same host as they do, not
    // just its state in the process's first second. (It rebuilds the
    // workload's inputs, identical for the seed, that the simulators load.)
    if (rep % kRepsPerLayout == 0 && times.total.size() < SetupTimes::kMaxReps)
      set_up_once(w, seed, times);
    if (rep > 0 && rep % kRepsPerLayout == 0) {
      runners.clear();
      layout.reset();
      layout = relayout(w, desc, next_spacer());
      runners = runners_for(*layout, ref, expected);
    }
    std::vector<double> rate(runners.size(), -1.0);
    for (std::size_t k = 0; k < runners.size(); ++k) {
      const std::size_t i = (rep + k) % runners.size();
      double total = 0.0;
      for (unsigned n = 0; n < runs_per_sample[i] && total >= 0.0; ++n) {
        const double secs = attempt(runners[i], tally);
        total = secs < 0.0 ? -1.0 : total + secs;
      }
      if (total > 0.0)
        rate[i] = static_cast<double>(runners[i].cycles() * runs_per_sample[i]) / total / 1e6;
    }
    for (std::size_t i = 0; i < runners.size(); ++i)
      if (rate[i] > 0.0) mcps[i].push_back(rate[i]);
    for (std::size_t b = 0; b < kBackends.size(); ++b)
      if (rate[b] > 0.0 && rate[kSs] > 0.0) vs_ss[b].push_back(rate[b] / rate[kSs]);
  }
  std::printf("%zu interleaved repetitions in %.2f s (absolute rates are host-dependent)\n",
              mcps[0].size(), since(start));
  for (std::size_t i = 0; i < runners.size(); ++i)
    print_sample((runners[i].name + " rate").c_str(), mcps[i], "Mcyc/s");
  for (std::size_t b = 0; b < kBackends.size(); ++b)
    print_sample((std::string(kBackendNames[b]) + " / simplescalar").c_str(), vs_ss[b], "x");

  return {{"interp_vs_ss", median(vs_ss[0]), "x"},
          {"compiled_vs_ss", median(vs_ss[1]), "x"},
          {"speedup_vs_ss", median(vs_ss[2]), "x"},
          {"cpi", per(static_cast<double>(ref.cycles), static_cast<double>(ref.retired)),
           "cycles/insn"},
          {"setup_s", median(times.total), "s"},
          {"peak_rss_mb", peak_rss_mb(), "MB"}};
}

// -- traced mode: the per-layer ledger ----------------------------------------

/// Backends with a traced twin: the generated backend calls its delegates
/// directly, so the wrapped registry cannot reach them.
constexpr std::size_t kTracedBackends = 2;
constexpr std::size_t kNumGroups = perfbench::kGroups.size();
/// Metric names of core::StallCause, in enum order.
constexpr std::array<const char*, core::kNumStallCauses> kStallCauses = {
    "no_ready_token", "guard_rejected", "capacity_backpressure"};

bool ends_with(const std::string& s, const std::string& suffix) {
  return s.size() >= suffix.size() &&
         s.compare(s.size() - suffix.size(), suffix.size(), suffix) == 0;
}

std::vector<Metric> run_traced(Workload& w, std::uint64_t seed, double seconds,
                               Tally& tally) {
  SetupTimes times;
  std::unique_ptr<Setup> s = set_up(w, seed, times);
  std::vector<Metric> out = {{"setup.assemble_s", median(times.assemble), "s"},
                             {"setup.desc_parse_s", median(times.desc_parse), "s"},
                             {"setup.build_interp_s", median(times.build[0]), "s"},
                             {"setup.build_compiled_s", median(times.build[1]), "s"},
                             {"setup.build_generated_s", median(times.build[2]), "s"},
                             {"setup.build_ss_s", median(times.build_ss), "s"},
                             {"setup.load_s", median(times.load), "s"}};

  Outcome ref;
  if (!reference_run(w, *s->sims.targets[0], ref, tally)) return out;
  const double cycles = static_cast<double>(ref.cycles);
  const double kinsn = static_cast<double>(ref.retired) / 1000.0;

  const desc::DelegateRegistry traced_reg = perfbench::traced_registry(w.registry());
  std::array<std::unique_ptr<Target>, kTracedBackends> traced;
  std::vector<Runner> untraced_runs, traced_runs;
  for (std::size_t b = 0; b < kTracedBackends; ++b) {
    traced[b] = w.make_target(s->desc, traced_reg, kBackends[b]);
    untraced_runs.push_back(target_runner(kBackendNames[b], *s->sims.targets[b], ref));
    Target& t = *traced[b];
    traced_runs.push_back({std::string("traced ") + kBackendNames[b],
                           [&t] {
                             perfbench::reset_slot_counters();
                             step_run(t, [](core::Engine&) {});
                           },
                           [&t, &ref] { return diff_outcome(ref, t.outcome()); },
                           [&t] { return t.engine().stats().cycles; }});
  }

  // Counting pass: the first run of the fresh traced interpreted simulator,
  // sampled between cycles. Every count here is deterministic.
  Target& counted = *traced[0];
  const core::PlaceId rs = counted.engine().net().find_place("RS");
  std::uint64_t idle = 0, rs_tokens = 0, rs_ge16 = 0, last_firings = 0;
  const LayerCounters before = counted.counters();
  const Runner counting{"traced interp (counting)",
                        [&] {
                          perfbench::reset_slot_counters();
                          step_run(counted, [&](core::Engine& e) {
                            idle += e.stats().firings == last_firings ? 1 : 0;
                            last_firings = e.stats().firings;
                            if (rs == core::kNoPlace) return;
                            const unsigned n = e.tokens_in_place(rs);
                            rs_tokens += n;
                            rs_ge16 += n >= 16 ? 1 : 0;
                          });
                        },
                        traced_runs[0].check, traced_runs[0].cycles};
  if (attempt(counting, tally) < 0.0) return out;
  const LayerCounters after = counted.counters();
  const Outcome traced_outcome = counted.outcome();
  std::array<double, kNumGroups> calls{};
  double all_calls = 0, issue_calls = 0, issue_ok = 0, exec_calls = 0, exec_ok = 0;
  for (std::size_t i = 0; i < perfbench::g_num_slots; ++i) {
    const perfbench::DelegateSlot& slot = perfbench::g_slots[i];
    calls[slot.group] += static_cast<double>(slot.calls);
    all_calls += static_cast<double>(slot.calls);
    if (ends_with(slot.symbol, "issue_guard")) {
      issue_calls += static_cast<double>(slot.calls);
      issue_ok += static_cast<double>(slot.accepted);
    } else if (ends_with(slot.symbol, "exec_guard")) {
      exec_calls += static_cast<double>(slot.calls);
      exec_ok += static_cast<double>(slot.accepted);
    }
  }

  // Timed passes: each backend's untraced and traced runs interleaved. Self
  // time is the traced run's host time minus the time inside delegates, and
  // both are net of the timing's own cost (calibrated before and after).
  const perfbench::TimerCost cost_before = perfbench::calibrate_timer();
  std::array<double, kTracedBackends> traced_ns{}, traced_runs_ok{};
  std::array<std::array<double, kNumGroups>, kTracedBackends> group_ns{};
  std::array<std::vector<double>, kTracedBackends> traced_secs, untraced_secs;
  const Clock::time_point start = Clock::now();
  for (std::size_t rep = 0; rep < 3 || since(start) < seconds; ++rep) {
    for (std::size_t k = 0; k < kTracedBackends; ++k) {
      const std::size_t b = (rep + k) % kTracedBackends;
      const double u = attempt(untraced_runs[b], tally);
      if (u >= 0.0) untraced_secs[b].push_back(u);
      const double t = attempt(traced_runs[b], tally);
      if (t < 0.0) continue;
      traced_secs[b].push_back(t);
      traced_ns[b] += t * 1e9;
      traced_runs_ok[b] += 1.0;
      for (std::size_t i = 0; i < perfbench::g_num_slots; ++i)
        group_ns[b][perfbench::g_slots[i].group] +=
            static_cast<double>(perfbench::g_slots[i].ticks) * perfbench::ns_per_tick();
    }
  }
  const perfbench::TimerCost cost_after = perfbench::calibrate_timer();
  const perfbench::TimerCost cost = {(cost_before.inside_ns + cost_after.inside_ns) / 2,
                                     (cost_before.outside_ns + cost_after.outside_ns) / 2};
  std::printf("%zu traced repetitions in %.2f s; timing costs %.1f ns per delegate call "
              "(%.1f inside its bracket, %.1f outside)\n",
              traced_secs[0].size(), since(start), cost.inside_ns + cost.outside_ns,
              cost.inside_ns, cost.outside_ns);
  out.push_back({"trace.timer_ns_per_call", cost.inside_ns + cost.outside_ns, "ns/call"});

  for (std::size_t b = 0; b < kTracedBackends; ++b) {
    const std::string p = kBackendNames[b];
    const double run_cycles = cycles * traced_runs_ok[b];
    double raw_delegate_ns = 0.0, delegate_ns = 0.0;
    std::array<double, kNumGroups> net_ns{};
    for (std::size_t g = 0; g < kNumGroups; ++g) {
      raw_delegate_ns += group_ns[b][g];
      net_ns[g] = group_ns[b][g] - calls[g] * traced_runs_ok[b] * cost.inside_ns;
      delegate_ns += net_ns[g];
    }
    const double self_ns =
        traced_ns[b] - raw_delegate_ns - all_calls * traced_runs_ok[b] * cost.outside_ns;
    out.push_back({p + ".core.self_ns_per_cycle", per(self_ns, run_cycles), "ns/cycle"});
    for (std::size_t g = 0; g < kNumGroups; ++g) {
      const std::string m = p + ".machines." + perfbench::kGroups[g];
      out.push_back({m + ".ns_per_cycle", per(net_ns[g], run_cycles), "ns/cycle"});
      out.push_back({m + ".ns_per_call", per(net_ns[g], calls[g] * traced_runs_ok[b]),
                     "ns/call"});
    }
    // The ledger's cross-check: net self plus net delegate time against the
    // untraced run's time per cycle (1.0 when the calibration is exact).
    const double untraced_ns_per_cycle = per(median(untraced_secs[b]) * 1e9, cycles);
    const double accounted = per(per(self_ns + delegate_ns, run_cycles), untraced_ns_per_cycle);
    std::printf("%s: self %.1f + delegates %.1f ns/cycle net of timing, untraced %.1f "
                "ns/cycle (accounted %.3f)\n",
                p.c_str(), per(self_ns, run_cycles), per(delegate_ns, run_cycles),
                untraced_ns_per_cycle, accounted);
    if (accounted < 0.8 || accounted > 1.25)
      std::fprintf(stderr, "perfbench: warning: %s ledger accounts for %.2fx the untraced time; "
                   "its self/delegate split is unreliable on this host\n", p.c_str(), accounted);
    out.push_back({p + ".trace.accounted_ratio", accounted, "ratio"});
    out.push_back({p + ".trace.overhead",
                   per(median(traced_secs[b]), median(untraced_secs[b])), "x"});
    out.push_back({p + ".mcps", per(cycles / 1e6, median(untraced_secs[b])), "Mcyc/s"});
  }

  for (std::size_t g = 0; g < kNumGroups; ++g)
    out.push_back({std::string("machines.") + perfbench::kGroups[g] + ".calls_per_cycle",
                   per(calls[g], cycles), "1/cycle"});
  out.push_back({"machines.issue_guard.accept_ratio", per(issue_ok, issue_calls), "ratio"});
  out.push_back({"machines.exec_guard.accept_ratio", per(exec_ok, exec_calls), "ratio"});

  const core::Stats& st = ref.stats;
  out.push_back({"core.firings_per_cycle", per(static_cast<double>(st.firings), cycles),
                 "1/cycle"});
  out.push_back({"core.idle_cycle_frac", per(static_cast<double>(idle), cycles), "ratio"});
  for (unsigned c = 0; c < core::kNumStallCauses; ++c) {
    double n = 0;
    for (std::size_t i = c; i < st.place_stall_causes.size(); i += core::kNumStallCauses)
      n += static_cast<double>(st.place_stall_causes[i]);
    out.push_back({std::string("core.stall.") + kStallCauses[c], per(n, cycles), "1/cycle"});
  }
  out.push_back({"core.rs_mean_occupancy", per(static_cast<double>(rs_tokens), cycles),
                 "tokens"});
  out.push_back({"core.rs_ge16_frac", per(static_cast<double>(rs_ge16), cycles), "ratio"});

  const double dh = static_cast<double>(after.decode_hits - before.decode_hits);
  const double dm = static_cast<double>(after.decode_misses - before.decode_misses);
  out.push_back({"isa.decode.hit_ratio", per(dh, dh + dm), "ratio"});
  out.push_back({"isa.decode.misses_per_kinsn", per(dm, kinsn), "1/kinsn"});
  const auto cache = [&](const char* name, std::uint64_t accesses, std::uint64_t misses) {
    const std::string m = std::string("mem.") + name;
    out.push_back({m + ".miss_ratio",
                   per(static_cast<double>(misses), static_cast<double>(accesses)), "ratio"});
    out.push_back({m + ".accesses_per_kinsn", per(static_cast<double>(accesses), kinsn),
                   "1/kinsn"});
  };
  cache("icache", after.icache_accesses, after.icache_misses);
  cache("dcache", after.dcache_accesses, after.dcache_misses);
  out.push_back({"predictor.mispredicts_per_kinsn",
                 per(static_cast<double>(after.mispredicts), kinsn), "1/kinsn"});
  out.push_back({"predictor.taken_per_kinsn", per(static_cast<double>(after.taken), kinsn),
                 "1/kinsn"});

  Baseline& ss = *s->sims.ss;
  const std::string expected = w.expected_output(ref);
  if (attempt(ss_runner(ss, expected), tally) >= 0.0) {
    const Outcome o = ss.outcome();
    out.push_back({"baseline.ss_cpi",
                   per(static_cast<double>(o.cycles), static_cast<double>(o.retired)),
                   "cycles/insn"});
  }
  out.push_back({"trace.cpi",
                 per(static_cast<double>(traced_outcome.cycles),
                     static_cast<double>(traced_outcome.retired)),
                 "cycles/insn"});
  return out;
}

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --workload sa-crc|xs-blowfish-1k|tomasulo-wide --seed N "
               "--seconds S --trace 0|1\n",
               argv0);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  g_startup_rss_mb = max_rss_mb();
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  int trace = -1;
  bool have_seed = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const char* val = argv[i + 1];
    char* end = nullptr;
    if (key == "--workload") {
      workload = val;
    } else if (key == "--seed") {
      seed = std::strtoull(val, &end, 10);
      have_seed = end != val && *end == '\0';
    } else if (key == "--seconds") {
      seconds = std::strtod(val, &end);
      if (end == val || *end != '\0') seconds = 0.0;
    } else if (key == "--trace") {
      trace = std::string(val) == "0" ? 0 : std::string(val) == "1" ? 1 : -1;
    } else {
      return usage(argv[0]);
    }
  }
  if (argc % 2 != 1 || workload.empty() || !have_seed || !(seconds > 0.0) || trace < 0)
    return usage(argv[0]);
  std::unique_ptr<Workload> w = make_workload(workload);
  if (w == nullptr) return usage(argv[0]);

  Tally tally;
  std::vector<Metric> metrics;
  try {
    metrics = trace == 1 ? run_traced(*w, seed, seconds, tally)
                         : run_untraced(*w, seed, seconds, tally);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    ++tally.attempted;
    ++tally.failed;
  }
  report(workload, metrics, tally);
  return tally.failed == 0 ? 0 : 1;
}
