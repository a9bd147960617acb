// Ablation — decode-once token caching (paper §4: instruction tokens carry
// the decode result and "are cached for later reuse") vs re-decoding and
// re-binding operands on every fetch. The bypass mode rebuilds the full
// decode entry — DecodedInstruction, RegRef/Const operand binding, issue
// plan — for every dynamic instruction, the way per-stage interpretive
// simulators behave.
//
// Writes BENCH_ablation_decode.json with both rates and their ratio per
// workload; CI fails when the token cache stops paying against re-decode.
#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "bench/bench_util.hpp"
#include "machines/strongarm.hpp"
#include "util/table.hpp"

using namespace rcpn;

int main() {
  std::printf("Ablation: cached decoded tokens vs re-decode per fetch\n");
  std::printf("model: RCPN-StrongArm; REPRO_SCALE=%.2f\n\n", bench::repro_scale());

  util::Table table({"workload", "configuration", "Mcyc/s", "decode-cache hits",
                     "misses/rebuilds"});

  std::vector<std::string> rows;
  for (const char* name : {"crc", "blowfish"}) {
    const workloads::Workload* w = workloads::find(name);
    const sys::Program prog = workloads::build(*w, bench::scaled(*w));
    double rate[2] = {0.0, 0.0};  // Mcyc/s: token cache, re-decode
    for (const bool bypass : {false, true}) {
      machines::StrongArmConfig cfg;
      cfg.decode_cache_bypass = bypass;
      machines::StrongArmSim sim(cfg);
      // Warm-up run: populate the decode cache (load_program keeps decoded
      // entries across reloads) so the timed run measures steady-state cache
      // behaviour, not its one-time construction.
      sim.run(prog);
      // Best of three timed runs: one wall-clock sample per side is too
      // noisy for the CI gate on this ratio.
      const auto s0 = sim.machine().dcache.stats();
      std::uint64_t cycles = 0;
      double best = 1e300;
      for (int k = 0; k < 3; ++k) {
        const auto [r, secs] = bench::timed([&] { return sim.run(prog); });
        cycles = r.cycles;
        best = std::min(best, secs);
      }
      const auto& ds = sim.machine().dcache.stats();
      rate[bypass] = static_cast<double>(cycles) / best / 1e6;
      table.add_row({name, bypass ? "re-decode every fetch" : "token cache (paper)",
                     bench::mcps(cycles, best), std::to_string((ds.hits - s0.hits) / 3),
                     std::to_string(((ds.misses + ds.rebuilds) -
                                     (s0.misses + s0.rebuilds)) / 3)});
    }
    rows.push_back(bench::JsonObj()
                       .str("name", name)
                       .num("mcps_token_cache", rate[0])
                       .num("mcps_redecode", rate[1])
                       .num("token_cache_vs_redecode", rate[0] / rate[1])
                       .render());
  }
  table.print();

  const std::string json = bench::JsonObj()
                               .str("figure", "ablation_decode")
                               .num("repro_scale", bench::repro_scale())
                               .raw("benchmarks", bench::json_array(rows))
                               .render();
  if (bench::write_file("BENCH_ablation_decode.json", json + "\n"))
    std::printf("wrote BENCH_ablation_decode.json\n");

  std::printf("\nThe cached configuration decodes each static instruction once;"
              " bypass pays decode+bind per dynamic instruction.\n");
  return 0;
}
