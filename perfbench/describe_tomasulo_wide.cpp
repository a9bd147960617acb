// Writes the rcpn-model/1 description of the tomasulo-wide machine, the
// input rcpn_emit turns into the generated (StaticEngine) simulator the
// benchmark links.
//
//   describe_tomasulo_wide OUT.rcpn
#include <cstdio>
#include <exception>

#include "desc/description.hpp"
#include "machines/tomasulo.hpp"
#include "params.hpp"

int main(int argc, char** argv) {
  if (argc != 2) {
    std::fprintf(stderr, "usage: %s OUT.rcpn\n", argv[0]);
    return 2;
  }
  try {
    const rcpn::core::EngineOptions options;
    rcpn::machines::TomasuloCore core(perfbench::kTomasuloRsSlots, perfbench::kTomasuloFus,
                                      options);
    rcpn::desc::write_file(argv[1], rcpn::desc::describe_net(core.net(), options));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "describe_tomasulo_wide: %s\n", e.what());
    return 1;
  }
  return 0;
}
