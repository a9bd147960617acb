#include "gen/compiled_engine.hpp"

namespace rcpn::gen {

template class TableEngine<CompiledEngine>;

}  // namespace rcpn::gen
