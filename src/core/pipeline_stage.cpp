#include "core/pipeline_stage.hpp"

namespace rcpn::core {

StageOverflowError::StageOverflowError(const std::string& stage, std::uint32_t capacity)
    : std::runtime_error("stage '" + stage + "' is full: an insert exceeded its capacity of " +
                         std::to_string(capacity) + " token(s)") {}

void PipelineStage::overflow() const { throw StageOverflowError(name_, capacity_); }

}  // namespace rcpn::core
