// Shape of the tomasulo-wide workload's machine, shared by the benchmark and
// by describe_tomasulo_wide (which writes the description the generated
// backend is emitted from), so the two cannot drift apart.
#pragma once

namespace perfbench {

/// Reservation-station slots: wide enough that the RS pool passes the
/// 16-slot threshold (core::soa::kSimdMinSlots) where the AVX2 scans engage.
inline constexpr unsigned kTomasuloRsSlots = 32;
/// One functional unit, so multiplies back the RS up.
inline constexpr unsigned kTomasuloFus = 1;

}  // namespace perfbench
