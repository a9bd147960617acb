// Exporters over an obs::Hub (ring + profile + meta captured at build()):
//
//  * export_chrome_trace() — Chrome-trace-event JSON (the format Perfetto and
//    chrome://tracing load directly). One thread track per pipeline stage
//    (tid = stage + 1; tid 0 carries the independent sub-net), instruction
//    tokens as async "b"/"e" spans keyed by sequence number, transition fires
//    and stalls as instant events on their stage's track, and per-stage
//    occupancy counter tracks. Timestamps are cycle numbers (the trace-event
//    µs convention: 1 cycle renders as 1 µs).
//
//  * format_profile() — the aggregate StageProfile as a text report:
//    occupancy histograms with mean/max, per-place stall-cause breakdowns and
//    fires-vs-attempts per transition (the candidate-scan hit rate).
//
// Both operate purely on the hub, so they work in every build configuration
// (hand-built hubs in tests) and after the engine is gone.
#pragma once

#include <string>

#include "obs/probe.hpp"

namespace rcpn::obs {

/// Serialize the hub's retained events as Chrome-trace-event JSON. Truncation
/// from ring overflow is flagged in otherData.dropped_events, and spans whose
/// begin was evicted are silently re-anchored (no unbalanced "e" records).
std::string export_chrome_trace(const Hub& hub);

/// Human-readable aggregate profile report.
std::string format_profile(const Hub& hub);

}  // namespace rcpn::obs
