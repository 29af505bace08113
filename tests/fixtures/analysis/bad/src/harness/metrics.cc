// Fixture: a counter-table row whose registry name docs/METRICS.md does
// not document (rule: metrics-doc). The documented row and the row
// without a registry name stay silent.

constexpr FrameCounter kFrameCounters[] = {
    {"frames_total", "sim.frames_total", &FrameStats::frames_total},
    {"frame_cycles", nullptr, &FrameStats::frame_cycles},
    {"frames_dropped", "sim.frames_dropped",
     &FrameStats::frames_dropped},
};
