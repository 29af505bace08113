// Fixture: a stat whose name is only a prefix of a documented one
// (rule: metrics-doc). docs/METRICS.md documents `sim.frames_total`.

namespace pargpu
{

struct Registry
{
    void inc(const char *name);
};

void
countFrame(Registry &stats)
{
    stats.inc("sim.frames");
}

} // namespace pargpu
