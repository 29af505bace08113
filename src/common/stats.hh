/**
 * @file
 * Named-statistics registry: counters, scalars and sample histograms
 * under hierarchical dotted names ("mem.dram.reads"), filled once from a
 * finished run and serialized as the metrics document's "registry"
 * section. docs/METRICS.md is the authoritative list of every name
 * registered in this codebase (enforced by pargpu_lint's metrics-doc
 * rule).
 */

#ifndef PARGPU_COMMON_STATS_HH
#define PARGPU_COMMON_STATS_HH

#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace pargpu
{

class Json;

/**
 * Named 64-bit counters, double-valued scalars and sample histograms,
 * each map ordered by name. A plain value: one thread fills it and
 * serializes it.
 */
struct StatRegistry
{
    /**
     * Samples a histogram's quantiles are taken over: the first 2^16
     * observed. Its count, sum, min and max cover every sample.
     */
    static constexpr std::size_t kMaxRetained = 1 << 16;

    std::map<std::string, std::uint64_t> counters;
    std::map<std::string, double> scalars;
    /** Each histogram's samples, in observe order. */
    std::map<std::string, std::vector<double>> histograms;

    /** Add @p delta to counter @p name (creating it at zero if absent). */
    void
    inc(const std::string &name, std::uint64_t delta)
    {
        counters[name] += delta;
    }

    /** Set scalar @p name to @p value. */
    void
    set(const std::string &name, double value)
    {
        scalars[name] = value;
    }

    /** Record @p value into histogram @p name (created if absent). */
    void
    observe(const std::string &name, double value)
    {
        histograms[name].push_back(value);
    }

    /**
     * Serialize as {"counters": {...}, "scalars": {...}, "histograms":
     * {name: {count,sum,min,max,p50,p95}}}. sum, min and max fold the
     * samples in observe order (min and max are 0 with no samples); p50
     * and p95 are nearest-rank over the first kMaxRetained.
     */
    Json toJson() const;
};

} // namespace pargpu

#endif // PARGPU_COMMON_STATS_HH
