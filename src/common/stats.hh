/**
 * @file
 * Named-statistics registry, modelled on simulator stats packages:
 * components register counters, scalars and histograms under hierarchical
 * dotted names ("mem.dram.reads") and a harness can snapshot, dump or
 * serialize them after a run. docs/METRICS.md is the authoritative list of
 * every name registered in this codebase (enforced by pargpu_lint's
 * metrics-doc rule).
 */

#ifndef PARGPU_COMMON_STATS_HH
#define PARGPU_COMMON_STATS_HH

#include <cstdint>
#include <map>
#include <mutex>
#include <ostream>
#include <string>
#include <vector>

namespace pargpu
{

class Json;

/**
 * Summary of one histogram's observed samples.
 *
 * Quantiles are exact (nearest-rank over the retained samples) as long as
 * at most Histogram::kMaxRetained samples were observed; beyond that the
 * count/sum/min/max stay exact and quantiles describe the retained prefix.
 */
struct HistogramSummary
{
    std::uint64_t count = 0;
    double sum = 0.0;
    double min = 0.0;   ///< Smallest sample (0 when count == 0).
    double max = 0.0;   ///< Largest sample (0 when count == 0).
    double p50 = 0.0;   ///< Median (nearest-rank).
    double p95 = 0.0;   ///< 95th percentile (nearest-rank).

    double
    mean() const
    {
        return count == 0 ? 0.0 : sum / static_cast<double>(count);
    }
};

/**
 * A distribution of double-valued samples with exact count/sum/min/max
 * and nearest-rank quantiles over the retained samples.
 */
class Histogram
{
  public:
    /** Samples retained for exact quantiles; see HistogramSummary. */
    static constexpr std::size_t kMaxRetained = 1 << 16;

    /** Record one sample. */
    void observe(double value);

    /** Current summary (count, sum, min, max, p50, p95). */
    HistogramSummary summary() const;

  private:
    std::uint64_t count_ = 0;
    double sum_ = 0.0;
    double min_ = 0.0;
    double max_ = 0.0;
    std::vector<double> samples_; ///< First kMaxRetained samples.
};

/**
 * A point-in-time copy of a registry's contents, detached from the live
 * (locked) registry so it can be read, diffed and serialized freely.
 */
struct StatSnapshot
{
    std::map<std::string, std::uint64_t> counters;
    std::map<std::string, double> scalars;
    std::map<std::string, HistogramSummary> histograms;

    /** Serialize as {"counters": {...}, "scalars": {...}, "histograms":
     *  {name: {count,sum,min,max,p50,p95}}}. */
    Json toJson() const;

    /**
     * Rebuild a snapshot from toJson() output. Histogram quantiles are
     * restored from the serialized summary (samples are not serialized).
     */
    static StatSnapshot fromJson(const Json &j);
};

/**
 * A registry of named 64-bit counters, double-valued scalars and sample
 * histograms under hierarchical dotted names.
 *
 * Thread-safe: every member takes an internal mutex, so stages running on
 * pool workers may share one registry (the harness snapshots it between
 * runs). For read-modify-write sequences that must be atomic as a whole,
 * callers still need their own synchronization.
 */
class StatRegistry
{
  public:
    /** Add @p delta to counter @p name (creating it at zero if absent). */
    void
    inc(const std::string &name, std::uint64_t delta = 1)
    {
        std::lock_guard lock(mutex_);
        counters_[name] += delta;
    }

    /** Set scalar @p name to @p value. */
    void
    set(const std::string &name, double value)
    {
        std::lock_guard lock(mutex_);
        scalars_[name] = value;
    }

    /** Record @p value into histogram @p name (created if absent). */
    void
    observe(const std::string &name, double value)
    {
        std::lock_guard lock(mutex_);
        histograms_[name].observe(value);
    }

    /** Current value of counter @p name (0 if never incremented). */
    std::uint64_t
    counter(const std::string &name) const
    {
        std::lock_guard lock(mutex_);
        auto it = counters_.find(name);
        return it == counters_.end() ? 0 : it->second;
    }

    /** Current value of scalar @p name (0.0 if never set). */
    double
    scalar(const std::string &name) const
    {
        std::lock_guard lock(mutex_);
        auto it = scalars_.find(name);
        return it == scalars_.end() ? 0.0 : it->second;
    }

    /** Summary of histogram @p name (zero summary if never observed). */
    HistogramSummary
    histogram(const std::string &name) const
    {
        std::lock_guard lock(mutex_);
        auto it = histograms_.find(name);
        return it == histograms_.end() ? HistogramSummary{}
                                       : it->second.summary();
    }

    /** True if a counter with this exact name exists. */
    bool
    hasCounter(const std::string &name) const
    {
        std::lock_guard lock(mutex_);
        return counters_.count(name) != 0;
    }

    /** Reset every counter, scalar and histogram (remove them). */
    void
    reset()
    {
        std::lock_guard lock(mutex_);
        counters_.clear();
        scalars_.clear();
        histograms_.clear();
    }

    /** Consistent point-in-time copy of everything registered. */
    StatSnapshot snapshot() const;

    /** Dump all stats in "name value" lines, sorted by name. */
    void dump(std::ostream &os) const;

    /**
     * Dump as an indented tree, grouping names by their dotted segments:
     *
     *   mem
     *     dram
     *       reads 42
     */
    void dumpTree(std::ostream &os) const;

    /** Copy of all counters, sorted by name (for iteration in dumps). */
    std::map<std::string, std::uint64_t>
    counters() const
    {
        std::lock_guard lock(mutex_);
        return counters_;
    }

  private:
    mutable std::mutex mutex_;
    std::map<std::string, std::uint64_t> counters_;
    std::map<std::string, double> scalars_;
    std::map<std::string, Histogram> histograms_;
};

} // namespace pargpu

#endif // PARGPU_COMMON_STATS_HH
