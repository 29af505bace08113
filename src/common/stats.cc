#include "common/stats.hh"

#include <algorithm>

#include "common/json.hh"

namespace pargpu
{

namespace
{

/** Nearest-rank percentile of an ascending-sorted sample vector. */
double
percentileSorted(const std::vector<double> &sorted, double pct)
{
    if (sorted.empty())
        return 0.0;
    // Nearest-rank: the smallest value with at least pct of the mass at
    // or below it; rank ceil(pct/100 * n), 1-based.
    double rank_f = pct / 100.0 * static_cast<double>(sorted.size());
    std::size_t rank = static_cast<std::size_t>(rank_f);
    if (static_cast<double>(rank) < rank_f)
        ++rank;
    if (rank == 0)
        rank = 1;
    if (rank > sorted.size())
        rank = sorted.size();
    return sorted[rank - 1];
}

/** {count, sum, min, max, p50, p95} of one histogram's samples. */
Json
summaryJson(const std::vector<double> &samples)
{
    double sum = 0.0;
    double min = samples.empty() ? 0.0 : samples.front();
    double max = min;
    for (double v : samples) {
        sum += v;
        min = std::min(min, v);
        max = std::max(max, v);
    }
    const std::size_t retained =
        std::min(samples.size(), StatRegistry::kMaxRetained);
    std::vector<double> sorted(samples.begin(),
                               samples.begin() +
                                   static_cast<std::ptrdiff_t>(retained));
    std::sort(sorted.begin(), sorted.end());

    Json hj = Json::object();
    hj.set("count", Json{static_cast<std::uint64_t>(samples.size())});
    hj.set("sum", Json{sum});
    hj.set("min", Json{min});
    hj.set("max", Json{max});
    hj.set("p50", Json{percentileSorted(sorted, 50.0)});
    hj.set("p95", Json{percentileSorted(sorted, 95.0)});
    return hj;
}

} // namespace

Json
StatRegistry::toJson() const
{
    Json counters_j = Json::object();
    for (const auto &[name, value] : counters)
        counters_j.set(name, Json{value});

    Json scalars_j = Json::object();
    for (const auto &[name, value] : scalars)
        scalars_j.set(name, Json{value});

    Json hists_j = Json::object();
    for (const auto &[name, samples] : histograms)
        hists_j.set(name, summaryJson(samples));

    Json out = Json::object();
    out.set("counters", std::move(counters_j));
    out.set("scalars", std::move(scalars_j));
    out.set("histograms", std::move(hists_j));
    return out;
}

} // namespace pargpu
