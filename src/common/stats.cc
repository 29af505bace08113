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

/**
 * Emit one tree level: all names sharing the segment prefix [begin, end).
 * Names are already sorted, so equal segments are adjacent.
 */
template <typename Map>
void
dumpTreeLevel(std::ostream &os, const Map &values,
              typename Map::const_iterator begin,
              typename Map::const_iterator end, std::size_t seg_start,
              int depth)
{
    auto it = begin;
    while (it != end) {
        const std::string &name = it->first;
        std::size_t dot = name.find('.', seg_start);
        std::string seg = name.substr(
            seg_start,
            dot == std::string::npos ? std::string::npos : dot - seg_start);

        // Range of names sharing this segment at this level.
        auto last = it;
        while (last != end) {
            const std::string &n = last->first;
            std::size_t d = n.find('.', seg_start);
            std::string s = n.substr(
                seg_start,
                d == std::string::npos ? std::string::npos : d - seg_start);
            if (s != seg)
                break;
            ++last;
        }

        for (int i = 0; i < depth; ++i)
            os << "  ";
        if (dot == std::string::npos && std::next(it) == last) {
            os << seg << " " << it->second << "\n";
        } else {
            os << seg << "\n";
            dumpTreeLevel(os, values, it, last, seg_start + seg.size() + 1,
                          depth + 1);
        }
        it = last;
    }
}

} // namespace

void
Histogram::observe(double value)
{
    if (count_ == 0) {
        min_ = max_ = value;
    } else {
        min_ = std::min(min_, value);
        max_ = std::max(max_, value);
    }
    ++count_;
    sum_ += value;
    if (samples_.size() < kMaxRetained)
        samples_.push_back(value);
}

HistogramSummary
Histogram::summary() const
{
    HistogramSummary s;
    s.count = count_;
    s.sum = sum_;
    s.min = min_;
    s.max = max_;
    std::vector<double> sorted = samples_;
    std::sort(sorted.begin(), sorted.end());
    s.p50 = percentileSorted(sorted, 50.0);
    s.p95 = percentileSorted(sorted, 95.0);
    return s;
}

Json
StatSnapshot::toJson() const
{
    Json counters_j = Json::object();
    for (const auto &[name, value] : counters)
        counters_j.set(name, Json{value});

    Json scalars_j = Json::object();
    for (const auto &[name, value] : scalars)
        scalars_j.set(name, Json{value});

    Json hists_j = Json::object();
    for (const auto &[name, h] : histograms) {
        Json hj = Json::object();
        hj.set("count", Json{h.count});
        hj.set("sum", Json{h.sum});
        hj.set("min", Json{h.min});
        hj.set("max", Json{h.max});
        hj.set("p50", Json{h.p50});
        hj.set("p95", Json{h.p95});
        hists_j.set(name, std::move(hj));
    }

    Json out = Json::object();
    out.set("counters", std::move(counters_j));
    out.set("scalars", std::move(scalars_j));
    out.set("histograms", std::move(hists_j));
    return out;
}

StatSnapshot
StatSnapshot::fromJson(const Json &j)
{
    StatSnapshot s;
    for (const auto &[name, v] : j["counters"].members())
        s.counters[name] = static_cast<std::uint64_t>(v.number());
    for (const auto &[name, v] : j["scalars"].members())
        s.scalars[name] = v.number();
    for (const auto &[name, v] : j["histograms"].members()) {
        HistogramSummary h;
        h.count = static_cast<std::uint64_t>(v["count"].number());
        h.sum = v["sum"].number();
        h.min = v["min"].number();
        h.max = v["max"].number();
        h.p50 = v["p50"].number();
        h.p95 = v["p95"].number();
        s.histograms[name] = h;
    }
    return s;
}

StatSnapshot
StatRegistry::snapshot() const
{
    std::lock_guard lock(mutex_);
    StatSnapshot s;
    s.counters = counters_;
    s.scalars = scalars_;
    for (const auto &[name, h] : histograms_)
        s.histograms[name] = h.summary();
    return s;
}

void
StatRegistry::dump(std::ostream &os) const
{
    StatSnapshot s = snapshot();
    for (const auto &[name, value] : s.counters)
        os << name << " " << value << "\n";
    for (const auto &[name, value] : s.scalars)
        os << name << " " << value << "\n";
    for (const auto &[name, h] : s.histograms) {
        os << name << " count=" << h.count << " mean=" << h.mean()
           << " p50=" << h.p50 << " p95=" << h.p95 << " max=" << h.max
           << "\n";
    }
}

void
StatRegistry::dumpTree(std::ostream &os) const
{
    StatSnapshot s = snapshot();
    // Merge counters and scalars into one printable map; histograms print
    // as their summary line under their own name.
    std::map<std::string, std::string> flat;
    for (const auto &[name, value] : s.counters)
        flat[name] = std::to_string(value);
    for (const auto &[name, value] : s.scalars)
        flat[name] = std::to_string(value);
    for (const auto &[name, h] : s.histograms)
        flat[name] = "count=" + std::to_string(h.count) +
            " p50=" + std::to_string(h.p50) +
            " p95=" + std::to_string(h.p95) +
            " max=" + std::to_string(h.max);
    dumpTreeLevel(os, flat, flat.begin(), flat.end(), 0, 0);
}

} // namespace pargpu
