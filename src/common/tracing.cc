#include "common/tracing.hh"

#include <algorithm>
#include <chrono>
#include <fstream>
#include <map>
#include <mutex>
#include <thread>
#include <vector>

#include "common/json.hh"

namespace pargpu::trace
{

std::atomic<bool> Tracing::enabled_{false};

namespace
{

/** Collector state shared by every recording thread. */
struct Collector
{
    std::mutex mutex; ///< Guards events and tids.
    std::vector<TraceEvent> events;
    std::map<std::thread::id, std::uint32_t> tids;
    // Written only by enable() (which holds the mutex) and read without
    // it by nowUs() on the recording fast path; recording while enable()
    // is concurrently resetting the epoch is a caller error, so the
    // unguarded read is accepted by design.
    std::chrono::steady_clock::time_point epoch =
        std::chrono::steady_clock::now();

    std::uint32_t
    tidLocked()
    {
        auto id = std::this_thread::get_id();
        auto it = tids.find(id);
        if (it != tids.end())
            return it->second;
        std::uint32_t tid = static_cast<std::uint32_t>(tids.size());
        tids.emplace(id, tid);
        return tid;
    }
};

Collector &
collector()
{
    static Collector c;
    return c;
}

} // namespace

void
Tracing::enable()
{
    Collector &c = collector();
    std::lock_guard lock(c.mutex);
    c.events.clear();
    c.tids.clear();
    c.epoch = std::chrono::steady_clock::now();
    enabled_.store(true, std::memory_order_relaxed);
}

void
Tracing::disable()
{
    enabled_.store(false, std::memory_order_relaxed);
}

void
Tracing::clear()
{
    Collector &c = collector();
    std::lock_guard lock(c.mutex);
    c.events.clear();
    c.tids.clear();
}

std::size_t
Tracing::eventCount()
{
    Collector &c = collector();
    std::lock_guard lock(c.mutex);
    return c.events.size();
}

double
Tracing::nowUs()
{
    Collector &c = collector();
    return std::chrono::duration<double, std::micro>(
               std::chrono::steady_clock::now() - c.epoch)
        .count();
}

void
Tracing::recordComplete(const char *cat, const char *name, double ts_us,
                        double dur_us, bool has_arg, const char *arg_name,
                        double arg_value)
{
    if (!enabled())
        return;
    Collector &c = collector();
    TraceEvent e;
    e.name = name;
    e.cat = cat;
    e.ph = 'X';
    e.ts_us = ts_us;
    e.dur_us = dur_us;
    e.has_arg = has_arg;
    if (has_arg) {
        e.arg_name = arg_name;
        e.arg_value = arg_value;
    }
    std::lock_guard lock(c.mutex);
    e.tid = c.tidLocked();
    c.events.push_back(std::move(e));
}

void
Tracing::recordCounter(const char *cat, const char *name, double value)
{
    if (!enabled())
        return;
    Collector &c = collector();
    TraceEvent e;
    e.name = name;
    e.cat = cat;
    e.ph = 'C';
    e.ts_us = nowUs();
    e.has_arg = true;
    e.arg_name = "value";
    e.arg_value = value;
    std::lock_guard lock(c.mutex);
    e.tid = c.tidLocked();
    c.events.push_back(std::move(e));
}

void
Tracing::recordInstant(const char *cat, const char *name)
{
    if (!enabled())
        return;
    Collector &c = collector();
    TraceEvent e;
    e.name = name;
    e.cat = cat;
    e.ph = 'i';
    e.ts_us = nowUs();
    std::lock_guard lock(c.mutex);
    e.tid = c.tidLocked();
    c.events.push_back(std::move(e));
}

void
Tracing::writeJson(std::ostream &os)
{
    Collector &c = collector();
    std::vector<TraceEvent> events;
    {
        std::lock_guard lock(c.mutex);
        events = c.events;
    }
    std::stable_sort(events.begin(), events.end(),
                     [](const TraceEvent &a, const TraceEvent &b) {
                         return a.ts_us < b.ts_us;
                     });

    Json arr = Json::array();
    for (const TraceEvent &e : events) {
        Json j = Json::object();
        j.set("name", Json{e.name});
        j.set("cat", Json{e.cat});
        j.set("ph", Json{std::string(1, e.ph)});
        j.set("ts", Json{e.ts_us});
        if (e.ph == 'X')
            j.set("dur", Json{e.dur_us});
        if (e.ph == 'i')
            j.set("s", Json{"t"}); // Thread-scoped instant.
        j.set("pid", Json{1});
        j.set("tid", Json{static_cast<std::uint64_t>(e.tid)});
        if (e.has_arg) {
            Json args = Json::object();
            args.set(e.arg_name, Json{e.arg_value});
            j.set("args", std::move(args));
        }
        arr.push(std::move(j));
    }

    Json root = Json::object();
    root.set("traceEvents", std::move(arr));
    root.set("displayTimeUnit", Json{"ms"});
    os << root.dump(1) << "\n";
}

bool
Tracing::writeFile(const std::string &path)
{
    std::ofstream f(path);
    if (!f)
        return false;
    writeJson(f);
    return static_cast<bool>(f);
}

} // namespace pargpu::trace
