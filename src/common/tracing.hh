/**
 * @file
 * Chrome-trace-format profiling hooks (chrome://tracing / Perfetto).
 *
 * A process-wide collector records complete ("X"), counter ("C") and
 * instant ("i") events with wall-clock microsecond timestamps; writeFile()
 * emits the JSON object format ({"traceEvents": [...]}) that loads
 * directly into chrome://tracing or ui.perfetto.dev.
 *
 * Instrumentation goes through the PARGPU_TRACE_* macros:
 *
 *   PARGPU_TRACE_SCOPE("sim", "frame");            // RAII span
 *   PARGPU_TRACE_SCOPE_F("sim", "draw", idx);      // span + numeric arg
 *   PARGPU_TRACE_SPAN(s, "session", "dispatch");   // named span; its arg
 *   s.setValue(frames);                            //   is known at the end
 *   PARGPU_TRACE_COUNTER("mem", "dram.bytes", b);  // counter sample
 *   PARGPU_TRACE_INSTANT("harness", "flush");      // point event
 *
 * Collection is off by default; Tracing::enable() (the harness does this
 * for --trace-out) turns it on at runtime, and a disabled macro costs one
 * relaxed atomic load. Defining PARGPU_TRACING_DISABLED (CMake:
 * -DPARGPU_TRACING=OFF) compiles every macro to nothing, for zero-cost
 * builds; tests/tracing_test.cc pins both properties down. Tracing never
 * feeds back into the simulation: simulated cycle counts are bit-identical
 * with tracing on, off or compiled out.
 */

#ifndef PARGPU_COMMON_TRACING_HH
#define PARGPU_COMMON_TRACING_HH

#include <atomic>
#include <cstdint>
#include <ostream>
#include <string>

namespace pargpu::trace
{

/** One recorded trace event (chrome trace-event fields). */
struct TraceEvent
{
    std::string name;
    std::string cat;
    char ph = 'X';        ///< 'X' complete, 'C' counter, 'i' instant.
    double ts_us = 0.0;   ///< Start timestamp (us since enable()).
    double dur_us = 0.0;  ///< Duration ('X' only).
    std::uint32_t tid = 0;
    bool has_arg = false;
    std::string arg_name; ///< Single numeric argument (optional).
    double arg_value = 0.0;
};

/**
 * The process-wide trace collector.
 *
 * All recording functions are thread-safe; events carry a small
 * per-thread id assigned on first use. The collector buffers events in
 * memory until writeJson()/writeFile().
 */
class Tracing
{
  public:
    /** True when collection is on (macros record only then). */
    static bool
    enabled()
    {
        return enabled_.load(std::memory_order_relaxed);
    }

    /** Start collecting; clears previously buffered events. */
    static void enable();

    /** Stop collecting (buffered events are kept until clear()). */
    static void disable();

    /** Drop all buffered events. */
    static void clear();

    /** Number of buffered events. */
    static std::size_t eventCount();

    /** Microseconds since enable() (monotonic). */
    static double nowUs();

    /**
     * Emit every buffered event, sorted by timestamp, as a chrome
     * trace-event JSON object ({"traceEvents": [...]}). The buffer is
     * left intact.
     */
    static void writeJson(std::ostream &os);

    /** writeJson() to @p path; returns false if the file can't open. */
    static bool writeFile(const std::string &path);

    /** Record a complete ('X') event. No-op when disabled. */
    static void recordComplete(const char *cat, const char *name,
                               double ts_us, double dur_us, bool has_arg,
                               const char *arg_name, double arg_value);

    /** Record a counter ('C') sample. No-op when disabled. */
    static void recordCounter(const char *cat, const char *name,
                              double value);

    /** Record an instant ('i') event. No-op when disabled. */
    static void recordInstant(const char *cat, const char *name);

  private:
    static std::atomic<bool> enabled_;
};

/**
 * RAII span: records a complete event covering its lifetime. Construct
 * via PARGPU_TRACE_SCOPE so the span disappears entirely in
 * PARGPU_TRACING_DISABLED builds.
 */
class Span
{
  public:
    Span(const char *cat, const char *name)
        : active_(Tracing::enabled()), cat_(cat), name_(name)
    {
        if (active_)
            start_us_ = Tracing::nowUs();
    }

    /** Span with one numeric argument (e.g. a frame or draw index). */
    Span(const char *cat, const char *name, const char *arg_name,
         double arg_value)
        : Span(cat, name)
    {
        has_arg_ = true;
        arg_name_ = arg_name;
        arg_value_ = arg_value;
    }

    Span(const Span &) = delete;
    Span &operator=(const Span &) = delete;

    /** Set the numeric argument before the span ends (e.g. a count). */
    void
    setValue(double value)
    {
        has_arg_ = true;
        arg_name_ = "value";
        arg_value_ = value;
    }

    ~Span()
    {
        if (active_)
            Tracing::recordComplete(cat_, name_, start_us_,
                                    Tracing::nowUs() - start_us_, has_arg_,
                                    arg_name_, arg_value_);
    }

  private:
    bool active_;
    const char *cat_;
    const char *name_;
    double start_us_ = 0.0;
    bool has_arg_ = false;
    const char *arg_name_ = "";
    double arg_value_ = 0.0;
};

/** What PARGPU_TRACE_SPAN declares in PARGPU_TRACING_DISABLED builds. */
struct NullSpan
{
    void setValue(double) {}
};

} // namespace pargpu::trace

// Token-pasting helpers so each PARGPU_TRACE_SCOPE gets a unique local.
#define PARGPU_TRACE_CAT2(a, b) a##b
#define PARGPU_TRACE_CAT(a, b) PARGPU_TRACE_CAT2(a, b)

#ifndef PARGPU_TRACING_DISABLED

/** RAII span for the rest of the enclosing scope. */
#define PARGPU_TRACE_SCOPE(cat, name)                                      \
    ::pargpu::trace::Span PARGPU_TRACE_CAT(pargpu_trace_span_,             \
                                           __LINE__)(cat, name)

/** RAII span carrying one numeric argument. */
#define PARGPU_TRACE_SCOPE_F(cat, name, value)                             \
    ::pargpu::trace::Span PARGPU_TRACE_CAT(pargpu_trace_span_, __LINE__)(  \
        cat, name, "value", static_cast<double>(value))

/** Named RAII span @p var; var.setValue(v) attaches its argument. */
#define PARGPU_TRACE_SPAN(var, cat, name)                                  \
    ::pargpu::trace::Span var(cat, name)

/** Counter sample (renders as a track in chrome://tracing). */
#define PARGPU_TRACE_COUNTER(cat, name, value)                             \
    do {                                                                   \
        if (::pargpu::trace::Tracing::enabled())                           \
            ::pargpu::trace::Tracing::recordCounter(                       \
                cat, name, static_cast<double>(value));                    \
    } while (0)

/** Zero-duration point event. */
#define PARGPU_TRACE_INSTANT(cat, name)                                    \
    do {                                                                   \
        if (::pargpu::trace::Tracing::enabled())                           \
            ::pargpu::trace::Tracing::recordInstant(cat, name);            \
    } while (0)

#else // PARGPU_TRACING_DISABLED

#define PARGPU_TRACE_SCOPE(cat, name)                                      \
    do {                                                                   \
    } while (0)
#define PARGPU_TRACE_SCOPE_F(cat, name, value)                             \
    do {                                                                   \
    } while (0)
#define PARGPU_TRACE_SPAN(var, cat, name) ::pargpu::trace::NullSpan var
#define PARGPU_TRACE_COUNTER(cat, name, value)                             \
    do {                                                                   \
    } while (0)
#define PARGPU_TRACE_INSTANT(cat, name)                                    \
    do {                                                                   \
    } while (0)

#endif // PARGPU_TRACING_DISABLED

#endif // PARGPU_COMMON_TRACING_HH
