/**
 * @file
 * Runtime contract (invariant) subsystem.
 *
 * Three statement macros guard the pipeline's internal state:
 *
 *  - PARGPU_ASSERT(cond, ...)      — a local precondition on one call.
 *  - PARGPU_INVARIANT(cond, ...)   — a structural property of component
 *                                    state that must hold across calls.
 *  - PARGPU_CHECK_RANGE(v, lo, hi, ...) — inclusive-range shorthand.
 *
 * The trailing arguments are streamed into the violation message
 * (`PARGPU_ASSERT(n >= 1, "n=", n)`), so diagnostics carry the live
 * values without any formatting cost on the non-failing path.
 *
 * Every macro expansion owns one registered ContractSite whose evaluation
 * count feeds the ContractStats report (see stats() and statsReport()).
 *
 * Checks are compiled in when PARGPU_CHECKS is defined (the
 * -DPARGPU_CHECKS=ON CMake option) or in Debug builds (NDEBUG unset), and
 * compile to true no-ops otherwise: the condition and message operands
 * are parsed but never evaluated, so a plain Release build pays zero
 * cycles and zero code size. Per-TU overrides PARGPU_FORCE_CHECKED /
 * PARGPU_FORCE_UNCHECKED exist so the contract tests can exercise both
 * behaviors inside a single build configuration.
 *
 * A violation formats the message and calls the installed failure
 * handler, which by default prints the site and aborts (a contract
 * violation is a pargpu bug, never a user error). Tests install a
 * throwing handler via ScopedFailHandler to observe violations
 * in-process.
 */

#ifndef PARGPU_COMMON_CONTRACT_HH
#define PARGPU_COMMON_CONTRACT_HH

#include <atomic>
#include <cstdint>
#include <ostream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#if defined(PARGPU_FORCE_CHECKED)
#define PARGPU_CHECKS_ACTIVE 1
#elif defined(PARGPU_FORCE_UNCHECKED)
#define PARGPU_CHECKS_ACTIVE 0
#elif defined(PARGPU_CHECKS) || !defined(NDEBUG)
#define PARGPU_CHECKS_ACTIVE 1
#else
#define PARGPU_CHECKS_ACTIVE 0
#endif

namespace pargpu
{
namespace contract
{

/** What kind of contract a site expresses (affects only reporting). */
enum class Kind
{
    Assert,
    Invariant,
    Range,
};

/** Printable name of a contract kind. */
const char *kindName(Kind kind);

/**
 * One static macro-expansion site. Registered with the global registry on
 * first execution; the evaluation counter is relaxed-atomic so checked
 * builds stay thread-safe on the pool without serializing the hot path.
 */
class Site
{
  public:
    Site(Kind kind, const char *file, int line, const char *expr);

    Kind kind() const { return kind_; }
    const char *file() const { return file_; }
    int line() const { return line_; }
    const char *expr() const { return expr_; }

    /** Times the contract was evaluated (pass or fail). */
    std::uint64_t
    checks() const
    {
        return checks_.load(std::memory_order_relaxed);
    }

    /** Count one evaluation (called by the macros). */
    void
    countCheck()
    {
        checks_.fetch_add(1, std::memory_order_relaxed);
    }

    void resetCount() { checks_.store(0, std::memory_order_relaxed); }

  private:
    Kind kind_;
    const char *file_;
    int line_;
    const char *expr_;
    std::atomic<std::uint64_t> checks_{0};
};

/** Aggregate view of every registered contract site. */
struct ContractStats
{
    std::size_t sites = 0;            ///< Registered macro sites.
    std::uint64_t checks = 0;         ///< Total evaluations across sites.
    std::uint64_t violations = 0;     ///< Contracts that fired.

    /** Per-site rows, ordered by (file, line). */
    struct Row
    {
        Kind kind;
        std::string file;
        int line;
        std::string expr;
        std::uint64_t checks;
    };
    std::vector<Row> rows;
};

/** Snapshot the current contract statistics. */
ContractStats stats();

/** Zero every site's evaluation counter and the violation count. */
void resetStats();

/**
 * Write a human-readable ContractStats table to @p os (sites that never
 * evaluated are summarized, not listed).
 */
void statsReport(std::ostream &os);

/** Thrown by the ScopedFailHandler installed in tests. */
class ContractViolation : public std::logic_error
{
  public:
    explicit ContractViolation(const std::string &what)
        : std::logic_error(what)
    {
    }
};

/** Failure handler: receives the site and the formatted message. */
using FailHandler = void (*)(const Site &site, const std::string &msg);

/**
 * Install @p handler for subsequent violations; returns the previous
 * handler. Passing nullptr restores the default print-and-abort handler.
 */
FailHandler setFailHandler(FailHandler handler);

/**
 * RAII: route violations into ContractViolation exceptions for the
 * lifetime of the object (tests only — production code never catches
 * contract failures).
 */
class ScopedFailHandler
{
  public:
    ScopedFailHandler();
    ~ScopedFailHandler();

    ScopedFailHandler(const ScopedFailHandler &) = delete;
    ScopedFailHandler &operator=(const ScopedFailHandler &) = delete;

  private:
    FailHandler prev_;
};

/** Count and dispatch a violation at @p site (called by the macros). */
[[noreturn]] void fail(Site &site, const std::string &msg);

namespace detail
{

/** Stream every message operand into one string (no-args → empty). */
template <typename... Args>
std::string
formatMessage(const Args &...args)
{
    if constexpr (sizeof...(Args) == 0) {
        return std::string();
    } else {
        std::ostringstream os;
        (os << ... << args);
        return os.str();
    }
}

/**
 * Swallow operands unevaluated in unchecked builds: the call sits behind
 * `if (false)`, keeping names ODR-used (no -Wunused warnings, operands
 * still type-checked) while the optimizer deletes it entirely.
 */
template <typename... Args>
inline void
ignore(const Args &...)
{
}

} // namespace detail
} // namespace contract
} // namespace pargpu

#if PARGPU_CHECKS_ACTIVE

/*
 * -Wtype-limits is suppressed around the condition so that range checks
 * against an unsigned zero lower bound (always-true subexpression) stay
 * expressible; the check's other half still does the work.
 */
#define PARGPU_CONTRACT_IMPL_(kind, cond, ...)                               \
    do {                                                                     \
        /* Paren-init: a brace-init's commas would split the argument    */  \
        /* lists of wrapping macros (e.g. GTest's EXPECT_THROW).         */  \
        static ::pargpu::contract::Site pargpu_contract_site_(               \
            kind, __FILE__, __LINE__, #cond);                                \
        pargpu_contract_site_.countCheck();                                  \
        _Pragma("GCC diagnostic push")                                       \
        _Pragma("GCC diagnostic ignored \"-Wtype-limits\"")                  \
        const bool pargpu_contract_ok_ = static_cast<bool>(cond);            \
        _Pragma("GCC diagnostic pop")                                        \
        if (!pargpu_contract_ok_) {                                          \
            ::pargpu::contract::fail(                                        \
                pargpu_contract_site_,                                       \
                ::pargpu::contract::detail::formatMessage(__VA_ARGS__));     \
        }                                                                    \
    } while (0)

/** Precondition check; extra args are streamed into the message. */
#define PARGPU_ASSERT(cond, ...)                                             \
    PARGPU_CONTRACT_IMPL_(::pargpu::contract::Kind::Assert, cond,            \
                          __VA_ARGS__)

/** Structural state invariant; extra args are streamed into the message. */
#define PARGPU_INVARIANT(cond, ...)                                          \
    PARGPU_CONTRACT_IMPL_(::pargpu::contract::Kind::Invariant, cond,         \
                          __VA_ARGS__)

/** Inclusive range check lo <= value <= hi. */
#define PARGPU_CHECK_RANGE(value, lo, hi, ...)                               \
    PARGPU_CONTRACT_IMPL_(::pargpu::contract::Kind::Range,                   \
                          (value) >= (lo) && (value) <= (hi),                \
                          "value=", (value), " range=[", (lo), ", ", (hi),   \
                          "] ", ::pargpu::contract::detail::formatMessage(   \
                                    __VA_ARGS__))

#else // !PARGPU_CHECKS_ACTIVE

#define PARGPU_CONTRACT_NOOP_(cond, ...)                                     \
    do {                                                                     \
        _Pragma("GCC diagnostic push")                                       \
        _Pragma("GCC diagnostic ignored \"-Wtype-limits\"")                  \
        if (false) {                                                         \
            ::pargpu::contract::detail::ignore(                              \
                (cond)__VA_OPT__(, ) __VA_ARGS__);                           \
        }                                                                    \
        _Pragma("GCC diagnostic pop")                                        \
    } while (0)

#define PARGPU_ASSERT(cond, ...)                                             \
    PARGPU_CONTRACT_NOOP_(cond __VA_OPT__(, ) __VA_ARGS__)
#define PARGPU_INVARIANT(cond, ...)                                          \
    PARGPU_CONTRACT_NOOP_(cond __VA_OPT__(, ) __VA_ARGS__)
#define PARGPU_CHECK_RANGE(value, lo, hi, ...)                               \
    PARGPU_CONTRACT_NOOP_((value) >= (lo) &&                                 \
                          (value) <= (hi)__VA_OPT__(, ) __VA_ARGS__)

#endif // PARGPU_CHECKS_ACTIVE

#endif // PARGPU_COMMON_CONTRACT_HH
