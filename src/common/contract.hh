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
 * Every macro expansion owns one constant Site (kind, file, line and
 * condition text) that a violation reports; nothing is registered or
 * counted, so a passing check costs only its condition.
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

#include <sstream>
#include <stdexcept>
#include <string>

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

/** One macro-expansion site: what a violation there reports. */
struct Site
{
    constexpr Site(Kind kind, const char *file, int line, const char *expr)
        : kind(kind), file(file), line(line), expr(expr)
    {
    }

    Kind kind;
    const char *file;
    int line;
    const char *expr; ///< The condition's source text.
};

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

/** Dispatch a violation at @p site (called by the macros). */
[[noreturn]] void fail(const Site &site, const std::string &msg);

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
        static constexpr ::pargpu::contract::Site pargpu_contract_site_(     \
            kind, __FILE__, __LINE__, #cond);                                \
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
