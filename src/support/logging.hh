/**
 * @file
 * Error-reporting and leveled logging helpers.
 *
 * Follows the gem5 convention: panic() is for internal invariant
 * violations (framework bugs), fatal() is for user errors (bad
 * configurations, invalid arguments), warn()/inform() report
 * conditions without stopping the program.
 *
 * Leveled logging: AMOS_LOG(Debug|Info|Warn|Error) streams one
 * timestamped line to stderr when the level passes the threshold
 * from the AMOS_LOG environment variable (debug|info|warn|error,
 * default info). The trace label of the thread's request scope
 * (FlightScope, support/trace.hh) is appended to every line, so
 * server logs correlate with exploration traces:
 *
 *   AMOS_LOG(Info) << "compiled " << key << " in " << ms << " ms";
 *   // 2026-08-06T12:31:55.104Z info: compiled gemm/... [trace=abc]
 *
 * The statement below the macro is skipped entirely (operands not
 * evaluated) when the level is filtered out.
 */

#ifndef AMOS_SUPPORT_LOGGING_HH
#define AMOS_SUPPORT_LOGGING_HH

#include <cstdio>
#include <cstdlib>
#include <sstream>
#include <stdexcept>
#include <string>

namespace amos {

/** Exception thrown by fatal() for user-caused errors. */
class FatalError : public std::runtime_error
{
  public:
    explicit FatalError(const std::string &msg)
        : std::runtime_error(msg)
    {}
};

/** Exception thrown by panic() for internal framework bugs. */
class PanicError : public std::logic_error
{
  public:
    explicit PanicError(const std::string &msg)
        : std::logic_error(msg)
    {}
};

namespace detail {

/** Concatenate a pack of stream-printable values into one string. */
template <typename... Args>
std::string
concat(Args &&...args)
{
    std::ostringstream oss;
    (oss << ... << std::forward<Args>(args));
    return oss.str();
}

} // namespace detail

/**
 * Report an unrecoverable user error (bad input, impossible config).
 *
 * Throws FatalError so that library users (and tests) can catch it;
 * command-line tools let it propagate to main().
 */
template <typename... Args>
[[noreturn]] void
fatal(Args &&...args)
{
    throw FatalError(detail::concat("fatal: ",
                                    std::forward<Args>(args)...));
}

/**
 * Report an internal invariant violation (a framework bug).
 */
template <typename... Args>
[[noreturn]] void
panic(Args &&...args)
{
    throw PanicError(detail::concat("panic: ",
                                    std::forward<Args>(args)...));
}

/** Severity of one log line, ordered for threshold comparison. */
enum class LogLevel
{
    Debug = 0,
    Info = 1,
    Warn = 2,
    Error = 3,
};

/** Wire name of a level ("debug" | "info" | "warn" | "error"). */
const char *logLevelName(LogLevel level);

/**
 * The process's log threshold: parsed once from the AMOS_LOG
 * environment variable (debug|info|warn|error, case-insensitive);
 * unset or unrecognised values mean Info.
 */
LogLevel logThreshold();

/** True when lines of this level pass the threshold. */
bool logEnabled(LogLevel level);

/**
 * Emit one timestamped line to stderr:
 * `<ISO-8601 UTC> <level>: <message>[ [trace=<id>]]`.
 * Emits unconditionally — callers filter with logEnabled() (the
 * AMOS_LOG macro does this for you).
 */
void logMessage(LogLevel level, const std::string &message);

namespace detail {

/** One in-flight log line; emits on destruction. */
class LogLine
{
  public:
    explicit LogLine(LogLevel level) : _level(level) {}
    ~LogLine() { logMessage(_level, _oss.str()); }

    LogLine(const LogLine &) = delete;
    LogLine &operator=(const LogLine &) = delete;

    template <typename T>
    LogLine &
    operator<<(T &&value)
    {
        _oss << std::forward<T>(value);
        return *this;
    }

  private:
    LogLevel _level;
    std::ostringstream _oss;
};

} // namespace detail

/**
 * Stream one leveled log line:
 *
 *   AMOS_LOG(Debug) << "cache key " << key;
 *
 * When the level is filtered out the whole statement — including
 * the operands — is skipped.
 */
#define AMOS_LOG(level)                                             \
    if (!::amos::logEnabled(::amos::LogLevel::level))               \
        ;                                                           \
    else                                                            \
        ::amos::detail::LogLine(::amos::LogLevel::level)

/** Emit a non-fatal warning (a Warn-level log line). */
template <typename... Args>
void
warn(Args &&...args)
{
    if (logEnabled(LogLevel::Warn))
        logMessage(LogLevel::Warn,
                   detail::concat(std::forward<Args>(args)...));
}

/** Emit an informational status message (an Info-level line). */
template <typename... Args>
void
inform(Args &&...args)
{
    if (logEnabled(LogLevel::Info))
        logMessage(LogLevel::Info,
                   detail::concat(std::forward<Args>(args)...));
}

/**
 * Assert a framework invariant with a formatted message.
 *
 * Unlike assert(), stays active in release builds: mapping validity
 * and address arithmetic must never silently go wrong.
 */
template <typename... Args>
void
require(bool cond, Args &&...args)
{
    if (!cond)
        panic(std::forward<Args>(args)...);
}

/** Validate a user-supplied condition, raising fatal() on failure. */
template <typename... Args>
void
expect(bool cond, Args &&...args)
{
    if (!cond)
        fatal(std::forward<Args>(args)...);
}

} // namespace amos

#endif // AMOS_SUPPORT_LOGGING_HH
