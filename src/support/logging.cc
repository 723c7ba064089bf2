#include "logging.hh"

#include <cctype>
#include <chrono>
#include <ctime>

#include "trace.hh"

namespace amos {

namespace {

LogLevel
parseThreshold()
{
    const char *env = std::getenv("AMOS_LOG");
    if (env == nullptr)
        return LogLevel::Info;
    std::string value(env);
    for (char &c : value)
        c = static_cast<char>(
            std::tolower(static_cast<unsigned char>(c)));
    if (value == "debug")
        return LogLevel::Debug;
    if (value == "info")
        return LogLevel::Info;
    if (value == "warn" || value == "warning")
        return LogLevel::Warn;
    if (value == "error")
        return LogLevel::Error;
    return LogLevel::Info;
}

std::string
utcTimestamp()
{
    using namespace std::chrono;
    auto now = system_clock::now();
    auto ms = duration_cast<milliseconds>(now.time_since_epoch()) %
              1000;
    std::time_t secs = system_clock::to_time_t(now);
    std::tm tm{};
#if defined(_WIN32)
    gmtime_s(&tm, &secs);
#else
    gmtime_r(&secs, &tm);
#endif
    char buf[40];
    std::snprintf(buf, sizeof(buf),
                  "%04d-%02d-%02dT%02d:%02d:%02d.%03dZ",
                  tm.tm_year + 1900, tm.tm_mon + 1, tm.tm_mday,
                  tm.tm_hour, tm.tm_min, tm.tm_sec,
                  static_cast<int>(ms.count()));
    return buf;
}

} // namespace

const char *
logLevelName(LogLevel level)
{
    switch (level) {
    case LogLevel::Debug:
        return "debug";
    case LogLevel::Info:
        return "info";
    case LogLevel::Warn:
        return "warn";
    case LogLevel::Error:
        return "error";
    }
    return "info";
}

LogLevel
logThreshold()
{
    static const LogLevel threshold = parseThreshold();
    return threshold;
}

bool
logEnabled(LogLevel level)
{
    return static_cast<int>(level) >=
           static_cast<int>(logThreshold());
}

void
logMessage(LogLevel level, const std::string &message)
{
    std::string line = utcTimestamp();
    line += " ";
    line += logLevelName(level);
    line += ": ";
    line += message;
    std::string_view trace = FlightScope::currentLabel();
    if (!trace.empty())
        line.append(" [trace=").append(trace).append("]");
    line += "\n";
    // One fwrite keeps concurrent threads' lines whole.
    std::fwrite(line.data(), 1, line.size(), stderr);
}

} // namespace amos
