/**
 * @file
 * Shared pieces of the benchmark harness: flag parsing, timing, and
 * the in-memory span log the traced replay records around each call
 * into a layer's public function.
 */

#ifndef PERFBENCH_HARNESS_HH
#define PERFBENCH_HARNESS_HH

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "support/json.hh"

namespace pbench {

using Clock = std::chrono::steady_clock;

inline double
secondsBetween(Clock::time_point a, Clock::time_point b)
{
    return std::chrono::duration<double>(b - a).count();
}

/** `--key value` flags after the mode word. */
class Args
{
  public:
    Args(int argc, char **argv, int first);

    bool has(const std::string &key) const { return _kv.count(key); }
    std::string str(const std::string &key,
                    const std::string &fallback = "") const;
    double num(const std::string &key, double fallback) const;

  private:
    std::map<std::string, std::string> _kv;
};

/**
 * Time of one run of the calibration loop (calib.cc), about four
 * milliseconds on a 4-core x86 VM.
 */
double calibrationSeconds();

/** Non-empty lines of a text file (fatal when unreadable). */
std::vector<std::string> readLines(const std::string &path);

/** Write `text` to `path` (fatal on failure). */
void writeFile(const std::string &path, const std::string &text);

/**
 * Spans of one single-threaded replay, kept in memory and written out
 * once at the end: name, start, end, parent span, request id.
 */
class SpanLog
{
  public:
    int open(const std::string &name, const std::string &request);
    void close(int span);
    /** Rename an open or closed span (e.g. after a cache lookup). */
    void rename(int span, const std::string &name);

    /** [[name, start_us, end_us, parent, request], ...] */
    amos::Json toJson() const;

  private:
    struct Span
    {
        std::string name;
        double startUs = 0.0;
        double endUs = 0.0;
        int parent = -1;
        std::string request;
    };

    Clock::time_point _origin = Clock::now();
    std::vector<Span> _spans;
    std::vector<int> _stack;
};

/** RAII span over one call. */
class Scoped
{
  public:
    Scoped(SpanLog &log, const std::string &name,
           const std::string &request = "")
        : _log(log), _id(log.open(name, request))
    {}
    ~Scoped() { _log.close(_id); }
    Scoped(const Scoped &) = delete;
    Scoped &operator=(const Scoped &) = delete;

  private:
    SpanLog &_log;
    int _id;
};

int runServeLoad(const Args &args);
int runStoreBuild(const Args &args);
int runColdCheck(const Args &args);
int runEngines(const Args &args);
int runTraced(const Args &args);

} // namespace pbench

#endif // PERFBENCH_HARNESS_HH
