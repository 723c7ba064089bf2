/**
 * @file
 * serve-load: drive the real amos_served binary over its stdin/stdout
 * NDJSON protocol from one writer (this thread) and one response
 * reader thread.
 *
 *   --server-argv JSON   server command line as a JSON string array
 *   --requests FILE      one request line each; ids end in the line index
 *   --out FILE           per request: idx, due, sent, received (s) and
 *                        the raw response line, tab separated
 *   --mode closed|open   closed: --window requests outstanding;
 *                        open: --rate requests/s from a fixed schedule
 *   --duration S         stop issuing requests after S seconds
 *   --setups N           extra spawn-to-healthz measurements first
 *   --stderr FILE        server stderr
 *   --calib-every S      every S seconds stop issuing, wait for every
 *                        answer, and time the calibration loop
 *                        (calib.cc) on each CPU of the then idle host;
 *                        also at the start and at the end. An open
 *                        loop's schedule resumes after each pause.
 *
 * Prints {"setup_s":[..],"max_rss_kb":..,"sent":..,"received":..,
 * "elapsed_s":..,"calib":[[begin_s,end_s,loop_s],..]}. Set-up time is
 * spawn until the first healthz answer; peak RSS comes from wait4() on
 * the exited server.
 */

#include <fcntl.h>
#include <sched.h>
#include <signal.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iomanip>
#include <iostream>
#include <mutex>
#include <sstream>
#include <thread>

#include "harness.hh"
#include "support/logging.hh"

namespace pbench {

namespace {

struct Server
{
    pid_t pid = -1;
    int in = -1;          ///< server stdin (we write)
    FILE *out = nullptr;  ///< server stdout (we read)
};

Server
spawnServer(const std::vector<std::string> &argv,
            const std::string &errPath)
{
    int to_child[2], from_child[2];
    amos::expect(::pipe2(to_child, O_CLOEXEC) == 0 &&
                     ::pipe2(from_child, O_CLOEXEC) == 0,
                 "pipe2 failed");
    std::vector<char *> cargv;
    for (const auto &a : argv)
        cargv.push_back(const_cast<char *>(a.c_str()));
    cargv.push_back(nullptr);
    pid_t pid = ::fork();
    amos::expect(pid >= 0, "fork failed");
    if (pid == 0) {
        ::dup2(to_child[0], 0);
        ::dup2(from_child[1], 1);
        int err = ::open(errPath.c_str(),
                         O_WRONLY | O_CREAT | O_APPEND, 0644);
        if (err >= 0)
            ::dup2(err, 2);
        ::execv(cargv[0], cargv.data());
        ::_exit(127);
    }
    ::close(to_child[0]);
    ::close(from_child[1]);
    Server s;
    s.pid = pid;
    s.in = to_child[1];
    s.out = ::fdopen(from_child[0], "r");
    return s;
}

bool
writeAll(int fd, const std::string &data)
{
    std::size_t done = 0;
    while (done < data.size()) {
        ssize_t n = ::write(fd, data.data() + done, data.size() - done);
        if (n < 0 && errno == EINTR)
            continue;
        if (n <= 0)
            return false;
        done += static_cast<std::size_t>(n);
    }
    return true;
}

bool
readLine(FILE *f, std::string &line)
{
    char *buf = nullptr;
    std::size_t cap = 0;
    ssize_t n = ::getline(&buf, &cap, f);
    if (n > 0 && buf[n - 1] == '\n')
        --n;
    line.assign(buf ? buf : "", n > 0 ? static_cast<std::size_t>(n) : 0);
    std::free(buf);
    return n >= 0;
}

/**
 * Send shutdown, close stdin, drain stdout to EOF and reap the
 * server; SIGKILL after `graceS`. Returns peak RSS in KiB.
 */
long
stopServer(Server &s, double graceS)
{
    writeAll(s.in, "{\"type\":\"shutdown\"}\n");
    ::close(s.in);
    s.in = -1;
    std::string line;
    while (readLine(s.out, line)) {
    }
    std::fclose(s.out);
    s.out = nullptr;
    struct rusage ru;
    std::memset(&ru, 0, sizeof(ru));
    int status = 0;
    auto t0 = Clock::now();
    for (;;) {
        pid_t r = ::wait4(s.pid, &status, WNOHANG, &ru);
        if (r == s.pid)
            break;
        if (secondsBetween(t0, Clock::now()) > graceS) {
            ::kill(s.pid, SIGKILL);
            ::wait4(s.pid, &status, 0, &ru);
            break;
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    return ru.ru_maxrss;
}

/** Spawn and wait for the first healthz answer; returns seconds. */
double
startServer(Server &s, const std::vector<std::string> &argv,
            const std::string &errPath)
{
    auto t0 = Clock::now();
    s = spawnServer(argv, errPath);
    amos::expect(writeAll(s.in, "{\"type\":\"healthz\",\"id\":\"h\"}\n"),
                 "server rejected the healthz probe");
    std::string line;
    amos::expect(readLine(s.out, line), "server exited before healthz");
    return secondsBetween(t0, Clock::now());
}

/** Index encoded in the response id ("c17" -> 17), or -1. */
long
responseIndex(const std::string &line)
{
    static const std::string kKey = "\"id\":\"";
    auto at = line.find(kKey);
    if (at == std::string::npos)
        return -1;
    std::size_t i = at + kKey.size();
    while (i < line.size() && !std::isdigit(
                                  static_cast<unsigned char>(line[i])))
        ++i;
    if (i >= line.size())
        return -1;
    return std::strtol(line.c_str() + i, nullptr, 10);
}

} // namespace

int
runServeLoad(const Args &args)
{
    ::signal(SIGPIPE, SIG_IGN);
    std::vector<std::string> argv;
    amos::Json argvJson = amos::Json::parse(args.str("server-argv"));
    for (std::size_t i = 0; i < argvJson.size(); ++i)
        argv.push_back(argvJson.at(i).asString());
    amos::expect(!argv.empty(), "--server-argv is empty");
    const auto lines = readLines(args.str("requests"));
    const std::string errPath = args.str("stderr", "/dev/null");
    const bool open = args.str("mode", "closed") == "open";
    const double rate = args.num("rate", 1000.0);
    const std::size_t window =
        static_cast<std::size_t>(args.num("window", 4));
    const double duration = args.num("duration", 5.0);
    const int setups = static_cast<int>(args.num("setups", 0));

    amos::Json setupTimes = amos::Json::array();
    for (int i = 0; i < setups; ++i) {
        Server s;
        setupTimes.push(amos::Json(startServer(s, argv, errPath)));
        stopServer(s, 30.0);
    }

    Server server;
    setupTimes.push(amos::Json(startServer(server, argv, errPath)));

    const std::size_t n = lines.size();
    std::vector<double> due(n, -1.0), sent(n, -1.0), recv(n, -1.0);
    std::vector<std::string> resp(n);
    std::mutex mutex;
    std::condition_variable cv;
    std::size_t received = 0;
    const auto start = Clock::now();

    std::thread reader([&] {
        std::string line;
        while (readLine(server.out, line)) {
            double t = secondsBetween(start, Clock::now());
            long idx = responseIndex(line);
            std::lock_guard<std::mutex> lock(mutex);
            if (idx >= 0 && static_cast<std::size_t>(idx) < n &&
                recv[idx] < 0) {
                recv[idx] = t;
                resp[idx] = line;
                ++received;
                cv.notify_all();
            }
        }
        std::lock_guard<std::mutex> lock(mutex);
        received = n + 1; // EOF: release any waiter
        cv.notify_all();
    });

    // Wait until every issued request is answered (or the server is
    // gone), then time the calibration loop on the idle host. The
    // server's threads move between CPUs, and on a shared host the
    // CPUs run at different speeds at any moment, so the loop runs on
    // each CPU in turn: the mean over CPUs of the median of
    // kCalibLoops runs.
    const double calibEvery = args.num("calib-every", 0.0);
    constexpr int kCalibLoops = 3;
    amos::Json calibPoints = amos::Json::array();
    auto drainAndCalibrate = [&](std::size_t upTo) {
        {
            std::unique_lock<std::mutex> lock(mutex);
            cv.wait_for(lock, std::chrono::seconds(60),
                        [&] { return received >= upTo; });
        }
        const double begin = secondsBetween(start, Clock::now());
        cpu_set_t allowed;
        CPU_ZERO(&allowed);
        amos::expect(::sched_getaffinity(0, sizeof(allowed), &allowed) == 0,
                     "sched_getaffinity failed");
        double sum = 0.0;
        int cpus = 0;
        for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
            if (!CPU_ISSET(cpu, &allowed))
                continue;
            cpu_set_t one;
            CPU_ZERO(&one);
            CPU_SET(cpu, &one);
            if (::sched_setaffinity(0, sizeof(one), &one) != 0)
                continue;
            std::vector<double> loops;
            for (int k = 0; k < kCalibLoops; ++k)
                loops.push_back(calibrationSeconds());
            std::sort(loops.begin(), loops.end());
            sum += loops[kCalibLoops / 2];
            ++cpus;
        }
        ::sched_setaffinity(0, sizeof(allowed), &allowed);
        amos::expect(cpus > 0, "no CPU to calibrate on");
        amos::Json point = amos::Json::array();
        point.push(amos::Json(begin));
        point.push(amos::Json(secondsBetween(start, Clock::now())));
        point.push(amos::Json(sum / cpus));
        calibPoints.push(std::move(point));
    };

    std::size_t issued = 0;
    bool writeFailed = false;
    if (calibEvery > 0)
        drainAndCalibrate(0);
    // The current stretch between calibrations: its start, and for the
    // open loop the first request it schedules.
    double segStart = secondsBetween(start, Clock::now());
    std::size_t segFirst = 0;
    for (std::size_t i = 0; i < n; ++i) {
        double dueAt = 0.0;
        if (open) {
            dueAt = segStart + static_cast<double>(i - segFirst) / rate;
            if (calibEvery > 0 && dueAt - segStart >= calibEvery) {
                drainAndCalibrate(issued);
                segStart = dueAt = secondsBetween(start, Clock::now());
                segFirst = i;
            }
            if (dueAt > duration)
                break;
            std::this_thread::sleep_until(
                start + std::chrono::duration_cast<Clock::duration>(
                            std::chrono::duration<double>(dueAt)));
        } else {
            if (calibEvery > 0 &&
                secondsBetween(start, Clock::now()) - segStart >=
                    calibEvery) {
                drainAndCalibrate(issued);
                segStart = secondsBetween(start, Clock::now());
            }
            std::unique_lock<std::mutex> lock(mutex);
            cv.wait(lock, [&] { return i - std::min(i, received) < window; });
            dueAt = secondsBetween(start, Clock::now());
            if (dueAt > duration)
                break;
        }
        double now = secondsBetween(start, Clock::now());
        {
            std::lock_guard<std::mutex> lock(mutex);
            due[i] = dueAt;
            sent[i] = now;
        }
        if (!writeAll(server.in, lines[i] + "\n")) {
            writeFailed = true;
            break;
        }
        ++issued;
    }

    {
        std::unique_lock<std::mutex> lock(mutex);
        cv.wait_for(lock, std::chrono::seconds(60),
                    [&] { return received >= issued; });
    }
    const double elapsed = secondsBetween(start, Clock::now());
    if (calibEvery > 0)
        drainAndCalibrate(issued);
    long rss = stopServer(server, 30.0);
    reader.join();

    std::ostringstream out;
    out << std::fixed << std::setprecision(9);
    std::size_t answered = 0;
    for (std::size_t i = 0; i < issued; ++i) {
        if (recv[i] >= 0)
            ++answered;
        out << i << '\t' << due[i] << '\t' << sent[i] << '\t' << recv[i]
            << '\t' << resp[i] << '\n';
    }
    writeFile(args.str("out"), out.str());

    amos::Json summary = amos::Json::object();
    summary.set("setup_s", setupTimes);
    summary.set("max_rss_kb", amos::Json(static_cast<std::int64_t>(rss)));
    summary.set("sent", amos::Json(static_cast<std::int64_t>(issued)));
    summary.set("received",
                amos::Json(static_cast<std::int64_t>(answered)));
    summary.set("elapsed_s", amos::Json(elapsed));
    summary.set("write_failed", amos::Json(writeFailed));
    summary.set("calib", std::move(calibPoints));
    std::cout << summary.dump() << std::endl;
    return 0;
}

} // namespace pbench
