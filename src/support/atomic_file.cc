#include "atomic_file.hh"

#include <signal.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <charconv>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string_view>

#include "logging.hh"

namespace amos {

void
writeFileAtomic(const std::string &path, const std::string &content)
{
    static std::atomic<std::uint64_t> counter{0};
    const std::string tmp =
        path + ".tmp." + std::to_string(::getpid()) + "." +
        std::to_string(counter.fetch_add(1, std::memory_order_relaxed));
    bool written = false;
    {
        std::ofstream out(tmp, std::ios::trunc | std::ios::binary);
        out << content;
        out.flush();
        written = out.good();
    }
    if (!written) {
        std::remove(tmp.c_str());
        fatal("cannot write ", tmp);
    }
    if (std::rename(tmp.c_str(), path.c_str()) != 0) {
        std::remove(tmp.c_str());
        fatal("cannot rename ", tmp, " to ", path);
    }
}

namespace {

/**
 * The writer pid of a temp name `<stem>.tmp.<pid>.<n>` whose stem
 * starts with `stemPrefix`; 0 when `name` is no such name.
 */
pid_t
tempWriter(std::string_view name, std::string_view stemPrefix)
{
    constexpr std::string_view kTemp = ".tmp.";
    const std::size_t at = name.rfind(kTemp);
    if (at == std::string_view::npos || at < stemPrefix.size() ||
        name.substr(0, stemPrefix.size()) != stemPrefix)
        return 0;
    const char *last = name.data() + name.size();
    pid_t pid = 0;
    auto parsed =
        std::from_chars(name.data() + at + kTemp.size(), last, pid);
    if (parsed.ec != std::errc() || parsed.ptr == last ||
        *parsed.ptr != '.')
        return 0;
    std::string_view counter(parsed.ptr + 1, last - parsed.ptr - 1);
    if (counter.empty() ||
        counter.find_first_not_of("0123456789") != std::string_view::npos)
        return 0;
    return pid;
}

} // namespace

std::size_t
removeOrphanTemps(const std::string &pathPrefix)
{
    const std::size_t slash = pathPrefix.rfind('/');
    std::string dir = ".";
    if (slash != std::string::npos)
        dir = slash == 0 ? "/" : pathPrefix.substr(0, slash);
    // npos + 1 is 0: a prefix without a slash is all stem.
    const std::string_view stemPrefix =
        std::string_view(pathPrefix).substr(slash + 1);
    std::size_t removed = 0;
    std::error_code ec;
    for (std::filesystem::directory_iterator it(dir, ec), end;
         !ec && it != end; it.increment(ec)) {
        const pid_t pid =
            tempWriter(it->path().filename().string(), stemPrefix);
        if (pid <= 0 || ::kill(pid, 0) == 0 || errno != ESRCH)
            continue;
        std::error_code removeError;
        if (std::filesystem::remove(it->path(), removeError))
            ++removed;
    }
    return removed;
}

} // namespace amos
