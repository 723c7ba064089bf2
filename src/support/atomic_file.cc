#include "atomic_file.hh"

#include <unistd.h>

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <fstream>

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

} // namespace amos
