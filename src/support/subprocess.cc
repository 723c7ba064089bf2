#include "subprocess.hh"

#include <sys/wait.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <sstream>

#include "support/logging.hh"

namespace amos {

CommandResult
runShellCommand(const std::string &commandLine)
{
    CommandResult result;
    int status = std::system(commandLine.c_str());
    if (status < 0)
        return result; // the shell could not be spawned at all
    result.ran = true;
#ifdef WIFEXITED
    if (WIFEXITED(status))
        result.exitCode = WEXITSTATUS(status);
    else
        result.exitCode = -1; // killed by a signal
#else
    result.exitCode = status;
#endif
    return result;
}

bool
programAvailable(const std::string &program)
{
    if (program.empty())
        return false;
    // `command -v` understands both bare names (PATH lookup) and
    // absolute paths; redirect everything so probes stay silent.
    return runShellCommand("command -v '" + program +
                           "' > /dev/null 2>&1")
        .ok();
}

bool
compileSharedObject(const SharedObjectJob &job, std::string *errText)
{
    // -x c: the source may be a temp name without a .c suffix. The
    // diagnostics come back through the pipe, so no error file is
    // left behind when the process dies mid-compile.
    std::ostringstream cmd;
    cmd << job.compiler << " " << job.flags << " -shared -fPIC -o "
        << job.outputPath << " -x c " << job.sourcePath << " 2>&1";
    std::string full;
    int status = -1;
    if (FILE *pipe = ::popen(cmd.str().c_str(), "r")) {
        for (char line[512]; std::fgets(line, sizeof line, pipe);)
            full += line;
        status = ::pclose(pipe);
    }
    if (status == 0)
        return true;
    if (errText) {
        int exitCode = -1; // the shell could not run, or a signal
        if (status != -1 && WIFEXITED(status))
            exitCode = WEXITSTATUS(status);
        // Keep the tail: with `-Werror`-style cascades the last
        // lines carry the actual failure.
        constexpr std::size_t kMaxErr = 512;
        if (full.size() > kMaxErr)
            full = "..." + full.substr(full.size() - kMaxErr);
        *errText = "exit " + std::to_string(exitCode) +
                   (full.empty() ? "" : ": " + full);
    }
    ::unlink(job.outputPath.c_str());
    return false;
}

} // namespace amos
