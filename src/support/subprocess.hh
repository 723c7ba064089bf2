/**
 * @file
 * Minimal subprocess helpers for the JIT tier: run a shell command,
 * probe whether a program can be invoked, and drive the system C
 * compiler to produce a shared object. Kept deliberately small — the
 * only consumer is the kernel JIT, which needs "compile this file or
 * tell me why not", not a general process API.
 */

#ifndef AMOS_SUPPORT_SUBPROCESS_HH
#define AMOS_SUPPORT_SUBPROCESS_HH

#include <string>

namespace amos {

/** Outcome of one shell command. */
struct CommandResult
{
    /// True when the shell itself could run the command line (the
    /// command may still have exited nonzero).
    bool ran = false;
    int exitCode = -1;

    bool ok() const { return ran && exitCode == 0; }
};

/** Run a command line through the shell; never throws. */
CommandResult runShellCommand(const std::string &commandLine);

/**
 * True when `program` resolves to something executable (`command -v`
 * through the shell). Used to probe the JIT compiler once before
 * paying for a real compile attempt.
 */
bool programAvailable(const std::string &program);

/** One shared-object compilation request. */
struct SharedObjectJob
{
    std::string compiler;   ///< e.g. "cc" or "/usr/bin/gcc"
    std::string flags;      ///< e.g. "-O3 -march=native"
    std::string sourcePath; ///< input C translation unit
    std::string outputPath; ///< output .so path
};

/**
 * Compile one C source into a shared object
 * (`<compiler> <flags> -shared -fPIC -o <out> -x c <src>`, so the
 * source needs no .c suffix). On failure returns false and fills
 * `errText` with the tail of the compiler's output so fallback
 * reasons stay diagnosable.
 */
bool compileSharedObject(const SharedObjectJob &job,
                         std::string *errText = nullptr);

} // namespace amos

#endif // AMOS_SUPPORT_SUBPROCESS_HH
