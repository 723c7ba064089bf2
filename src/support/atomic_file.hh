/**
 * @file
 * The one crash-safe file writer: content goes to a sibling temp
 * file that no other writer can be using, then rename(2) moves it
 * over the destination. rename within a directory is atomic, so a
 * reader sees either the old document or the new one, never a torn
 * mix; two writers of one path each install a complete document and
 * the last rename wins. No fsync: a power loss may still lose the
 * newest document.
 */

#ifndef AMOS_SUPPORT_ATOMIC_FILE_HH
#define AMOS_SUPPORT_ATOMIC_FILE_HH

#include <cstddef>
#include <string>

namespace amos {

/**
 * Replace `path` with `content` atomically. The temp name is
 * `path.tmp.<pid>.<counter>`, unique per process and call. Raises
 * fatal() (FatalError) when the temp file cannot be written in full
 * or renamed; the temp file is removed on failure.
 */
void writeFileAtomic(const std::string &path, const std::string &content);

/**
 * Remove the temps that writeFileAtomic left behind when its process
 * died between the write and the rename: the files
 * `<path>.tmp.<pid>.<n>` whose `<path>` starts with `pathPrefix` (a
 * document's path, or a directory plus the start of a file name) and
 * whose pid names no live process. A live writer's temp may be about
 * to be renamed and is kept. Returns the number removed. Pids are
 * read in this process's pid namespace; a live temp removed by a
 * process in another namespace only fails that writer's rename,
 * which leaves the old document in place.
 */
std::size_t removeOrphanTemps(const std::string &pathPrefix);

} // namespace amos

#endif // AMOS_SUPPORT_ATOMIC_FILE_HH
