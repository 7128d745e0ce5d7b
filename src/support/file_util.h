// Filesystem helpers for the artifacts this process persists (compile
// reports, the on-disk program cache).
//
// The one rule both writers share: a file that exists is complete. Writers
// that fopen the final path directly can be interrupted (crash, kill -9,
// full disk) after creating the file but before finishing it, and a later
// reader — possibly a later process warming its program cache — would
// load the torso. AtomicWriteFile writes to a same-directory temp name and
// renames into place, which POSIX guarantees is atomic, so readers observe
// either the old content, the new content, or no file — never a partial
// write. Leftover "<name>.tmp.*" files from interrupted writers are inert:
// no reader ever opens them, and rewriting the entry replaces the final
// name anyway.
#ifndef SPACEFUSION_SRC_SUPPORT_FILE_UTIL_H_
#define SPACEFUSION_SRC_SUPPORT_FILE_UTIL_H_

#include <string>
#include <vector>

#include "src/support/status.h"

namespace spacefusion {

// Atomically replaces `path` with `contents`: writes
// "<path>.tmp.<pid>.<seq>", fsyncs nothing (callers persist caches, not
// databases), and renames over `path`. Parent directories are created.
// On any failure the temp file is removed and `path` is untouched.
Status AtomicWriteFile(const std::string& path, const std::string& contents);

// Reads a whole file. kNotFound when it does not exist, kInternal on I/O
// errors.
StatusOr<std::string> ReadFileToString(const std::string& path);

// Regular-file names in `dir` (no "."/".."), sorted; empty if the
// directory cannot be read. Best-effort, for cache/report enumeration.
std::vector<std::string> ListDirectory(const std::string& dir);

}  // namespace spacefusion

#endif  // SPACEFUSION_SRC_SUPPORT_FILE_UTIL_H_
