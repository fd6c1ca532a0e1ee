#ifndef HCPATH_UTIL_ATOMIC_WRITE_H_
#define HCPATH_UTIL_ATOMIC_WRITE_H_

#include <functional>
#include <ostream>
#include <string>

#include "util/status.h"

namespace hcpath {

/// Replaces the file at `path` with what `write` streams, atomically:
/// `write` fills a fresh temporary file in the same directory, which is
/// fsynced and then renamed over `path`, and the directory is fsynced so
/// the rename itself survives a crash. Readers see either the old file or
/// the new one, never a partial write, and a process that mmapped the old
/// file keeps reading it intact — a checkpoint may therefore be saved over
/// the very file it was loaded from (docs/PERSIST.md).
///
/// On any failure — `write` returning an error, a short write, fsync or
/// rename failing — the temporary file is removed and `path` is left as
/// it was. A short write reports IOError("short write while saving " +
/// `what` + ...).
Status WriteFileAtomically(const std::string& path, const std::string& what,
                           const std::function<Status(std::ostream&)>& write);

}  // namespace hcpath

#endif  // HCPATH_UTIL_ATOMIC_WRITE_H_
