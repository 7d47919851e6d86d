// atomic_write.hpp — crash-safe file publication (write-temp-then-rename).
//
// Writing a report (or any file another process may read back) straight
// into its final path lets a crash — or a reader racing the writer —
// observe a partial file.  This helper makes publication atomic at the
// filesystem level: the body goes to a sibling temp file first (same
// directory, so the rename cannot cross filesystems), is flushed and
// closed, and only then renamed over the final path; std::rename replaces
// the target atomically on POSIX.  Readers therefore see either the old
// complete file or the new complete file, never a prefix.
//
// Lint rule L7 (scripts/lint/rules/l7_atomic_writes.py) enforces that
// src/mc/ and src/util/ code writing to user-supplied final paths goes
// through this helper instead of a bare fopen/ofstream.
#pragma once

#include <string>

namespace itpseq::util {

/// Atomically replace `path` with `body`.  On any I/O failure the final
/// path is left untouched, the temp file is removed, *err (when non-null)
/// receives a description, and false is returned.  Never throws.
bool atomic_write_file(const std::string& path, const std::string& body,
                       std::string* err = nullptr);

}  // namespace itpseq::util
