#include "util/atomic_write.h"

#include <fcntl.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <cstring>
#include <filesystem>
#include <streambuf>

namespace hcpath {

namespace {

/// Unbuffered stream buffer over a file descriptor: every write goes
/// straight to write(2), retried on EINTR and partial writes. A failed
/// write returns a short count, which sets the ostream's badbit.
class FdStreamBuf final : public std::streambuf {
 public:
  explicit FdStreamBuf(int fd) : fd_(fd) {}

 protected:
  int_type overflow(int_type ch) override {
    if (traits_type::eq_int_type(ch, traits_type::eof())) {
      return traits_type::not_eof(ch);
    }
    const char c = traits_type::to_char_type(ch);
    return xsputn(&c, 1) == 1 ? ch : traits_type::eof();
  }

  std::streamsize xsputn(const char* s, std::streamsize n) override {
    std::streamsize done = 0;
    while (done < n) {
      const ssize_t w = ::write(fd_, s + done, static_cast<size_t>(n - done));
      if (w < 0) {
        if (errno == EINTR) continue;
        break;
      }
      done += w;
    }
    return done;
  }

 private:
  int fd_;
};

Status ErrnoError(const std::string& what, const std::string& path) {
  return Status::IOError(what + " " + path + ": " + std::strerror(errno));
}

/// Creates a temporary file next to `path` (same directory, so the final
/// rename stays within one filesystem) with the usual 0666 & ~umask mode.
int CreateTempFile(const std::string& path, std::string* tmp) {
  static std::atomic<uint64_t> counter{0};
  for (int attempt = 0; attempt < 16; ++attempt) {
    *tmp = path + ".tmp." + std::to_string(::getpid()) + "." +
           std::to_string(counter.fetch_add(1, std::memory_order_relaxed));
    const int fd =
        ::open(tmp->c_str(), O_WRONLY | O_CREAT | O_EXCL | O_CLOEXEC, 0666);
    if (fd >= 0 || errno != EEXIST) return fd;
  }
  return -1;
}

}  // namespace

Status WriteFileAtomically(const std::string& path, const std::string& what,
                           const std::function<Status(std::ostream&)>& write) {
  std::string tmp;
  const int fd = CreateTempFile(path, &tmp);
  if (fd < 0) return ErrnoError("cannot open " + what + " for writing:", path);

  Status st;
  {
    FdStreamBuf buf(fd);
    std::ostream out(&buf);
    st = write(out);
    if (st.ok() && !out) {
      st = Status::IOError("short write while saving " + what + ": " + path);
    }
  }
  if (st.ok() && ::fsync(fd) != 0) st = ErrnoError("cannot fsync", tmp);
  if (::close(fd) != 0 && st.ok()) st = ErrnoError("cannot close", tmp);
  if (st.ok() && ::rename(tmp.c_str(), path.c_str()) != 0) {
    st = ErrnoError("cannot rename " + tmp + " to", path);
  }
  if (!st.ok()) {
    ::unlink(tmp.c_str());
    return st;
  }

  // Persist the directory entry. Filesystems that cannot fsync a
  // directory report EINVAL; the rename itself has already happened.
  const std::filesystem::path parent =
      std::filesystem::path(path).parent_path();
  const std::string dir = parent.empty() ? "." : parent.string();
  const int dfd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY | O_CLOEXEC);
  if (dfd < 0) return ErrnoError("cannot open directory", dir);
  if (::fsync(dfd) != 0 && errno != EINVAL) {
    st = ErrnoError("cannot fsync directory", dir);
  }
  ::close(dfd);
  return st;
}

}  // namespace hcpath
