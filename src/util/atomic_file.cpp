#include "util/atomic_file.hpp"

#include <fcntl.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <cstdint>
#include <cstring>
#include <filesystem>

#include "util/error.hpp"

namespace bfhrf::util {
namespace {

[[noreturn]] void throw_io(const std::string& what, const std::string& path) {
  throw Error(what + " '" + path + "': " + std::strerror(errno));
}

}  // namespace

AtomicFile::AtomicFile(std::string path) : path_(std::move(path)) {
  // O_EXCL on a pid + counter name: unique like mkstemp, but created with
  // the usual 0666 & ~umask permissions.
  static std::atomic<std::uint64_t> serial{0};
  do {
    tmp_ = path_ + ".tmp." + std::to_string(::getpid()) + "." +
           std::to_string(serial.fetch_add(1));
    fd_ = ::open(tmp_.c_str(), O_WRONLY | O_CREAT | O_EXCL | O_CLOEXEC, 0666);
  } while (fd_ < 0 && errno == EEXIST);
  if (fd_ < 0) {
    throw_io("cannot create", tmp_);
  }
  out_.open(tmp_, std::ios::binary);
  if (!out_) {
    ::close(fd_);
    ::unlink(tmp_.c_str());
    throw_io("cannot open", tmp_);
  }
}

AtomicFile::~AtomicFile() {
  if (fd_ >= 0) {
    out_.close();
    ::close(fd_);
    ::unlink(tmp_.c_str());
  }
}

void AtomicFile::commit() {
  out_.close();
  if (!out_) {
    throw Error("write failed for '" + tmp_ + "'");
  }
  if (::fsync(fd_) != 0) {
    throw_io("fsync failed for", tmp_);
  }
  if (::rename(tmp_.c_str(), path_.c_str()) != 0) {
    throw_io("cannot rename temp file over", path_);
  }
  ::close(fd_);
  fd_ = -1;
  // Make the rename itself durable.
  const std::string dir = std::filesystem::path(path_).parent_path().string();
  const int dfd =
      ::open(dir.empty() ? "." : dir.c_str(), O_RDONLY | O_DIRECTORY);
  if (dfd < 0) {
    throw_io("cannot open directory of", path_);
  }
  const int rc = ::fsync(dfd);
  ::close(dfd);
  if (rc != 0) {
    throw_io("fsync failed for the directory of", path_);
  }
}

}  // namespace bfhrf::util
