#include "util/framed_file.hpp"

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>

#include <fcntl.h>
#include <unistd.h>

#include "util/check.hpp"
#include "util/crc64.hpp"

namespace recoverd::util {

namespace {

std::string parent_directory(const std::string& path) {
  const std::size_t slash = path.find_last_of('/');
  if (slash == std::string::npos) return ".";
  return slash == 0 ? "/" : path.substr(0, slash);
}

std::string reason(int err) { return " (" + std::string(std::strerror(err)) + ")"; }

}  // namespace

FramedFileWriter::FramedFileWriter(const std::string& path, const char* kind,
                                   std::uint64_t magic)
    : path_(path), tmp_(path + ".tmp"), kind_(kind) {
  fd_ = ::open(tmp_.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0666);
  if (fd_ < 0) {
    const int err = errno;
    fail("cannot create '" + tmp_ + "'" + reason(err) +
         " — check the directory exists and is writable");
  }
  tmp_exists_ = true;
  u64(magic);
}

FramedFileWriter::~FramedFileWriter() {
  if (fd_ >= 0) ::close(fd_);
  if (tmp_exists_) ::unlink(tmp_.c_str());
}

void FramedFileWriter::raw(const void* data, std::size_t n) {
  if (n == 0) return;
  const auto* p = static_cast<const unsigned char*>(data);
  position_ += n;
  if (n > kBufferBytes - buffered_) {
    flush();
    if (n >= kBufferBytes) {
      // A large array: from its owner straight to the file, in one write(2)
      // (writing it in cache-sized pieces saved no save time and made the
      // next mmap load of the file slower).
      crc_ = crc64(p, n, crc_);
      write_out(p, n);
      return;
    }
  }
  std::memcpy(buffer_ + buffered_, p, n);
  buffered_ += n;
}

void FramedFileWriter::flush() {
  const std::size_t skip = std::min(crc_skip_, buffered_);
  crc_ = crc64(buffer_ + skip, buffered_ - skip, crc_);
  crc_skip_ -= skip;
  write_out(buffer_, buffered_);
  buffered_ = 0;
}

void FramedFileWriter::write_out(const unsigned char* p, std::size_t n) {
  while (n > 0) {
    const ::ssize_t written = ::write(fd_, p, n);
    if (written < 0 && errno == EINTR) continue;
    if (written <= 0) {
      const int err = written < 0 ? errno : EIO;
      fail("short write to '" + tmp_ + "'" + reason(err) +
           " — disk full or I/O error; the previous " + kind_ +
           " (if any) is untouched");
    }
    p += written;
    n -= static_cast<std::size_t>(written);
  }
}

std::uint64_t FramedFileWriter::commit() {
  flush();
  const std::uint64_t crc = crc_;
  write_out(reinterpret_cast<const unsigned char*>(&crc), sizeof(crc));
  position_ += sizeof(crc);
  if (::fsync(fd_) != 0) {
    const int err = errno;
    fail("cannot fsync '" + tmp_ + "'" + reason(err) + "; the previous " + kind_ +
         " (if any) is untouched");
  }
  // A failed close can be the first report of a failed write-back.
  const int fd = fd_;
  fd_ = -1;
  if (::close(fd) != 0) {
    const int err = errno;
    fail("cannot close '" + tmp_ + "'" + reason(err) + " — disk full or I/O error; "
         "the previous " + kind_ + " (if any) is untouched");
  }
  if (std::rename(tmp_.c_str(), path_.c_str()) != 0) {
    const int err = errno;
    fail("cannot rename '" + tmp_ + "' into place" + reason(err) + "; the previous " +
         kind_ + " (if any) is untouched");
  }
  tmp_exists_ = false;
  // The rename is an entry in the directory: until the directory itself is
  // synced, a power loss can undo it. A filesystem that cannot sync
  // directories answers EINVAL and has nothing more to offer.
  const std::string dir = parent_directory(path_);
  const int dir_fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY | O_CLOEXEC);
  const bool synced = dir_fd >= 0 && (::fsync(dir_fd) == 0 || errno == EINVAL);
  const int err = errno;
  if (dir_fd >= 0) ::close(dir_fd);
  if (!synced) {
    fail("written, but its directory '" + dir + "' cannot be synced" + reason(err) +
         " — the new file may not survive a power loss");
  }
  return crc;
}

void FramedFileWriter::fail(const std::string& why) {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
  if (tmp_exists_) {
    ::unlink(tmp_.c_str());
    tmp_exists_ = false;
  }
  throw ModelError(std::string(kind_) + " '" + path_ + "': " + why);
}

}  // namespace recoverd::util
