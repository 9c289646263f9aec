#include "util/framed_file.hpp"

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
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

/// Closes a file descriptor on every path out of a scope.
struct FdCloser {
  int fd;
  ~FdCloser() { ::close(fd); }
};

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

// ---- FramedFileReader ----------------------------------------------------

FramedFileReader::FramedFileReader(const std::string& path, const char* kind,
                                   const char* remedy, std::uint64_t magic,
                                   std::size_t header_bytes)
    : path_(path), kind_(kind), remedy_(remedy) {
  const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) {
    const int err = errno;
    fail("cannot open" + reason(err) + " — " + remedy_);
  }
  const FdCloser closer{fd};
  struct ::stat st = {};
  if (::fstat(fd, &st) != 0 || st.st_size < 0) {
    fail("cannot stat — the path is not a readable regular file");
  }
  size_ = static_cast<std::size_t>(st.st_size);
  const std::size_t minimum = header_bytes + 8;
  if (size_ == 0) {
    fail("empty file — a " + std::string(kind_) + " is at least " +
         std::to_string(minimum) + " bytes; " + remedy_);
  }
  if (size_ < minimum) {
    fail("truncated header (" + std::to_string(size_) + " bytes, need at least " +
         std::to_string(minimum) + ") — the file was cut short; " + remedy_);
  }
  map(fd);
  end_ = size_ - 8;
  if (u64("magic") != magic) {
    fail("not a recoverd " + std::string(kind_) + " (bad magic) — the path holds "
         "some other file; " + remedy_);
  }
}

void FramedFileReader::map(int fd) {
  // MAP_POPULATE prefaults the whole range in one readahead pass instead of
  // ~size/4096 minor faults during the CRC sweep.
  void* m = ::mmap(nullptr, size_, PROT_READ, MAP_PRIVATE | MAP_POPULATE, fd, 0);
  if (m == MAP_FAILED) m = ::mmap(nullptr, size_, PROT_READ, MAP_PRIVATE, fd, 0);
  if (m != MAP_FAILED) {
    const std::size_t len = size_;
    storage_ = std::shared_ptr<const void>(
        m, [len](const void* base) { ::munmap(const_cast<void*>(base), len); });
    data_ = static_cast<const unsigned char*>(m);
    return;
  }
  // mmap can fail on exotic filesystems; a plain read is equivalent, just
  // without the page-cache sharing. Whole words keep the buffer 8-aligned
  // for in_place().
  auto buffer = std::make_shared<std::vector<std::uint64_t>>((size_ + 7) / 8);
  auto* bytes = reinterpret_cast<unsigned char*>(buffer->data());
  std::size_t got = 0;
  while (got < size_) {
    const ::ssize_t r =
        ::pread(fd, bytes + got, size_ - got, static_cast<::off_t>(got));
    if (r < 0 && errno == EINTR) continue;
    if (r <= 0) break;
    got += static_cast<std::size_t>(r);
  }
  if (got != size_) {
    fail("short read — the file shrank while loading; " + std::string(remedy_));
  }
  storage_ = std::move(buffer);
  data_ = bytes;
}

std::uint64_t FramedFileReader::check_frame(std::uint64_t payload_len) {
  const std::size_t held = end_ - pos_;
  if (payload_len != held) {
    fail("length mismatch (header says " + std::to_string(payload_len) +
         " payload bytes, file holds " + std::to_string(held) +
         ") — the file was truncated or grew; " + remedy_);
  }
  std::uint64_t stored = 0;
  std::memcpy(&stored, data_ + end_, 8);
  if (crc64(data_ + 8, end_ - 8) != stored) {
    fail("checksum mismatch (CRC-64 of contents does not match the stored value) — "
         "the file is corrupted (bit flip or partial overwrite); " +
         std::string(remedy_));
  }
  return stored;
}

void FramedFileReader::need_array(std::uint64_t count, std::size_t elem_size,
                                  const char* what) {
  if (count > (end_ - pos_) / elem_size) {
    fail(std::string("implausible ") + what + " count " + std::to_string(count) +
         " (would need " + std::to_string(count) + "×" + std::to_string(elem_size) +
         " bytes, the payload has " + std::to_string(end_ - pos_) +
         " left) — the file is corrupted; " + remedy_);
  }
}

const unsigned char* FramedFileReader::take(std::size_t n, const char* what) {
  if (end_ - pos_ < n) {
    fail(std::string("payload ends inside ") + what + " (need " + std::to_string(n) +
         " bytes at offset " + std::to_string(pos_) + ", the payload ends at " +
         std::to_string(end_) + ") — the file is corrupted; " + remedy_);
  }
  const unsigned char* p = data_ + pos_;
  pos_ += n;
  return p;
}

void FramedFileReader::check_aligned(std::size_t alignment, const char* what) const {
  if (reinterpret_cast<std::uintptr_t>(data_ + pos_) % alignment != 0) {
    fail(std::string("misaligned ") + what + " at offset " + std::to_string(pos_) +
         " — the file is corrupted; " + remedy_);
  }
}

void FramedFileReader::expect_end() const {
  if (pos_ != end_) {
    fail("trailing bytes after payload — the file is corrupted; " + std::string(remedy_));
  }
}

void FramedFileReader::fail(const std::string& why) const {
  throw ModelError(std::string(kind_) + " '" + path_ + "': " + why);
}

}  // namespace recoverd::util
