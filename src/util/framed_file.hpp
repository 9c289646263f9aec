// Framed binary files: the one framing layer shared by bound artifacts
// (bounds/artifact.hpp) and fleet checkpoints (sim/checkpoint.hpp),
// DESIGN.md §15.
//
// Both formats use one frame, little-endian:
//
//   [0]  magic  u64  identifies the format
//   [8]  body   ...  the format's own header (version, length, ...) + payload
//   [..] crc64  u64  CRC-64/XZ over the body
//
// FramedFileWriter streams that frame to `<path>.tmp` without ever holding
// a file image: small fields pass through a fixed 4 KB buffer, every large
// array goes from its owner straight to write(2), and the CRC-64 is
// updated as the bytes go out. commit() appends the CRC, fsyncs,
// closes, renames the tmp file over `<path>` and fsyncs the directory, so
// after a crash or power loss `<path>` holds either the previous file or
// the complete new one. A save that fails at any step — the destructor of
// an uncommitted writer included — removes the tmp file and leaves the
// previous file untouched.
//
// A format whose header states its payload length emits the payload twice
// through one template: once into a ByteCounter, which only counts, and
// once into the writer.
//
// FramedFileReader is the read half. It maps the file read-only and checks
// size and magic; once the format has read its own header (version first,
// so a version bump is not reported as corruption), check_frame() checks
// the total length and the CRC-64 trailer in one sweep. The format then
// reads its payload through bounds-checked fields, borrows large arrays in
// place where it wants zero copies, and ends with expect_end(). Every
// failure is a ModelError "<kind> '<path>': <why>"; the reader's own
// messages end with the format's remedy.
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <memory>
#include <span>
#include <string>
#include <type_traits>
#include <vector>

namespace recoverd::util {

/// The typed fields both sinks accept, over the sink's raw()/position().
/// Fields are written in host byte order; the formats assume little-endian.
template <class Sink>
class FieldSink {
 public:
  void u8(std::uint8_t v) { sink().raw(&v, 1); }
  void u32(std::uint32_t v) { sink().raw(&v, 4); }
  void u64(std::uint64_t v) { sink().raw(&v, 8); }
  void f64(double v) { sink().raw(&v, 8); }
  /// Zero bytes up to the next 8-aligned file offset.
  void pad8() {
    static constexpr unsigned char kZeros[8] = {};
    sink().raw(kZeros, (8 - sink().position() % 8) % 8);
  }

 private:
  Sink& sink() { return static_cast<Sink&>(*this); }
};

/// Counts the bytes an emitter writes, starting at file offset `start`
/// (so pad8() lands where it will in the file).
class ByteCounter : public FieldSink<ByteCounter> {
 public:
  explicit ByteCounter(std::size_t start) : position_(start) {}

  void raw(const void*, std::size_t n) { position_ += n; }
  std::size_t position() const { return position_; }

 private:
  std::size_t position_;
};

class FramedFileWriter : public FieldSink<FramedFileWriter> {
 public:
  /// Creates `<path>.tmp` and writes `magic`. `kind` names the format in
  /// error messages ("bound artifact"). Throws ModelError when the tmp file
  /// cannot be created.
  FramedFileWriter(const std::string& path, const char* kind, std::uint64_t magic);
  /// Removes the tmp file unless commit() succeeded.
  ~FramedFileWriter();
  FramedFileWriter(const FramedFileWriter&) = delete;
  FramedFileWriter& operator=(const FramedFileWriter&) = delete;

  void raw(const void* data, std::size_t n);
  /// File offset of the next byte.
  std::size_t position() const { return position_; }

  /// Appends the CRC-64 of everything after the magic, then makes the file
  /// durable and puts it in place (fsync, close, rename, directory fsync).
  /// Returns the CRC. Throws ModelError when any step fails.
  std::uint64_t commit();

 private:
  static constexpr std::size_t kBufferBytes = 4096;

  void flush();
  void write_out(const unsigned char* p, std::size_t n);
  [[noreturn]] void fail(const std::string& why);

  std::string path_;
  std::string tmp_;
  const char* kind_;
  int fd_ = -1;
  bool tmp_exists_ = false;
  std::size_t position_ = 0;
  std::size_t buffered_ = 0;
  std::size_t crc_skip_ = 8;  ///< leading bytes the CRC leaves out: the magic
  std::uint64_t crc_ = 0;
  unsigned char buffer_[kBufferBytes] = {};
};

/// The read half of the frame: one cursor over a mapped file.
class FramedFileReader {
 public:
  /// Opens `path` and maps it read-only (MAP_POPULATE; a plain map, then a
  /// pread copy into an 8-aligned buffer, when mapping fails). Checks that
  /// the file holds at least a `header_bytes` header (magic included) and
  /// the CRC trailer, and that it begins with `magic`; the next read is the
  /// field after the magic. `kind` names the format ("bound artifact") and
  /// `remedy` ends the reader's corruption messages ("rebuild the artifact
  /// with --bounds-out"). Throws ModelError.
  FramedFileReader(const std::string& path, const char* kind, const char* remedy,
                   std::uint64_t magic, std::size_t header_bytes);

  /// Call once the format has read its header, with the payload length the
  /// header states: checks that exactly that many bytes and the trailer
  /// follow, then that the trailer is the CRC-64 of every byte after the
  /// magic. Returns the CRC (the file's content identity).
  std::uint64_t check_frame(std::uint64_t payload_len);

  // Fields, read at the cursor in host byte order. Every read is
  // bounds-checked against the end of the payload (the trailer is never
  // served) and copies through memcpy, so any byte offset is safe.
  std::uint8_t u8(const char* what) { return scalar<std::uint8_t>(what); }
  std::uint32_t u32(const char* what) { return scalar<std::uint32_t>(what); }
  std::uint64_t u64(const char* what) { return scalar<std::uint64_t>(what); }
  double f64(const char* what) { return scalar<double>(what); }
  /// Skips to the next 8-aligned file offset.
  void pad8(const char* what) { take((8 - pos_ % 8) % 8, what); }

  /// Overflow-safe guard for count × elem_size bytes (elem_size > 0): a
  /// corrupted count fails here, before anything is allocated or multiplied.
  void need_array(std::uint64_t count, std::size_t elem_size, const char* what);

  /// `count` elements of a trivially copyable T, copied out.
  template <class T>
  std::vector<T> array(std::uint64_t count, const char* what) {
    static_assert(std::is_trivially_copyable_v<T>);
    need_array(count, sizeof(T), what);
    std::vector<T> out(count);
    const std::size_t bytes = count * sizeof(T);
    if (bytes > 0) std::memcpy(out.data(), take(bytes, what), bytes);
    return out;
  }

  /// `count` elements of T borrowed where they lie in the file, with the
  /// checks of array() plus alignment. The span stays valid while a copy of
  /// keep_alive() is held.
  template <class T>
  std::span<const T> in_place(std::uint64_t count, const char* what) {
    static_assert(std::is_trivially_copyable_v<T>);
    need_array(count, sizeof(T), what);
    check_aligned(alignof(T), what);
    return {reinterpret_cast<const T*>(take(count * sizeof(T), what)), count};
  }

  /// Owns the mapping (or the fallback buffer) behind every in_place() span.
  std::shared_ptr<const void> keep_alive() const { return storage_; }

  /// Throws unless the payload has been read to its last byte.
  void expect_end() const;

  /// File size in bytes, trailer included.
  std::size_t size() const { return size_; }

  /// Throws ModelError "<kind> '<path>': <why>".
  [[noreturn]] void fail(const std::string& why) const;

 private:
  template <class T>
  T scalar(const char* what) {
    T v{};
    std::memcpy(&v, take(sizeof(T), what), sizeof(T));
    return v;
  }
  /// Advances the cursor by `n` bytes and returns where they start.
  const unsigned char* take(std::size_t n, const char* what);
  void check_aligned(std::size_t alignment, const char* what) const;
  void map(int fd);

  std::string path_;
  const char* kind_;
  const char* remedy_;
  std::shared_ptr<const void> storage_;
  const unsigned char* data_ = nullptr;
  std::size_t size_ = 0;
  std::size_t end_ = 0;  ///< end of the payload: the trailer's offset
  std::size_t pos_ = 0;
};

}  // namespace recoverd::util
