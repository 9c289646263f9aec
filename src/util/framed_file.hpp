// Framed binary files: the write half of the one framing layer shared by
// bound artifacts (bounds/artifact.hpp) and fleet checkpoints
// (sim/checkpoint.hpp), DESIGN.md §15.
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
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>

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

}  // namespace recoverd::util
