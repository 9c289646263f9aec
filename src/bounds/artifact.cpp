#include "bounds/artifact.hpp"

#include <cstdint>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include "obs/metrics.hpp"
#include "util/check.hpp"
#include "util/crc64.hpp"
#include "util/framed_file.hpp"
#include "util/hash.hpp"
#include "util/timer.hpp"

namespace recoverd::bounds {

namespace {

constexpr std::uint64_t kMagic = 0x315241444e424452ULL;  // "RDBNDAR1" LE
constexpr std::size_t kHeaderBytes = 8 + 4 + 4 + 8;  // magic+version+reserved+len

// The wholesale-memcpy array paths below depend on these layouts; a platform
// where they fail needs a per-element serializer instead.
static_assert(sizeof(linalg::SparseEntry) == 16,
              "SparseEntry must be {u64 col, f64 value} with no padding");
static_assert(sizeof(std::size_t) == 8, "artifact format assumes 64-bit size_t");
static_assert(sizeof(double) == 8, "artifact format assumes 64-bit double");

struct ArtifactInstruments {
  obs::Counter& saves;
  obs::Counter& loads;
  obs::Counter& load_rejects;
  obs::Counter& bytes_written;
  obs::Counter& bytes_read;
  obs::Gauge& save_ms;
  obs::Gauge& load_ms;

  static ArtifactInstruments& get() {
    static ArtifactInstruments instruments{
        obs::metrics().counter("bounds.artifact.saves"),
        obs::metrics().counter("bounds.artifact.loads"),
        obs::metrics().counter("bounds.artifact.load_rejects"),
        obs::metrics().counter("bounds.artifact.bytes_written"),
        obs::metrics().counter("bounds.artifact.bytes_read"),
        obs::metrics().gauge("bounds.artifact.save_ms"),
        obs::metrics().gauge("bounds.artifact.load_ms"),
    };
    return instruments;
  }
};

[[noreturn]] void fail(const std::string& path, const std::string& why) {
  throw ModelError("bound artifact '" + path + "': " + why);
}

// ---- payload emitter ----------------------------------------------------
//
// One template for both passes of a save: a util::ByteCounter sizes the
// payload for the header, then the util::FramedFileWriter streams it. Large
// arrays go out straight from the chain and the set.

/// A u32 array, zero-padded to the next 8-byte file offset (keeps u64/f64
/// fields 8-aligned relative to the file start for in-place mmap walkers).
template <class Out>
void put_u32_array(Out& out, const std::vector<std::uint32_t>& values) {
  out.raw(values.data(), values.size() * 4);
  out.pad8();
}

template <class Out>
void emit_payload(Out& out, const RandomActionChain& chain, const BoundSet& set,
                  std::uint64_t model_hash) {
  const std::size_t n = chain.num_states();
  const linalg::SolvePlan& plan = chain.plan;
  out.u64(model_hash);
  out.u64(n);
  out.u64(chain.num_actions);

  // -- chain.q (CSR, wholesale) --
  out.u64(chain.q.cols());
  out.u64(chain.q.rows());
  out.u64(chain.q.nonzeros());
  out.raw(chain.q.row_offsets().data(), (chain.q.rows() + 1) * 8);
  out.raw(chain.q.entry_array().data(), chain.q.nonzeros() * sizeof(linalg::SparseEntry));

  // -- chain.c --
  out.raw(chain.c.data(), n * 8);

  // -- solve plan --
  out.u64(plan.num_components);
  out.u64(plan.num_singletons);
  out.u64(plan.largest_component);
  put_u32_array(out, plan.component);
  put_u32_array(out, plan.members);
  out.raw(plan.component_ptr.data(), plan.component_ptr.size() * 8);
  put_u32_array(out, plan.level_of);
  out.u64(plan.level_components.size());
  put_u32_array(out, plan.level_components);
  out.u64(plan.level_ptr.size());
  out.raw(plan.level_ptr.data(), plan.level_ptr.size() * 8);

  // -- bound set (the fields of BoundSet::Snapshot, read in place) --
  out.u64(set.dimension());
  out.u64(set.capacity());
  out.u64(set.generation());
  out.u8(set.first_added() ? 1 : 0);
  out.pad8();
  out.u64(set.size());
  for (std::size_t i = 0; i < set.size(); ++i) out.u8(set.is_protected(i) ? 1 : 0);
  out.pad8();
  for (std::size_t i = 0; i < set.size(); ++i) out.u64(set.use_count(i));
  for (std::size_t i = 0; i < set.size(); ++i) out.raw(set.vector_at(i).data(), n * 8);
}

// ---- mmap'd (or fallback-read) input file -------------------------------

struct Mapping {
  const unsigned char* data = nullptr;
  std::size_t size = 0;
  void* base = nullptr;
  std::size_t map_len = 0;
  std::vector<unsigned char> fallback;

  explicit Mapping(const std::string& path) {
    const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
    if (fd < 0) {
      fail(path, "cannot open — no bound artifact at this path (build one with "
                 "--bounds-out first)");
    }
    struct ::stat st = {};
    if (::fstat(fd, &st) != 0 || st.st_size < 0) {
      ::close(fd);
      fail(path, "cannot stat — the path is not a readable regular file");
    }
    size = static_cast<std::size_t>(st.st_size);
    if (size > 0) {
      // MAP_POPULATE prefaults the whole range in one readahead pass instead
      // of ~size/4096 minor faults during the CRC sweep.
      void* m = ::mmap(nullptr, size, PROT_READ, MAP_PRIVATE | MAP_POPULATE, fd, 0);
      if (m == MAP_FAILED) m = ::mmap(nullptr, size, PROT_READ, MAP_PRIVATE, fd, 0);
      if (m != MAP_FAILED) {
        base = m;
        map_len = size;
        data = static_cast<const unsigned char*>(m);
      } else {
        // mmap can fail on exotic filesystems; a plain read is equivalent,
        // just without the zero-copy page cache sharing.
        fallback.resize(size);
        std::size_t got = 0;
        while (got < size) {
          const ::ssize_t r = ::pread(fd, fallback.data() + got, size - got,
                                      static_cast<::off_t>(got));
          if (r <= 0) break;
          got += static_cast<std::size_t>(r);
        }
        if (got != size) {
          ::close(fd);
          fail(path, "short read — the file shrank while loading");
        }
        data = fallback.data();
      }
    }
    ::close(fd);
  }
  ~Mapping() {
    if (base != nullptr) ::munmap(base, map_len);
  }
  Mapping(const Mapping&) = delete;
  Mapping& operator=(const Mapping&) = delete;
};

// ---- payload reader -----------------------------------------------------
//
// Every read goes through memcpy, so the reader is correct at any byte
// offset — corruption that desynchronises the field layout surfaces as a
// need() failure or a trailing-bytes error, never as an unaligned access.

struct Reader {
  const std::string& path;
  const unsigned char* data;
  std::size_t size;
  std::size_t pos = 0;

  void need(std::size_t n, const char* what) {
    if (size - pos < n) {
      fail(path, std::string("truncated while reading ") + what + " (need " +
                     std::to_string(n) + " bytes at offset " + std::to_string(pos) +
                     ", file has " + std::to_string(size) + ") — the file was cut "
                     "short; rebuild the artifact with --bounds-out");
    }
  }
  /// Overflow-safe guard for count×elem_size array reads: a corrupted count
  /// field fails here with a size argument instead of wrapping the multiply.
  void need_array(std::uint64_t count, std::size_t elem_size, const char* what) {
    if (count > (size - pos) / elem_size) {
      fail(path, std::string("implausible ") + what + " count " +
                     std::to_string(count) + " (would need " +
                     std::to_string(count) + "×" + std::to_string(elem_size) +
                     " bytes, file has " + std::to_string(size - pos) +
                     " left) — the file is corrupted");
    }
  }
  std::uint8_t u8(const char* what) {
    need(1, what);
    return data[pos++];
  }
  std::uint32_t u32(const char* what) {
    need(4, what);
    std::uint32_t v;
    std::memcpy(&v, data + pos, 4);
    pos += 4;
    return v;
  }
  std::uint64_t u64(const char* what) {
    need(8, what);
    std::uint64_t v;
    std::memcpy(&v, data + pos, 8);
    pos += 8;
    return v;
  }
  void raw(void* out, std::size_t n, const char* what) {
    need(n, what);
    std::memcpy(out, data + pos, n);
    pos += n;
  }
  void pad8(const char* what) {
    const std::size_t n = (8 - pos % 8) % 8;
    need(n, what);
    pos += n;
  }
  std::vector<std::uint32_t> u32_array(std::uint64_t count, const char* what) {
    need_array(count, 4, what);
    std::vector<std::uint32_t> out(count);
    raw(out.data(), count * 4, what);
    pad8(what);
    return out;
  }
  std::vector<std::size_t> u64_array(std::uint64_t count, const char* what) {
    need_array(count, 8, what);
    std::vector<std::size_t> out(count);
    raw(out.data(), count * 8, what);
    return out;
  }
};

}  // namespace

std::uint64_t hash_mdp(const Mdp& mdp) {
  using util::bits_of;
  using util::mix_in;
  std::uint64_t h = 0x4c444d444e424452ULL;  // "RDBNDMDL"
  h = mix_in(h, mdp.num_states());
  h = mix_in(h, mdp.num_actions());
  for (StateId s = 0; s < mdp.num_states(); ++s) {
    h = mix_in(h, mdp.is_goal(s) ? 1 : 0);
  }
  for (ActionId a = 0; a < mdp.num_actions(); ++a) {
    h = mix_in(h, bits_of(mdp.duration(a)));
    for (const double r : mdp.rewards(a)) h = mix_in(h, bits_of(r));
    const linalg::SparseMatrix& m = mdp.transition(a);
    h = mix_in(h, m.rows());
    h = mix_in(h, m.cols());
    for (const linalg::SparseEntry& e : m.entry_array()) {
      h = mix_in(h, e.col);
      h = mix_in(h, bits_of(e.value));
    }
  }
  return h;
}

std::uint64_t save_bound_artifact(const std::string& path,
                                  const RandomActionChain& chain,
                                  const BoundSet& set, std::uint64_t model_hash) {
  const std::size_t n = chain.num_states();
  RD_EXPECTS(n > 0, "save_bound_artifact: chain must be non-empty");
  RD_EXPECTS(chain.q.rows() == n && chain.q.cols() == n,
             "save_bound_artifact: chain matrix must be |S|×|S|");
  RD_EXPECTS(set.dimension() == n,
             "save_bound_artifact: bound set dimension must match the chain");
  const Timer timer;
  util::ByteCounter payload(kHeaderBytes);
  emit_payload(payload, chain, set, model_hash);

  util::FramedFileWriter file(path, "bound artifact", kMagic);
  file.u32(kBoundArtifactVersion);
  file.u32(0);  // reserved: 8-aligns the payload
  file.u64(payload.position() - kHeaderBytes);
  emit_payload(file, chain, set, model_hash);
  const std::uint64_t crc = file.commit();

  ArtifactInstruments& instruments = ArtifactInstruments::get();
  instruments.saves.add();
  instruments.bytes_written.add(file.position());
  instruments.save_ms.set(timer.elapsed_ms());
  return crc;
}

BoundArtifact load_bound_artifact(const std::string& path,
                                  std::uint64_t expected_model_hash) {
  const Timer timer;
  try {
    // Shared so the loaded matrix can borrow CSR arrays straight out of the
    // mapping (view_csr_trusted keeps the mapping alive past this function).
    const auto map_owner = std::make_shared<const Mapping>(path);
    const Mapping& map = *map_owner;
    if (map.size == 0) {
      fail(path, "empty file — a bound artifact is at least " +
                 std::to_string(kHeaderBytes + 8) + " bytes; rebuild it with "
                 "--bounds-out");
    }
    if (map.size < kHeaderBytes + 8) {
      fail(path, "truncated header (" + std::to_string(map.size) + " bytes, need "
                 "at least " + std::to_string(kHeaderBytes + 8) + ") — the file "
                 "was cut short; rebuild the artifact with --bounds-out");
    }
    Reader r{path, map.data, map.size};
    const std::uint64_t magic = r.u64("magic");
    if (magic != kMagic) {
      fail(path, "not a recoverd bound artifact (bad magic) — was this file "
                 "written by save_bound_artifact?");
    }
    const std::uint32_t version = r.u32("version");
    if (version != kBoundArtifactVersion) {
      fail(path, "unsupported version " + std::to_string(version) + " (this build "
                 "reads version " + std::to_string(kBoundArtifactVersion) +
                 ") — rebuild the artifact with this build");
    }
    const std::uint32_t reserved = r.u32("reserved");
    if (reserved != 0) {
      fail(path, "nonzero reserved field — the file is corrupted or from a "
                 "newer format");
    }
    const std::uint64_t payload_len = r.u64("payload length");
    if (map.size != kHeaderBytes + payload_len + 8) {
      fail(path, "length mismatch (header says " + std::to_string(payload_len) +
                 " payload bytes, file holds " +
                 std::to_string(map.size >= kHeaderBytes + 8
                                    ? map.size - kHeaderBytes - 8
                                    : 0) +
                 ") — the file was truncated or grew; rebuild the artifact");
    }
    const std::uint64_t computed_crc = util::crc64(map.data + 8, map.size - 16);
    std::uint64_t stored_crc;
    std::memcpy(&stored_crc, map.data + map.size - 8, 8);
    if (computed_crc != stored_crc) {
      fail(path, "checksum mismatch (CRC-64 of contents does not match the stored "
                 "value) — the file is corrupted (bit flip or partial overwrite); "
                 "rebuild the artifact with --bounds-out");
    }

    const std::uint64_t model_hash = r.u64("model hash");
    if (expected_model_hash != 0 && model_hash != expected_model_hash) {
      fail(path, "built for a different model (artifact model hash " +
                 std::to_string(model_hash) + ", this model hashes to " +
                 std::to_string(expected_model_hash) + ") — bounds are only "
                 "valid for the exact model they were solved on; rebuild with "
                 "--bounds-out");
    }
    const std::uint64_t n = r.u64("num states");
    const std::uint64_t num_actions = r.u64("num actions");
    if (n == 0 || num_actions == 0) {
      fail(path, "empty model dimensions — the file is corrupted");
    }

    // -- chain.q --
    const std::uint64_t q_cols = r.u64("matrix cols");
    const std::uint64_t q_rows = r.u64("matrix rows");
    const std::uint64_t q_nnz = r.u64("matrix nonzeros");
    if (q_cols != n || q_rows != n) {
      fail(path, "chain matrix is " + std::to_string(q_rows) + "×" +
                 std::to_string(q_cols) + " but the model has " + std::to_string(n) +
                 " states — the file is corrupted");
    }
    r.need_array(q_rows + 1, 8, "row offset");
    r.need((q_rows + 1) * 8, "row offsets");
    const std::size_t row_ptr_off = r.pos;
    r.pos += (q_rows + 1) * 8;
    r.need_array(q_nnz, sizeof(linalg::SparseEntry), "matrix entry");
    r.need(q_nnz * sizeof(linalg::SparseEntry), "matrix entries");
    const std::size_t entries_off = r.pos;
    r.pos += q_nnz * sizeof(linalg::SparseEntry);

    RandomActionChain chain;
    chain.num_actions = num_actions;
    // The CRC above covers both arrays bit-for-bit and the writer only ever
    // serializes matrices that passed from_csr, so the O(nnz) re-validation
    // is skipped and the matrix borrows the mapped bytes outright instead of
    // copying them (the payload layout 8-aligns both arrays: a page-aligned
    // mapping plus a 24-byte header and u64-only preceding fields). This is
    // most of what makes a warm start milliseconds — at 10^6 states the
    // entry array alone is ~235 MB that never gets memcpy'd. The copy branch
    // only triggers for the pread fallback if its buffer lands unaligned.
    const auto aligned8 = [&](std::size_t off) {
      return reinterpret_cast<std::uintptr_t>(map.data + off) % 8 == 0;
    };
    if (aligned8(row_ptr_off) && aligned8(entries_off)) {
      const auto* rp = reinterpret_cast<const std::size_t*>(map.data + row_ptr_off);
      const auto* es =
          reinterpret_cast<const linalg::SparseEntry*>(map.data + entries_off);
      if (rp[0] != 0 || rp[q_rows] != q_nnz) {
        fail(path, "row offsets do not span the entry array — the file is corrupted");
      }
      chain.q = linalg::SparseMatrix::view_csr_trusted(
          q_cols, {rp, q_rows + 1}, {es, q_nnz}, map_owner);
    } else {
      std::vector<std::size_t> row_ptr(q_rows + 1);
      std::memcpy(row_ptr.data(), map.data + row_ptr_off, (q_rows + 1) * 8);
      std::vector<linalg::SparseEntry> entries(q_nnz);
      std::memcpy(entries.data(), map.data + entries_off,
                  q_nnz * sizeof(linalg::SparseEntry));
      if (row_ptr.front() != 0 || row_ptr.back() != q_nnz) {
        fail(path, "row offsets do not span the entry array — the file is corrupted");
      }
      chain.q = linalg::SparseMatrix::from_csr_trusted(q_cols, std::move(row_ptr),
                                                       std::move(entries));
    }

    // -- chain.c --
    chain.c.resize(n);
    r.raw(chain.c.data(), n * 8, "reward vector");

    // -- solve plan --
    linalg::SolvePlan& plan = chain.plan;
    plan.num_components = r.u64("component count");
    plan.num_singletons = r.u64("singleton count");
    plan.largest_component = r.u64("largest component");
    if (plan.num_components == 0 || plan.num_components > n) {
      fail(path, "implausible component count " +
                 std::to_string(plan.num_components) + " for " + std::to_string(n) +
                 " states — the file is corrupted");
    }
    plan.component = r.u32_array(n, "component map");
    plan.members = r.u32_array(n, "component members");
    plan.component_ptr = r.u64_array(plan.num_components + 1, "component offsets");
    plan.level_of = r.u32_array(plan.num_components, "component levels");
    const std::uint64_t num_level_components = r.u64("level component count");
    plan.level_components = r.u32_array(num_level_components, "level components");
    const std::uint64_t num_level_ptr = r.u64("level offset count");
    if (num_level_ptr == 0) {
      fail(path, "empty level schedule — the file is corrupted");
    }
    plan.level_ptr = r.u64_array(num_level_ptr, "level offsets");

    // -- bound set --
    BoundSet::Snapshot snap;
    snap.dimension = r.u64("set dimension");
    if (snap.dimension != n) {
      fail(path, "bound set dimension " + std::to_string(snap.dimension) +
                 " does not match the " + std::to_string(n) + "-state chain — "
                 "the file is corrupted");
    }
    snap.capacity = r.u64("set capacity");
    snap.generation = r.u64("set generation");
    snap.first_added = r.u8("set first-added flag") != 0;
    r.pad8("set padding");
    const std::uint64_t num_planes = r.u64("plane count");
    r.need_array(num_planes, n * 8, "plane");
    snap.planes.resize(num_planes);
    for (std::uint64_t i = 0; i < num_planes; ++i) {
      snap.planes[i].is_protected = r.u8("plane protection flag") != 0;
    }
    r.pad8("plane flag padding");
    for (std::uint64_t i = 0; i < num_planes; ++i) {
      snap.planes[i].uses = r.u64("plane use count");
    }
    for (std::uint64_t i = 0; i < num_planes; ++i) {
      snap.planes[i].vector.resize(n);
      r.raw(snap.planes[i].vector.data(), n * 8, "plane coefficients");
    }

    if (r.pos != map.size - 8) {
      fail(path, "trailing bytes after payload — the file is corrupted");
    }

    BoundArtifact artifact(std::move(chain), BoundSet::restore(snap));
    artifact.model_hash = model_hash;
    artifact.content_hash = stored_crc;

    ArtifactInstruments& instruments = ArtifactInstruments::get();
    instruments.loads.add();
    instruments.bytes_read.add(map.size);
    instruments.load_ms.set(timer.elapsed_ms());
    return artifact;
  } catch (...) {
    ArtifactInstruments::get().load_rejects.add();
    throw;
  }
}

}  // namespace recoverd::bounds
