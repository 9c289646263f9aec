#include "bounds/artifact.hpp"

#include <cmath>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "obs/metrics.hpp"
#include "util/check.hpp"
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

/// A u32 array and its padding, as put_u32_array wrote them.
std::vector<std::uint32_t> get_u32_array(util::FramedFileReader& in, std::uint64_t count,
                                         const char* what) {
  std::vector<std::uint32_t> values = in.array<std::uint32_t>(count, what);
  in.pad8(what);
  return values;
}

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
    util::FramedFileReader r(path, "bound artifact",
                             "rebuild the artifact with --bounds-out", kMagic,
                             kHeaderBytes);
    const std::uint32_t version = r.u32("version");
    if (version != kBoundArtifactVersion) {
      r.fail("unsupported version " + std::to_string(version) + " (this build reads "
             "version " + std::to_string(kBoundArtifactVersion) + ") — rebuild the "
             "artifact with this build");
    }
    if (r.u32("reserved") != 0) {
      r.fail("nonzero reserved field — the file is corrupted or from a newer format");
    }
    const std::uint64_t content_hash = r.check_frame(r.u64("payload length"));

    const std::uint64_t model_hash = r.u64("model hash");
    if (expected_model_hash != 0 && model_hash != expected_model_hash) {
      r.fail("built for a different model (artifact model hash " +
             std::to_string(model_hash) + ", this model hashes to " +
             std::to_string(expected_model_hash) + ") — bounds are only valid for "
             "the exact model they were solved on; rebuild with --bounds-out");
    }
    const std::uint64_t n = r.u64("num states");
    const std::uint64_t num_actions = r.u64("num actions");
    if (n == 0 || num_actions == 0) {
      r.fail("empty model dimensions — the file is corrupted");
    }

    // -- chain.q --
    const std::uint64_t q_cols = r.u64("matrix cols");
    const std::uint64_t q_rows = r.u64("matrix rows");
    const std::uint64_t q_nnz = r.u64("matrix nonzeros");
    if (q_cols != n || q_rows != n) {
      r.fail("chain matrix is " + std::to_string(q_rows) + "×" + std::to_string(q_cols) +
             " but the model has " + std::to_string(n) + " states — the file is "
             "corrupted");
    }
    // The CRC covers both arrays bit for bit and the writer only ever
    // serializes matrices that passed from_csr, so the O(nnz) re-validation
    // is skipped and the matrix borrows the mapped bytes outright instead of
    // copying them (the payload layout 8-aligns both arrays). This is most
    // of what makes a warm start milliseconds: at 10^6 states the entry
    // array alone is ~235 MB that never gets memcpy'd.
    const std::span<const std::size_t> row_ptr =
        r.in_place<std::size_t>(q_rows + 1, "row offset");
    const std::span<const linalg::SparseEntry> entries =
        r.in_place<linalg::SparseEntry>(q_nnz, "matrix entry");
    if (row_ptr.front() != 0 || row_ptr.back() != q_nnz) {
      r.fail("row offsets do not span the entry array — the file is corrupted");
    }
    RandomActionChain chain;
    chain.num_actions = num_actions;
    chain.q = linalg::SparseMatrix::view_csr_trusted(q_cols, row_ptr, entries,
                                                     r.keep_alive());

    // -- chain.c --
    chain.c = r.array<double>(n, "reward vector");

    // -- solve plan --
    linalg::SolvePlan& plan = chain.plan;
    plan.num_components = r.u64("component count");
    plan.num_singletons = r.u64("singleton count");
    plan.largest_component = r.u64("largest component");
    if (plan.num_components == 0 || plan.num_components > n) {
      r.fail("implausible component count " + std::to_string(plan.num_components) +
             " for " + std::to_string(n) + " states — the file is corrupted");
    }
    plan.component = get_u32_array(r, n, "component map");
    plan.members = get_u32_array(r, n, "component members");
    plan.component_ptr = r.array<std::size_t>(plan.num_components + 1, "component offsets");
    plan.level_of = get_u32_array(r, plan.num_components, "component levels");
    const std::uint64_t num_level_components = r.u64("level component count");
    plan.level_components = get_u32_array(r, num_level_components, "level components");
    const std::uint64_t num_level_ptr = r.u64("level offset count");
    if (num_level_ptr == 0) {
      r.fail("empty level schedule — the file is corrupted");
    }
    plan.level_ptr = r.array<std::size_t>(num_level_ptr, "level offsets");

    // -- bound set --
    BoundSet::Snapshot snap;
    snap.dimension = r.u64("set dimension");
    if (snap.dimension != n) {
      r.fail("bound set dimension " + std::to_string(snap.dimension) +
             " does not match the " + std::to_string(n) + "-state chain — the file "
             "is corrupted");
    }
    snap.capacity = r.u64("set capacity");
    snap.generation = r.u64("set generation");
    snap.first_added = r.u8("set first-added flag") != 0;
    r.pad8("set padding");
    const std::uint64_t num_planes = r.u64("plane count");
    r.need_array(num_planes, n * 8, "plane");
    snap.planes.resize(num_planes);
    for (BoundSet::Snapshot::Plane& plane : snap.planes) {
      plane.is_protected = r.u8("plane protection flag") != 0;
    }
    r.pad8("plane flag padding");
    for (BoundSet::Snapshot::Plane& plane : snap.planes) {
      plane.uses = r.u64("plane use count");
    }
    for (BoundSet::Snapshot::Plane& plane : snap.planes) {
      plane.vector = r.array<double>(n, "plane coefficients");
      for (const double v : plane.vector) {
        if (!std::isfinite(v)) {
          r.fail("non-finite plane coefficient — the file is corrupted");
        }
      }
    }
    r.expect_end();

    BoundArtifact artifact(std::move(chain), BoundSet::restore(snap));
    artifact.model_hash = model_hash;
    artifact.content_hash = content_hash;

    ArtifactInstruments& instruments = ArtifactInstruments::get();
    instruments.loads.add();
    instruments.bytes_read.add(r.size());
    instruments.load_ms.set(timer.elapsed_ms());
    return artifact;
  } catch (...) {
    ArtifactInstruments::get().load_rejects.add();
    throw;
  }
}

}  // namespace recoverd::bounds
