// Bound-artifact suite (DESIGN.md §15): a chain + bound set saved with
// save_bound_artifact and loaded back must be bitwise-equal to the
// originals — same CSR bits, same solve plan, same plane coefficients,
// protection flags, use counters and generation — so warm-started decisions
// are indistinguishable from cold-built ones. The corruption matrix mirrors
// the fleet-checkpoint one: truncation at every depth, bit flips, foreign
// magic, version drift, nonzero reserved bytes, model-hash mismatch, empty
// and odd-sized files all map to an actionable ModelError, never partial
// data or a fault, and so does every mutant of the fuzz corpus
// (tests/framed_fuzz.hpp). The saved bytes are pinned on EMN and must equal
// the buffered writer's image (tests/reference_framing.hpp) on generated
// cases.
#include "bounds/artifact.hpp"

#include <gtest/gtest.h>

#include <sys/resource.h>

#include <csignal>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <functional>
#include <limits>
#include <random>
#include <string>
#include <vector>

#include "bounds/incremental_update.hpp"
#include "bounds/ra_bound.hpp"
#include "controller/bootstrap.hpp"
#include "framed_fuzz.hpp"
#include "models/emn.hpp"
#include "models/synthetic.hpp"
#include "obs/metrics.hpp"
#include "pomdp/belief.hpp"
#include "reference_framing.hpp"
#include "util/check.hpp"
#include "util/crc64.hpp"

namespace recoverd::bounds {
namespace {

struct Fixture {
  Pomdp recovery;
  RandomActionChain chain;
  std::uint64_t model_hash;

  Fixture()
      : recovery(models::make_emn_recovery_model()),
        chain(build_random_action_chain(recovery.mdp())),
        model_hash(hash_mdp(recovery.mdp())) {}

  // A set with history: extra planes from Eq. 7 backups (generation bumps),
  // plus evaluations so some use counters are nonzero — the round trip must
  // preserve all of it, not just a freshly seeded set.
  BoundSet make_warmed_set() const {
    BoundSet set = make_ra_bound_set(chain, 32);
    const std::size_t n = recovery.num_states();
    for (std::uint64_t k = 0; k < 4; ++k) {
      std::vector<double> pi(n, 0.0);
      pi[k % n] = 0.7;
      pi[(k + 3) % n] = 0.3;
      (void)improve_at(recovery, set, Belief(std::move(pi)));
    }
    (void)set.evaluate(Belief::uniform(n).probabilities());
    return set;
  }
};

Fixture& fixture() {
  static Fixture* f = new Fixture();
  return *f;
}

std::string temp_path(const char* name) { return testing::TempDir() + name; }

std::vector<unsigned char> read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << path;
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

void write_file(const std::string& path, const std::vector<unsigned char>& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
}

std::string model_error_of(const std::function<void()>& fn) {
  try {
    fn();
  } catch (const ModelError& e) {
    return e.what();
  } catch (const std::exception& e) {
    ADD_FAILURE() << "expected ModelError, got: " << e.what();
    return "";
  }
  ADD_FAILURE() << "expected ModelError, got no exception";
  return "";
}

void expect_chains_bitwise_equal(const RandomActionChain& a,
                                 const RandomActionChain& b) {
  ASSERT_EQ(a.num_states(), b.num_states());
  EXPECT_EQ(a.num_actions, b.num_actions);
  ASSERT_EQ(a.q.rows(), b.q.rows());
  ASSERT_EQ(a.q.cols(), b.q.cols());
  ASSERT_EQ(a.q.nonzeros(), b.q.nonzeros());
  const auto rp_a = a.q.row_offsets();
  const auto rp_b = b.q.row_offsets();
  EXPECT_EQ(std::memcmp(rp_a.data(), rp_b.data(), rp_a.size() * sizeof(std::size_t)), 0);
  const auto e_a = a.q.entry_array();
  const auto e_b = b.q.entry_array();
  EXPECT_EQ(std::memcmp(e_a.data(), e_b.data(), e_a.size() * sizeof(linalg::SparseEntry)),
            0);
  ASSERT_EQ(a.c.size(), b.c.size());
  EXPECT_EQ(std::memcmp(a.c.data(), b.c.data(), a.c.size() * sizeof(double)), 0);
  const linalg::SolvePlan& pa = a.plan;
  const linalg::SolvePlan& pb = b.plan;
  EXPECT_EQ(pa.num_components, pb.num_components);
  EXPECT_EQ(pa.num_singletons, pb.num_singletons);
  EXPECT_EQ(pa.largest_component, pb.largest_component);
  EXPECT_EQ(pa.component, pb.component);
  EXPECT_EQ(pa.members, pb.members);
  EXPECT_EQ(pa.component_ptr, pb.component_ptr);
  EXPECT_EQ(pa.level_of, pb.level_of);
  EXPECT_EQ(pa.level_components, pb.level_components);
  EXPECT_EQ(pa.level_ptr, pb.level_ptr);
}

void expect_sets_bitwise_equal(const BoundSet& a, const BoundSet& b) {
  const BoundSet::Snapshot sa = a.snapshot();
  const BoundSet::Snapshot sb = b.snapshot();
  EXPECT_EQ(sa.dimension, sb.dimension);
  EXPECT_EQ(sa.capacity, sb.capacity);
  EXPECT_EQ(sa.generation, sb.generation);
  EXPECT_EQ(sa.first_added, sb.first_added);
  ASSERT_EQ(sa.planes.size(), sb.planes.size());
  for (std::size_t i = 0; i < sa.planes.size(); ++i) {
    EXPECT_EQ(sa.planes[i].is_protected, sb.planes[i].is_protected) << "plane " << i;
    EXPECT_EQ(sa.planes[i].uses, sb.planes[i].uses) << "plane " << i;
    ASSERT_EQ(sa.planes[i].vector.size(), sb.planes[i].vector.size());
    EXPECT_EQ(std::memcmp(sa.planes[i].vector.data(), sb.planes[i].vector.data(),
                          sa.planes[i].vector.size() * sizeof(double)),
              0)
        << "plane " << i << " coefficient bits";
  }
}

// ---- round trips --------------------------------------------------------

TEST(ArtifactTest, RoundTripIsBitwise) {
  Fixture& f = fixture();
  const std::string path = temp_path("bounds_roundtrip.rdb");
  const BoundSet set = f.make_warmed_set();
  const std::uint64_t crc = save_bound_artifact(path, f.chain, set, f.model_hash);
  const BoundArtifact loaded = load_bound_artifact(path, f.model_hash);
  EXPECT_EQ(loaded.model_hash, f.model_hash);
  EXPECT_EQ(loaded.content_hash, crc);
  expect_chains_bitwise_equal(loaded.chain, f.chain);
  expect_sets_bitwise_equal(loaded.set, set);
  std::remove(path.c_str());
}

TEST(ArtifactTest, WarmStartedEvaluationsAndBackupsMatchColdBitwise) {
  Fixture& f = fixture();
  const std::string path = temp_path("bounds_warmcold.rdb");
  BoundSet cold = f.make_warmed_set();
  save_bound_artifact(path, f.chain, cold, f.model_hash);
  BoundArtifact warm = load_bound_artifact(path, f.model_hash);

  const std::size_t n = f.recovery.num_states();
  // Same evaluations bit for bit (evaluate bumps use counters identically on
  // both sides, so the comparison stays symmetric).
  for (std::uint64_t k = 0; k < 6; ++k) {
    std::vector<double> pi(n, 1.0 / static_cast<double>(n));
    pi[k % n] += 0.5;
    const Belief b{std::move(pi)};  // normalises
    EXPECT_EQ(cold.evaluate(b.probabilities()), warm.set.evaluate(b.probabilities()))
        << "evaluation " << k;
  }
  // Same Eq. 7 backup, bit for bit — including whether a plane was added and
  // the exact before/after values.
  std::vector<double> pi(n, 0.0);
  pi[1] = 1.0;
  const Belief target{std::move(pi)};
  const UpdateResult uc = improve_at(f.recovery, cold, target);
  const UpdateResult uw = improve_at(f.recovery, warm.set, target);
  EXPECT_EQ(uc.added, uw.added);
  EXPECT_EQ(uc.value_before, uw.value_before);
  EXPECT_EQ(uc.value_after, uw.value_after);
  EXPECT_EQ(uc.backing_action, uw.backing_action);
  expect_sets_bitwise_equal(cold, warm.set);
  std::remove(path.c_str());
}

TEST(ArtifactTest, SaveIsAtomicAndOverwrites) {
  Fixture& f = fixture();
  const std::string path = temp_path("bounds_atomic.rdb");
  BoundSet set = make_ra_bound_set(f.chain, 32);
  save_bound_artifact(path, f.chain, set, f.model_hash);
  const std::vector<unsigned char> first = read_file(path);
  (void)improve_at(f.recovery, set, Belief::uniform(f.recovery.num_states()));
  save_bound_artifact(path, f.chain, set, f.model_hash);
  const std::vector<unsigned char> second = read_file(path);
  EXPECT_NE(first, second);
  std::ifstream tmp(path + ".tmp", std::ios::binary);
  EXPECT_FALSE(tmp.good());  // staging file was renamed into place
  (void)load_bound_artifact(path, f.model_hash);  // still a valid artifact
  std::remove(path.c_str());
}

TEST(ArtifactTest, ZeroExpectedHashSkipsTheModelCheck) {
  Fixture& f = fixture();
  const std::string path = temp_path("bounds_anyhash.rdb");
  const BoundSet set = make_ra_bound_set(f.chain, 32);
  save_bound_artifact(path, f.chain, set, f.model_hash);
  const BoundArtifact loaded = load_bound_artifact(path);  // no expectation
  EXPECT_EQ(loaded.model_hash, f.model_hash);
  std::remove(path.c_str());
}

// ---- pinned bytes, the buffered oracle, the round-trip property ----------

// The saved bytes are the file format: an artifact written by one build must
// load in the next. Pinned on the Table 1 bound set (RA-Bound seed at
// capacity 64, then ten depth-2 bootstrap episodes from seed 2006), the set
// every EMN workload warm-starts from.
TEST(ArtifactTest, SavedBytesArePinnedOnEmn) {
  Fixture& f = fixture();
  BoundSet set = make_ra_bound_set(f.chain, 64);
  controller::BootstrapOptions boot;
  boot.iterations = 10;
  boot.tree_depth = 2;
  boot.observe_action = models::emn_ids(models::make_emn_base()).topo.observe_action;
  boot.seed = 2006;
  boot.branch_floor = 1e-2;
  controller::bootstrap_bounds(f.recovery, set, Belief::uniform(f.recovery.num_states()),
                               boot);
  const std::string path = temp_path("bounds_pinned.rdb");
  const std::uint64_t crc = save_bound_artifact(path, f.chain, set, f.model_hash);
  const std::vector<unsigned char> bytes = read_file(path);
  EXPECT_EQ(bytes.size(), std::size_t{7688});
  EXPECT_EQ(crc, 0x0390d200093161cbULL);
  EXPECT_EQ(util::crc64(bytes.data(), bytes.size()), 0xfb725c06eefc161aULL);
  std::remove(path.c_str());
}

// A bound set of `planes` random planes over `n` states, through restore():
// protection flags, use counts and the generation vary with `seed`.
BoundSet random_set(std::size_t n, std::size_t planes, std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::uniform_real_distribution<double> coefficient(-50.0, 0.0);
  BoundSet::Snapshot snap;
  snap.dimension = n;
  snap.capacity = planes;
  snap.generation = rng() % 10000;
  snap.first_added = true;
  snap.planes.resize(planes);
  for (BoundSet::Snapshot::Plane& p : snap.planes) {
    p.vector.resize(n);
    for (double& v : p.vector) v = coefficient(rng);
    p.is_protected = rng() % 4 == 0;
    p.uses = rng() % 100000;
  }
  return BoundSet::restore(snap);
}

struct GeneratedBounds {
  RandomActionChain chain;
  BoundSet set;
  std::uint64_t model_hash;
};

// Chains of odd and even state counts, so the u32 arrays of the solve plan
// take both pad8 paths, each with a 1-plane (RA-Bound) and a 64-plane set.
std::vector<GeneratedBounds> generated_bounds() {
  std::vector<GeneratedBounds> out;
  for (const std::size_t n : {std::size_t{2}, std::size_t{7}, std::size_t{64},
                              std::size_t{301}, std::size_t{1024}}) {
    models::SyntheticMdpParams params;
    params.num_states = n;
    params.num_actions = 2 + n % 4;
    params.locality = 16;
    params.forward_probability = 0.05;
    params.seed = n;
    const Mdp mdp = models::make_synthetic_recovery_mdp(params);
    RandomActionChain chain = build_random_action_chain(mdp);
    BoundSet ra = make_ra_bound_set(chain, 0);
    out.push_back({chain, std::move(ra), hash_mdp(mdp)});
    out.push_back({std::move(chain), random_set(n, 64, n), hash_mdp(mdp)});
  }
  return out;
}

// The streamed save writes exactly the bytes of the buffered writer it
// replaced, including from a chain that borrows its CSR arrays from a
// mapped artifact.
TEST(ArtifactParityTest, StreamedSavesMatchTheBufferedWriter) {
  const std::string path = temp_path("bounds_parity.rdb");
  for (const GeneratedBounds& g : generated_bounds()) {
    const std::size_t n = g.chain.num_states();
    const std::size_t planes = g.set.size();
    const std::uint64_t crc = save_bound_artifact(path, g.chain, g.set, g.model_hash);
    const std::vector<unsigned char> want =
        testref::reference_bound_artifact_bytes(g.chain, g.set, g.model_hash);
    EXPECT_EQ(read_file(path), want) << n << " states, " << planes << " planes";
    std::uint64_t stored = 0;
    std::memcpy(&stored, want.data() + want.size() - 8, 8);
    EXPECT_EQ(crc, stored) << n << " states, " << planes << " planes";

    const BoundArtifact loaded = load_bound_artifact(path, g.model_hash);
    save_bound_artifact(path, loaded.chain, loaded.set, g.model_hash);
    EXPECT_EQ(read_file(path),
              testref::reference_bound_artifact_bytes(loaded.chain, loaded.set,
                                                      g.model_hash))
        << "from the mapped chain: " << n << " states, " << planes << " planes";
  }
  std::remove(path.c_str());
}

// The round-trip property of ROADMAP item 9: write → read → write is
// byte-identical.
TEST(ArtifactTest, WriteReadWriteIsByteIdentical) {
  std::vector<GeneratedBounds> cases = generated_bounds();
  Fixture& f = fixture();
  cases.push_back({f.chain, f.make_warmed_set(), f.model_hash});
  const std::string first = temp_path("bounds_rtw_first.rdb");
  const std::string second = temp_path("bounds_rtw_second.rdb");
  for (const GeneratedBounds& g : cases) {
    save_bound_artifact(first, g.chain, g.set, g.model_hash);
    const BoundArtifact loaded = load_bound_artifact(first, g.model_hash);
    save_bound_artifact(second, loaded.chain, loaded.set, loaded.model_hash);
    EXPECT_EQ(read_file(first), read_file(second))
        << g.chain.num_states() << " states, " << g.set.size() << " planes";
  }
  std::remove(first.c_str());
  std::remove(second.c_str());
}

// A save that cannot complete throws, removes its tmp file and leaves the
// previous artifact at the path byte for byte. The write failure comes from
// this process's own file-size limit (RLIMIT_FSIZE, SIGXFSZ ignored).
TEST(ArtifactTest, FailedSaveLeavesThePreviousFileUntouched) {
  Fixture& f = fixture();
  const std::string path = temp_path("bounds_failed_save.rdb");
  const BoundSet small = make_ra_bound_set(f.chain, 32);
  save_bound_artifact(path, f.chain, small, f.model_hash);
  const std::vector<unsigned char> before = read_file(path);
  const BoundSet big = random_set(f.recovery.num_states(), 256, 5);

  struct ::rlimit saved = {};
  ASSERT_EQ(::getrlimit(RLIMIT_FSIZE, &saved), 0);
  const auto old_handler = std::signal(SIGXFSZ, SIG_IGN);
  struct ::rlimit capped = saved;
  capped.rlim_cur = 4096 + 100;  // the first buffer flush fits, the planes do not
  ASSERT_EQ(::setrlimit(RLIMIT_FSIZE, &capped), 0);
  const std::string message =
      model_error_of([&] { save_bound_artifact(path, f.chain, big, f.model_hash); });
  ASSERT_EQ(::setrlimit(RLIMIT_FSIZE, &saved), 0);
  std::signal(SIGXFSZ, old_handler);

  EXPECT_NE(message.find("untouched"), std::string::npos) << message;
  EXPECT_EQ(read_file(path), before);
  std::ifstream tmp(path + ".tmp", std::ios::binary);
  EXPECT_FALSE(tmp.good());
  std::remove(path.c_str());

  const std::string missing = model_error_of([&] {
    save_bound_artifact("/nonexistent/dir/bounds.rdb", f.chain, small, f.model_hash);
  });
  EXPECT_NE(missing.find("cannot create"), std::string::npos) << missing;
}

// ---- corruption matrix --------------------------------------------------

struct ArtifactFile {
  std::string path;
  std::vector<unsigned char> bytes;

  explicit ArtifactFile(const char* name) : path(temp_path(name)) {
    Fixture& f = fixture();
    const BoundSet set = f.make_warmed_set();
    save_bound_artifact(path, f.chain, set, f.model_hash);
    bytes = read_file(path);
  }
  ~ArtifactFile() { std::remove(path.c_str()); }

  void load() const { (void)load_bound_artifact(path, fixture().model_hash); }
};

TEST(ArtifactCorruptionTest, MissingFileIsRejected) {
  const std::string message = model_error_of(
      [] { load_bound_artifact("/nonexistent/dir/bounds.rdb"); });
  EXPECT_NE(message.find("cannot open"), std::string::npos) << message;
}

TEST(ArtifactCorruptionTest, EmptyFileIsRejected) {
  const std::string path = temp_path("bounds_empty.rdb");
  write_file(path, {});
  const std::string message = model_error_of([&] { load_bound_artifact(path); });
  EXPECT_NE(message.find("empty file"), std::string::npos) << message;
  std::remove(path.c_str());
}

TEST(ArtifactCorruptionTest, TruncationIsRejectedAtEveryLength) {
  ArtifactFile file("bounds_truncate.rdb");
  // A torn write can stop anywhere: inside the header, mid-payload (at odd,
  // unaligned offsets), or one byte short of the checksum.
  for (const double fraction : {0.001, 0.3, 0.7, 0.999}) {
    std::vector<unsigned char> cut = file.bytes;
    std::size_t len = static_cast<std::size_t>(
        static_cast<double>(file.bytes.size()) * fraction);
    len |= 1;  // force an odd (unaligned) size — the mmap path must not care
    cut.resize(len);
    write_file(file.path, cut);
    const std::string message = model_error_of([&] { file.load(); });
    const bool actionable =
        message.find("truncated") != std::string::npos ||
        message.find("length mismatch") != std::string::npos;
    EXPECT_TRUE(actionable) << "at fraction " << fraction << ": " << message;
  }
}

TEST(ArtifactCorruptionTest, TrailingBytesAreRejected) {
  ArtifactFile file("bounds_trailing.rdb");
  std::vector<unsigned char> grown = file.bytes;
  grown.push_back(0x5a);
  write_file(file.path, grown);
  const std::string message = model_error_of([&] { file.load(); });
  EXPECT_NE(message.find("length mismatch"), std::string::npos) << message;
}

TEST(ArtifactCorruptionTest, BitFlipsAreRejectedByChecksum) {
  ArtifactFile file("bounds_bitflip.rdb");
  // One bit in the payload's front (model hash), the middle (CSR bits), and
  // the stored CRC itself.
  for (const std::size_t offset :
       {std::size_t{25}, file.bytes.size() / 2, file.bytes.size() - 3}) {
    std::vector<unsigned char> flipped = file.bytes;
    flipped[offset] ^= 0x04;
    write_file(file.path, flipped);
    const std::string message = model_error_of([&] { file.load(); });
    EXPECT_NE(message.find("checksum mismatch"), std::string::npos)
        << "at offset " << offset << ": " << message;
  }
}

TEST(ArtifactCorruptionTest, ForeignFilesAreRejectedByMagic) {
  ArtifactFile file("bounds_magic.rdb");
  std::vector<unsigned char> foreign = file.bytes;
  foreign[0] ^= 0xff;
  write_file(file.path, foreign);
  const std::string message = model_error_of([&] { file.load(); });
  EXPECT_NE(message.find("not a recoverd bound artifact"), std::string::npos)
      << message;
}

TEST(ArtifactCorruptionTest, UnknownVersionsAreRejected) {
  ArtifactFile file("bounds_version.rdb");
  std::vector<unsigned char> future = file.bytes;
  future[8] = 99;  // version field, checked before the checksum
  write_file(file.path, future);
  const std::string message = model_error_of([&] { file.load(); });
  EXPECT_NE(message.find("unsupported version 99"), std::string::npos) << message;
}

TEST(ArtifactCorruptionTest, NonzeroReservedBytesAreRejected) {
  ArtifactFile file("bounds_reserved.rdb");
  std::vector<unsigned char> drifted = file.bytes;
  drifted[12] = 1;  // reserved field, must be zero in v1
  write_file(file.path, drifted);
  const std::string message = model_error_of([&] { file.load(); });
  EXPECT_NE(message.find("reserved"), std::string::npos) << message;
}

TEST(ArtifactCorruptionTest, WrongModelHashIsRejected) {
  ArtifactFile file("bounds_model.rdb");
  const std::string message = model_error_of(
      [&] { load_bound_artifact(file.path, fixture().model_hash ^ 1); });
  EXPECT_NE(message.find("different model"), std::string::npos) << message;
}

TEST(ArtifactCorruptionTest, StructuralDriftBehindAValidChecksumIsRejected) {
  // A hostile or buggy writer can produce a file whose CRC checks out but
  // whose fields are inconsistent; the structural validation must still
  // catch it. Corrupt the num_states field (payload offset 8 → file offset
  // 32) and re-seal the checksum.
  ArtifactFile file("bounds_structural.rdb");
  std::vector<unsigned char> forged = file.bytes;
  forged[32] ^= 0x01;  // num_states no longer matches the matrix dimensions
  const std::uint64_t crc = util::crc64(forged.data() + 8, forged.size() - 16);
  std::memcpy(forged.data() + forged.size() - 8, &crc, 8);
  write_file(file.path, forged);
  const std::string message = model_error_of([&] { file.load(); });
  EXPECT_NE(message.find("corrupted"), std::string::npos) << message;
}

TEST(ArtifactCorruptionTest, NonFinitePlaneCoefficientBehindAValidChecksumIsRejected) {
  // The last payload word is the last plane's last coefficient. A writer
  // that put a NaN or an infinity there is refused by the loader itself,
  // with a message that names the file.
  ArtifactFile file("bounds_nonfinite.rdb");
  ASSERT_GT(file.bytes.size(), 32u);
  const std::size_t last_coefficient = file.bytes.size() - 16;
  for (const double bad : {std::numeric_limits<double>::quiet_NaN(),
                           -std::numeric_limits<double>::infinity()}) {
    std::vector<unsigned char> forged = file.bytes;
    std::memcpy(forged.data() + last_coefficient, &bad, 8);
    testfuzz::reseal(forged);
    write_file(file.path, forged);
    const std::string message = model_error_of([&] { file.load(); });
    EXPECT_NE(message.find("non-finite plane coefficient"), std::string::npos) << message;
    EXPECT_NE(message.find(file.path), std::string::npos) << message;
  }
}

TEST(ArtifactCorruptionTest, RejectedLoadsBumpTheRejectCounter) {
  ArtifactFile file("bounds_counter.rdb");
  std::vector<unsigned char> flipped = file.bytes;
  flipped[flipped.size() / 3] ^= 0x80;
  write_file(file.path, flipped);
  obs::Counter& rejects = obs::metrics().counter("bounds.artifact.load_rejects");
  const std::uint64_t before = rejects.value();
  EXPECT_THROW(file.load(), ModelError);
  EXPECT_EQ(rejects.value(), before + 1);
}

// ---- mutation fuzz (tests/framed_fuzz.hpp) --------------------------------

// Every mutant of a saved artifact, as drawn and with its checksum
// resealed, either loads or is rejected with a ModelError. A mutant that
// loads re-saves and re-loads to the same chain and set.
TEST(ArtifactFuzzTest, EveryMutantLoadsOrIsRejectedWithModelError) {
  ArtifactFile file("bounds_fuzz.rdb");
  const std::string resaved = temp_path("bounds_fuzz_resaved.rdb");
  constexpr std::size_t kPayloadStart = 24;
  std::mt19937_64 rng(testfuzz::kSeed);
  std::size_t loaded = 0;
  for (std::size_t i = 0; i < testfuzz::kMutants; ++i) {
    std::vector<unsigned char> mutant = testfuzz::mutate(file.bytes, kPayloadStart, rng);
    for (const bool resealed : {false, true}) {
      if (resealed) testfuzz::reseal(mutant);
      write_file(file.path, mutant);
      try {
        const BoundArtifact first = load_bound_artifact(file.path, fixture().model_hash);
        ++loaded;
        save_bound_artifact(resaved, first.chain, first.set, first.model_hash);
        const BoundArtifact second = load_bound_artifact(resaved, fixture().model_hash);
        SCOPED_TRACE("mutant " + std::to_string(i) + (resealed ? " resealed" : ""));
        expect_chains_bitwise_equal(second.chain, first.chain);
        expect_sets_bitwise_equal(second.set, first.set);
      } catch (const ModelError&) {
      } catch (const std::exception& e) {
        ADD_FAILURE() << "mutant " << i << (resealed ? " resealed" : "")
                      << ": expected a load or a ModelError, got: " << e.what();
      }
    }
  }
  // The corpus reaches past the checksum: some resealed mutants load.
  EXPECT_GT(loaded, 0u);
  std::remove(resaved.c_str());
}

}  // namespace
}  // namespace recoverd::bounds
