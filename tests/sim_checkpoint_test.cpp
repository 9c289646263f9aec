// Crash-safety suite (DESIGN.md §14): a fleet saved mid-run and restored
// into a fresh driver must replay the exact beliefs, actions, and episode
// tallies of the uninterrupted run (caches rebuild cold — only the
// classes/shared_hits work accounting may differ), writes must be atomic,
// and the checkpoint corruption matrix (truncation, bit flips, bad magic,
// version/model/options mismatches) must be rejected with an actionable
// error before any driver state is touched, as must every mutant of the
// fuzz corpus (tests/framed_fuzz.hpp) that does not restore. The saved
// bytes are pinned on EMN and must equal the buffered writer's image
// (tests/reference_framing.hpp) on generated checkpoints.
#include "sim/checkpoint.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <fstream>
#include <functional>
#include <random>
#include <string>
#include <vector>

#include "bounds/artifact.hpp"
#include "bounds/ra_bound.hpp"
#include "controller/bootstrap.hpp"
#include "framed_fuzz.hpp"
#include "models/emn.hpp"
#include "pomdp/belief.hpp"
#include "reference_framing.hpp"
#include "sim/fleet_driver.hpp"
#include "util/check.hpp"
#include "util/crc64.hpp"

namespace recoverd::sim {
namespace {

struct EmnFleet {
  Pomdp base;
  Pomdp recovery;
  models::EmnIds ids;
  FaultInjector injector;
  bounds::BoundSet set;

  EmnFleet()
      : base(models::make_emn_base()),
        recovery(models::make_emn_recovery_model()),
        ids(models::emn_ids(base)),
        injector(std::vector<StateId>(ids.topo.zombie_states.begin(),
                                      ids.topo.zombie_states.end())),
        set(bounds::make_ra_bound_set(recovery.mdp(), 32)) {
    controller::BootstrapOptions boot;
    boot.iterations = 4;
    boot.tree_depth = 2;
    boot.observe_action = ids.topo.observe_action;
    boot.seed = 7;
    boot.branch_floor = 1e-2;
    controller::bootstrap_bounds(recovery, set,
                                 Belief::uniform(recovery.num_states()), boot);
  }
};

EmnFleet& emn() {
  static EmnFleet* fleet = new EmnFleet();
  return *fleet;
}

FleetOptions make_options(std::size_t sessions, FleetMode mode) {
  FleetOptions options;
  options.sessions = sessions;
  options.mode = mode;
  options.observe_action = emn().ids.topo.observe_action;
  options.tree_depth = 1;
  options.branch_floor = 1e-2;
  options.max_steps = 10000;
  return options;
}

FleetOptions make_resilient_options(std::size_t sessions, FleetMode mode) {
  FleetOptions options = make_options(sessions, mode);
  options.guard.enabled = true;
  options.guard.promote_after = 2;
  options.guard.livelock_window = 16;
  options.chaos.stall_rate = 0.3;
  options.chaos.stall_ms = 0.1;
  options.chaos.obs_corrupt_rate = 0.3;
  options.chaos.poison_rate = 0.3;
  options.tick_budget_decisions = sessions / 2;
  return options;
}

FleetDriver make_fleet(FleetOptions options, std::uint64_t seed = 41) {
  EmnFleet& f = emn();
  return FleetDriver(f.recovery, f.base, f.set, f.injector, seed, options);
}

std::string temp_path(const char* name) {
  return testing::TempDir() + name;
}

// Equality after a restore: everything except the classes/shared_hits work
// accounting, which a cold cache is allowed to redistribute.
void expect_resumed_equal(const FleetDriver& resumed, const FleetDriver& straight,
                          std::size_t tick) {
  ASSERT_EQ(resumed.sessions(), straight.sessions());
  const std::size_t num_states = resumed.beliefs().num_states();
  for (StateId s = 0; s < num_states; ++s) {
    const auto lanes_a = resumed.beliefs().state_lanes(s);
    const auto lanes_b = straight.beliefs().state_lanes(s);
    ASSERT_EQ(std::memcmp(lanes_a.data(), lanes_b.data(),
                          resumed.sessions() * sizeof(double)),
              0)
        << "belief bits diverged after restore at tick " << tick << ", state "
        << s;
  }
  const auto actions_a = resumed.last_actions();
  const auto actions_b = straight.last_actions();
  EXPECT_TRUE(std::equal(actions_a.begin(), actions_a.end(), actions_b.begin()))
      << "actions diverged after restore at tick " << tick;
  const auto stages_a = resumed.ladder_stages();
  const auto stages_b = straight.ladder_stages();
  EXPECT_TRUE(std::equal(stages_a.begin(), stages_a.end(), stages_b.begin()))
      << "ladder stages diverged after restore at tick " << tick;
  const FleetStats& sa = resumed.stats();
  const FleetStats& sb = straight.stats();
  EXPECT_EQ(sa.ticks, sb.ticks);
  EXPECT_EQ(sa.decisions, sb.decisions);
  EXPECT_EQ(sa.episodes_completed, sb.episodes_completed);
  EXPECT_EQ(sa.episodes_recovered, sb.episodes_recovered);
  EXPECT_EQ(sa.episodes_truncated, sb.episodes_truncated);
  EXPECT_EQ(sa.belief_mismatches, sb.belief_mismatches);
  EXPECT_EQ(sa.degraded_decides, sb.degraded_decides);
  EXPECT_EQ(sa.shed, sb.shed);
  EXPECT_EQ(sa.stalls_injected, sb.stalls_injected);
  EXPECT_EQ(sa.poisons_injected, sb.poisons_injected);
  EXPECT_EQ(sa.beliefs_repaired, sb.beliefs_repaired);
  EXPECT_EQ(sa.obs_corrupted, sb.obs_corrupted);
  EXPECT_EQ(sa.obs_invalid_rejected, sb.obs_invalid_rejected);
  EXPECT_EQ(sa.livelock_respawns, sb.livelock_respawns);
  EXPECT_EQ(sa.ladder_demotions, sb.ladder_demotions);
  EXPECT_EQ(sa.ladder_promotions, sb.ladder_promotions);
}

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

// Runs `fn`, requires it to throw ModelError, returns the message.
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

// ---- round trips --------------------------------------------------------

TEST(CheckpointTest, RoundTripResumesBitwise) {
  const std::string path = temp_path("fleet_roundtrip.ckpt");
  FleetDriver straight = make_fleet(make_options(16, FleetMode::Batch));
  FleetDriver interrupted = make_fleet(make_options(16, FleetMode::Batch));
  for (std::size_t tick = 0; tick < 4; ++tick) {
    straight.tick();
    interrupted.tick();
  }
  interrupted.save_checkpoint(path);

  FleetDriver resumed = make_fleet(make_options(16, FleetMode::Batch), 999);
  resumed.restore_checkpoint(path);
  for (std::size_t tick = 4; tick < 8; ++tick) {
    straight.tick();
    resumed.tick();
    expect_resumed_equal(resumed, straight, tick);
  }
  std::remove(path.c_str());
}

TEST(CheckpointTest, RoundTripWithGuardsChaosAndBudgetResumesBitwise) {
  const std::string path = temp_path("fleet_chaos_roundtrip.ckpt");
  FleetDriver straight = make_fleet(make_resilient_options(16, FleetMode::Batch));
  FleetDriver interrupted = make_fleet(make_resilient_options(16, FleetMode::Batch));
  for (std::size_t tick = 0; tick < 5; ++tick) {
    straight.tick();
    interrupted.tick();
  }
  interrupted.save_checkpoint(path);

  FleetDriver resumed = make_fleet(make_resilient_options(16, FleetMode::Batch), 7);
  resumed.restore_checkpoint(path);
  for (std::size_t tick = 5; tick < 10; ++tick) {
    straight.tick();
    resumed.tick();
    expect_resumed_equal(resumed, straight, tick);
  }
  // The restored half must have replayed real chaos, not a clean fleet.
  EXPECT_GT(straight.stats().stalls_injected, 0u);
  EXPECT_GT(straight.stats().poisons_injected, 0u);
  std::remove(path.c_str());
}

TEST(CheckpointTest, RestoreCrossesFleetModes) {
  // mode/jobs/simd/memo/cache are excluded from the options hash on
  // purpose: the bitwise invariance contracts make a Batch checkpoint
  // meaningful to a Loop fleet (and vice versa).
  const std::string path = temp_path("fleet_crossmode.ckpt");
  FleetDriver batch = make_fleet(make_options(12, FleetMode::Batch));
  for (std::size_t tick = 0; tick < 4; ++tick) batch.tick();
  batch.save_checkpoint(path);

  FleetDriver loop = make_fleet(make_options(12, FleetMode::Loop));
  loop.restore_checkpoint(path);
  for (std::size_t tick = 4; tick < 7; ++tick) {
    batch.tick();
    loop.tick();
    expect_resumed_equal(loop, batch, tick);
  }
  std::remove(path.c_str());
}

TEST(CheckpointTest, CaptureAdoptWorksInMemory) {
  FleetDriver source = make_fleet(make_options(8, FleetMode::Batch));
  for (std::size_t tick = 0; tick < 3; ++tick) source.tick();
  const FleetCheckpoint cp = source.capture_checkpoint();
  EXPECT_EQ(cp.sessions, 8u);
  EXPECT_EQ(cp.tick, 3u);
  EXPECT_EQ(cp.stats.size(), 21u);

  FleetDriver target = make_fleet(make_options(8, FleetMode::Batch), 1234);
  target.adopt_checkpoint(cp);
  for (std::size_t tick = 3; tick < 6; ++tick) {
    source.tick();
    target.tick();
    expect_resumed_equal(target, source, tick);
  }
}

TEST(CheckpointTest, SaveIsAtomicAndOverwrites) {
  const std::string path = temp_path("fleet_atomic.ckpt");
  FleetDriver fleet = make_fleet(make_options(8, FleetMode::Batch));
  fleet.tick();
  fleet.save_checkpoint(path);
  const std::vector<unsigned char> first = read_file(path);
  fleet.tick();
  fleet.save_checkpoint(path);  // overwrite via rename, never in place
  const std::vector<unsigned char> second = read_file(path);
  EXPECT_NE(first, second);
  // No tmp residue: the staging file was renamed into place.
  std::ifstream tmp(path + ".tmp", std::ios::binary);
  EXPECT_FALSE(tmp.good());
  // Both snapshots are independently restorable artifacts.
  FleetDriver resumed = make_fleet(make_options(8, FleetMode::Batch), 5);
  resumed.restore_checkpoint(path);
  EXPECT_EQ(resumed.stats().ticks, 2u);
  std::remove(path.c_str());
}

TEST(CheckpointTest, HashPomdpSeparatesModels) {
  EXPECT_NE(hash_pomdp(emn().base), hash_pomdp(emn().recovery));
  EXPECT_EQ(hash_pomdp(emn().recovery), hash_pomdp(emn().recovery));
}

// The three content hashes written into bound artifacts and checkpoints are
// part of those file formats: a file saved by one build must still match
// the model and options of the next. Pinned on EMN to their recorded values.
TEST(CheckpointTest, PersistedHashesArePinnedOnEmn) {
  EXPECT_EQ(bounds::hash_mdp(emn().recovery.mdp()), 0xe10f118ef7eaeb7fULL);
  EXPECT_EQ(hash_pomdp(emn().recovery), 0x0b8be711dbd9c042ULL);
  EXPECT_EQ(make_fleet(make_options(8, FleetMode::Batch)).capture_checkpoint().options_hash,
            0x1f069ea3f58b3fa1ULL);
  EXPECT_EQ(make_fleet(make_resilient_options(8, FleetMode::Batch))
                .capture_checkpoint()
                .options_hash,
            0x851fc23204faa006ULL);
}

// ---- pinned bytes, the buffered oracle, the round-trip property ----------

// The saved bytes are the file format: a checkpoint written by one build
// must restore in the next. Pinned on a guarded chaos fleet, whose file
// carries every optional block (chaos streams, ladder and guard state).
TEST(CheckpointTest, SavedBytesArePinnedOnEmn) {
  const std::string path = temp_path("fleet_pinned.ckpt");
  FleetDriver fleet = make_fleet(make_resilient_options(16, FleetMode::Batch));
  for (std::size_t tick = 0; tick < 5; ++tick) fleet.tick();
  fleet.save_checkpoint(path);
  const std::vector<unsigned char> bytes = read_file(path);
  EXPECT_EQ(bytes.size(), std::size_t{5574});
  EXPECT_EQ(util::crc64(bytes.data(), bytes.size()), 0x50a65f7f982841b2ULL);
  std::remove(path.c_str());
}

// A checkpoint with every field drawn from `seed`: odd and even session
// and state counts, with and without the chaos and guard blocks, negative
// overrun counters included.
FleetCheckpoint random_checkpoint(std::size_t sessions, std::size_t num_states,
                                  bool chaos, bool guard, std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  const auto stream = [&] {
    return std::array<std::uint64_t, 4>{rng(), rng(), rng(), rng()};
  };
  std::uniform_real_distribution<double> unit(0.0, 1.0);
  FleetCheckpoint cp;
  cp.model_hash = rng();
  cp.options_hash = rng();
  cp.bound_artifact_hash = rng() % 2 == 0 ? 0 : rng();
  cp.seed = rng();
  cp.tick = rng() % 1000;
  cp.sessions = sessions;
  cp.num_states = num_states;
  cp.num_actions = 1 + rng() % 9;
  cp.num_observations = 1 + rng() % 9;
  cp.stats.resize(21);
  for (std::uint64_t& v : cp.stats) v = rng() % 100000;
  for (std::size_t i = 0; i < sessions; ++i) {
    cp.slot_rng.push_back(stream());
    Environment::Snapshot env;
    env.state = static_cast<StateId>(rng() % num_states);
    env.elapsed = 100.0 * unit(rng);
    env.cost = -50.0 * unit(rng);
    env.recovery_entered = rng() % 3 == 0 ? env.recovery_entered : unit(rng);
    env.steps = rng() % 50;
    env.rng = stream();
    cp.envs.push_back(env);
    if (chaos) cp.chaos_rng.push_back(stream());
    for (std::size_t s = 0; s < num_states; ++s) cp.beliefs.push_back(unit(rng));
    cp.episode_steps.push_back(rng() % 50);
    cp.last_actions.push_back(rng() % cp.num_actions);
    cp.pending_action.push_back(rng() % cp.num_actions);
    cp.pending_obs.push_back(rng() % cp.num_observations);
    if (guard) {
      cp.ladder_stage.push_back(static_cast<std::uint8_t>(rng() % 4));
      cp.clean_streak.push_back(rng() % 10);
      cp.ticks_since_fresh.push_back(rng() % 10);
      controller::GuardRuntime::State g;
      g.escalated = rng() % 2 == 0;
      g.consecutive_overruns = static_cast<std::int32_t>(rng() % 7) - 3;
      g.stalled_decides = rng() % 20;
      g.has_best_bound = rng() % 2 == 0;
      g.best_bound = -10.0 * unit(rng);
      cp.guard_state.push_back(g);
    }
  }
  return cp;
}

std::vector<FleetCheckpoint> generated_checkpoints() {
  std::vector<FleetCheckpoint> out;
  std::uint64_t seed = 1;
  for (const std::size_t sessions : {std::size_t{1}, std::size_t{3}, std::size_t{64}}) {
    for (const std::size_t num_states : {std::size_t{1}, std::size_t{15}}) {
      for (const bool chaos : {false, true}) {
        for (const bool guard : {false, true}) {
          out.push_back(random_checkpoint(sessions, num_states, chaos, guard, seed++));
        }
      }
    }
  }
  FleetDriver plain = make_fleet(make_options(8, FleetMode::Batch));
  FleetDriver resilient = make_fleet(make_resilient_options(13, FleetMode::Batch));
  for (std::size_t tick = 0; tick < 3; ++tick) {
    plain.tick();
    resilient.tick();
  }
  out.push_back(plain.capture_checkpoint());
  out.push_back(resilient.capture_checkpoint());
  return out;
}

// The streamed save writes exactly the bytes of the buffered writer it
// replaced.
TEST(CheckpointParityTest, StreamedSavesMatchTheBufferedWriter) {
  const std::string path = temp_path("fleet_parity.ckpt");
  for (const FleetCheckpoint& cp : generated_checkpoints()) {
    write_fleet_checkpoint(path, cp);
    EXPECT_EQ(read_file(path), testref::reference_fleet_checkpoint_bytes(cp))
        << cp.sessions << " sessions × " << cp.num_states << " states, chaos "
        << !cp.chaos_rng.empty() << ", guard " << !cp.ladder_stage.empty();
  }
  std::remove(path.c_str());
}

// The round-trip property of ROADMAP item 9: write → read → write is
// byte-identical.
TEST(CheckpointTest, WriteReadWriteIsByteIdentical) {
  const std::string first = temp_path("fleet_rtw_first.ckpt");
  const std::string second = temp_path("fleet_rtw_second.ckpt");
  for (const FleetCheckpoint& cp : generated_checkpoints()) {
    write_fleet_checkpoint(first, cp);
    write_fleet_checkpoint(second, read_fleet_checkpoint(first));
    EXPECT_EQ(read_file(first), read_file(second))
        << cp.sessions << " sessions × " << cp.num_states << " states, chaos "
        << !cp.chaos_rng.empty() << ", guard " << !cp.ladder_stage.empty();
  }
  std::remove(first.c_str());
  std::remove(second.c_str());
}

// ---- corruption matrix --------------------------------------------------

struct CheckpointFile {
  std::string path;
  std::vector<unsigned char> bytes;

  explicit CheckpointFile(const char* name,
                          const FleetOptions& options = make_options(8, FleetMode::Batch))
      : path(temp_path(name)) {
    FleetDriver fleet = make_fleet(options);
    for (std::size_t tick = 0; tick < 3; ++tick) fleet.tick();
    fleet.save_checkpoint(path);
    bytes = read_file(path);
  }
  ~CheckpointFile() { std::remove(path.c_str()); }
};

TEST(CheckpointCorruptionTest, MissingFileIsRejected) {
  const std::string message = model_error_of(
      [] { read_fleet_checkpoint("/nonexistent/dir/fleet.ckpt"); });
  EXPECT_NE(message.find("cannot open"), std::string::npos) << message;
}

TEST(CheckpointCorruptionTest, EmptyFileIsRejected) {
  const std::string path = temp_path("fleet_empty.ckpt");
  write_file(path, {});
  const std::string message = model_error_of([&] { read_fleet_checkpoint(path); });
  EXPECT_NE(message.find("empty file"), std::string::npos) << message;
  std::remove(path.c_str());
}

TEST(CheckpointCorruptionTest, TruncationIsRejectedAtEveryLength) {
  CheckpointFile file("fleet_truncate.ckpt");
  // A torn write can stop anywhere: inside the header, mid-payload, or one
  // byte short of the checksum. Every prefix must be cleanly rejected.
  for (const double fraction : {0.01, 0.3, 0.7, 0.999}) {
    std::vector<unsigned char> cut = file.bytes;
    cut.resize(static_cast<std::size_t>(
        static_cast<double>(file.bytes.size()) * fraction));
    write_file(file.path, cut);
    const std::string message =
        model_error_of([&] { read_fleet_checkpoint(file.path); });
    const bool actionable =
        message.find("truncated") != std::string::npos ||
        message.find("length mismatch") != std::string::npos;
    EXPECT_TRUE(actionable) << "at fraction " << fraction << ": " << message;
  }
}

TEST(CheckpointCorruptionTest, BitFlipsAreRejectedByChecksum) {
  CheckpointFile file("fleet_bitflip.ckpt");
  // Flip one bit in the length field, the payload, and the stored CRC.
  for (const std::size_t offset :
       {std::size_t{14}, file.bytes.size() / 2, file.bytes.size() - 3}) {
    std::vector<unsigned char> flipped = file.bytes;
    flipped[offset] ^= 0x10;
    write_file(file.path, flipped);
    const std::string message =
        model_error_of([&] { read_fleet_checkpoint(file.path); });
    const bool actionable =
        message.find("checksum mismatch") != std::string::npos ||
        message.find("length mismatch") != std::string::npos;
    EXPECT_TRUE(actionable) << "at offset " << offset << ": " << message;
  }
}

TEST(CheckpointCorruptionTest, ForeignFilesAreRejectedByMagic) {
  CheckpointFile file("fleet_magic.ckpt");
  std::vector<unsigned char> foreign = file.bytes;
  foreign[0] ^= 0xff;
  write_file(file.path, foreign);
  const std::string message =
      model_error_of([&] { read_fleet_checkpoint(file.path); });
  EXPECT_NE(message.find("not a recoverd fleet checkpoint"), std::string::npos)
      << message;
}

TEST(CheckpointCorruptionTest, UnknownVersionsAreRejected) {
  CheckpointFile file("fleet_version.ckpt");
  std::vector<unsigned char> future = file.bytes;
  future[8] = 99;  // version field, checked before the checksum
  write_file(file.path, future);
  const std::string message =
      model_error_of([&] { read_fleet_checkpoint(file.path); });
  EXPECT_NE(message.find("unsupported version 99"), std::string::npos) << message;
}

TEST(CheckpointCorruptionTest, WrongModelIsRejectedByHash) {
  CheckpointFile file("fleet_model.ckpt");
  // A fleet over a *different* EMN (slower DB restart → different durations,
  // rewards, transitions — same shape): the checkpoint parses fine, but
  // restore must refuse to mix models.
  EmnFleet& f = emn();
  models::EmnConfig altered;
  altered.db_restart = 480.0;
  const Pomdp other_recovery = models::make_emn_recovery_model(altered);
  ASSERT_NE(hash_pomdp(other_recovery), hash_pomdp(f.recovery));
  bounds::BoundSet other_set = bounds::make_ra_bound_set(other_recovery.mdp(), 32);
  FleetOptions options = make_options(8, FleetMode::Batch);
  FleetDriver other(other_recovery, f.base, other_set, f.injector, 41, options);
  const std::string message =
      model_error_of([&] { other.restore_checkpoint(file.path); });
  EXPECT_NE(message.find("different model"), std::string::npos) << message;
}

TEST(CheckpointCorruptionTest, WrongFleetShapeIsRejected) {
  CheckpointFile file("fleet_shape.ckpt");  // saved with 8 sessions
  FleetDriver wider = make_fleet(make_options(12, FleetMode::Batch));
  const std::string message =
      model_error_of([&] { wider.restore_checkpoint(file.path); });
  EXPECT_NE(message.find("shape mismatch"), std::string::npos) << message;
}

TEST(CheckpointCorruptionTest, DifferentBoundArtifactIsRejected) {
  // A checkpoint records the content hash of the bound artifact the fleet
  // warm-started from (0 = cold-built). Restoring it into a fleet running
  // on different bounds would silently change every subsequent decision, so
  // it must be refused with a hint at the fix.
  CheckpointFile file("fleet_artifact.ckpt");  // saved with cold-built bounds
  FleetOptions warm = make_options(8, FleetMode::Batch);
  warm.bound_artifact_hash = 0x1234abcd5678ef90ULL;
  FleetDriver fleet = make_fleet(warm);
  const std::string message =
      model_error_of([&] { fleet.restore_checkpoint(file.path); });
  EXPECT_NE(message.find("different bound artifact"), std::string::npos) << message;
  EXPECT_NE(message.find("--bounds-in"), std::string::npos) << message;
}

TEST(CheckpointTest, MatchingBoundArtifactHashRoundTrips) {
  FleetOptions options = make_options(8, FleetMode::Batch);
  options.bound_artifact_hash = 0x1234abcd5678ef90ULL;
  FleetDriver source = make_fleet(options);
  for (std::size_t tick = 0; tick < 2; ++tick) source.tick();
  const FleetCheckpoint cp = source.capture_checkpoint();
  EXPECT_EQ(cp.bound_artifact_hash, options.bound_artifact_hash);

  FleetDriver target = make_fleet(options, 99);
  target.adopt_checkpoint(cp);  // same artifact identity: accepted
  EXPECT_EQ(target.stats().ticks, 2u);
}

TEST(CheckpointCorruptionTest, ChangedOptionsAreRejectedByHash) {
  CheckpointFile file("fleet_options.ckpt");  // saved at tree_depth = 1
  FleetOptions deeper = make_options(8, FleetMode::Batch);
  deeper.tree_depth = 2;
  FleetDriver fleet = make_fleet(deeper);
  const std::string message =
      model_error_of([&] { fleet.restore_checkpoint(file.path); });
  EXPECT_NE(message.find("different fleet options"), std::string::npos) << message;
}

// Overwrites the u64 at `offset` and re-seals the CRC-64 (over bytes
// [8, size - 8), stored in the last 8), so the reader gets past the
// checksum and must catch the implausible field itself.
std::vector<unsigned char> resealed_with(std::vector<unsigned char> bytes,
                                         std::size_t offset, std::uint64_t value) {
  std::memcpy(bytes.data() + offset, &value, sizeof(value));
  const std::uint64_t crc = util::crc64(bytes.data() + 8, bytes.size() - 16);
  std::memcpy(bytes.data() + bytes.size() - 8, &crc, sizeof(crc));
  return bytes;
}

TEST(CheckpointCorruptionTest, ImplausibleSessionCountIsRejectedBeforeAllocating) {
  CheckpointFile file("fleet_sessions.ckpt");
  constexpr std::size_t kSessionsOffset = 60;  // header 20 + five u64 fields
  for (const std::uint64_t sessions : {std::uint64_t{1} << 40, std::uint64_t{1} << 59}) {
    write_file(file.path, resealed_with(file.bytes, kSessionsOffset, sessions));
    const std::string message = model_error_of([&] { read_fleet_checkpoint(file.path); });
    EXPECT_NE(message.find("implausible session count"), std::string::npos)
        << "sessions=" << sessions << ": " << message;
  }
}

TEST(CheckpointCorruptionTest, ImplausibleStateCountIsRejectedBeforeAllocating) {
  CheckpointFile file("fleet_states.ckpt");
  constexpr std::size_t kNumStatesOffset = 68;
  // 8 sessions × 2^60 states × 8 bytes wraps the byte count to 0.
  write_file(file.path, resealed_with(file.bytes, kNumStatesOffset, std::uint64_t{1} << 60));
  const std::string message = model_error_of([&] { read_fleet_checkpoint(file.path); });
  EXPECT_NE(message.find("implausible belief state count"), std::string::npos) << message;
}

// Restores `forged` into a fleet of `options` that has ticked twice, which
// must refuse it with a ModelError containing `expected`, then run it in
// lock-step with an untouched twin.
void expect_rejected_untouched(const std::string& path,
                               const std::vector<unsigned char>& forged,
                               const FleetOptions& options, const char* expected) {
  write_file(path, forged);
  FleetDriver fleet = make_fleet(options);
  FleetDriver twin = make_fleet(options);
  for (std::size_t tick = 0; tick < 2; ++tick) {
    fleet.tick();
    twin.tick();
  }
  const std::string message = model_error_of([&] { fleet.restore_checkpoint(path); });
  EXPECT_NE(message.find(expected), std::string::npos) << message;
  for (std::size_t tick = 2; tick < 5; ++tick) {
    fleet.tick();
    twin.tick();
    expect_resumed_equal(fleet, twin, tick);
  }
}

// Offsets in an 8-session checkpoint: the stats follow the header (20), nine
// u64 fields and the stats count; the slot RNGs follow the 21 stats and the
// two flag bytes; then come the environments (72 bytes each) and, with
// chaos on, the chaos RNGs.
constexpr std::size_t kStatsOffset = 20 + 9 * 8 + 8;
constexpr std::size_t kSlotRngOffset = kStatsOffset + 21 * 8 + 2;
constexpr std::size_t kEnvOffset = kSlotRngOffset + 8 * 32;
constexpr std::size_t kChaosRngOffset = kEnvOffset + 8 * 72;

TEST(CheckpointCorruptionTest, OutOfRangeEnvironmentStateIsRejectedBeforeApplying) {
  // A checkpoint whose checksum was resealed over a bad environment state
  // (and a changed tick counter) parses; the driver must refuse it before it
  // writes the counter or any slot before slot 5.
  CheckpointFile file("fleet_env_state.ckpt");
  std::vector<unsigned char> forged =
      resealed_with(file.bytes, kEnvOffset + 5 * 72, std::uint64_t{999});
  forged = resealed_with(forged, kStatsOffset, std::uint64_t{123456});
  expect_rejected_untouched(file.path, forged, make_options(8, FleetMode::Batch),
                            "environment state 999");
}

TEST(CheckpointCorruptionTest, AllZeroRngStateIsRejectedBeforeApplying) {
  // xoshiro cannot run from the all-zero state; a slot, environment or chaos
  // stream zeroed behind a valid checksum is refused before any write.
  const FleetOptions options = make_resilient_options(8, FleetMode::Batch);
  CheckpointFile file("fleet_zero_rng.ckpt", options);
  for (const std::size_t stream : {kSlotRngOffset + 3 * 32, kEnvOffset + 6 * 72 + 40,
                                   kChaosRngOffset + 7 * 32}) {
    std::vector<unsigned char> forged =
        resealed_with(file.bytes, kStatsOffset, std::uint64_t{123456});
    for (std::size_t word = 0; word < 4; ++word) {
      forged = resealed_with(forged, stream + 8 * word, 0);
    }
    SCOPED_TRACE("stream at offset " + std::to_string(stream));
    expect_rejected_untouched(file.path, forged, options, "all-zero RNG state");
  }
}

TEST(CheckpointCorruptionTest, RejectionLeavesDriverStateUntouched) {
  CheckpointFile file("fleet_untouched.ckpt");  // 8-session checkpoint
  FleetDriver fleet = make_fleet(make_options(12, FleetMode::Batch));
  FleetDriver twin = make_fleet(make_options(12, FleetMode::Batch));
  for (std::size_t tick = 0; tick < 2; ++tick) {
    fleet.tick();
    twin.tick();
  }
  EXPECT_THROW(fleet.restore_checkpoint(file.path), ModelError);
  // The rejected restore was validated before application: the fleet keeps
  // ticking in lock-step with its untouched twin.
  for (std::size_t tick = 2; tick < 5; ++tick) {
    fleet.tick();
    twin.tick();
    expect_resumed_equal(fleet, twin, tick);
  }
}

// ---- mutation fuzz (tests/framed_fuzz.hpp) --------------------------------

// Every mutant of a guarded chaos checkpoint, as drawn and with its
// checksum resealed, either restores or is rejected with a ModelError; a
// rejected one leaves the driver's captured state as it was.
TEST(CheckpointFuzzTest, EveryMutantRestoresOrIsRejectedUntouched) {
  const FleetOptions options = make_resilient_options(8, FleetMode::Batch);
  CheckpointFile file("fleet_fuzz.ckpt", options);
  constexpr std::size_t kPayloadStart = 20;
  FleetDriver fleet = make_fleet(options);
  for (std::size_t tick = 0; tick < 2; ++tick) fleet.tick();
  const FleetCheckpoint before = fleet.capture_checkpoint();
  const std::vector<unsigned char> want = testref::reference_fleet_checkpoint_bytes(before);
  std::mt19937_64 rng(testfuzz::kSeed);
  std::size_t restored = 0;
  for (std::size_t i = 0; i < testfuzz::kMutants; ++i) {
    std::vector<unsigned char> mutant = testfuzz::mutate(file.bytes, kPayloadStart, rng);
    for (const bool resealed : {false, true}) {
      if (resealed) testfuzz::reseal(mutant);
      write_file(file.path, mutant);
      try {
        fleet.restore_checkpoint(file.path);
        ++restored;
        fleet.adopt_checkpoint(before);
      } catch (const ModelError&) {
        EXPECT_EQ(testref::reference_fleet_checkpoint_bytes(fleet.capture_checkpoint()), want)
            << "mutant " << i << (resealed ? " resealed" : "")
            << ": the rejected restore changed the driver";
      } catch (const std::exception& e) {
        ADD_FAILURE() << "mutant " << i << (resealed ? " resealed" : "")
                      << ": expected a restore or a ModelError, got: " << e.what();
        fleet.adopt_checkpoint(before);
      }
    }
  }
  // The corpus reaches past the checksum: some resealed mutants restore.
  EXPECT_GT(restored, 0u);
}

}  // namespace
}  // namespace recoverd::sim
