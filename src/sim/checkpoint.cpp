#include "sim/checkpoint.hpp"

#include <array>
#include <string>

#include "util/check.hpp"
#include "util/framed_file.hpp"
#include "util/hash.hpp"

namespace recoverd::sim {

namespace {

using util::bits_of;
using util::mix_in;

constexpr std::uint64_t kMagic = 0x314b43544c464452ULL;  // "RDFLTCK1" LE
constexpr std::size_t kHeaderBytes = 8 + 4 + 8;           // magic+version+len
// Bytes each session stores beside its belief row (see emit_payload): slot
// rng, environment snapshot and the four per-slot u64 arrays; chaos adds an
// rng, the guard a ladder byte, two u64s and a GuardRuntime::State.
constexpr std::size_t kSessionBytes = 32 + 72 + 4 * 8;
constexpr std::size_t kChaosSessionBytes = 32;
constexpr std::size_t kGuardSessionBytes = 1 + 2 * 8 + 26;

using RngState = std::array<std::uint64_t, 4>;
static_assert(sizeof(RngState) == 32, "an RNG state is four u64 words");

std::uint64_t hash_sparse(std::uint64_t h, const linalg::SparseMatrix& m) {
  h = mix_in(h, m.rows());
  h = mix_in(h, m.cols());
  for (std::size_t r = 0; r < m.rows(); ++r) {
    for (const linalg::SparseEntry& e : m.row(r)) {
      h = mix_in(h, e.col);
      h = mix_in(h, bits_of(e.value));
    }
  }
  return h;
}

template <class Out>
void put_rng(Out& out, const RngState& s) {
  out.raw(s.data(), sizeof(s));
}

RngState get_rng(util::FramedFileReader& in, const char* what) {
  return {in.u64(what), in.u64(what), in.u64(what), in.u64(what)};
}

// One template for both passes of a save: a util::ByteCounter sizes the
// payload for the header, then the util::FramedFileWriter streams it. The
// belief block and the per-slot u64 arrays go out straight from `cp`.
template <class Out>
void emit_payload(Out& out, const FleetCheckpoint& cp) {
  const bool has_guard = !cp.ladder_stage.empty();
  out.u64(cp.model_hash);
  out.u64(cp.options_hash);
  out.u64(cp.bound_artifact_hash);
  out.u64(cp.seed);
  out.u64(cp.tick);
  out.u64(cp.sessions);
  out.u64(cp.num_states);
  out.u64(cp.num_actions);
  out.u64(cp.num_observations);
  out.u64(cp.stats.size());
  out.raw(cp.stats.data(), cp.stats.size() * 8);
  out.u8(cp.chaos_rng.empty() ? 0 : 1);
  out.u8(has_guard ? 1 : 0);
  for (const auto& s : cp.slot_rng) put_rng(out, s);
  for (const Environment::Snapshot& env : cp.envs) {
    out.u64(env.state);
    out.f64(env.elapsed);
    out.f64(env.cost);
    out.f64(env.recovery_entered);
    out.u64(env.steps);
    put_rng(out, env.rng);
  }
  for (const auto& s : cp.chaos_rng) put_rng(out, s);
  out.raw(cp.beliefs.data(), cp.beliefs.size() * sizeof(double));
  out.raw(cp.episode_steps.data(), cp.episode_steps.size() * 8);
  out.raw(cp.last_actions.data(), cp.last_actions.size() * 8);
  out.raw(cp.pending_action.data(), cp.pending_action.size() * 8);
  out.raw(cp.pending_obs.data(), cp.pending_obs.size() * 8);
  if (has_guard) {
    out.raw(cp.ladder_stage.data(), cp.ladder_stage.size());
    out.raw(cp.clean_streak.data(), cp.clean_streak.size() * 8);
    out.raw(cp.ticks_since_fresh.data(), cp.ticks_since_fresh.size() * 8);
    for (const controller::GuardRuntime::State& g : cp.guard_state) {
      out.u8(g.escalated ? 1 : 0);
      out.u64(static_cast<std::uint64_t>(static_cast<std::int64_t>(g.consecutive_overruns)));
      out.u64(g.stalled_decides);
      out.u8(g.has_best_bound ? 1 : 0);
      out.f64(g.best_bound);
    }
  }
}

}  // namespace

std::uint64_t hash_pomdp(const Pomdp& model) {
  std::uint64_t h = 0x5245434f56455244ULL;  // "RECOVERD"
  const Mdp& mdp = model.mdp();
  h = mix_in(h, model.num_states());
  h = mix_in(h, model.num_actions());
  h = mix_in(h, model.num_observations());
  h = mix_in(h, model.terminate_action());
  h = mix_in(h, model.terminate_state());
  for (StateId s = 0; s < model.num_states(); ++s) {
    h = mix_in(h, mdp.is_goal(s) ? 1 : 0);
  }
  for (ActionId a = 0; a < model.num_actions(); ++a) {
    h = mix_in(h, bits_of(mdp.duration(a)));
    for (const double r : mdp.rewards(a)) h = mix_in(h, bits_of(r));
    h = hash_sparse(h, mdp.transition(a));
    h = hash_sparse(h, model.observation(a));
  }
  return h;
}

void write_fleet_checkpoint(const std::string& path, const FleetCheckpoint& cp) {
  const std::uint64_t n = cp.sessions;
  RD_EXPECTS(cp.slot_rng.size() == n && cp.envs.size() == n &&
                 cp.episode_steps.size() == n && cp.last_actions.size() == n &&
                 cp.pending_action.size() == n && cp.pending_obs.size() == n &&
                 cp.beliefs.size() == n * cp.num_states,
             "write_fleet_checkpoint: per-slot arrays must match `sessions`");
  RD_EXPECTS(cp.chaos_rng.empty() || cp.chaos_rng.size() == n,
             "write_fleet_checkpoint: chaos_rng must be empty or per-slot");
  const bool has_guard = !cp.ladder_stage.empty();
  RD_EXPECTS(!has_guard ||
                 (cp.ladder_stage.size() == n && cp.clean_streak.size() == n &&
                  cp.ticks_since_fresh.size() == n && cp.guard_state.size() == n),
             "write_fleet_checkpoint: guard arrays must be empty or per-slot");

  util::ByteCounter payload(kHeaderBytes);
  emit_payload(payload, cp);
  // The CRC covers everything after the magic (version + length + payload),
  // so a flipped bit anywhere in the meaningful bytes is caught.
  util::FramedFileWriter file(path, "fleet checkpoint", kMagic);
  file.u32(kFleetCheckpointVersion);
  file.u64(payload.position() - kHeaderBytes);
  emit_payload(file, cp);
  file.commit();
}

FleetCheckpoint read_fleet_checkpoint(const std::string& path) {
  util::FramedFileReader r(path, "fleet checkpoint", "restore from an intact checkpoint",
                           kMagic, kHeaderBytes);
  const std::uint32_t version = r.u32("version");
  if (version != kFleetCheckpointVersion) {
    r.fail("unsupported version " + std::to_string(version) + " (this build reads "
           "version " + std::to_string(kFleetCheckpointVersion) + ") — re-save the "
           "checkpoint with this build");
  }
  r.check_frame(r.u64("payload length"));

  FleetCheckpoint cp;
  cp.model_hash = r.u64("model hash");
  cp.options_hash = r.u64("options hash");
  cp.bound_artifact_hash = r.u64("bound artifact hash");
  cp.seed = r.u64("seed");
  cp.tick = r.u64("tick");
  cp.sessions = r.u64("sessions");
  cp.num_states = r.u64("num_states");
  cp.num_actions = r.u64("num_actions");
  cp.num_observations = r.u64("num_observations");
  const std::uint64_t num_stats = r.u64("stats count");
  if (num_stats > 1024) {
    r.fail("implausible stats count " + std::to_string(num_stats) +
           " — the file is corrupted");
  }
  cp.stats = r.array<std::uint64_t>(num_stats, "stats");
  const bool has_chaos = r.u8("chaos flag") != 0;
  const bool has_guard = r.u8("guard flag") != 0;

  const std::uint64_t n = cp.sessions;
  // A corrupted sessions/num_states field would make the reads below demand
  // absurd byte counts: bound both by the bytes left before allocating.
  if (n == 0 || cp.num_states == 0) {
    r.fail("empty fleet dimensions — the file is corrupted");
  }
  r.need_array(n,
               kSessionBytes + (has_chaos ? kChaosSessionBytes : 0) +
                   (has_guard ? kGuardSessionBytes : 0),
               "session");
  r.need_array(cp.num_states, n * sizeof(double), "belief state");
  cp.slot_rng = r.array<RngState>(n, "slot rng");
  cp.envs.resize(n);
  for (Environment::Snapshot& env : cp.envs) {
    env.state = static_cast<StateId>(r.u64("env state"));
    env.elapsed = r.f64("env elapsed");
    env.cost = r.f64("env cost");
    env.recovery_entered = r.f64("env recovery time");
    env.steps = r.u64("env steps");
    env.rng = get_rng(r, "env rng");
  }
  if (has_chaos) cp.chaos_rng = r.array<RngState>(n, "chaos rng");
  cp.beliefs = r.array<double>(n * cp.num_states, "beliefs");
  cp.episode_steps = r.array<std::uint64_t>(n, "episode steps");
  cp.last_actions = r.array<std::uint64_t>(n, "last actions");
  cp.pending_action = r.array<std::uint64_t>(n, "pending actions");
  cp.pending_obs = r.array<std::uint64_t>(n, "pending observations");
  if (has_guard) {
    cp.ladder_stage = r.array<std::uint8_t>(n, "ladder stages");
    cp.clean_streak = r.array<std::uint64_t>(n, "clean streak");
    cp.ticks_since_fresh = r.array<std::uint64_t>(n, "staleness");
    cp.guard_state.resize(n);
    for (controller::GuardRuntime::State& g : cp.guard_state) {
      g.escalated = r.u8("guard escalated") != 0;
      g.consecutive_overruns = static_cast<std::int32_t>(
          static_cast<std::int64_t>(r.u64("guard overruns")));
      g.stalled_decides = r.u64("guard stalls");
      g.has_best_bound = r.u8("guard best flag") != 0;
      g.best_bound = r.f64("guard best bound");
    }
  }
  r.expect_end();
  return cp;
}

}  // namespace recoverd::sim
