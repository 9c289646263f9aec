#include "sim/checkpoint.hpp"

#include <cstdio>
#include <cstring>
#include <string>

#include "util/check.hpp"
#include "util/crc64.hpp"
#include "util/framed_file.hpp"
#include "util/hash.hpp"

namespace recoverd::sim {

namespace {

using util::bits_of;
using util::crc64;
using util::mix_in;

constexpr std::uint64_t kMagic = 0x314b43544c464452ULL;  // "RDFLTCK1" LE
constexpr std::size_t kHeaderBytes = 8 + 4 + 8;           // magic+version+len
// Bytes each session stores beside its belief row (see emit_payload): slot
// rng, environment snapshot and the four per-slot u64 arrays; chaos adds an
// rng, the guard a ladder byte, two u64s and a GuardRuntime::State.
constexpr std::size_t kSessionBytes = 32 + 72 + 4 * 8;
constexpr std::size_t kChaosSessionBytes = 32;
constexpr std::size_t kGuardSessionBytes = 1 + 2 * 8 + 26;

// ---- payload emitter and reader -----------------------------------------

[[noreturn]] void fail(const std::string& path, const std::string& why) {
  throw ModelError("fleet checkpoint '" + path + "': " + why);
}

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
                     "short; restore from an intact checkpoint");
    }
  }
  /// Overflow-safe guard for count×elem_size reads: a corrupted count field
  /// fails here, before anything is allocated, instead of in reserve().
  void need_array(std::uint64_t count, std::size_t elem_size, const char* what) {
    if (count > (size - pos) / elem_size) {
      fail(path, std::string("implausible ") + what + " count " +
                     std::to_string(count) + " (would need " + std::to_string(count) +
                     "×" + std::to_string(elem_size) + " bytes, file has " +
                     std::to_string(size - pos) + " left) — the file is corrupted");
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
  double f64(const char* what) {
    need(8, what);
    double v;
    std::memcpy(&v, data + pos, 8);
    pos += 8;
    return v;
  }
  std::array<std::uint64_t, 4> rng(const char* what) {
    return {u64(what), u64(what), u64(what), u64(what)};
  }
};

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
void put_rng(Out& out, const std::array<std::uint64_t, 4>& s) {
  out.raw(s.data(), sizeof(s));
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
  std::FILE* in = std::fopen(path.c_str(), "rb");
  if (in == nullptr) {
    fail(path, "cannot open — no checkpoint at this path (nothing to restore)");
  }
  std::vector<unsigned char> bytes;
  unsigned char chunk[1 << 16];
  for (;;) {
    const std::size_t got = std::fread(chunk, 1, sizeof(chunk), in);
    bytes.insert(bytes.end(), chunk, chunk + got);
    if (got < sizeof(chunk)) break;
  }
  std::fclose(in);

  if (bytes.size() < kHeaderBytes + 8) {
    fail(path, "truncated header (" + std::to_string(bytes.size()) + " bytes, need at "
               "least " + std::to_string(kHeaderBytes + 8) + ") — the file was cut "
               "short; restore from an intact checkpoint");
  }
  Reader r{path, bytes.data(), bytes.size()};
  const std::uint64_t magic = r.u64("magic");
  if (magic != kMagic) {
    fail(path, "not a recoverd fleet checkpoint (bad magic) — was this file written "
               "by write_fleet_checkpoint?");
  }
  const std::uint32_t version = r.u32("version");
  if (version != kFleetCheckpointVersion) {
    fail(path, "unsupported version " + std::to_string(version) + " (this build reads "
               "version " + std::to_string(kFleetCheckpointVersion) + ") — re-save "
               "the checkpoint with this build");
  }
  const std::uint64_t payload_len = r.u64("payload length");
  if (bytes.size() != kHeaderBytes + payload_len + 8) {
    fail(path, "length mismatch (header says " + std::to_string(payload_len) +
               " payload bytes, file holds " +
               std::to_string(bytes.size() >= kHeaderBytes + 8
                                  ? bytes.size() - kHeaderBytes - 8
                                  : 0) +
               ") — the file was truncated or grew; restore from an intact "
               "checkpoint");
  }
  const std::uint64_t stored_crc = crc64(bytes.data() + 8, bytes.size() - 16);
  std::uint64_t file_crc;
  std::memcpy(&file_crc, bytes.data() + bytes.size() - 8, 8);
  if (stored_crc != file_crc) {
    fail(path, "checksum mismatch (CRC-64 of contents does not match the stored "
               "value) — the file is corrupted (bit flip or partial overwrite); "
               "restore from an intact checkpoint");
  }

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
    fail(path, "implausible stats count " + std::to_string(num_stats) +
               " — the file is corrupted");
  }
  cp.stats.reserve(num_stats);
  for (std::uint64_t i = 0; i < num_stats; ++i) cp.stats.push_back(r.u64("stats"));
  const bool has_chaos = r.u8("chaos flag") != 0;
  const bool has_guard = r.u8("guard flag") != 0;

  const std::uint64_t n = cp.sessions;
  // A corrupted sessions/num_states field would make the loops below demand
  // absurd byte counts: bound both by the bytes left before reserving.
  if (n == 0 || cp.num_states == 0) {
    fail(path, "empty fleet dimensions — the file is corrupted");
  }
  r.need_array(n,
               kSessionBytes + (has_chaos ? kChaosSessionBytes : 0) +
                   (has_guard ? kGuardSessionBytes : 0),
               "session");
  r.need_array(cp.num_states, n * sizeof(double), "belief state");
  cp.slot_rng.reserve(n);
  for (std::uint64_t i = 0; i < n; ++i) cp.slot_rng.push_back(r.rng("slot rng"));
  cp.envs.reserve(n);
  for (std::uint64_t i = 0; i < n; ++i) {
    Environment::Snapshot env;
    env.state = static_cast<StateId>(r.u64("env state"));
    env.elapsed = r.f64("env elapsed");
    env.cost = r.f64("env cost");
    env.recovery_entered = r.f64("env recovery time");
    env.steps = r.u64("env steps");
    env.rng = r.rng("env rng");
    cp.envs.push_back(env);
  }
  if (has_chaos) {
    cp.chaos_rng.reserve(n);
    for (std::uint64_t i = 0; i < n; ++i) cp.chaos_rng.push_back(r.rng("chaos rng"));
  }
  const std::size_t belief_doubles = static_cast<std::size_t>(n * cp.num_states);
  r.need(belief_doubles * sizeof(double), "beliefs");
  cp.beliefs.resize(belief_doubles);
  std::memcpy(cp.beliefs.data(), r.data + r.pos, belief_doubles * sizeof(double));
  r.pos += belief_doubles * sizeof(double);
  cp.episode_steps.reserve(n);
  for (std::uint64_t i = 0; i < n; ++i) cp.episode_steps.push_back(r.u64("episode steps"));
  cp.last_actions.reserve(n);
  for (std::uint64_t i = 0; i < n; ++i) cp.last_actions.push_back(r.u64("last actions"));
  cp.pending_action.reserve(n);
  for (std::uint64_t i = 0; i < n; ++i) cp.pending_action.push_back(r.u64("pending actions"));
  cp.pending_obs.reserve(n);
  for (std::uint64_t i = 0; i < n; ++i) cp.pending_obs.push_back(r.u64("pending observations"));
  if (has_guard) {
    r.need(n, "ladder stages");
    cp.ladder_stage.assign(r.data + r.pos, r.data + r.pos + n);
    r.pos += n;
    cp.clean_streak.reserve(n);
    for (std::uint64_t i = 0; i < n; ++i) cp.clean_streak.push_back(r.u64("clean streak"));
    cp.ticks_since_fresh.reserve(n);
    for (std::uint64_t i = 0; i < n; ++i) {
      cp.ticks_since_fresh.push_back(r.u64("staleness"));
    }
    cp.guard_state.reserve(n);
    for (std::uint64_t i = 0; i < n; ++i) {
      controller::GuardRuntime::State g;
      g.escalated = r.u8("guard escalated") != 0;
      g.consecutive_overruns = static_cast<std::int32_t>(
          static_cast<std::int64_t>(r.u64("guard overruns")));
      g.stalled_decides = r.u64("guard stalls");
      g.has_best_bound = r.u8("guard best flag") != 0;
      g.best_bound = r.f64("guard best bound");
      cp.guard_state.push_back(g);
    }
  }
  if (r.pos != bytes.size() - 8) {
    fail(path, "trailing bytes after payload — the file is corrupted");
  }
  return cp;
}

}  // namespace recoverd::sim
