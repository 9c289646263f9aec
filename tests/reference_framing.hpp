// Frozen copies of the buffered bound-artifact and fleet-checkpoint writers
// that predate the streaming util::FramedFileWriter (DESIGN.md §15). Each
// builds the whole file image in memory the way the library used to: a
// payload buffer first, then a second buffer holding header + payload +
// CRC-64. The parity suites require every streamed file to equal these
// images byte for byte, so the formats cannot drift while the write path
// changes. Only the file I/O (tmp + fsync + rename) is left out: the image
// is what the old code handed to fwrite.
// Do not "modernise" this file; its value is that it never changes.
#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "bounds/artifact.hpp"
#include "bounds/ra_bound.hpp"
#include "sim/checkpoint.hpp"
#include "util/crc64.hpp"

namespace recoverd::testref {

struct BufferWriter {
  std::vector<unsigned char> bytes;

  void raw(const void* data, std::size_t n) {
    const auto* p = static_cast<const unsigned char*>(data);
    bytes.insert(bytes.end(), p, p + n);
  }
  void u8(std::uint8_t v) { raw(&v, 1); }
  void u32(std::uint32_t v) { raw(&v, 4); }
  void u64(std::uint64_t v) { raw(&v, 8); }
  void f64(double v) { raw(&v, 8); }
  void pad8() {
    static const unsigned char zeros[8] = {};
    raw(zeros, (8 - bytes.size() % 8) % 8);
  }
  void u32_array(const std::uint32_t* data, std::size_t count) {
    raw(data, count * 4);
    pad8();
  }
  void rng(const std::array<std::uint64_t, 4>& s) {
    for (const std::uint64_t word : s) u64(word);
  }
};

/// The bytes save_bound_artifact wrote for (chain, set, model_hash).
inline std::vector<unsigned char> reference_bound_artifact_bytes(
    const bounds::RandomActionChain& chain, const bounds::BoundSet& set,
    std::uint64_t model_hash) {
  const std::size_t n = chain.num_states();
  const linalg::SolvePlan& plan = chain.plan;
  const bounds::BoundSet::Snapshot snap = set.snapshot();

  BufferWriter payload;
  payload.u64(model_hash);
  payload.u64(n);
  payload.u64(chain.num_actions);

  payload.u64(chain.q.cols());
  payload.u64(chain.q.rows());
  payload.u64(chain.q.nonzeros());
  payload.raw(chain.q.row_offsets().data(), (chain.q.rows() + 1) * 8);
  payload.raw(chain.q.entry_array().data(),
              chain.q.nonzeros() * sizeof(linalg::SparseEntry));

  payload.raw(chain.c.data(), n * 8);

  payload.u64(plan.num_components);
  payload.u64(plan.num_singletons);
  payload.u64(plan.largest_component);
  payload.u32_array(plan.component.data(), plan.component.size());
  payload.u32_array(plan.members.data(), plan.members.size());
  payload.raw(plan.component_ptr.data(), plan.component_ptr.size() * 8);
  payload.u32_array(plan.level_of.data(), plan.level_of.size());
  payload.u64(plan.level_components.size());
  payload.u32_array(plan.level_components.data(), plan.level_components.size());
  payload.u64(plan.level_ptr.size());
  payload.raw(plan.level_ptr.data(), plan.level_ptr.size() * 8);

  payload.u64(snap.dimension);
  payload.u64(snap.capacity);
  payload.u64(snap.generation);
  payload.u8(snap.first_added ? 1 : 0);
  payload.pad8();
  payload.u64(snap.planes.size());
  for (const bounds::BoundSet::Snapshot::Plane& p : snap.planes) {
    payload.u8(p.is_protected ? 1 : 0);
  }
  payload.pad8();
  for (const bounds::BoundSet::Snapshot::Plane& p : snap.planes) payload.u64(p.uses);
  for (const bounds::BoundSet::Snapshot::Plane& p : snap.planes) {
    payload.raw(p.vector.data(), p.vector.size() * 8);
  }

  BufferWriter file;
  file.u64(0x315241444e424452ULL);  // "RDBNDAR1" LE
  file.u32(bounds::kBoundArtifactVersion);
  file.u32(0);  // reserved: 8-aligns the payload
  file.u64(payload.bytes.size());
  file.raw(payload.bytes.data(), payload.bytes.size());
  const std::uint64_t crc = util::crc64(file.bytes.data() + 8, file.bytes.size() - 8);
  file.u64(crc);
  return file.bytes;
}

/// The bytes write_fleet_checkpoint wrote for `cp`.
inline std::vector<unsigned char> reference_fleet_checkpoint_bytes(
    const sim::FleetCheckpoint& cp) {
  const bool has_guard = !cp.ladder_stage.empty();

  BufferWriter payload;
  payload.u64(cp.model_hash);
  payload.u64(cp.options_hash);
  payload.u64(cp.bound_artifact_hash);
  payload.u64(cp.seed);
  payload.u64(cp.tick);
  payload.u64(cp.sessions);
  payload.u64(cp.num_states);
  payload.u64(cp.num_actions);
  payload.u64(cp.num_observations);
  payload.u64(cp.stats.size());
  for (const std::uint64_t v : cp.stats) payload.u64(v);
  payload.u8(cp.chaos_rng.empty() ? 0 : 1);
  payload.u8(has_guard ? 1 : 0);
  for (const auto& s : cp.slot_rng) payload.rng(s);
  for (const sim::Environment::Snapshot& env : cp.envs) {
    payload.u64(env.state);
    payload.f64(env.elapsed);
    payload.f64(env.cost);
    payload.f64(env.recovery_entered);
    payload.u64(env.steps);
    payload.rng(env.rng);
  }
  for (const auto& s : cp.chaos_rng) payload.rng(s);
  payload.raw(cp.beliefs.data(), cp.beliefs.size() * sizeof(double));
  for (const std::uint64_t v : cp.episode_steps) payload.u64(v);
  for (const std::uint64_t v : cp.last_actions) payload.u64(v);
  for (const std::uint64_t v : cp.pending_action) payload.u64(v);
  for (const std::uint64_t v : cp.pending_obs) payload.u64(v);
  if (has_guard) {
    payload.raw(cp.ladder_stage.data(), cp.ladder_stage.size());
    for (const std::uint64_t v : cp.clean_streak) payload.u64(v);
    for (const std::uint64_t v : cp.ticks_since_fresh) payload.u64(v);
    for (const controller::GuardRuntime::State& g : cp.guard_state) {
      payload.u8(g.escalated ? 1 : 0);
      payload.u64(static_cast<std::uint64_t>(
          static_cast<std::int64_t>(g.consecutive_overruns)));
      payload.u64(g.stalled_decides);
      payload.u8(g.has_best_bound ? 1 : 0);
      payload.f64(g.best_bound);
    }
  }

  BufferWriter file;
  file.u64(0x314b43544c464452ULL);  // "RDFLTCK1" LE
  file.u32(sim::kFleetCheckpointVersion);
  file.u64(payload.bytes.size());
  file.raw(payload.bytes.data(), payload.bytes.size());
  file.u64(util::crc64(file.bytes.data() + 8, file.bytes.size() - 8));
  return file.bytes;
}

}  // namespace recoverd::testref
