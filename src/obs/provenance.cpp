#include "obs/provenance.hpp"

#include <fstream>
#include <mutex>
#include <utility>

#include "obs/json.hpp"
#include "util/check.hpp"

namespace recoverd::obs {

namespace detail {
std::atomic<bool> g_provenance_enabled{false};
}

namespace {

struct ProvenanceSink {
  std::mutex mutex;
  std::ofstream stream;
  std::uint64_t next_sequence = 0;
};

ProvenanceSink& sink() {
  static ProvenanceSink* instance = new ProvenanceSink();  // never destroyed
  return *instance;
}

}  // namespace

std::string provenance_to_json(const DecisionProvenance& record) {
  Json::Object obj;
  obj["schema"] = Json(std::string("recoverd.provenance.v1"));
  obj["sequence"] = Json(record.sequence);
  obj["controller"] = Json(record.controller);
  obj["chosen_action"] = Json(record.chosen_action);
  obj["terminate"] = Json(record.terminate);
  obj["stage"] = Json(record.stage);
  obj["configured_depth"] = Json(record.configured_depth);
  obj["achieved_depth"] = Json(record.achieved_depth);
  obj["decide_ms"] = Json(record.decide_ms);
  obj["bound_generation"] = Json(record.bound_generation);
  obj["bound_size"] = Json(record.bound_size);
  // Anytime fields only appear when the feature did work, so records from
  // builds/runs without --anytime stay byte-identical.
  if (record.anytime_backups > 0 || record.anytime_added > 0) {
    obj["anytime_backups"] = Json(record.anytime_backups);
    obj["anytime_added"] = Json(record.anytime_added);
  }

  Json::Object expansion;
  expansion["nodes"] = Json(record.expansion.nodes);
  expansion["leaf_evaluations"] = Json(record.expansion.leaf_evaluations);
  expansion["memo_hits"] = Json(record.expansion.memo_hits);
  expansion["memo_misses"] = Json(record.expansion.memo_misses);
  expansion["memo_insertions"] = Json(record.expansion.memo_insertions);
  Json::Array levels;
  for (std::uint64_t n : record.expansion.nodes_per_level) levels.emplace_back(n);
  expansion["nodes_per_level"] = Json(std::move(levels));
  obj["expansion"] = Json(std::move(expansion));

  Json::Array actions;
  for (const ActionProvenance& a : record.actions) {
    Json::Object entry;
    entry["action"] = Json(static_cast<std::uint64_t>(a.action));
    entry["lower"] = Json(a.lower);
    if (a.has_upper) entry["upper"] = Json(a.upper);
    if (a.pruned) entry["pruned"] = Json(true);
    actions.emplace_back(std::move(entry));
  }
  obj["actions"] = Json(std::move(actions));
  return Json(std::move(obj)).dump();
}

DecisionProvenance provenance_from_json(const std::string& line) {
  Json doc;
  try {
    doc = Json::parse(line);
  } catch (const std::exception& e) {
    throw ModelError(std::string("provenance line is not valid JSON: ") + e.what());
  }
  if (!doc.is_object() || !doc.contains("schema") ||
      doc.at("schema").as_string() != "recoverd.provenance.v1") {
    throw ModelError("provenance line is missing schema 'recoverd.provenance.v1'");
  }
  DecisionProvenance record;
  record.sequence = static_cast<std::uint64_t>(doc.at("sequence").as_number());
  record.controller = doc.at("controller").as_string();
  record.chosen_action =
      static_cast<std::int64_t>(doc.at("chosen_action").as_number());
  record.terminate = doc.at("terminate").as_bool();
  record.stage = doc.at("stage").as_string();
  record.configured_depth =
      static_cast<int>(doc.at("configured_depth").as_number());
  record.achieved_depth = static_cast<int>(doc.at("achieved_depth").as_number());
  record.decide_ms = doc.at("decide_ms").as_number();
  record.bound_generation =
      static_cast<std::uint64_t>(doc.at("bound_generation").as_number());
  record.bound_size = static_cast<std::uint64_t>(doc.at("bound_size").as_number());
  if (doc.contains("anytime_backups")) {
    record.anytime_backups =
        static_cast<std::uint64_t>(doc.at("anytime_backups").as_number());
    record.anytime_added =
        static_cast<std::uint64_t>(doc.at("anytime_added").as_number());
  }

  const Json& expansion = doc.at("expansion");
  record.expansion.nodes =
      static_cast<std::uint64_t>(expansion.at("nodes").as_number());
  record.expansion.leaf_evaluations =
      static_cast<std::uint64_t>(expansion.at("leaf_evaluations").as_number());
  record.expansion.memo_hits =
      static_cast<std::uint64_t>(expansion.at("memo_hits").as_number());
  record.expansion.memo_misses =
      static_cast<std::uint64_t>(expansion.at("memo_misses").as_number());
  record.expansion.memo_insertions =
      static_cast<std::uint64_t>(expansion.at("memo_insertions").as_number());
  for (const Json& level : expansion.at("nodes_per_level").as_array()) {
    record.expansion.nodes_per_level.push_back(
        static_cast<std::uint64_t>(level.as_number()));
  }

  for (const Json& entry : doc.at("actions").as_array()) {
    ActionProvenance a;
    a.action = static_cast<std::uint32_t>(entry.at("action").as_number());
    a.lower = entry.at("lower").as_number();
    if (entry.contains("upper")) {
      a.upper = entry.at("upper").as_number();
      a.has_upper = true;
    }
    if (entry.contains("pruned")) a.pruned = entry.at("pruned").as_bool();
    record.actions.push_back(a);
  }
  return record;
}

void open_provenance(const std::string& path) {
  ProvenanceSink& s = sink();
  std::lock_guard<std::mutex> lock(s.mutex);
  s.stream.open(path, std::ios::trunc);
  if (!s.stream) {
    throw ModelError("cannot open provenance output file '" + path + "'");
  }
  s.next_sequence = 0;
  detail::g_provenance_enabled.store(true, std::memory_order_relaxed);
}

void emit_provenance(DecisionProvenance record) {
  if (!provenance_enabled()) return;
  ProvenanceSink& s = sink();
  std::lock_guard<std::mutex> lock(s.mutex);
  if (!s.stream.is_open()) return;
  record.sequence = s.next_sequence++;
  s.stream << provenance_to_json(record) << '\n';
}

void close_provenance() {
  ProvenanceSink& s = sink();
  std::lock_guard<std::mutex> lock(s.mutex);
  detail::g_provenance_enabled.store(false, std::memory_order_relaxed);
  if (s.stream.is_open()) {
    s.stream.flush();
    s.stream.close();
  }
}

}  // namespace recoverd::obs
