#include "obs/export.hpp"

#include <fstream>
#include <ostream>
#include <sstream>

#include "obs/json.hpp"
#include "obs/provenance.hpp"
#include "obs/trace.hpp"
#include "util/check.hpp"
#include "util/csv.hpp"
#include "util/logging.hpp"
#include "util/work_pool.hpp"

namespace recoverd::obs {

namespace {
constexpr const char* kSchema = "recoverd.metrics.v1";

Json histogram_to_json(const HistogramSample& h) {
  Json::Object obj;
  Json::Array uppers;
  for (const double u : h.uppers) uppers.emplace_back(u);
  Json::Array counts;
  for (const std::uint64_t c : h.counts) counts.emplace_back(c);
  obj["uppers"] = Json(std::move(uppers));
  obj["counts"] = Json(std::move(counts));
  obj["count"] = Json(h.count);
  obj["sum"] = Json(h.sum);
  obj["min"] = Json(h.min);
  obj["max"] = Json(h.max);
  obj["p50"] = Json(h.p50);
  obj["p90"] = Json(h.p90);
  obj["p99"] = Json(h.p99);
  return Json(std::move(obj));
}
}  // namespace

void write_json(std::ostream& os, const MetricsSnapshot& snapshot) {
  Json::Object root;
  root["schema"] = Json(kSchema);
  Json::Object counters;
  for (const auto& c : snapshot.counters) counters[c.name] = Json(c.value);
  Json::Object gauges;
  for (const auto& g : snapshot.gauges) gauges[g.name] = Json(g.value);
  Json::Object histograms;
  for (const auto& h : snapshot.histograms) histograms[h.name] = histogram_to_json(h);
  root["counters"] = Json(std::move(counters));
  root["gauges"] = Json(std::move(gauges));
  root["histograms"] = Json(std::move(histograms));
  Json(std::move(root)).write(os);
}

MetricsSnapshot read_json_text(const std::string& text) {
  const Json root = Json::parse(text);
  RD_EXPECTS(root.is_object(), "read_json: document must be an object");
  if (!root.contains("schema") || root.at("schema").as_string() != kSchema) {
    throw ModelError("read_json: not a " + std::string(kSchema) + " document");
  }
  MetricsSnapshot snap;
  for (const auto& [name, value] : root.at("counters").as_object()) {
    snap.counters.push_back({name, static_cast<std::uint64_t>(value.as_number())});
  }
  for (const auto& [name, value] : root.at("gauges").as_object()) {
    snap.gauges.push_back({name, value.as_number()});
  }
  for (const auto& [name, value] : root.at("histograms").as_object()) {
    HistogramSample h;
    h.name = name;
    for (const auto& u : value.at("uppers").as_array()) h.uppers.push_back(u.as_number());
    for (const auto& c : value.at("counts").as_array()) {
      h.counts.push_back(static_cast<std::uint64_t>(c.as_number()));
    }
    RD_EXPECTS(h.counts.size() == h.uppers.size() + 1,
               "read_json: histogram '" + name + "' bucket/bound count mismatch");
    h.count = static_cast<std::uint64_t>(value.at("count").as_number());
    h.sum = value.at("sum").as_number();
    h.min = value.at("min").as_number();
    h.max = value.at("max").as_number();
    // Quantiles are recomputed when absent so pre-quantile documents
    // (earlier schema revisions) still round-trip.
    h.p50 = value.contains("p50") ? value.at("p50").as_number()
                                  : histogram_quantile(h, 0.50);
    h.p90 = value.contains("p90") ? value.at("p90").as_number()
                                  : histogram_quantile(h, 0.90);
    h.p99 = value.contains("p99") ? value.at("p99").as_number()
                                  : histogram_quantile(h, 0.99);
    snap.histograms.push_back(std::move(h));
  }
  return snap;
}

void write_csv(std::ostream& os, const MetricsSnapshot& snapshot) {
  CsvWriter csv(os);
  csv.write_row(std::vector<std::string>{"metric", "kind", "field", "value"});
  auto number = [](double v) {
    std::ostringstream tmp;
    tmp.precision(17);
    tmp << v;
    return tmp.str();
  };
  for (const auto& c : snapshot.counters) {
    csv.write_row({c.name, "counter", "value", std::to_string(c.value)});
  }
  for (const auto& g : snapshot.gauges) {
    csv.write_row({g.name, "gauge", "value", number(g.value)});
  }
  for (const auto& h : snapshot.histograms) {
    csv.write_row({h.name, "histogram", "count", std::to_string(h.count)});
    csv.write_row({h.name, "histogram", "sum", number(h.sum)});
    csv.write_row({h.name, "histogram", "min", number(h.min)});
    csv.write_row({h.name, "histogram", "max", number(h.max)});
    csv.write_row({h.name, "histogram", "p50", number(h.p50)});
    csv.write_row({h.name, "histogram", "p90", number(h.p90)});
    csv.write_row({h.name, "histogram", "p99", number(h.p99)});
    for (std::size_t i = 0; i < h.counts.size(); ++i) {
      const std::string bound = i < h.uppers.size() ? number(h.uppers[i]) : "inf";
      csv.write_row({h.name, "histogram", "le_" + bound, std::to_string(h.counts[i])});
    }
  }
}

std::string prometheus_name(const std::string& name) {
  std::string out;
  out.reserve(name.size() + 1);
  for (const char c : name) {
    const bool valid = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                       (c >= '0' && c <= '9') || c == '_';
    out.push_back(valid ? c : '_');
  }
  if (out.empty() || (out[0] >= '0' && out[0] <= '9')) out.insert(out.begin(), '_');
  return out;
}

void write_prometheus(std::ostream& os, const MetricsSnapshot& snapshot) {
  auto number = [](double v) {
    std::ostringstream tmp;
    tmp.precision(17);
    tmp << v;
    return tmp.str();
  };
  for (const auto& c : snapshot.counters) {
    const std::string name = prometheus_name(c.name);
    os << "# TYPE " << name << " counter\n";
    os << name << " " << c.value << "\n";
  }
  for (const auto& g : snapshot.gauges) {
    const std::string name = prometheus_name(g.name);
    os << "# TYPE " << name << " gauge\n";
    os << name << " " << number(g.value) << "\n";
  }
  for (const auto& h : snapshot.histograms) {
    const std::string name = prometheus_name(h.name);
    os << "# TYPE " << name << " histogram\n";
    // Prometheus buckets are cumulative and always end with le="+Inf".
    std::uint64_t cumulative = 0;
    for (std::size_t i = 0; i < h.counts.size(); ++i) {
      cumulative += h.counts[i];
      const std::string le =
          i < h.uppers.size() ? number(h.uppers[i]) : std::string("+Inf");
      os << name << "_bucket{le=\"" << le << "\"} " << cumulative << "\n";
    }
    os << name << "_sum " << number(h.sum) << "\n";
    os << name << "_count " << h.count << "\n";
    // Quantile estimates ride along as a summary-style companion series so
    // dashboards get p50/p90/p99 without running histogram_quantile() in
    // PromQL.
    os << "# TYPE " << name << "_quantile gauge\n";
    os << name << "_quantile{quantile=\"0.5\"} " << number(h.p50) << "\n";
    os << name << "_quantile{quantile=\"0.9\"} " << number(h.p90) << "\n";
    os << name << "_quantile{quantile=\"0.99\"} " << number(h.p99) << "\n";
  }
}

void write_metrics_file(const std::string& path, const MetricsSnapshot& snapshot) {
  std::ofstream out(path);
  if (!out) throw ModelError("write_metrics_file: cannot open '" + path + "'");
  auto has_extension = [&path](const char* ext) {
    const std::size_t len = std::string(ext).size();
    return path.size() >= len && path.compare(path.size() - len, len, ext) == 0;
  };
  if (has_extension(".csv")) {
    write_csv(out, snapshot);
  } else if (has_extension(".prom")) {
    write_prometheus(out, snapshot);
  } else {
    write_json(out, snapshot);
    out << '\n';
  }
  if (!out.good()) throw ModelError("write_metrics_file: write to '" + path + "' failed");
}

void publish_work_pool_metrics(MetricsRegistry& registry) {
  // util sits below obs in the layer graph, so the shared WorkPool cannot
  // report into the registry itself; the exporter mirrors its cumulative
  // tallies into gauges whenever a snapshot is about to be taken.
  const util::WorkPool::Stats s = util::WorkPool::instance().stats();
  registry.gauge("pool.dispatches").set(static_cast<double>(s.dispatches));
  registry.gauge("pool.tasks").set(static_cast<double>(s.tasks));
  registry.gauge("pool.inline_tasks").set(static_cast<double>(s.inline_tasks));
  registry.gauge("pool.spawns_avoided").set(static_cast<double>(s.spawns_avoided));
  registry.gauge("pool.threads_created").set(static_cast<double>(s.threads_created));
  registry.gauge("pool.threads_live").set(static_cast<double>(s.threads_live));
}

bool dump_metrics_if_requested(const CliArgs& args, MetricsRegistry& registry) {
  const std::string path = args.get_string("metrics-out", "");
  if (path.empty()) return false;
  publish_work_pool_metrics(registry);
  write_metrics_file(path, registry.snapshot());
  log_info("metrics snapshot written to ", path);
  return true;
}

std::vector<std::string> obs_flag_names() {
  return {"metrics-out", "trace-out", "trace-level", "provenance-out"};
}

void init_observability(const CliArgs& args) {
  const std::string trace_out = args.get_string("trace-out", "");
  const std::string level_name = args.get_string("trace-level", "");
  if (!trace_out.empty()) {
    // --trace-out without an explicit level records everything: the flag
    // is only passed when someone wants to look at the trace.
    const TraceLevel level =
        level_name.empty() ? TraceLevel::Full : parse_trace_level(level_name);
    enable_tracing(level);
  } else if (!level_name.empty() && parse_trace_level(level_name) != TraceLevel::Off) {
    throw PreconditionError("--trace-level requires --trace-out");
  }
  const std::string provenance_out = args.get_string("provenance-out", "");
  if (!provenance_out.empty()) open_provenance(provenance_out);
}

void finish_observability(const CliArgs& args, MetricsRegistry& registry) {
  const std::string trace_out = args.get_string("trace-out", "");
  if (!trace_out.empty()) {
    write_trace_file(trace_out);
    log_info("span trace written to ", trace_out);
  }
  if (provenance_enabled()) {
    close_provenance();
    log_info("provenance records written to ", args.get_string("provenance-out", ""));
  }
  dump_metrics_if_requested(args, registry);
}

}  // namespace recoverd::obs
