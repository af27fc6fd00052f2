#include "obs/export.h"

#include "common/check.h"

namespace defa::obs {

namespace {

api::Json process_name_event(int pid, const std::string& name) {
  api::Json meta = api::Json::object();
  meta["name"] = "process_name";
  meta["ph"] = "M";
  meta["pid"] = pid;
  meta["tid"] = 0;
  api::Json args = api::Json::object();
  args["name"] = name;
  meta["args"] = std::move(args);
  return meta;
}

}  // namespace

api::Json trace_events_json(const std::vector<Span>& spans, int pid,
                            const std::string& process_name) {
  api::Json events = api::Json::array();
  events.push_back(process_name_event(pid, process_name));
  for (const Span& span : spans) {
    api::Json e = api::Json::object();
    e["name"] = span.name;
    e["cat"] = span.cat;
    if (span.is_instant()) {
      e["ph"] = "i";
      e["s"] = "t";  // thread-scoped instant
    } else {
      e["ph"] = "X";
      e["dur"] = static_cast<double>(span.dur_us);
    }
    e["ts"] = static_cast<double>(span.ts_us);
    e["pid"] = pid;
    e["tid"] = static_cast<double>(span.tid);
    api::Json args = api::Json::object();
    if (span.trace_id != 0) args["trace_id"] = trace_id_to_hex(span.trace_id);
    for (const auto& [key, value] : span.args) args[key] = value;
    e["args"] = std::move(args);
    events.push_back(std::move(e));
  }
  return events;
}

api::Json merge_trace_processes(const std::vector<TraceProcess>& processes) {
  api::Json merged = api::Json::array();
  for (const TraceProcess& process : processes) {
    const api::Json* events = &process.events;
    if (events->is_object()) events = &events->at("traceEvents");
    DEFA_CHECK(events->is_array(), "trace merge input for '" + process.name +
                                       "' is not a traceEvents array");
    bool named = false;
    for (const api::Json& e : events->items()) {
      api::Json copy = e;
      copy["pid"] = process.pid;  // this process's lane
      if (e.contains("ph") && e.at("ph").as_string() == "M" &&
          e.at("name").as_string() == "process_name") {
        if (named) continue;  // one naming event per lane
        named = true;
        copy = process_name_event(process.pid, process.name);
      }
      merged.push_back(std::move(copy));
    }
    if (!named) {
      merged.push_back(process_name_event(process.pid, process.name));
    }
  }
  return trace_document(std::move(merged));
}

api::Json trace_document(api::Json trace_events) {
  DEFA_CHECK(trace_events.is_array(), "traceEvents must be an array");
  api::Json doc = api::Json::object();
  doc["displayTimeUnit"] = "ms";
  doc["traceEvents"] = std::move(trace_events);
  return doc;
}

void write_trace_file(const std::string& path, const api::Json& doc) {
  api::write_json_file(path, doc);
}

}  // namespace defa::obs
