#include "dataflow/render.h"

#include <set>

#include "util/strings.h"

namespace sl::dataflow {

namespace {

struct Renderer {
  const Dataflow& dataflow;
  const std::map<std::string, stt::SchemaPtr>* schemas;
  const std::map<std::string, NodeAnnotation>* annotations;
  std::set<std::string> expanded;
  std::string out;

  std::string Label(const Node& node) const {
    switch (node.kind) {
      case NodeKind::kSource:
        if (node.by_query) {
          return StrFormat("[source %s <- %s]", node.name.c_str(),
                           node.source_query.ToString().c_str());
        }
        return StrFormat("[source %s <- sensor %s]", node.name.c_str(),
                         node.sensor_id.c_str());
      case NodeKind::kOperator:
        return StrFormat("(%s: %s)", node.name.c_str(),
                         SpecToString(node.op, node.spec).c_str());
      case NodeKind::kSink:
        return StrFormat("[sink %s -> %s%s%s]", node.name.c_str(),
                         SinkKindToString(node.sink),
                         node.sink_target.empty() ? "" : " ",
                         node.sink_target.c_str());
    }
    return "?";
  }

  std::string Annotation(const std::string& name) const {
    std::string extra;
    if (annotations != nullptr) {
      auto it = annotations->find(name);
      if (it != annotations->end()) {
        const NodeAnnotation& a = it->second;
        extra += "  @" + (a.node_id.empty() ? "?" : a.node_id);
        if (a.in_per_sec >= 0) {
          extra += StrFormat("  %.1f->%.1f t/s", a.in_per_sec, a.out_per_sec);
        }
        if (a.cache_size > 0) {
          extra += StrFormat("  cache=%zu", a.cache_size);
        }
        if (a.trigger_fires > 0) {
          extra += StrFormat("  fires=%llu",
                             static_cast<unsigned long long>(a.trigger_fires));
        }
      }
    }
    if (schemas != nullptr) {
      auto it = schemas->find(name);
      if (it != schemas->end()) {
        extra += '\n';
        extra.append(8, ' ');
        extra += ": ";
        extra += it->second->ToString();
      }
    }
    return extra;
  }

  void Render(const std::string& name, int depth) {
    const Node& node = **dataflow.node(name);
    out += std::string(static_cast<size_t>(depth) * 2, ' ');
    bool repeat = !expanded.insert(name).second;
    if (repeat) {
      out += "^ " + node.name + "\n";
      return;
    }
    out += Label(node);
    out += Annotation(name);
    out += "\n";
    for (const auto& consumer : dataflow.Downstream(name)) {
      Render(consumer, depth + 1);
    }
  }

  std::string Run() {
    out = "canvas '" + dataflow.name() + "'\n";
    for (const auto& source : dataflow.SourceNames()) {
      Render(source, 1);
    }
    return out;
  }
};

}  // namespace

std::string RenderCanvas(
    const Dataflow& dataflow,
    const std::map<std::string, stt::SchemaPtr>* schemas) {
  Renderer renderer{dataflow, schemas, nullptr, {}, {}};
  return renderer.Run();
}

std::string RenderLiveCanvas(
    const Dataflow& dataflow,
    const std::map<std::string, NodeAnnotation>& annotations) {
  Renderer renderer{dataflow, nullptr, &annotations, {}, {}};
  return renderer.Run();
}

}  // namespace sl::dataflow
