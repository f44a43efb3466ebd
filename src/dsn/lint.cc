#include "dsn/lint.h"

#include <optional>

#include "dataflow/validate.h"
#include "dsn/parser.h"
#include "dsn/translate.h"

namespace sl::dsn {

namespace {

/// Re-anchors `diag` (whose span is relative to `diag.source`, an
/// expression or spec string) into the DSN document: finds the property
/// of the owning service whose value content equals that source text and
/// offsets the span by the property's document position. Falls back to
/// the whole property value, then to the service name, then to leaving
/// the diagnostic expression-relative (escaped strings shift offsets, so
/// the mapping is verified byte-for-byte before being trusted).
void Anchor(const DsnSpec& spec, const std::string& doc,
            diag::Diagnostic* diag) {
  // A dataflow-global finding, or one on a synthetic node, has no
  // service to anchor on.
  auto found = spec.FindService(diag->node);
  if (!found.ok()) return;
  const DsnService* service = *found;
  if (!diag->source.empty()) {
    for (const auto& [key, span] : service->property_spans) {
      if (!span.valid() || span.end > doc.size()) continue;
      if (doc.compare(span.begin, span.size(), diag->source) != 0) continue;
      diag->span = diag->span.valid() && diag->span.end <= diag->source.size()
                       ? diag->span.Offset(span.begin)
                       : span;
      diag->source = doc;
      return;
    }
  }
  if (service->name_span.valid()) {
    diag->span = service->name_span;
    diag->source = doc;
  }
}

/// SL2011 on partition properties declared for a non-blocking service.
/// This must run before lifting: TranslateFromDsn drops properties the
/// service kind does not consume, so the validator never sees them.
void LintPartitionProperties(const DsnSpec& spec, const std::string& doc,
                             std::vector<diag::Diagnostic>* diags) {
  for (const auto& service : spec.services) {
    auto kind = dataflow::OpKindFromString(service.kind);
    bool blocking = kind.ok() && dataflow::IsBlocking(*kind);
    if (blocking) continue;
    for (const char* key : {"partition_by", "parallelism"}) {
      if (!service.Has(key)) continue;
      diag::Diagnostic d = diag::MakeDiag(
          diag::Code::kBadPartition, service.name,
          std::string(key) + " is only meaningful on a blocking operation "
          "(AGGREGATION, JOIN, TRIGGER_ON/OFF): non-blocking services "
          "process tuples in place and have no instances to partition");
      auto span = service.property_spans.find(key);
      if (span != service.property_spans.end() && span->second.valid() &&
          span->second.end <= doc.size()) {
        d.span = span->second;
        d.source = doc;
      } else if (service.name_span.valid()) {
        d.span = service.name_span;
        d.source = doc;
      }
      diags->push_back(std::move(d));
    }
  }
}

}  // namespace

/// Pulls analysis-only metadata out of the DSN spec: the `lateness:`
/// property a designer can declare on blocking services. Translation
/// drops properties a service kind does not consume, so declaring it
/// never changes the runtime — it only arms the SL4006 check.
analyze::AnalyzeOptions AnalyzeOptionsFrom(const DsnSpec& spec) {
  analyze::AnalyzeOptions options;
  for (const auto& service : spec.services) {
    if (!service.Has("lateness")) continue;
    auto bound = service.GetDuration("lateness");
    auto text = service.GetString("lateness");
    if (!bound.ok() || !text.ok()) continue;
    options.lateness[service.name] = {*bound, *text};
  }
  return options;
}

LintResult LintDsnProgram(const std::string& source,
                          const pubsub::Broker* broker,
                          const LintOptions& options) {
  LintResult result;
  DsnParse parse = ParseDsnWithDiagnostics(source);
  if (!parse.spec.has_value()) {
    result.diags = std::move(parse.diags);
    return result;
  }
  const DsnSpec& spec = *parse.spec;
  LintPartitionProperties(spec, source, &result.diags);

  auto dataflow = TranslateFromDsn(spec);
  if (!dataflow.ok()) {
    // Lifting failures (bad op kind, malformed spec property) have no
    // token position of their own; anchor to the offending service.
    diag::Diagnostic d = diag::MakeDiag(diag::Code::kBadOpSpec, "",
                                        dataflow.status().message());
    for (const auto& service : spec.services) {
      if (dataflow.status().message().find("'" + service.name + "'") !=
              std::string::npos ||
          dataflow.status().message().find(service.name) !=
              std::string::npos) {
        d.node = service.name;
        break;
      }
    }
    Anchor(spec, source, &d);
    result.diags.push_back(std::move(d));
    return result;
  }

  dataflow::Validator validator(broker);
  auto report = validator.Validate(*dataflow);
  if (!report.ok()) {
    result.diags.push_back(diag::MakeDiag(diag::Code::kDsnStructure, "",
                                          report.status().message()));
    return result;
  }
  for (const auto& issue : report->issues) {
    diag::Diagnostic d = issue.ToDiagnostic();
    Anchor(spec, source, &d);
    result.diags.push_back(std::move(d));
  }

  if (options.analyze && report->ok() && !diag::HasErrors(result.diags)) {
    auto analysis = analyze::AnalyzeDataflow(*dataflow, broker, *report,
                                             AnalyzeOptionsFrom(spec));
    if (analysis.ok()) {
      for (diag::Diagnostic d : analysis->diags) {
        Anchor(spec, source, &d);
        result.diags.push_back(std::move(d));
      }
      result.analysis = std::move(*analysis);
      result.analysis->diags.clear();  // merged into result.diags above
    }
  }
  diag::SortAndDedup(result.diags);
  return result;
}

LintExit ExitCodeFor(const std::vector<diag::Diagnostic>& diags, bool werror) {
  bool any_warning = false;
  bool any_error = false;
  bool any_parse_error = false;
  for (const auto& d : diags) {
    if (d.severity == diag::Severity::kError) {
      any_error = true;
      if (static_cast<int>(d.code) < 1000) any_parse_error = true;
    } else if (d.severity == diag::Severity::kWarning) {
      any_warning = true;
    }
  }
  if (any_parse_error) return LintExit::kParseFailure;
  if (any_error) return LintExit::kFindings;
  if (any_warning && werror) return LintExit::kWerror;
  return LintExit::kClean;
}

}  // namespace sl::dsn
