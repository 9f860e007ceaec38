#include "serve/ops.h"

#include <algorithm>
#include <utility>

#include "pattern/pattern_parser.h"
#include "serve/protocol.h"
#include "xml/xml_io.h"

namespace rtp::serve {

StatusOr<fd::FunctionalDependency> ParseFd(Alphabet* alphabet,
                                           std::string_view text) {
  RTP_ASSIGN_OR_RETURN(pattern::ParsedPattern parsed,
                       pattern::ParsePattern(alphabet, text));
  return fd::FunctionalDependency::FromParsed(std::move(parsed));
}

StatusOr<independence::IndependenceMatrix> MatrixInputs::Compute(
    Alphabet* alphabet, const exec::BatchOptions& options,
    exec::AutomatonCache* cache) const {
  std::vector<const fd::FunctionalDependency*> fd_ptrs;
  for (const auto& fd : fds) fd_ptrs.push_back(&fd);
  std::vector<const update::UpdateClass*> class_ptrs;
  for (const auto& cls : classes) class_ptrs.push_back(&cls);
  return independence::ComputeIndependenceMatrix(
      fd_ptrs, class_ptrs, schema ? &*schema : nullptr, alphabet, options,
      cache);
}

StatusOr<MatrixInputs> ParseMatrixInputs(
    Alphabet* alphabet, const std::vector<std::string>& fd_texts,
    const std::vector<std::string>& class_texts,
    const std::string& schema_text) {
  MatrixInputs inputs;
  inputs.fds.reserve(fd_texts.size());
  for (const std::string& text : fd_texts) {
    RTP_ASSIGN_OR_RETURN(fd::FunctionalDependency fd, ParseFd(alphabet, text));
    inputs.fds.push_back(std::move(fd));
  }
  inputs.classes.reserve(class_texts.size());
  for (const std::string& text : class_texts) {
    RTP_ASSIGN_OR_RETURN(pattern::ParsedPattern parsed,
                         pattern::ParsePattern(alphabet, text));
    RTP_ASSIGN_OR_RETURN(update::UpdateClass cls,
                         update::UpdateClass::FromParsed(std::move(parsed)));
    inputs.classes.push_back(std::move(cls));
  }
  if (!schema_text.empty()) {
    RTP_ASSIGN_OR_RETURN(schema::Schema schema,
                         schema::Schema::Parse(alphabet, schema_text));
    inputs.schema.emplace(std::move(schema));
  }
  return inputs;
}

EvalResult MakeEvalResult(const xml::Document& doc,
                          std::vector<std::vector<xml::NodeId>> tuples) {
  std::sort(tuples.begin(), tuples.end(),
            [&doc](const std::vector<xml::NodeId>& a,
                   const std::vector<xml::NodeId>& b) {
              for (size_t i = 0; i < a.size() && i < b.size(); ++i) {
                uint32_t pa = doc.PreorderIndex(a[i]);
                uint32_t pb = doc.PreorderIndex(b[i]);
                if (pa != pb) return pa < pb;
              }
              return a.size() < b.size();
            });
  EvalResult result;
  result.tuples.reserve(tuples.size());
  for (const auto& tuple : tuples) {
    std::vector<std::string> row;
    row.reserve(tuple.size());
    for (xml::NodeId n : tuple) {
      row.push_back(xml::WriteXmlSubtree(doc, n, /*indent=*/false));
    }
    result.tuples.push_back(std::move(row));
  }
  return result;
}

CheckFdResult MakeCheckFdResult(const fd::CheckResult& result,
                                const xml::Document& doc,
                                const fd::FunctionalDependency& fd) {
  CheckFdResult out;
  out.satisfied = result.satisfied;
  out.mappings = static_cast<int64_t>(result.num_mappings);
  out.groups = static_cast<int64_t>(result.num_groups);
  if (!result.satisfied) out.violation = result.violation->Describe(doc, fd);
  return out;
}

MatrixResult MakeMatrixResult(const independence::IndependenceMatrix& matrix) {
  MatrixResult result;
  result.num_fds = matrix.num_fds;
  result.num_classes = matrix.num_classes;
  result.cells.reserve(matrix.entries.size());
  for (const independence::MatrixEntry& entry : matrix.entries) {
    result.cells.push_back(MatrixCell{entry.fd_index, entry.class_index,
                                      entry.independent, entry.product_size,
                                      entry.status.code()});
    if (entry.independent) ++result.independent;
  }
  return result;
}

void EncodeEvalResult(EvalResult result, JsonValue* response) {
  JsonValue tuples = JsonValue::Array();
  for (auto& tuple : result.tuples) {
    JsonValue row = JsonValue::Array();
    for (std::string& item : tuple) {
      row.Push(JsonValue::String(std::move(item)));
    }
    tuples.Push(std::move(row));
  }
  response->Add("count",
                JsonValue::Int(static_cast<int64_t>(result.tuples.size())));
  response->Add("tuples", std::move(tuples));
}

StatusOr<EvalResult> DecodeEvalResult(const JsonValue& response) {
  const JsonValue* tuples = response.Find("tuples");
  if (tuples == nullptr || !tuples->is_array()) {
    return TransportError("eval response without 'tuples' array");
  }
  EvalResult result;
  result.tuples.reserve(tuples->array_items().size());
  for (const JsonValue& row : tuples->array_items()) {
    if (!row.is_array()) return TransportError("malformed eval tuple row");
    std::vector<std::string> tuple;
    tuple.reserve(row.array_items().size());
    for (const JsonValue& item : row.array_items()) {
      if (!item.is_string()) return TransportError("malformed eval tuple");
      tuple.push_back(item.string_value());
    }
    result.tuples.push_back(std::move(tuple));
  }
  return result;
}

void EncodeCheckFdResult(const CheckFdResult& result, JsonValue* response) {
  response->Add("satisfied", JsonValue::Bool(result.satisfied));
  response->Add("mappings", JsonValue::Int(result.mappings));
  response->Add("groups", JsonValue::Int(result.groups));
  if (!result.satisfied) {
    response->Add("violation", JsonValue::String(result.violation));
  }
}

StatusOr<CheckFdResult> DecodeCheckFdResult(const JsonValue& response) {
  const JsonValue* satisfied = response.Find("satisfied");
  if (satisfied == nullptr || !satisfied->is_bool()) {
    return TransportError("checkfd response without 'satisfied'");
  }
  CheckFdResult result;
  result.satisfied = satisfied->bool_value();
  result.mappings = response.FindInt("mappings");
  result.groups = response.FindInt("groups");
  result.violation = response.FindString("violation");
  return result;
}

void EncodeMatrixResult(const MatrixResult& result, JsonValue* response) {
  JsonValue entries = JsonValue::Array();
  for (const MatrixCell& cell : result.cells) {
    JsonValue entry = JsonValue::Object();
    entry.Add("fd", JsonValue::Int(static_cast<int64_t>(cell.fd_index)));
    entry.Add("class", JsonValue::Int(static_cast<int64_t>(cell.class_index)));
    entry.Add("independent", JsonValue::Bool(cell.independent));
    entry.Add("product_size", JsonValue::Int(cell.product_size));
    if (cell.status != StatusCode::kOk) {
      entry.Add("status", JsonValue::String(StatusCodeName(cell.status)));
    }
    entries.Push(std::move(entry));
  }
  response->Add("num_fds",
                JsonValue::Int(static_cast<int64_t>(result.num_fds)));
  response->Add("num_classes",
                JsonValue::Int(static_cast<int64_t>(result.num_classes)));
  response->Add("independent",
                JsonValue::Int(static_cast<int64_t>(result.independent)));
  response->Add("entries", std::move(entries));
}

StatusOr<MatrixResult> DecodeMatrixResult(const JsonValue& response,
                                          size_t num_fds,
                                          size_t num_classes) {
  const JsonValue* entries = response.Find("entries");
  if (entries == nullptr || !entries->is_array()) {
    return TransportError("matrix response without 'entries' array");
  }
  // A corrupted reply must not reach the renderer, which indexes the
  // grid by these numbers.
  if (response.FindInt("num_fds", -1) != static_cast<int64_t>(num_fds) ||
      response.FindInt("num_classes", -1) !=
          static_cast<int64_t>(num_classes) ||
      entries->array_items().size() != num_fds * num_classes) {
    return TransportError("matrix response does not fit the request");
  }
  MatrixResult result;
  result.num_fds = num_fds;
  result.num_classes = num_classes;
  result.independent = static_cast<size_t>(response.FindInt("independent"));
  result.cells.reserve(entries->array_items().size());
  for (const JsonValue& entry : entries->array_items()) {
    size_t pair = result.cells.size();
    if (!entry.is_object() ||
        entry.FindInt("fd", -1) != static_cast<int64_t>(pair / num_classes) ||
        entry.FindInt("class", -1) !=
            static_cast<int64_t>(pair % num_classes)) {
      return TransportError("malformed matrix entry " + std::to_string(pair));
    }
    MatrixCell cell;
    cell.fd_index = pair / num_classes;
    cell.class_index = pair % num_classes;
    cell.independent = entry.FindBool("independent");
    cell.product_size = entry.FindInt("product_size");
    cell.status = StatusCodeFromName(entry.FindString("status", "OK"));
    result.cells.push_back(cell);
  }
  return result;
}

std::string RenderEvalResult(const EvalResult& result) {
  std::string out = std::to_string(result.tuples.size()) + " tuple(s)\n";
  for (const auto& tuple : result.tuples) {
    for (size_t i = 0; i < tuple.size(); ++i) {
      if (i > 0) out += '\t';
      out += tuple[i];
    }
    out += '\n';
  }
  return out;
}

std::string RenderCheckFdResult(const CheckFdResult& result) {
  return (result.satisfied ? "satisfied (" : "VIOLATED (") +
         std::to_string(result.mappings) + " mappings, " +
         std::to_string(result.groups) + " groups)\n" + result.violation;
}

std::string RenderMatrixResult(const MatrixResult& result,
                               const std::vector<std::string>& fd_names,
                               const std::vector<std::string>& class_names) {
  independence::IndependenceMatrix matrix;
  matrix.num_fds = result.num_fds;
  matrix.num_classes = result.num_classes;
  size_t over_budget = 0;
  for (const MatrixCell& cell : result.cells) {
    matrix.entries.push_back(independence::MatrixEntry{
        cell.fd_index, cell.class_index, cell.independent, cell.product_size,
        Status(cell.status, "")});
    if (cell.status != StatusCode::kOk) ++over_budget;
  }
  std::string out = matrix.ToString(fd_names, class_names);
  out += std::to_string(result.independent) + "/" +
         std::to_string(result.cells.size()) + " pair(s) independent\n";
  // Tripped pairs already count as not-independent (the conservative
  // verdict), so callers' exit codes need no special case for them.
  if (over_budget > 0) {
    out += std::to_string(over_budget) + " pair(s) over budget\n";
  }
  return out;
}

}  // namespace rtp::serve
