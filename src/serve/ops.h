#ifndef RTP_SERVE_OPS_H_
#define RTP_SERVE_OPS_H_

// The result contract of the three query operations — eval, checkfd and
// matrix — shared by every way of running them: `rtp_cli` in-process,
// rtpd's request handlers, and `rtp_cli --socket=` through serve::Client.
// Each operation has one typed result, one JSON encoder/decoder pair for
// its fields in the response envelope (docs/SERVING.md), and one text
// renderer, so local and remote runs print the same bytes.

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "common/status.h"
#include "fd/fd_checker.h"
#include "fd/functional_dependency.h"
#include "independence/matrix.h"
#include "schema/schema.h"
#include "serve/json.h"
#include "update/update_class.h"
#include "xml/document.h"

namespace rtp::serve {

struct EvalResult {
  // tuples[i][j] is the XML serialization of tuple i's j-th subtree,
  // sorted by document order — identical to rtp_cli eval output lines.
  std::vector<std::vector<std::string>> tuples;
};

struct CheckFdResult {
  bool satisfied = true;
  int64_t mappings = 0;
  int64_t groups = 0;
  std::string violation;  // empty when satisfied
};

struct MatrixCell {
  size_t fd_index = 0;
  size_t class_index = 0;
  bool independent = false;
  int64_t product_size = 0;
  // OK, or the resource code of a per-cell budget trip.
  StatusCode status = StatusCode::kOk;
};

struct MatrixResult {
  size_t num_fds = 0;
  size_t num_classes = 0;
  size_t independent = 0;
  std::vector<MatrixCell> cells;  // row-major: (f, c) at f * num_classes + c
};

// Parses an FD in the pattern DSL (pattern_parser.h), interning labels
// into `alphabet`.
StatusOr<fd::FunctionalDependency> ParseFd(Alphabet* alphabet,
                                           std::string_view text);

// The library objects of one matrix: FDs × update classes, under an
// optional schema.
struct MatrixInputs {
  std::vector<fd::FunctionalDependency> fds;
  std::vector<update::UpdateClass> classes;
  std::optional<schema::Schema> schema;

  // ComputeIndependenceMatrix over these inputs.
  StatusOr<independence::IndependenceMatrix> Compute(
      Alphabet* alphabet, const exec::BatchOptions& options,
      exec::AutomatonCache* cache) const;
};

// Parses FD texts, update-class texts and a schema text ("" = no schema)
// into `alphabet`; the first malformed text, in that order, is the error.
StatusOr<MatrixInputs> ParseMatrixInputs(
    Alphabet* alphabet, const std::vector<std::string>& fd_texts,
    const std::vector<std::string>& class_texts,
    const std::string& schema_text);

// Canonical eval output: tuples sorted by document order (lexicographic
// preorder comparison), each node serialized with WriteXmlSubtree.
// Enumeration order is an implementation detail of the match tables, so
// output sorted this way is stable for any --jobs value and across
// evaluator changes.
EvalResult MakeEvalResult(const xml::Document& doc,
                          std::vector<std::vector<xml::NodeId>> tuples);
// `result` must come from a check that ran to completion.
CheckFdResult MakeCheckFdResult(const fd::CheckResult& result,
                                const xml::Document& doc,
                                const fd::FunctionalDependency& fd);
MatrixResult MakeMatrixResult(const independence::IndependenceMatrix& matrix);

// Encode* appends the op's fields to a success envelope. Decode* reads
// them back from a response and returns TRANSPORT_ERROR when the response
// does not have that shape.
void EncodeEvalResult(EvalResult result, JsonValue* response);
StatusOr<EvalResult> DecodeEvalResult(const JsonValue& response);
void EncodeCheckFdResult(const CheckFdResult& result, JsonValue* response);
StatusOr<CheckFdResult> DecodeCheckFdResult(const JsonValue& response);
void EncodeMatrixResult(const MatrixResult& result, JsonValue* response);
// The response must describe a num_fds × num_classes matrix with one
// entry per pair in row-major order.
StatusOr<MatrixResult> DecodeMatrixResult(const JsonValue& response,
                                          size_t num_fds, size_t num_classes);

// The stdout of `rtp_cli eval|checkfd|matrix` for one result. The matrix
// renders as IndependenceMatrix::ToString's grid under the given column
// (FD) and row (class) names, then the independent and over-budget tallies.
std::string RenderEvalResult(const EvalResult& result);
std::string RenderCheckFdResult(const CheckFdResult& result);
std::string RenderMatrixResult(const MatrixResult& result,
                               const std::vector<std::string>& fd_names,
                               const std::vector<std::string>& class_names);

}  // namespace rtp::serve

#endif  // RTP_SERVE_OPS_H_
