// rtp_cli — command-line front end for the library.
//
//   rtp_cli [global flags] validate    <schema-file> <xml-file>
//   rtp_cli [global flags] checkfd     <fd-file> <xml-file>...
//   rtp_cli [global flags] eval        <pattern-file> <xml-file>...
//   rtp_cli [global flags] xpath       <query> <xml-file>
//   rtp_cli [global flags] independent <fd-file> <update-pattern-file>
//                                      [schema-file]
//   rtp_cli [global flags] matrix      <fd-file>[,<fd-file>...]
//                                      <update-file>[,<update-file>...]
//                                      [schema-file]
//   rtp_cli [global flags] materialize <view-pattern-file> <xml-file>
//   rtp_cli [global flags] explain     eval|checkfd|matrix <args...>
//
// With --socket=PATH the commands run in a resident rtpd instead, on
// documents loaded by name (the grammar is in Usage(); docs/SERVING.md).
// eval, checkfd and matrix print the same bytes either way (serve/ops.h
// renders both). The budget flags travel with the request; --jobs and the
// observability flags act on this process only. Exit code 3 means the
// daemon cannot be reached.
//
// `explain` runs the wrapped subcommand with per-operation profiling
// forced on and appends an EXPLAIN ANALYZE-style report per work item
// (phase tree with wall times, metric deltas, guard budget consumption)
// to stdout. The same structured data is available as JSON from any
// supporting subcommand via --profile.
//
// Global flags (accepted anywhere on the command line, any subcommand):
//   --stats[=<file>]     after the command runs, dump the obs metrics
//                        registry as JSON to <file> (or stderr).
//   --profile[=<file>]   collect per-operation query profiles (eval,
//                        checkfd, matrix: one per document / matrix cell)
//                        and dump them as a JSON array to <file> (or
//                        stderr).
//   --prometheus[=<file>] after the command runs, dump the metrics
//                        registry in Prometheus text exposition format.
//   --log-level=<level>  enable structured JSON-lines logging on stderr
//                        (debug|info|warn|error|off; default off, also
//                        settable via RTP_LOG_LEVEL).
//   --trace-out=<file>   record phase spans and write chrome://tracing
//                        JSON to <file>.
//   --jobs=N             worker threads for the batch subcommands (matrix,
//                        multi-document checkfd/eval); 0 means "one per
//                        hardware thread". Results are byte-identical for
//                        every N (default 1: serial).
//   --deadline-ms=N      wall-clock budget (see src/guard). Batch
//                        subcommands apply it per work item (per document
//                        for checkfd/eval, per pair for matrix) and
//                        degrade those items alone; single-shot commands
//                        apply it to the whole command and exit 2 with the
//                        resource status when it trips.
//   --max-states=N       automaton-state quota per budgeted run.
//   --max-steps=N        loop-step quota per budgeted run.
//   --max-memory-mb=N    approximate memory budget (evaluation tables,
//                        dense DFA tables) per budgeted run.
//                        Every budget flag takes 0 to mean unlimited.
//   --socket=PATH        run the command in the rtpd listening at PATH.
//
// checkfd and eval accept several XML files; the documents are processed
// in parallel under --jobs but reported strictly in command-line order,
// and eval prints each document's tuples sorted by document order, so the
// output is deterministic.
//
// Pattern/FD files use the DSL of pattern_parser.h; schema files the DSL
// of schema.h. Exit code 0 means "holds" (valid / satisfied / independent
// — for matrix: every pair independent), 1 means the negative verdict, 2 a
// usage or input error. Input errors print the full status detail (code
// name + message) on stderr.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "exec/automaton_cache.h"
#include "exec/thread_pool.h"
#include "fd/fd_checker.h"
#include "guard/guard.h"
#include "independence/criterion.h"
#include "independence/matrix.h"
#include "automata/pattern_compiler.h"
#include "obs/exposition.h"
#include "obs/log.h"
#include "obs/metrics.h"
#include "obs/profile.h"
#include "obs/trace.h"
#include "pattern/dot_export.h"
#include "pattern/evaluator.h"
#include "pattern/pattern_parser.h"
#include "schema/schema.h"
#include "serve/client.h"
#include "serve/ops.h"
#include "view/view.h"
#include "xml/xml_io.h"
#include "xpath/xpath.h"

namespace {

using namespace rtp;

int Usage(const char* detail = nullptr) {
  if (detail != nullptr) std::fprintf(stderr, "error: %s\n", detail);
  std::fprintf(stderr,
               "usage: rtp_cli [flags] validate    <schema-file> <xml-file>\n"
               "       rtp_cli [flags] checkfd     <fd-file> <xml-file>...\n"
               "       rtp_cli [flags] eval        <pattern-file> "
               "<xml-file>...\n"
               "       rtp_cli [flags] xpath       <query> <xml-file>\n"
               "       rtp_cli [flags] independent <fd-file> <update-file> "
               "[schema-file]\n"
               "       rtp_cli [flags] matrix      <fd-file>[,...] "
               "<update-file>[,...] [schema-file]\n"
               "       rtp_cli [flags] materialize <view-file> <xml-file>\n"
               "       rtp_cli [flags] dot         pattern|automaton "
               "<pattern-file>\n"
               "       rtp_cli [flags] explain     eval|checkfd|matrix "
               "<args...>\n"
               "       rtp_cli --socket=PATH [flags] "
               "load|eval|checkfd <tenant> <doc> <file>\n"
               "       rtp_cli --socket=PATH [flags] matrix <tenant> "
               "<fd-file>[,...] <update-file>[,...] [schema-file]\n"
               "       rtp_cli --socket=PATH [flags] stats | shutdown | "
               "drop <tenant> <doc> | quota <tenant>\n"
               "flags: --stats[=<file>]   dump obs metrics JSON after the "
               "command\n"
               "       --profile[=<file>] dump per-operation query profiles "
               "as JSON\n"
               "       --prometheus[=<file>] dump metrics in Prometheus "
               "text format\n"
               "       --log-level=<lvl>  structured logging on stderr "
               "(debug|info|warn|error|off)\n"
               "       --trace-out=<file> write chrome://tracing phase "
               "spans\n"
               "       --jobs=N           worker threads for batch "
               "subcommands (0 = hardware)\n"
               "       --deadline-ms=N    wall-clock budget (per work item "
               "for batch subcommands)\n"
               "       --max-states=N     automaton-state quota per "
               "budgeted run\n"
               "       --max-steps=N      loop-step quota per budgeted run\n"
               "       --max-memory-mb=N  approximate memory budget per "
               "budgeted run (budget flags: 0 = unlimited)\n"
               "       --socket=PATH      run the command in the rtpd at "
               "PATH\n");
  return 2;
}

StatusOr<std::string> ReadFile(const std::string& path) {
  std::ifstream in(path);
  if (!in) return NotFoundError("cannot open '" + path + "'");
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

// ReadFile, or "" when no path is given.
StatusOr<std::string> ReadOptionalFile(const std::string& path) {
  if (path.empty()) return std::string();
  return ReadFile(path);
}

std::vector<std::string> SplitCommaList(const std::string& list) {
  std::vector<std::string> parts;
  size_t start = 0;
  while (start <= list.size()) {
    size_t comma = list.find(',', start);
    if (comma == std::string::npos) comma = list.size();
    parts.push_back(list.substr(start, comma - start));
    start = comma + 1;
  }
  return parts;
}

// The contents of each file in a comma-separated list.
StatusOr<std::vector<std::string>> ReadFileList(const std::string& list) {
  std::vector<std::string> texts;
  for (const std::string& path : SplitCommaList(list)) {
    RTP_ASSIGN_OR_RETURN(std::string text, ReadFile(path));
    texts.push_back(std::move(text));
  }
  return texts;
}

void Print(const std::string& text) { std::fputs(text.c_str(), stdout); }

// Matrix row/column names: the basenames of a comma-separated path list.
std::vector<std::string> Basenames(const std::string& list) {
  std::vector<std::string> names;
  for (const std::string& path : SplitCommaList(list)) {
    size_t slash = path.find_last_of('/');
    names.push_back(slash == std::string::npos ? path : path.substr(slash + 1));
  }
  return names;
}

// Prints a matrix result; the exit code is 0 iff every pair is
// independent. Tripped pairs count as not independent.
int PrintMatrix(const serve::MatrixResult& result, const std::string& fd_list,
                const std::string& class_list) {
  Print(serve::RenderMatrixResult(result, Basenames(fd_list),
                                  Basenames(class_list)));
  return result.independent == result.cells.size() ? 0 : 1;
}

// Prints a failed input or request status; exit code 2.
int PrintError(const Status& status) {
  std::fprintf(stderr, "error: %s\n", status.ToString().c_str());
  return 2;
}

#define CLI_ASSIGN(lhs, expr)                                      \
  auto lhs##_or = (expr);                                          \
  if (!lhs##_or.ok()) return PrintError(lhs##_or.status());        \
  auto lhs = std::move(lhs##_or).value();

int CmdValidate(Alphabet* alphabet, const std::string& schema_path,
                const std::string& xml_path) {
  CLI_ASSIGN(schema_text, ReadFile(schema_path));
  CLI_ASSIGN(xml_text, ReadFile(xml_path));
  CLI_ASSIGN(schema, schema::Schema::Parse(alphabet, schema_text));
  CLI_ASSIGN(doc, xml::ParseXml(alphabet, xml_text));
  bool valid = schema.Validate(doc);
  std::printf("%s\n", valid ? "valid" : "INVALID");
  return valid ? 0 : 1;
}

// Parses every XML file serially (parsing interns labels into the shared
// alphabet, which is not thread-safe); evaluation then runs in parallel.
StatusOr<std::vector<xml::Document>> ParseXmlFiles(
    Alphabet* alphabet, const std::vector<std::string>& paths) {
  std::vector<xml::Document> docs;
  docs.reserve(paths.size());
  for (const std::string& path : paths) {
    RTP_ASSIGN_OR_RETURN(std::string text, ReadFile(path));
    RTP_ASSIGN_OR_RETURN(xml::Document doc, xml::ParseXml(alphabet, text));
    docs.push_back(std::move(doc));
  }
  return docs;
}

std::vector<const xml::Document*> DocPointers(
    const std::vector<xml::Document>& docs) {
  std::vector<const xml::Document*> ptrs;
  ptrs.reserve(docs.size());
  for (const xml::Document& doc : docs) ptrs.push_back(&doc);
  return ptrs;
}

int CmdCheckFd(Alphabet* alphabet, const std::string& fd_path,
               const std::vector<std::string>& xml_paths, int jobs,
               const guard::ExecutionBudget& budget,
               std::vector<obs::QueryProfile>* profiles) {
  CLI_ASSIGN(fd_text, ReadFile(fd_path));
  CLI_ASSIGN(fd, serve::ParseFd(alphabet, fd_text));
  CLI_ASSIGN(docs, ParseXmlFiles(alphabet, xml_paths));
  std::vector<fd::CheckResult> results = fd::CheckFdBatch(
      fd, DocPointers(docs),
      {.jobs = jobs, .budget = budget, .profiles = profiles});
  bool all_satisfied = true;
  bool any_over_budget = false;
  for (size_t d = 0; d < results.size(); ++d) {
    const fd::CheckResult& result = results[d];
    // Single-document invocations keep the historical un-prefixed format.
    if (xml_paths.size() > 1) std::printf("%s: ", xml_paths[d].c_str());
    if (!result.status.ok()) {
      // The budget tripped on this document: there is no verdict, which
      // is neither "satisfied" nor "violated".
      any_over_budget = true;
      std::printf("no verdict (%s)\n", result.status.ToString().c_str());
      continue;
    }
    all_satisfied = all_satisfied && result.satisfied;
    Print(serve::RenderCheckFdResult(
        serve::MakeCheckFdResult(result, docs[d], fd)));
  }
  if (any_over_budget) return 2;
  return all_satisfied ? 0 : 1;
}

int CmdEval(Alphabet* alphabet, const std::string& pattern_path,
            const std::vector<std::string>& xml_paths, int jobs,
            const guard::ExecutionBudget& budget,
            std::vector<obs::QueryProfile>* profiles) {
  CLI_ASSIGN(pattern_text, ReadFile(pattern_path));
  CLI_ASSIGN(parsed, pattern::ParsePattern(alphabet, pattern_text));
  CLI_ASSIGN(docs, ParseXmlFiles(alphabet, xml_paths));
  std::vector<Status> statuses;
  auto per_doc = pattern::EvaluateSelectedBatch(
      parsed.pattern, DocPointers(docs),
      {.jobs = jobs, .budget = budget, .profiles = profiles}, &statuses);
  bool any_over_budget = false;
  for (size_t d = 0; d < per_doc.size(); ++d) {
    if (xml_paths.size() > 1) std::printf("%s: ", xml_paths[d].c_str());
    if (!statuses[d].ok()) {
      any_over_budget = true;
      std::printf("no result (%s)\n", statuses[d].ToString().c_str());
      continue;
    }
    Print(serve::RenderEvalResult(
        serve::MakeEvalResult(docs[d], std::move(per_doc[d]))));
  }
  return any_over_budget ? 2 : 0;
}

int CmdXPath(Alphabet* alphabet, const std::string& query,
             const std::string& xml_path) {
  CLI_ASSIGN(xml_text, ReadFile(xml_path));
  CLI_ASSIGN(compiled, xpath::CompileXPath(alphabet, query));
  CLI_ASSIGN(doc, xml::ParseXml(alphabet, xml_text));
  std::vector<xml::NodeId> nodes = xpath::EvaluateXPath(compiled, doc);
  std::printf("%zu node(s)\n", nodes.size());
  for (xml::NodeId n : nodes) {
    std::printf("%s\n",
                xml::WriteXmlSubtree(doc, n, /*indent=*/false).c_str());
  }
  return 0;
}

int CmdIndependent(Alphabet* alphabet, const std::string& fd_path,
                   const std::string& update_path,
                   const std::string& schema_path) {
  CLI_ASSIGN(fd_text, ReadFile(fd_path));
  CLI_ASSIGN(update_text, ReadFile(update_path));
  CLI_ASSIGN(schema_text, ReadOptionalFile(schema_path));
  CLI_ASSIGN(inputs, serve::ParseMatrixInputs(alphabet, {fd_text},
                                              {update_text}, schema_text));
  independence::CriterionOptions options;
  options.want_conflict_candidate = true;
  CLI_ASSIGN(verdict,
             independence::CheckIndependence(
                 inputs.fds[0], inputs.classes[0],
                 inputs.schema ? &*inputs.schema : nullptr, alphabet, options));
  if (verdict.independent) {
    std::printf("independent (criterion IC holds; product size %lld)\n",
                static_cast<long long>(verdict.product_size));
    return 0;
  }
  std::printf("unknown — the criterion cannot rule out an impact\n");
  if (verdict.conflict_candidate.has_value()) {
    std::printf("conflict candidate document:\n%s",
                xml::WriteXml(*verdict.conflict_candidate).c_str());
  }
  return 1;
}

int CmdMatrix(Alphabet* alphabet, const std::string& fd_list,
              const std::string& update_list, const std::string& schema_path,
              int jobs, const guard::ExecutionBudget& budget,
              std::vector<obs::QueryProfile>* profiles) {
  CLI_ASSIGN(fd_texts, ReadFileList(fd_list));
  CLI_ASSIGN(class_texts, ReadFileList(update_list));
  CLI_ASSIGN(schema_text, ReadOptionalFile(schema_path));
  CLI_ASSIGN(inputs, serve::ParseMatrixInputs(alphabet, fd_texts, class_texts,
                                              schema_text));
  exec::BatchOptions options{
      .jobs = jobs, .budget = budget, .profiles = profiles};
  CLI_ASSIGN(matrix, inputs.Compute(alphabet, options,
                                    &exec::AutomatonCache::Global()));
  return PrintMatrix(serve::MakeMatrixResult(matrix), fd_list, update_list);
}

int CmdDot(Alphabet* alphabet, const std::string& what,
           const std::string& pattern_path) {
  CLI_ASSIGN(pattern_text, ReadFile(pattern_path));
  CLI_ASSIGN(parsed, pattern::ParsePattern(alphabet, pattern_text));
  if (what == "pattern") {
    std::printf("%s", pattern::PatternToDot(
                          parsed.pattern, *alphabet,
                          parsed.context.value_or(pattern::kInvalidPatternNode))
                          .c_str());
    return 0;
  }
  if (what == "automaton") {
    automata::HedgeAutomaton automaton = automata::CompilePattern(
        parsed.pattern, automata::MarkMode::kTraceAndSelectedSubtrees);
    std::printf("%s", automata::AutomatonToDot(automaton, *alphabet).c_str());
    return 0;
  }
  std::fprintf(stderr, "error: %s\n",
               InvalidArgumentError("dot target must be 'pattern' or "
                                    "'automaton', got '" +
                                    what + "'")
                   .ToString()
                   .c_str());
  return 2;
}
int CmdMaterialize(Alphabet* alphabet, const std::string& view_path,
                   const std::string& xml_path) {
  CLI_ASSIGN(view_text, ReadFile(view_path));
  CLI_ASSIGN(xml_text, ReadFile(xml_path));
  CLI_ASSIGN(parsed, pattern::ParsePattern(alphabet, view_text));
  CLI_ASSIGN(v, view::View::FromParsed(std::move(parsed)));
  CLI_ASSIGN(doc, xml::ParseXml(alphabet, xml_text));
  xml::Document result = v.Materialize(doc);
  std::printf("%s", xml::WriteXml(result).c_str());
  return 0;
}

// Runs one command in the rtpd at `socket_path` (the --socket= mode).
int RunRemote(const std::string& socket_path,
              const std::vector<std::string>& args,
              const guard::ExecutionBudget& budget) {
  if (args.empty()) return Usage();
  auto client_or = serve::Client::Connect(socket_path);
  if (!client_or.ok()) {
    PrintError(client_or.status());
    return 3;
  }
  serve::Client client = std::move(client_or).value();
  serve::CallOptions options;
  options.budget = budget;
  const std::string& cmd = args[0];
  const size_t argc = args.size();

  if (cmd == "load" && argc == 4) {
    CLI_ASSIGN(xml_text, ReadFile(args[3]));
    Status status = client.Load(args[1], args[2], xml_text, options);
    if (!status.ok()) return PrintError(status);
    std::printf("loaded %s\n", args[2].c_str());
    return 0;
  }
  if (cmd == "eval" && argc == 4) {
    CLI_ASSIGN(pattern_text, ReadFile(args[3]));
    CLI_ASSIGN(result, client.Eval(args[1], args[2], pattern_text, options));
    Print(serve::RenderEvalResult(result));
    return 0;
  }
  if (cmd == "checkfd" && argc == 4) {
    CLI_ASSIGN(fd_text, ReadFile(args[3]));
    CLI_ASSIGN(result, client.CheckFd(args[1], args[2], fd_text, options));
    Print(serve::RenderCheckFdResult(result));
    return result.satisfied ? 0 : 1;
  }
  if (cmd == "matrix" && (argc == 4 || argc == 5)) {
    CLI_ASSIGN(fd_texts, ReadFileList(args[2]));
    CLI_ASSIGN(class_texts, ReadFileList(args[3]));
    CLI_ASSIGN(schema_text, ReadOptionalFile(argc == 5 ? args[4] : ""));
    CLI_ASSIGN(result, client.Matrix(args[1], fd_texts, class_texts,
                                     schema_text, options));
    return PrintMatrix(result, args[2], args[3]);
  }
  if (cmd == "stats" && argc == 1) {
    CLI_ASSIGN(stats, client.Stats());
    for (const serve::TenantStats& tenant : stats) {
      std::printf(
          "%s: %lld doc(s), %lld request(s), %lld error(s), %lld trip(s)\n",
          tenant.name.c_str(), static_cast<long long>(tenant.docs),
          static_cast<long long>(tenant.requests),
          static_cast<long long>(tenant.errors),
          static_cast<long long>(tenant.trips));
    }
    return 0;
  }
  if (cmd == "drop" && argc == 3) {
    CLI_ASSIGN(dropped, client.Drop(args[1], args[2]));
    std::printf("%s\n", dropped ? "dropped" : "not found");
    return dropped ? 0 : 1;
  }
  if (cmd == "quota" && argc == 2) {
    Status status = client.Quota(args[1], budget);
    if (!status.ok()) return PrintError(status);
    std::printf("quota set\n");
    return 0;
  }
  if (cmd == "shutdown" && argc == 1) {
    Status status = client.Shutdown();
    if (!status.ok()) return PrintError(status);
    std::printf("shutting down\n");
    return 0;
  }
  return Usage(("unknown remote command or wrong number of arguments for '" +
                cmd + "'")
                   .c_str());
}

// Global observability options extracted from argv.
struct ObsOptions {
  bool stats = false;
  std::string stats_file;  // empty: stderr
  bool profile = false;
  std::string profile_file;  // empty: stderr
  bool prometheus = false;
  std::string prometheus_file;  // empty: stderr
  std::string trace_file;       // empty: tracing off
};

// Writes `content` to `path`, or to `fallback` when path is empty.
bool WriteOutput(const std::string& path, const std::string& content,
                 std::FILE* fallback) {
  if (path.empty()) {
    std::fprintf(fallback, "%s\n", content.c_str());
    return true;
  }
  std::ofstream out(path);
  if (!out) {
    std::fprintf(stderr, "error: cannot write '%s'\n", path.c_str());
    return false;
  }
  out << content << "\n";
  return true;
}

// Runs a single-shot command under the global budget (when one is
// configured): the whole command shares one GuardContext, and a trip maps
// to exit code 2 with the resource status on stderr — the command's own
// output is untrustworthy at that point, whatever it printed.
template <typename Fn>
int GuardedRun(const guard::ExecutionBudget& budget, Fn&& fn) {
  guard::OptionalGuardScope scope(budget, /*cancel=*/nullptr);
  int code = fn();
  Status status = guard::CurrentStatus();
  if (!status.ok()) {
    // Commands usually surface the trip through their own Status path and
    // have already printed it; report here only when one claimed success.
    if (code == 0) {
      std::fprintf(stderr, "error: %s\n", status.ToString().c_str());
    }
    return 2;
  }
  return code;
}

int Dispatch(const std::vector<std::string>& args, int jobs,
             const guard::ExecutionBudget& budget,
             std::vector<obs::QueryProfile>* profiles) {
  if (args.empty()) return Usage();
  const std::string& cmd = args[0];
  size_t argc = args.size();
  Alphabet alphabet;
  if (cmd == "explain" && argc >= 2) {
    // `explain X ...` = run `X ...` with profiling forced on, then print
    // the per-item reports. The wrapped command's own stdout still comes
    // first, so scripts can consume either.
    const std::string& sub = args[1];
    if (sub != "eval" && sub != "checkfd" && sub != "matrix") {
      return Usage("explain wraps eval, checkfd, or matrix");
    }
    std::vector<obs::QueryProfile> local;
    std::vector<obs::QueryProfile>* target =
        profiles != nullptr ? profiles : &local;
    int code = Dispatch({args.begin() + 1, args.end()}, jobs, budget, target);
    if (code != 2) {
      for (const obs::QueryProfile& p : *target) {
        std::printf("%s", p.ToText().c_str());
      }
    }
    return code;
  }
  if (cmd == "validate" && argc == 3) {
    return GuardedRun(budget,
                      [&] { return CmdValidate(&alphabet, args[1], args[2]); });
  }
  if (cmd == "checkfd" && argc >= 3) {
    // Batch commands apply the budget per work item (exec::RunBatch), not
    // ambiently: one runaway document degrades alone.
    return CmdCheckFd(&alphabet, args[1],
                      {args.begin() + 2, args.end()}, jobs, budget, profiles);
  }
  if (cmd == "eval" && argc >= 3) {
    return CmdEval(&alphabet, args[1], {args.begin() + 2, args.end()}, jobs,
                   budget, profiles);
  }
  if (cmd == "xpath" && argc == 3) {
    return GuardedRun(budget,
                      [&] { return CmdXPath(&alphabet, args[1], args[2]); });
  }
  if (cmd == "independent" && (argc == 3 || argc == 4)) {
    return GuardedRun(budget, [&] {
      return CmdIndependent(&alphabet, args[1], args[2],
                            argc == 4 ? args[3] : "");
    });
  }
  if (cmd == "matrix" && (argc == 3 || argc == 4)) {
    return CmdMatrix(&alphabet, args[1], args[2], argc == 4 ? args[3] : "",
                     jobs, budget, profiles);
  }
  if (cmd == "materialize" && argc == 3) {
    return GuardedRun(
        budget, [&] { return CmdMaterialize(&alphabet, args[1], args[2]); });
  }
  if (cmd == "dot" && argc == 3) {
    return GuardedRun(budget,
                      [&] { return CmdDot(&alphabet, args[1], args[2]); });
  }
  bool known = cmd == "validate" || cmd == "checkfd" || cmd == "eval" ||
               cmd == "xpath" || cmd == "independent" || cmd == "matrix" ||
               cmd == "materialize" || cmd == "dot" || cmd == "explain";
  std::string detail = known
                           ? "wrong number of arguments for '" + cmd + "'"
                           : "unknown command '" + cmd + "'";
  return Usage(detail.c_str());
}

}  // namespace

int main(int argc, char** argv) {
  ObsOptions obs_options;
  int jobs = 1;
  guard::ExecutionBudget budget;
  std::string socket_path;
  std::vector<std::string> args;
  for (int i = 1; i < argc; ++i) {
    std::string_view arg = argv[i];
    if (arg == "--stats") {
      obs_options.stats = true;
    } else if (arg.rfind("--stats=", 0) == 0) {
      obs_options.stats = true;
      obs_options.stats_file = arg.substr(std::strlen("--stats="));
    } else if (arg == "--profile") {
      obs_options.profile = true;
    } else if (arg.rfind("--profile=", 0) == 0) {
      obs_options.profile = true;
      obs_options.profile_file = arg.substr(std::strlen("--profile="));
    } else if (arg == "--prometheus") {
      obs_options.prometheus = true;
    } else if (arg.rfind("--prometheus=", 0) == 0) {
      obs_options.prometheus = true;
      obs_options.prometheus_file = arg.substr(std::strlen("--prometheus="));
    } else if (arg.rfind("--log-level=", 0) == 0) {
      auto level = obs::ParseLogLevel(arg.substr(std::strlen("--log-level=")));
      if (!level) return Usage("--log-level must be debug|info|warn|error|off");
      obs::SetLogLevel(*level);
    } else if (arg.rfind("--socket=", 0) == 0) {
      socket_path = arg.substr(std::strlen("--socket="));
      if (socket_path.empty()) return Usage("--socket requires a path");
    } else if (arg.rfind("--trace-out=", 0) == 0) {
      obs_options.trace_file = arg.substr(std::strlen("--trace-out="));
      if (obs_options.trace_file.empty()) {
        return Usage("--trace-out requires a file path");
      }
    } else if (arg.rfind("--jobs=", 0) == 0) {
      std::string value(arg.substr(std::strlen("--jobs=")));
      char* end = nullptr;
      long parsed = std::strtol(value.c_str(), &end, 10);
      if (value.empty() || *end != '\0' || parsed < 0 || parsed > 1024) {
        return Usage("--jobs requires an integer in [0, 1024]");
      }
      jobs = parsed == 0 ? exec::ThreadPool::DefaultJobs()
                         : static_cast<int>(parsed);
    } else if (arg.rfind("--", 0) == 0) {
      auto budget_flag = guard::ParseBudgetFlag(arg, &budget);
      if (!budget_flag.ok()) {
        return Usage(budget_flag.status().message().c_str());
      }
      if (!*budget_flag) {
        return Usage(("unknown flag '" + std::string(arg) + "'").c_str());
      }
    } else {
      args.emplace_back(arg);
    }
  }

  obs::TraceSession trace_session;
  if (!obs_options.trace_file.empty()) trace_session.Start();

  std::vector<obs::QueryProfile> profiles;
  int exit_code =
      socket_path.empty()
          ? Dispatch(args, jobs, budget,
                     obs_options.profile ? &profiles : nullptr)
          : RunRemote(socket_path, args, budget);

  if (!obs_options.trace_file.empty()) {
    trace_session.Stop();
    if (!WriteOutput(obs_options.trace_file,
                     trace_session.ExportChromeTracing(), stderr)) {
      exit_code = exit_code == 0 ? 2 : exit_code;
    }
  }
  if (obs_options.profile) {
    if (!WriteOutput(obs_options.profile_file, obs::ProfilesToJson(profiles),
                     stderr)) {
      exit_code = exit_code == 0 ? 2 : exit_code;
    }
  }
  if (obs_options.prometheus) {
    if (!WriteOutput(obs_options.prometheus_file, obs::DumpPrometheus(),
                     stderr)) {
      exit_code = exit_code == 0 ? 2 : exit_code;
    }
  }
  if (obs_options.stats) {
    if (!WriteOutput(obs_options.stats_file, obs::DumpJson(), stderr)) {
      exit_code = exit_code == 0 ? 2 : exit_code;
    }
  }
  return exit_code;
}
