// Workload `update_stream`: E1's re-verify side with writes beside reads.
// One exam document of 2048 candidates (about 87k nodes) is parsed, then
// a seeded stream of point updates is applied. After each update fd1 and
// fd5 are re-verified with CheckFd over the shared DocIndex snapshot, and
// fd2 with FdIndex::Revalidate.
//
// Two thirds of the updates rewrite values (an exam date, a mark with its
// rank, a level with its firstJob-Year); the snapshot survives them. One
// third replace an exam subtree, which invalidates the snapshot, so the
// next Snapshot() rebuilds it. p50 therefore sits in the value cluster
// and p90 in the structural one. Every update keeps fd1, fd2 and fd5
// satisfied (see exam_corpus.h), so no check stops early.

#include <array>
#include <cstdio>
#include <memory>
#include <optional>
#include <random>

#include "exam_corpus.h"
#include "fd/fd_checker.h"
#include "fd/fd_index.h"
#include "harness.h"
#include "obs/exposition.h"
#include "update/update_ops.h"
#include "workload/paper_patterns.h"
#include "xml/xml_io.h"

namespace perfbench {
namespace {

using rtp::xml::Document;
using rtp::xml::NodeId;

constexpr uint32_t kCandidates = 2048;
// FdIndex is compared with a full CheckFd of fd2 every this many ops
// (outside the measured time) and once at the end.
constexpr int64_t kVerifyEvery = 64;

struct ExamNodes {
  NodeId exam = rtp::xml::kInvalidNode;
  NodeId date_text = rtp::xml::kInvalidNode;
  NodeId mark_text = rtp::xml::kInvalidNode;
  NodeId rank_text = rtp::xml::kInvalidNode;
  int discipline = 0;
};

struct CandidateNodes {
  std::array<ExamNodes, kExamsPerCandidate> exams;
  NodeId level_text = rtp::xml::kInvalidNode;
  NodeId year_text = rtp::xml::kInvalidNode;  // invalid: still passing exams
};

// The system state the stream runs against. Heap-allocated and never
// moved: the FdIndex keeps a pointer to fd2.
struct StreamState {
  rtp::Alphabet alphabet;
  std::optional<rtp::fd::FunctionalDependency> fd1, fd2, fd5;
  std::optional<Document> doc;
  std::optional<rtp::fd::FdIndex> fd2_index;
  bool initially_satisfied = false;
  std::vector<CandidateNodes> candidates;
};

// Parse, FD parsing, snapshot, FdIndex build and the first full check.
std::unique_ptr<StreamState> SetUp(const std::string& xml_text) {
  auto s = std::make_unique<StreamState>();
  auto doc = rtp::xml::ParseXml(&s->alphabet, xml_text);
  s->fd1 = MakeFd(rtp::workload::PaperFd1(&s->alphabet));
  s->fd2 = MakeFd(rtp::workload::PaperFd2(&s->alphabet));
  s->fd5 = MakeFd(rtp::workload::PaperFd5(&s->alphabet));
  if (!doc.ok() || !s->fd1 || !s->fd2 || !s->fd5) return nullptr;
  s->doc.emplace(std::move(doc).value());
  std::shared_ptr<const rtp::xml::DocIndex> snapshot = s->doc->Snapshot();
  s->fd2_index.emplace(rtp::fd::FdIndex::Build(*s->fd2, *snapshot));
  s->initially_satisfied = s->fd2_index->satisfied() &&
                           rtp::fd::CheckFd(*s->fd1, *snapshot).satisfied &&
                           rtp::fd::CheckFd(*s->fd5, *snapshot).satisfied;
  return s;
}

NodeId ChildText(const Document& doc, NodeId parent, const char* label) {
  for (NodeId c = doc.first_child(parent); c != rtp::xml::kInvalidNode;
       c = doc.next_sibling(c)) {
    if (doc.label_name(c) == label) return doc.first_child(c);
  }
  return rtp::xml::kInvalidNode;
}

ExamNodes ExamAt(const Document& doc, NodeId exam) {
  ExamNodes nodes;
  nodes.exam = exam;
  nodes.date_text = ChildText(doc, exam, "date");
  nodes.mark_text = ChildText(doc, exam, "mark");
  nodes.rank_text = ChildText(doc, exam, "rank");
  NodeId discipline = ChildText(doc, exam, "discipline");
  nodes.discipline = std::stoi(doc.value(discipline).substr(1));
  return nodes;
}

// Locates the nodes the stream updates (benchmark bookkeeping, untimed).
void IndexCandidates(StreamState* s) {
  const Document& doc = *s->doc;
  NodeId session = doc.first_child(doc.root());
  for (NodeId c = doc.first_child(session); c != rtp::xml::kInvalidNode;
       c = doc.next_sibling(c)) {
    CandidateNodes cand;
    int e = 0;
    for (NodeId child = doc.first_child(c); child != rtp::xml::kInvalidNode;
         child = doc.next_sibling(child)) {
      if (doc.label_name(child) == "exam") cand.exams[e++] = ExamAt(doc, child);
    }
    cand.level_text = ChildText(doc, c, "level");
    cand.year_text = ChildText(doc, c, "firstJob-Year");
    s->candidates.push_back(cand);
  }
}

// One drawn update: a list of (node, operation) applications.
struct DrawnUpdate {
  bool structural = false;
  int candidate = 0;
  int exam = 0;
  std::vector<std::pair<NodeId, rtp::update::UpdateOperation>> steps;
};

DrawnUpdate Draw(StreamState* s, std::mt19937_64* rng) {
  auto draw = [rng](int n) { return static_cast<int>((*rng)() % n); };
  DrawnUpdate u;
  u.candidate = draw(static_cast<int>(s->candidates.size()));
  u.exam = draw(kExamsPerCandidate);
  const CandidateNodes& cand = s->candidates[u.candidate];
  const ExamNodes& exam = cand.exams[u.exam];
  using rtp::update::SetValue;
  if (draw(3) == 0) {
    // A fresh exam on the same discipline (so fd2 keeps holding).
    u.structural = true;
    int mark = draw(kMarks);
    auto repl = std::make_shared<Document>(&s->alphabet);
    NodeId root = repl->AddElement(repl->root(), "exam");
    repl->AddText(repl->AddElement(root, "discipline"),
                  DisciplineName(exam.discipline));
    repl->AddText(repl->AddElement(root, "date"), DateText(draw(kDates)));
    repl->AddText(repl->AddElement(root, "mark"), std::to_string(mark));
    repl->AddText(repl->AddElement(root, "rank"),
                  RankFor(exam.discipline, mark));
    u.steps.push_back({exam.exam, rtp::update::ReplaceSubtree{repl, root}});
    return u;
  }
  switch (draw(3)) {
    case 0:
      u.steps.push_back({exam.date_text, SetValue{DateText(draw(kDates))}});
      break;
    case 1: {
      int mark = draw(kMarks);
      u.steps.push_back({exam.mark_text, SetValue{std::to_string(mark)}});
      u.steps.push_back(
          {exam.rank_text, SetValue{RankFor(exam.discipline, mark)}});
      break;
    }
    default: {
      int level = draw(kLevels);
      u.steps.push_back({cand.level_text, SetValue{LevelText(level)}});
      if (cand.year_text != rtp::xml::kInvalidNode) {
        u.steps.push_back({cand.year_text, SetValue{YearFor(level)}});
      }
      break;
    }
  }
  return u;
}

}  // namespace

bool RunUpdateStream(const Options& options, Result* result) {
  const std::string xml_text = GenerateExamXml(kCandidates, options.seed);
  std::unique_ptr<StreamState> s;
  double setup_s =
      MedianSetupSeconds(15, [&xml_text] { return SetUp(xml_text); }, &s);
  if (s == nullptr) {
    std::fprintf(stderr, "update_stream: set-up failed\n");
    return false;
  }
  if (!s->initially_satisfied) {
    std::fprintf(stderr, "update_stream: generated document violates an FD\n");
    result->checks_passed = false;
  }
  IndexCandidates(s.get());
  const size_t nodes = s->doc->LiveNodeCount();

  std::mt19937_64 rng(options.seed * 0x9e3779b97f4a7c15ULL + 1);
  Tracer tracer(options.trace);
  CpuRotation rotation;
  std::vector<double> latency_ms;
  int64_t ops = 0, failed = 0, structural = 0, verifications = 0;
  int64_t verify_ns = 0;  // excluded from the measured time
  uint64_t traces = 0, contexts = 0, index_builds = 0;

  auto verify_fd2 = [&] {
    int64_t t = NowNs();
    bool full = rtp::fd::CheckFd(*s->fd2, *s->doc->Snapshot()).satisfied;
    ++verifications;
    if (full != s->fd2_index->satisfied() || !full) {
      std::fprintf(stderr, "update_stream: op %lld: FdIndex says %d, "
                   "CheckFd says %d\n", static_cast<long long>(ops),
                   s->fd2_index->satisfied(), full);
      result->checks_passed = false;
      ++failed;
    }
    verify_ns += NowNs() - t;
  };

  const int64_t start = NowNs();
  const int64_t deadline = start + static_cast<int64_t>(options.seconds * 1e9);
  while (options.max_ops > 0 ? ops < options.max_ops : NowNs() < deadline) {
    rotation.MaybeStep();
    DrawnUpdate u = Draw(s.get(), &rng);
    std::optional<rtp::obs::MetricsSnapshot> before;
    if (options.trace) before = rtp::obs::TakeSnapshot();
    bool ok = true;
    std::vector<NodeId> roots;
    int64_t t0 = NowNs();
    {
      ScopedSpan op_span(&tracer, "update_stream.op", ops);
      {
        ScopedSpan span(&tracer, "update.apply", ops);
        for (const auto& [node, operation] : u.steps) {
          auto applied =
              rtp::update::ApplyOperationAt(&*s->doc, {node}, operation);
          if (!applied.ok()) {
            ok = false;
            break;
          }
          roots.insert(roots.end(), applied->updated_roots.begin(),
                       applied->updated_roots.end());
        }
      }
      std::shared_ptr<const rtp::xml::DocIndex> snapshot;
      {
        ScopedSpan span(&tracer, "xml.snapshot", ops);
        snapshot = s->doc->Snapshot();
      }
      {
        ScopedSpan span(&tracer, "fd.check", ops);
        ok = rtp::fd::CheckFd(*s->fd1, *snapshot).satisfied && ok;
        ok = rtp::fd::CheckFd(*s->fd5, *snapshot).satisfied && ok;
      }
      {
        ScopedSpan span(&tracer, "fd.index", ops);
        ok = s->fd2_index->Revalidate(*s->doc, roots) && ok;
      }
    }
    latency_ms.push_back(NsToMs(NowNs() - t0));
    if (before) {
      rtp::obs::MetricsSnapshot delta =
          rtp::obs::SnapshotDelta(*before, rtp::obs::TakeSnapshot());
      traces += CounterIn(delta, "fd.check.traces_enumerated");
      contexts += CounterIn(delta, "fd.index.contexts_rescanned");
      index_builds += CounterIn(delta, "xml.doc_index.builds");
    }
    if (u.structural && ok && roots.size() == 1) {
      s->candidates[u.candidate].exams[u.exam] = ExamAt(*s->doc, roots[0]);
    }
    ++ops;
    structural += u.structural ? 1 : 0;
    if (!ok) {
      ++failed;
      std::fprintf(stderr, "update_stream: op %lld failed or left an FD "
                   "violated\n", static_cast<long long>(ops - 1));
    }
    if (ops % kVerifyEvery == 0) verify_fd2();
  }
  const double wall_s =
      static_cast<double>(NowNs() - start - verify_ns) / 1e9;
  verify_fd2();

  result->attempted = ops;
  result->failed = failed;
  LatencySummary latency = Summarize(latency_ms);
  char detail[320];
  std::snprintf(detail, sizeof(detail),
                "{\"op_samples\":%zu,\"structural_ops\":%lld,"
                "\"document_nodes\":%zu,\"fd2_verifications\":%lld,"
                "\"measured_s\":%.3f}",
                latency.samples, static_cast<long long>(structural), nodes,
                static_cast<long long>(verifications), wall_s);
  result->detail_json = detail;
  if (!options.trace) {
    AddEndToEnd(result, setup_s, ops, wall_s, latency, PeakRssMiB());
    return true;
  }
  const double n = static_cast<double>(std::max<int64_t>(ops, 1));
  const char* const layers[] = {"update.apply", "xml.snapshot", "fd.check",
                                "fd.index"};
  double layer_total = 0;
  for (const char* layer : layers) {
    double ms = tracer.SelfTimeMs(layer);
    layer_total += ms;
    result->Add(std::string(layer) + "_ms", ms / n, "ms");
  }
  result->Add("xml.doc_index.builds", static_cast<double>(index_builds) / n,
              "count");
  result->Add("fd.traces_per_op", static_cast<double>(traces) / n, "count");
  result->Add("fd.contexts_rescanned", static_cast<double>(contexts) / n,
              "count");
  result->Add("trace.ops_per_s", static_cast<double>(ops) / wall_s, "1/s");
  double op_total = tracer.TotalMs("update_stream.op");
  result->Add("trace.layer_share", op_total > 0 ? layer_total / op_total : 0,
              "1");
  if (!options.trace_out.empty() && !tracer.WriteJson(options.trace_out)) {
    std::fprintf(stderr, "update_stream: cannot write %s\n",
                 options.trace_out.c_str());
    return false;
  }
  return true;
}

}  // namespace perfbench
