// Workload `criterion`: the one-off independence criterion IC of the
// paper (E1's criterion side) over the 5x5 pair set {fd1..fd5} x {U,
// exam/rank, exam/date, exam/mark, firstJob-Year} with the exam schema,
// single-threaded and uncached. Each op is one pair; each pass is a seeded
// permutation of all 25 pairs, and only whole passes are measured, so
// every pair carries the same weight and p50 (12.5/25) and p90 (22.5/25)
// each fall inside one pair's cost cluster.
//
// The traced mode replays each pair as the public calls CheckIndependence
// makes — CompilePattern x2, MeetProduct + Intersect, IsEmptyLanguage —
// with a span around each layer, and checks the same pinned verdict.

#include <algorithm>
#include <cstdio>
#include <memory>
#include <optional>
#include <random>

#include "automata/pattern_compiler.h"
#include "automata/product.h"
#include "exam_corpus.h"
#include "harness.h"
#include "independence/criterion.h"
#include "obs/exposition.h"
#include "workload/exam_schema.h"
#include "workload/paper_patterns.h"

namespace perfbench {
namespace {

using rtp::Alphabet;
using rtp::automata::HedgeAutomaton;
using rtp::automata::MarkMode;

const char* const kFdNames[] = {"fd1", "fd2", "fd3", "fd4", "fd5"};
const PatternMaker kFdMakers[] = {
    rtp::workload::PaperFd1, rtp::workload::PaperFd2, rtp::workload::PaperFd3,
    rtp::workload::PaperFd4, rtp::workload::PaperFd5};
const char* const kClassNames[] = {"U", "exam/rank", "exam/date", "exam/mark",
                                   "firstJob-Year"};
// Leaf-value update classes beside the paper's U (class 0).
const char* const kClassTexts[] = {
    "root { session/candidate/exam { s = rank; } } select s;",
    "root { session/candidate/exam { s = date; } } select s;",
    "root { session/candidate/exam { s = mark; } } select s;",
    "root { session/candidate { s = firstJob-Year; } } select s;",
};
constexpr int kNumFds = 5;
constexpr int kNumClasses = 5;
constexpr int kNumPairs = kNumFds * kNumClasses;
constexpr int kMinPasses = 4;

// The pinned verdicts: 17 pairs are independent; these 8 are not.
bool ExpectedIndependent(int fd, int cls) {
  static const int kDependent[][2] = {{0, 1}, {0, 3}, {1, 2}, {2, 0},
                                      {2, 3}, {3, 0}, {3, 3}, {4, 4}};
  for (const auto& pair : kDependent) {
    if (pair[0] == fd && pair[1] == cls) return false;
  }
  return true;
}

// Everything the criterion needs before its first check: the exam schema
// (building it compiles its automaton) and the parsed pair set.
struct CriterionInputs {
  Alphabet alphabet;
  std::optional<rtp::schema::Schema> schema;
  std::vector<rtp::fd::FunctionalDependency> fds;
  std::vector<rtp::update::UpdateClass> classes;
};

std::unique_ptr<CriterionInputs> SetUp() {
  auto in = std::make_unique<CriterionInputs>();
  in->schema.emplace(rtp::workload::BuildExamSchema(&in->alphabet));
  for (PatternMaker make : kFdMakers) {
    auto fd = MakeFd(make(&in->alphabet));
    if (!fd) return nullptr;
    in->fds.push_back(*std::move(fd));
  }
  auto u = MakeUpdateClass(rtp::workload::PaperUpdateU(&in->alphabet));
  if (!u) return nullptr;
  in->classes.push_back(*std::move(u));
  for (const char* text : kClassTexts) {
    auto cls = ParseUpdateClass(&in->alphabet, text);
    if (!cls) return nullptr;
    in->classes.push_back(*std::move(cls));
  }
  return in;
}

// One pair as the layer calls of CheckIndependence, each in its span.
bool TracedVerdict(const CriterionInputs& in, int fd, int cls, Tracer* tracer,
                   int64_t op) {
  HedgeAutomaton fd_automaton;
  HedgeAutomaton u_automaton;
  {
    ScopedSpan span(tracer, "automata.compile", op);
    fd_automaton = rtp::automata::CompilePattern(
        in.fds[fd].pattern(), MarkMode::kTraceAndSelectedSubtrees);
    u_automaton = rtp::automata::CompilePattern(
        in.classes[cls].pattern(), MarkMode::kSelectedImagesOnly);
  }
  HedgeAutomaton l_automaton;
  {
    ScopedSpan span(tracer, "automata.product", op);
    HedgeAutomaton meet = rtp::automata::MeetProduct(fd_automaton, u_automaton);
    l_automaton = rtp::automata::Intersect(meet, in.schema->automaton());
  }
  ScopedSpan span(tracer, "automata.emptiness", op);
  return l_automaton.IsEmptyLanguage();
}

}  // namespace

bool RunCriterion(const Options& options, Result* result) {
  std::unique_ptr<CriterionInputs> in;
  double setup_s = MedianSetupSeconds(201, SetUp, &in);
  if (in == nullptr) {
    std::fprintf(stderr, "criterion: set-up failed\n");
    return false;
  }
  // One untimed warm-up pass in fixed order: the first pass runs about
  // 15% slower (page faults, allocator growth), and a fixed order makes
  // the heap peak the same for every seed.
  for (int pair = 0; pair < kNumPairs; ++pair) {
    auto checked = rtp::independence::CheckIndependence(
        in->fds[pair / kNumClasses], in->classes[pair % kNumClasses],
        &*in->schema, &in->alphabet);
    if (!checked.ok()) {
      std::fprintf(stderr, "criterion: warm-up failed\n");
      return false;
    }
  }

  std::mt19937_64 rng(options.seed);
  std::vector<int> order(kNumPairs);
  for (int i = 0; i < kNumPairs; ++i) order[i] = i;

  Tracer tracer(options.trace);
  CpuRotation rotation;
  std::vector<double> latency_ms;
  int64_t ops = 0;
  int64_t failed = 0;
  uint64_t states_built = 0;
  uint64_t states_inhabited = 0;
  int passes = 0;
  const int64_t start = NowNs();
  const int64_t deadline = start + static_cast<int64_t>(options.seconds * 1e9);
  // A timed run measures at least kMinPasses whole passes, so p90 always
  // rests on at least 100 samples.
  auto done = [&] {
    return options.max_ops > 0
               ? ops >= options.max_ops
               : passes >= kMinPasses && NowNs() >= deadline;
  };
  while (!done()) {
    std::shuffle(order.begin(), order.end(), rng);
    ++passes;
    for (int pair : order) {
      if (options.max_ops > 0 && ops >= options.max_ops) break;
      rotation.MaybeStep();
      int fd = pair / kNumClasses;
      int cls = pair % kNumClasses;
      bool independent = false;
      bool ok = true;
      int64_t t0 = NowNs();
      if (options.trace) {
        rtp::obs::MetricsSnapshot before = rtp::obs::TakeSnapshot();
        {
          ScopedSpan span(&tracer, "criterion.op", ops);
          independent = TracedVerdict(*in, fd, cls, &tracer, ops);
        }
        rtp::obs::MetricsSnapshot delta =
            rtp::obs::SnapshotDelta(before, rtp::obs::TakeSnapshot());
        states_built += CounterIn(delta, "automata.product.states_built");
        states_inhabited +=
            CounterIn(delta, "automata.emptiness.states_inhabited");
      } else {
        auto checked = rtp::independence::CheckIndependence(
            in->fds[fd], in->classes[cls], &*in->schema, &in->alphabet);
        ok = checked.ok();
        if (ok) independent = checked->independent;
      }
      latency_ms.push_back(NsToMs(NowNs() - t0));
      ++ops;
      if (!ok || independent != ExpectedIndependent(fd, cls)) {
        ++failed;
        std::fprintf(stderr, "criterion: %s x %s verdict %s, expected %s\n",
                     kFdNames[fd], kClassNames[cls],
                     ok ? (independent ? "independent" : "unknown") : "error",
                     ExpectedIndependent(fd, cls) ? "independent" : "unknown");
      }
    }
  }
  const double wall_s = static_cast<double>(NowNs() - start) / 1e9;

  result->attempted = ops;
  result->failed = failed;
  LatencySummary latency = Summarize(latency_ms);
  char detail[256];
  std::snprintf(detail, sizeof(detail),
                "{\"op_samples\":%zu,\"passes\":%d,\"pairs_per_pass\":%d,"
                "\"measured_s\":%.3f}",
                latency.samples, passes, kNumPairs, wall_s);
  result->detail_json = detail;
  if (!options.trace) {
    AddEndToEnd(result, setup_s, ops, wall_s, latency, PeakRssMiB());
    return true;
  }
  const double n = static_cast<double>(std::max<int64_t>(ops, 1));
  double compile = tracer.SelfTimeMs("automata.compile");
  double product = tracer.SelfTimeMs("automata.product");
  double emptiness = tracer.SelfTimeMs("automata.emptiness");
  double op_total = tracer.TotalMs("criterion.op");
  result->Add("automata.compile_ms", compile / n, "ms");
  result->Add("automata.product_ms", product / n, "ms");
  result->Add("automata.emptiness_ms", emptiness / n, "ms");
  result->Add("automata.states_built", static_cast<double>(states_built) / n,
              "count");
  result->Add("automata.inhabited_ratio",
              states_built > 0 ? static_cast<double>(states_inhabited) /
                                     static_cast<double>(states_built)
                               : 0,
              "1");
  result->Add("trace.ops_per_s", static_cast<double>(ops) / wall_s, "1/s");
  result->Add("trace.layer_share",
              op_total > 0 ? (compile + product + emptiness) / op_total : 0,
              "1");
  if (!options.trace_out.empty() && !tracer.WriteJson(options.trace_out)) {
    std::fprintf(stderr, "criterion: cannot write %s\n",
                 options.trace_out.c_str());
    return false;
  }
  return true;
}

}  // namespace perfbench
