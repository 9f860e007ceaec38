// Experiment E6 — parallel scaling of the independence matrix: the
// "set of FDs vs set of update classes" batch of the paper's abstract,
// swept over --jobs style worker counts (1, 2, 4, 8).
//
// Two workloads:
//   * exam: the paper's five FDs x six update classes over the Figure 1
//     schema (30 criterion checks per matrix),
//   * bib:  the path-FD constraints of the bibliography domain x four
//     update classes (8 checks per matrix).
//
// Each workload runs in two variants: `cached` shares one AutomatonCache
// across all pairs of one matrix build (each pattern automaton compiled
// once), `uncached` recompiles per pair — the cached/uncached gap isolates
// the shared-cache win from the threading win. Results are deterministic
// for every jobs value, so the per-jobs JSON lines are directly
// comparable; on a single-core host the wall-clock curve is flat and the
// jobs sweep only measures scheduling overhead.

#include <benchmark/benchmark.h>

#include <optional>
#include <vector>

#include "bench_common.h"
#include "exec/automaton_cache.h"
#include "fd/path_fd.h"
#include "independence/matrix.h"
#include "workload/bib_generator.h"

namespace rtp::bench {
namespace {

// Update classes over the exam schema: the paper's class U plus leaf
// updates of the per-exam and per-candidate value nodes.
const char* const kExamUpdateTexts[] = {
    // level of candidates still passing exams (the paper's U).
    "root { session/candidate { s = level; toBePassed; } } select s;",
    "root { session/candidate/exam { s = mark; } } select s;",
    "root { session/candidate/exam { s = rank; } } select s;",
    "root { session/candidate/exam { s = date; } } select s;",
    "root { session/candidate { s = firstJob-Year; } } select s;",
    "root { session/candidate/toBePassed { s = discipline; } } select s;",
};

const char* const kBibUpdateTexts[] = {
    "root { bib/conf/paper { s = pages; } } select s;",
    "root { bib/conf/paper { s = title; } } select s;",
    "root { bib/conf/paper { s = author; } } select s;",
    "root { bib/conf { s = year; } } select s;",
};

struct MatrixWorkload {
  Alphabet alphabet;
  std::vector<fd::FunctionalDependency> fds;
  std::vector<update::UpdateClass> classes;
  std::optional<schema::Schema> schema;

  std::vector<const fd::FunctionalDependency*> fd_ptrs() const {
    std::vector<const fd::FunctionalDependency*> ptrs;
    for (const auto& fd : fds) ptrs.push_back(&fd);
    return ptrs;
  }
  std::vector<const update::UpdateClass*> class_ptrs() const {
    std::vector<const update::UpdateClass*> ptrs;
    for (const auto& cls : classes) ptrs.push_back(&cls);
    return ptrs;
  }
};

MatrixWorkload* ExamWorkload() {
  static MatrixWorkload* workload = [] {
    auto* w = new MatrixWorkload();
    w->schema = workload::BuildExamSchema(&w->alphabet);
    for (auto* make :
         {workload::PaperFd1, workload::PaperFd2, workload::PaperFd3,
          workload::PaperFd4, workload::PaperFd5}) {
      w->fds.push_back(MustFd(make(&w->alphabet)));
    }
    for (const char* text : kExamUpdateTexts) {
      w->classes.push_back(MustUpdate(MustParsePattern(&w->alphabet, text)));
    }
    return w;
  }();
  return workload;
}

MatrixWorkload* BibWorkload() {
  static MatrixWorkload* workload = [] {
    auto* w = new MatrixWorkload();
    w->schema = workload::BuildBibSchema(&w->alphabet);
    for (const char* text :
         {workload::kBibTitleKey, workload::kBibPagesFd}) {
      auto fd = fd::ParseAndCompilePathFd(&w->alphabet, text);
      RTP_CHECK_MSG(fd.ok(), fd.status().ToString().c_str());
      w->fds.push_back(std::move(fd).value());
    }
    for (const char* text : kBibUpdateTexts) {
      w->classes.push_back(MustUpdate(MustParsePattern(&w->alphabet, text)));
    }
    return w;
  }();
  return workload;
}

void RunMatrixBenchmark(benchmark::State& state, MatrixWorkload* w,
                        bool cached) {
  int jobs = static_cast<int>(state.range(0));
  auto fd_ptrs = w->fd_ptrs();
  auto class_ptrs = w->class_ptrs();
  double independent = 0;
  size_t pairs = 0;
  for (auto _ : state) {
    // A fresh cache per iteration: the measured win is intra-matrix
    // sharing across pairs, not warm-start between iterations.
    exec::AutomatonCache cache;
    auto matrix = independence::ComputeIndependenceMatrix(
        fd_ptrs, class_ptrs, &*w->schema, &w->alphabet, {.jobs = jobs},
        cached ? &cache : nullptr);
    RTP_CHECK_MSG(matrix.ok(), matrix.status().ToString().c_str());
    pairs = matrix->entries.size();
    independent = matrix->IndependentFraction();
    benchmark::DoNotOptimize(matrix);
  }
  state.counters["jobs"] = jobs;
  state.counters["pairs"] = static_cast<double>(pairs);
  state.counters["independent_fraction"] = independent;
}

void BM_MatrixExamCached(benchmark::State& state) {
  RunMatrixBenchmark(state, ExamWorkload(), /*cached=*/true);
}
BENCHMARK(BM_MatrixExamCached)->Arg(1)->Arg(2)->Arg(4)->Arg(8)->UseRealTime();

void BM_MatrixExamUncached(benchmark::State& state) {
  RunMatrixBenchmark(state, ExamWorkload(), /*cached=*/false);
}
BENCHMARK(BM_MatrixExamUncached)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->UseRealTime();

void BM_MatrixBibCached(benchmark::State& state) {
  RunMatrixBenchmark(state, BibWorkload(), /*cached=*/true);
}
BENCHMARK(BM_MatrixBibCached)->Arg(1)->Arg(2)->Arg(4)->Arg(8)->UseRealTime();

void BM_MatrixBibUncached(benchmark::State& state) {
  RunMatrixBenchmark(state, BibWorkload(), /*cached=*/false);
}
BENCHMARK(BM_MatrixBibUncached)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->UseRealTime();

}  // namespace
}  // namespace rtp::bench
