#include "independence/criterion.h"

#include <memory>
#include <set>

#include "automata/pattern_compiler.h"
#include "automata/product.h"
#include "exec/automaton_cache.h"
#include "guard/failpoints.h"
#include "guard/guard.h"
#include "obs/metrics.h"
#include "obs/scoped_timer.h"
#include "obs/trace.h"
#include "pattern/evaluator.h"

namespace rtp::independence {

using automata::HedgeAutomaton;
using automata::MarkMode;

StatusOr<CriterionResult> CheckPatternIndependence(
    const pattern::TreePattern& protected_pattern,
    const update::UpdateClass& update, const schema::Schema* schema,
    Alphabet* alphabet, const CriterionOptions& options) {
  RTP_OBS_COUNT("independence.criterion.checks");
  RTP_OBS_SCOPED_TIMER("independence.criterion.ns");
  RTP_OBS_TRACE_SPAN("independence.CheckIndependence");
  if (!update.SelectedAreLeaves()) {
    return InvalidArgumentError(
        "the criterion requires every selected node of the update class to "
        "be a leaf of its template (Section 5)");
  }

  // Structural validation above is O(pattern) and polls no guard, so it
  // keeps its InvalidArgument code even on a pre-cancelled token.
  RTP_FAILPOINT("independence.criterion");

  // Compiled pattern automata, either freshly built or shared through the
  // caller's AutomatonCache (the batch/matrix path compiles each pattern
  // once instead of once per pair). Under an active guard the cache is
  // bypassed: its build-once contract would permanently memoize an
  // automaton whose construction a trip cut short.
  auto compile = [&](const pattern::TreePattern& pattern, MarkMode mode) {
    if (options.cache != nullptr && !guard::Active()) {
      return options.cache->GetPatternAutomaton(pattern, *alphabet, mode);
    }
    return std::make_shared<const HedgeAutomaton>(
        CompilePattern(pattern, mode));
  };
  std::shared_ptr<const HedgeAutomaton> protected_automaton;
  std::shared_ptr<const HedgeAutomaton> u_automaton;
  {
    RTP_OBS_TRACE_SPAN("independence.compile_patterns");
    protected_automaton =
        compile(protected_pattern, MarkMode::kTraceAndSelectedSubtrees);
    u_automaton = compile(update.pattern(), MarkMode::kSelectedImagesOnly);
  }
  RTP_RETURN_IF_ERROR(guard::CurrentStatus());
  HedgeAutomaton schema_automaton =
      schema != nullptr ? HedgeAutomaton() : HedgeAutomaton::Universal();
  const HedgeAutomaton& a_s =
      schema != nullptr ? schema->automaton() : schema_automaton;

  HedgeAutomaton meet;
  HedgeAutomaton l_automaton;
  {
    RTP_OBS_TRACE_SPAN("independence.build_product");
    meet = automata::MeetProduct(*protected_automaton, *u_automaton);
    l_automaton = automata::Intersect(meet, a_s);
  }
  RTP_RETURN_IF_ERROR(guard::CurrentStatus());

  CriterionResult result;
  result.fd_automaton_size = protected_automaton->TotalSize();
  result.u_automaton_size = u_automaton->TotalSize();
  result.schema_automaton_size = a_s.TotalSize();
  result.product_size = l_automaton.TotalSize();
  {
    RTP_OBS_TRACE_SPAN("independence.emptiness");
    result.independent = l_automaton.IsEmptyLanguage();
  }
  // A trip during emptiness makes `independent` untrustworthy (the
  // saturation fixpoint may have stopped early); discard the verdict.
  RTP_RETURN_IF_ERROR(guard::CurrentStatus());
  RTP_OBS_HISTOGRAM_RECORD("independence.criterion.product_size",
                           result.product_size);
  if (result.independent) {
    RTP_OBS_COUNT("independence.criterion.independent");
  } else {
    RTP_OBS_COUNT("independence.criterion.unknown");
  }
  if (!result.independent && options.want_conflict_candidate) {
    RTP_OBS_TRACE_SPAN("independence.witness_synthesis");
    auto witness = l_automaton.FindWitnessDocument(alphabet);
    if (witness.ok()) {
      result.conflict_candidate = std::move(witness).value();
    }
  }
  return result;
}

StatusOr<CriterionResult> CheckIndependence(
    const fd::FunctionalDependency& fd, const update::UpdateClass& update,
    const schema::Schema* schema, Alphabet* alphabet,
    const CriterionOptions& options) {
  return CheckPatternIndependence(fd.pattern(), update, schema, alphabet,
                                  options);
}

bool IsInCriterionLanguage(const xml::Document& doc,
                           const fd::FunctionalDependency& fd,
                           const update::UpdateClass& update,
                           const schema::Schema* schema) {
  return IsInCriterionLanguage(*doc.Snapshot(), fd, update, schema);
}

bool IsInCriterionLanguage(const xml::DocIndex& index,
                           const fd::FunctionalDependency& fd,
                           const update::UpdateClass& update,
                           const schema::Schema* schema) {
  const xml::Document& doc = index.doc();
  RTP_OBS_COUNT("independence.reverify.calls");
  RTP_OBS_SCOPED_TIMER("independence.reverify.ns");
  if (schema != nullptr && !schema->Validate(doc)) return false;

  // Nodes the update class would update.
  std::vector<xml::NodeId> updated = update.SelectNodes(index);
  if (updated.empty()) return false;

  // Does some FD mapping's trace-or-covered set intersect them?
  pattern::MatchTables tables =
      pattern::MatchTables::Build(fd.pattern(), index);
  pattern::MappingEnumerator enumerator(tables);
  bool found = false;
  enumerator.ForEach([&](const pattern::Mapping& m) {
    std::vector<xml::NodeId> trace = pattern::TraceOf(doc, m);
    std::set<xml::NodeId> fd_set(trace.begin(), trace.end());
    for (const pattern::SelectedNode& s : fd.pattern().selected()) {
      // Node-equality positions do not contribute their subtrees (see the
      // refinement note in pattern_compiler.h); their images are already
      // on the trace.
      if (s.equality != pattern::EqualityType::kValue) continue;
      doc.VisitFrom(m.image[s.node], [&fd_set](xml::NodeId n) {
        fd_set.insert(n);
        return true;
      });
    }
    for (xml::NodeId n : updated) {
      if (fd_set.count(n) > 0) {
        found = true;
        return false;  // stop enumeration
      }
    }
    return true;
  });
  return found;
}

}  // namespace rtp::independence
