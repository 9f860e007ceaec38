#ifndef RTP_INDEPENDENCE_CRITERION_H_
#define RTP_INDEPENDENCE_CRITERION_H_

#include <optional>

#include "automata/hedge_automaton.h"
#include "common/status.h"
#include "fd/functional_dependency.h"
#include "pattern/tree_pattern.h"
#include "schema/schema.h"
#include "update/update_class.h"
#include "xml/doc_index.h"
#include "xml/document.h"

namespace rtp::exec {
class AutomatonCache;
}  // namespace rtp::exec

namespace rtp::independence {

// Result of checking the independence criterion IC (Propositions 2 and 3).
struct CriterionResult {
  // True iff the language L of Definition 6 is empty; then fd is
  // independent with respect to the update class (in the context of the
  // schema, if one was given). False means "unknown": the criterion is
  // sound but not complete.
  bool independent = false;

  // When L is non-empty: a document of L, i.e. a schema-valid document
  // containing an FD trace and a U trace whose updated node touches the FD
  // trace or the condition/target subtrees. This is the *candidate
  // conflict situation* the criterion could not rule out (not necessarily
  // an actual impact witness).
  std::optional<xml::Document> conflict_candidate;

  // Instrumentation for the Proposition 3 size/time claims.
  int64_t fd_automaton_size = 0;  // the protected (FD or view) pattern's
  int64_t u_automaton_size = 0;
  int64_t schema_automaton_size = 0;
  int64_t product_size = 0;  // |A| of the automaton recognizing L
};

struct CriterionOptions {
  // Also synthesize `conflict_candidate` when the criterion fails.
  bool want_conflict_candidate = false;

  // Optional shared compile cache: the FD and update-class pattern
  // automata are looked up (and built at most once per pattern) instead of
  // recompiled per check. Safe to share across threads; see
  // docs/PARALLELISM.md. Ignored while a guard is active — the cache's
  // build-once contract must never memoize a partially built automaton.
  exec::AutomatonCache* cache = nullptr;
};

// The criterion pipeline, stated over the pattern whose evaluation an
// update must not disturb (the "protected" pattern: an FD's pattern, or a
// view's). Builds the automaton for
// L = valid(S) ∩ { D containing a protected-pattern trace and a U trace
// whose updated node is on that trace or inside a selected subtree } as
// Intersect(MeetProduct(A_P, A_U), A_S) and tests its emptiness. A_P marks
// the trace and the selected subtrees
// (MarkMode::kTraceAndSelectedSubtrees), A_U the updated nodes
// (kSelectedImagesOnly). Honours every CriterionOptions field.
//
// Budgets are ambient: compilation, products and emptiness run under
// whatever guard the caller installed on this thread (a guard::ScopedGuard
// or OptionalGuardScope, or exec::RunBatch per matrix cell), and a trip
// surfaces as the StatusOr's error (one of the three resource codes).
//
// `schema` may be null (no schema: A_S is the universal automaton).
//
// Fails with InvalidArgument when a selected node of the update class is
// not a leaf of its template — the restriction under which Proposition 2
// holds. As in the paper, the criterion's soundness assumes updates
// preserve the label of the updated node (an update "at" a node rewrites
// its content, not its identity).
StatusOr<CriterionResult> CheckPatternIndependence(
    const pattern::TreePattern& protected_pattern,
    const update::UpdateClass& update, const schema::Schema* schema,
    Alphabet* alphabet, const CriterionOptions& options = {});

// The criterion IC of Definition 6: CheckPatternIndependence on the FD's
// pattern, whose selected nodes are its condition and target positions.
StatusOr<CriterionResult> CheckIndependence(
    const fd::FunctionalDependency& fd, const update::UpdateClass& update,
    const schema::Schema* schema, Alphabet* alphabet,
    const CriterionOptions& options = {});

// Direct (automaton-free) test of membership of `doc` in the language L of
// Definition 6, via pattern evaluation. Used to cross-validate the
// automaton construction and to explain conflict candidates. The DocIndex
// overload shares one document snapshot between the update-class and FD
// evaluations (and with any other pattern the caller runs on the
// document); results are identical.
bool IsInCriterionLanguage(const xml::Document& doc,
                           const fd::FunctionalDependency& fd,
                           const update::UpdateClass& update,
                           const schema::Schema* schema);
bool IsInCriterionLanguage(const xml::DocIndex& index,
                           const fd::FunctionalDependency& fd,
                           const update::UpdateClass& update,
                           const schema::Schema* schema);

}  // namespace rtp::independence

#endif  // RTP_INDEPENDENCE_CRITERION_H_
