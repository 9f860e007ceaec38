#ifndef RTP_INDEPENDENCE_IMPACT_SEARCH_H_
#define RTP_INDEPENDENCE_IMPACT_SEARCH_H_

#include <optional>
#include <string>

#include "fd/functional_dependency.h"
#include "schema/schema.h"
#include "update/update_class.h"
#include "workload/random_document.h"

namespace rtp::independence {

// Randomized search for an *actual* impact witness: a schema-valid
// document D satisfying fd and a concrete update q of the class such that
// q(D) violates fd (and stays schema-valid when a schema is given).
//
// This is the ground truth against which the criterion's precision is
// measured (the criterion is sound, so it must never claim independence
// for a pair where this search succeeds). Updates drawn here preserve the
// label of the updated node, matching the criterion's assumptions.
struct ImpactSearchParams {
  int num_documents = 40;
  int updates_per_document = 8;
  uint64_t seed = 7;
  workload::RandomDocumentParams document_params;
};

struct ImpactWitness {
  xml::Document before;
  xml::Document after;
  std::string description;
};

struct ImpactSearchResult {
  bool impact_found = false;
  std::optional<ImpactWitness> witness;
  int documents_tried = 0;
  int updates_tried = 0;
  // Documents skipped because they did not satisfy fd to begin with.
  int documents_not_satisfying = 0;
  // OK iff the search ran to completion. A resource status means the
  // search stopped early; a witness found before the trip is still a real
  // impact, but impact_found=false is then inconclusive.
  Status status;
};

// `schema` must be non-null: documents are drawn from it. Documents where
// the update class selects nothing contribute no update trials. The
// search runs under the guard the caller installed on this thread, if any:
// a trip stops the document/update loops and lands in
// ImpactSearchResult::status.
ImpactSearchResult SearchForImpact(const fd::FunctionalDependency& fd,
                                   const update::UpdateClass& update,
                                   const schema::Schema& schema,
                                   const ImpactSearchParams& params = {});

}  // namespace rtp::independence

#endif  // RTP_INDEPENDENCE_IMPACT_SEARCH_H_
