#include "independence/matrix.h"

#include <optional>

#include "guard/guard.h"
#include "obs/metrics.h"
#include "obs/scoped_timer.h"

namespace rtp::independence {

namespace {

std::string PairOp(size_t f, size_t c) {
  return "independence.matrix[" + std::to_string(f) + "," +
         std::to_string(c) + "]";
}

}  // namespace

std::vector<size_t> IndependenceMatrix::FdsToRecheck(
    size_t class_index) const {
  std::vector<size_t> out;
  for (size_t f = 0; f < num_fds; ++f) {
    if (!at(f, class_index).independent) out.push_back(f);
  }
  return out;
}

double IndependenceMatrix::IndependentFraction() const {
  if (entries.empty()) return 0.0;
  size_t independent = 0;
  for (const MatrixEntry& e : entries) {
    if (e.independent) ++independent;
  }
  return static_cast<double>(independent) / static_cast<double>(entries.size());
}

std::string IndependenceMatrix::ToString(
    const std::vector<std::string>& fd_names,
    const std::vector<std::string>& class_names) const {
  RTP_CHECK(fd_names.size() == num_fds && class_names.size() == num_classes);
  std::string out(12, ' ');
  for (const std::string& name : fd_names) {
    out += name;
    out.append(name.size() < 10 ? 10 - name.size() : 1, ' ');
  }
  out += "\n";
  for (size_t c = 0; c < num_classes; ++c) {
    std::string row = class_names[c];
    row.append(row.size() < 12 ? 12 - row.size() : 1, ' ');
    for (size_t f = 0; f < num_fds; ++f) {
      const MatrixEntry& e = at(f, c);
      const char* cell = e.independent ? "safe" : "check";
      switch (e.status.code()) {
        case StatusCode::kDeadlineExceeded:
          cell = "deadline";
          break;
        case StatusCode::kResourceExhausted:
          cell = "resource";
          break;
        case StatusCode::kCancelled:
          cell = "cancelled";
          break;
        default:
          break;
      }
      row += cell;
      row.append(10 - std::string(cell).size(), ' ');
    }
    out += row + "\n";
  }
  return out;
}

StatusOr<IndependenceMatrix> ComputeIndependenceMatrix(
    const std::vector<const fd::FunctionalDependency*>& fds,
    const std::vector<const update::UpdateClass*>& classes,
    const schema::Schema* schema, Alphabet* alphabet,
    const exec::BatchOptions& options, exec::AutomatonCache* cache) {
  RTP_OBS_SCOPED_TIMER("independence.matrix.ns");
  IndependenceMatrix matrix;
  matrix.num_fds = fds.size();
  matrix.num_classes = classes.size();
  size_t num_pairs = fds.size() * classes.size();
  matrix.entries.resize(num_pairs);

  // Warm the compile cache serially so the shared FD / update automata are
  // built exactly once instead of racing (each would still build once
  // under the cache's build-once contract, but late pairs would block on
  // the winner instead of doing useful work). The criterion bypasses the
  // cache under a guard, so a guarded batch skips the phase entirely.
  const bool guarded = options.budget.Limited() || options.cancel != nullptr;
  if (cache != nullptr && !guarded) {
    for (const fd::FunctionalDependency* fd : fds) {
      cache->GetPatternAutomaton(fd->pattern(), *alphabet,
                                 automata::MarkMode::kTraceAndSelectedSubtrees);
    }
    for (const update::UpdateClass* cls : classes) {
      cache->GetPatternAutomaton(cls->pattern(), *alphabet,
                                 automata::MarkMode::kSelectedImagesOnly);
    }
  }

  // One item per (fd, class) pair, each writing its pre-assigned row-major
  // slot; structural errors are merged afterwards in pair order, so the
  // verdicts and the reported error do not depend on the schedule.
  CriterionOptions pair_options;
  pair_options.cache = cache;
  std::vector<Status> errors(num_pairs);
  std::vector<Status> statuses = exec::RunBatch(
      num_pairs, options, [&](size_t pair, obs::QueryProfile* profile) {
        size_t f = pair / classes.size();
        size_t c = pair % classes.size();
        std::optional<StatusOr<CriterionResult>> result;
        {
          obs::ProfileScope prof(PairOp(f, c), profile);
          result.emplace(CheckIndependence(*fds[f], *classes[c], schema,
                                           alphabet, pair_options));
        }
        // The profile closed with the guard's status; a structural error
        // is the cell's outcome too.
        if (profile != nullptr) profile->status = result->status().ToString();
        if (result->ok()) {
          matrix.entries[pair] =
              MatrixEntry{f, c, (*result)->independent,
                          (*result)->product_size, Status::OK()};
        } else if (!guard::IsResourceStatus(result->status())) {
          errors[pair] = result->status();
        }
      });
  for (Status& error : errors) {
    if (!error.ok()) return std::move(error);
  }
  for (size_t pair = 0; pair < num_pairs; ++pair) {
    if (statuses[pair].ok()) continue;
    // Per-cell degradation: a budget trip (or a cancelled, skipped pair)
    // is not a matrix failure. independent=false is the conservative
    // verdict: the FD is rechecked on updates of the class.
    size_t f = pair / classes.size();
    size_t c = pair % classes.size();
    matrix.entries[pair] = MatrixEntry{f, c, false, 0, statuses[pair]};
    if (options.profiles != nullptr) {
      obs::QueryProfile& profile = (*options.profiles)[pair];
      profile.op = PairOp(f, c);
      profile.status = statuses[pair].ToString();
    }
  }
  return matrix;
}

}  // namespace rtp::independence
