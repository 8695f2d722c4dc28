// Output checks of the benchmark. Each recomputes what the program claims
// with code of its own (a Levenshtein DP, the P/R/F1 formulas, the vote
// tally, the autograd greedy decoder) or tests a property the method must
// have. None compares against a stored copy of an earlier output. Every
// check returns its number of violations and appends a reason for the first
// few to `why`.
#ifndef DTT_BENCHMARK_CHECKS_H_
#define DTT_BENCHMARK_CHECKS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "core/joiner.h"
#include "eval/metrics.h"
#include "instrument.h"
#include "nn/transformer.h"
#include "text/decomposer.h"

namespace dttbench {

/// Unit-cost Levenshtein distance, written apart from util/edit_distance.
size_t Levenshtein(const std::string& a, const std::string& b);

/// Eq. 5: every non-empty prediction is matched to a target of minimum edit
/// distance over the whole target column, with that distance reported;
/// empty predictions (abstentions) stay unmatched.
size_t CheckJoin(const std::vector<std::string>& predictions,
                 const dtt::JoinResult& join,
                 const std::vector<std::string>& targets, std::string* why);

/// Precision, recall and F1 recomputed from the matches and the gold
/// targets equal the reported ones.
size_t CheckScores(const dtt::JoinResult& join,
                   const std::vector<std::string>& gold,
                   const dtt::JoinMetrics& reported, std::string* why);

/// The rows one TransformAll call submitted, in submission order, with what
/// is needed to re-derive their trial prompts.
struct SubmittedRows {
  std::vector<std::string> sources;
  std::vector<const std::vector<dtt::ExamplePair>*> row_examples;  // Se
  uint64_t service_seed = 0;  // ServeOptions::seed of the serving call
};

/// Row r's trial prompts, re-derived from the service's documented
/// per-request stream Rng(seed).Fork(row).Fork(model) of the single model.
std::vector<dtt::Prompt> TrialPrompts(const SubmittedRows& rows, size_t r,
                                      const dtt::Decomposer& decomposer);

/// Eq. 3-4: each row's prediction is a most-frequent non-empty output among
/// its trial outputs seen at the model boundary, and is empty only when
/// every trial abstained. Trial prompts are re-derived from the service's
/// documented per-request streams (Rng(seed).Fork(row).Fork(model)).
size_t CheckAggregation(const SubmittedRows& rows,
                        const std::vector<std::string>& predictions,
                        const dtt::DecomposerOptions& decomposer,
                        const BoundaryRecorder& recorder, std::string* why);

/// For `samples` prompts picked deterministically from the boundary record,
/// the recorded output equals Transformer::GreedyDecode (the autograd
/// reference engine) on the same serialized prompt and budget.
size_t CheckNeuralDecode(const std::vector<const BoundaryEntry*>& entries,
                         const dtt::nn::Transformer& model,
                         const dtt::Serializer& serializer, int output_cap,
                         int samples, std::string* why);

/// Rows with a trial prompt for which the model returned a non-OK Result
/// (which the pipeline turns into an abstention).
size_t FailedRows(const SubmittedRows& rows,
                  const dtt::DecomposerOptions& decomposer,
                  const BoundaryRecorder& recorder);

}  // namespace dttbench

#endif  // DTT_BENCHMARK_CHECKS_H_
