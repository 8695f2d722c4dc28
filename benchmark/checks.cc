#include "checks.h"

#include <algorithm>
#include <cmath>
#include <map>

#include "text/tokenizer.h"
#include "util/rng.h"

namespace dttbench {
namespace {

constexpr size_t kMaxReasons = 3;

void Note(size_t* violations, std::string* why, const std::string& reason) {
  if (*violations < kMaxReasons && why != nullptr) {
    *why += reason;
    *why += "; ";
  }
  ++*violations;
}

bool SameDouble(double a, double b) { return std::fabs(a - b) <= 1e-12; }

}  // namespace

std::vector<dtt::Prompt> TrialPrompts(const SubmittedRows& rows, size_t r,
                                      const dtt::Decomposer& decomposer) {
  dtt::Rng model_rng = dtt::Rng(rows.service_seed).Fork(r).Fork(0);
  return decomposer.MakePrompts(rows.sources[r], *rows.row_examples[r],
                                &model_rng);
}

size_t Levenshtein(const std::string& a, const std::string& b) {
  std::vector<size_t> prev(b.size() + 1), cur(b.size() + 1);
  for (size_t j = 0; j <= b.size(); ++j) prev[j] = j;
  for (size_t i = 1; i <= a.size(); ++i) {
    cur[0] = i;
    for (size_t j = 1; j <= b.size(); ++j) {
      const size_t sub = prev[j - 1] + (a[i - 1] == b[j - 1] ? 0 : 1);
      cur[j] = std::min({prev[j] + 1, cur[j - 1] + 1, sub});
    }
    std::swap(prev, cur);
  }
  return prev[b.size()];
}

size_t CheckJoin(const std::vector<std::string>& predictions,
                 const dtt::JoinResult& join,
                 const std::vector<std::string>& targets, std::string* why) {
  size_t violations = 0;
  if (join.matches.size() != predictions.size()) {
    Note(&violations, why, "join returned " +
                               std::to_string(join.matches.size()) +
                               " matches for " +
                               std::to_string(predictions.size()) + " rows");
    return violations;
  }
  for (size_t i = 0; i < predictions.size(); ++i) {
    const dtt::JoinMatch& match = join.matches[i];
    if (predictions[i].empty()) {
      if (match.target_index != -1) {
        Note(&violations, why, "abstained row " + std::to_string(i) +
                                   " was matched");
      }
      continue;
    }
    if (match.target_index < 0 ||
        static_cast<size_t>(match.target_index) >= targets.size()) {
      Note(&violations, why, "row " + std::to_string(i) + " left unmatched");
      continue;
    }
    size_t best = static_cast<size_t>(-1);
    for (const std::string& target : targets) {
      best = std::min(best, Levenshtein(predictions[i], target));
    }
    const size_t got = Levenshtein(
        predictions[i], targets[static_cast<size_t>(match.target_index)]);
    if (got != best || match.edit_distance != best) {
      Note(&violations, why,
           "row " + std::to_string(i) + " matched at distance " +
               std::to_string(got) + " (reported " +
               std::to_string(match.edit_distance) + "), minimum is " +
               std::to_string(best));
    }
  }
  return violations;
}

size_t CheckScores(const dtt::JoinResult& join,
                   const std::vector<std::string>& gold,
                   const dtt::JoinMetrics& reported, std::string* why) {
  size_t matched = 0, correct = 0;
  for (size_t i = 0; i < join.matches.size() && i < gold.size(); ++i) {
    const int j = join.matches[i].target_index;
    if (j < 0) continue;
    ++matched;
    if (static_cast<size_t>(j) < gold.size() &&
        gold[static_cast<size_t>(j)] == gold[i]) {
      ++correct;
    }
  }
  const double precision =
      matched == 0 ? 0.0 : static_cast<double>(correct) / matched;
  const double recall =
      gold.empty() ? 0.0 : static_cast<double>(correct) / gold.size();
  const double f1 = precision + recall > 0.0
                        ? 2.0 * precision * recall / (precision + recall)
                        : 0.0;
  size_t violations = 0;
  if (reported.matched != matched || reported.correct != correct ||
      reported.total != gold.size() ||
      !SameDouble(reported.precision, precision) ||
      !SameDouble(reported.recall, recall) || !SameDouble(reported.f1, f1)) {
    Note(&violations, why,
         "scores P/R/F1 " + std::to_string(reported.precision) + "/" +
             std::to_string(reported.recall) + "/" +
             std::to_string(reported.f1) + " != recomputed " +
             std::to_string(precision) + "/" + std::to_string(recall) + "/" +
             std::to_string(f1));
  }
  return violations;
}

size_t CheckAggregation(const SubmittedRows& rows,
                        const std::vector<std::string>& predictions,
                        const dtt::DecomposerOptions& decomposer_options,
                        const BoundaryRecorder& recorder, std::string* why) {
  size_t violations = 0;
  if (predictions.size() != rows.sources.size()) {
    Note(&violations, why, "prediction count differs from row count");
    return violations;
  }
  const dtt::Decomposer decomposer(decomposer_options);
  for (size_t r = 0; r < rows.sources.size(); ++r) {
    std::map<std::string, int> tally;
    bool missing = false;
    for (const dtt::Prompt& prompt : TrialPrompts(rows, r, decomposer)) {
      const BoundaryEntry* entry = recorder.Find(prompt);
      if (entry == nullptr) {
        missing = true;
        break;
      }
      if (!entry->output.empty()) ++tally[entry->output];
    }
    if (missing) {
      Note(&violations, why, "row " + std::to_string(r) +
                                 ": a trial prompt never reached the model");
      continue;
    }
    const std::string& prediction = predictions[r];
    if (tally.empty()) {
      if (!prediction.empty()) {
        Note(&violations, why, "row " + std::to_string(r) +
                                   ": every trial abstained but the row "
                                   "predicts \"" + prediction + "\"");
      }
      continue;
    }
    int top = 0;
    for (const auto& [output, votes] : tally) top = std::max(top, votes);
    auto it = tally.find(prediction);
    if (prediction.empty() || it == tally.end() || it->second != top) {
      Note(&violations, why,
           "row " + std::to_string(r) + ": prediction \"" + prediction +
               "\" is not a most-frequent trial output");
    }
  }
  return violations;
}

size_t CheckNeuralDecode(const std::vector<const BoundaryEntry*>& entries,
                         const dtt::nn::Transformer& model,
                         const dtt::Serializer& serializer, int output_cap,
                         int samples, std::string* why) {
  size_t violations = 0;
  if (entries.empty()) {
    Note(&violations, why, "no prompt reached the neural model");
    return violations;
  }
  const dtt::ByteTokenizer tokenizer;
  const size_t stride =
      std::max<size_t>(1, entries.size() / static_cast<size_t>(samples));
  int checked = 0;
  for (size_t i = 0; i < entries.size() && checked < samples; i += stride) {
    const BoundaryEntry& entry = *entries[i];
    std::vector<int> ids = serializer.EncodePrompt(entry.prompt);
    if (static_cast<int>(ids.size()) > model.config().max_len) continue;
    const int budget = entry.prompt.max_output_tokens > 0
                           ? std::min(entry.prompt.max_output_tokens,
                                      output_cap)
                           : output_cap;
    const std::string reference =
        tokenizer.Decode(model.GreedyDecode(ids, budget));
    if (reference != entry.output) {
      Note(&violations, why, "prompt for \"" + entry.prompt.source +
                                 "\" decoded to \"" + entry.output +
                                 "\", reference \"" + reference + "\"");
    }
    ++checked;
  }
  if (checked == 0) Note(&violations, why, "no prompt could be re-decoded");
  return violations;
}

size_t FailedRows(const SubmittedRows& rows,
                  const dtt::DecomposerOptions& decomposer_options,
                  const BoundaryRecorder& recorder) {
  const dtt::Decomposer decomposer(decomposer_options);
  size_t failed = 0;
  for (size_t r = 0; r < rows.sources.size(); ++r) {
    for (const dtt::Prompt& prompt : TrialPrompts(rows, r, decomposer)) {
      const BoundaryEntry* entry = recorder.Find(prompt);
      if (entry != nullptr && entry->failed) {
        ++failed;
        break;
      }
    }
  }
  return failed;
}

}  // namespace dttbench
