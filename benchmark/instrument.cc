#include "instrument.h"

#include <algorithm>
#include <deque>
#include <set>
#include <unordered_map>
#include <utility>

#include "obs/trace.h"

namespace dttbench {
namespace {

void AppendField(std::string* key, const std::string& field) {
  *key += std::to_string(field.size());
  *key += ':';
  *key += field;
}

std::string PairKey(const dtt::ExamplePair& pair) {
  std::string key;
  AppendField(&key, pair.source);
  AppendField(&key, pair.target);
  return key;
}

/// Forwarding TokenStreamDecoder: maps each admitted slot back to the prompt
/// it was prepared from, so finished outputs are recorded like batch ones.
class InstrumentedStreamDecoder : public dtt::TokenStreamDecoder {
 public:
  InstrumentedStreamDecoder(std::unique_ptr<dtt::TokenStreamDecoder> inner,
                            BoundaryRecorder* recorder, ModelTimers* timers)
      : inner_(std::move(inner)), recorder_(recorder), timers_(timers) {}

  dtt::Result<dtt::PreparedPrompt> Prepare(
      const dtt::Prompt& prompt) const override {
    dtt::Result<dtt::PreparedPrompt> prepared = inner_->Prepare(prompt);
    std::lock_guard<std::mutex> lock(mu_);
    if (prepared.ok()) {
      prepared_[{prepared.value().input_ids, prepared.value().max_steps}]
          .push_back(prompt);
    } else {
      recorder_->Record(prompt, std::string(), /*failed=*/true);
    }
    return prepared;
  }

  std::vector<int> Admit(
      const std::vector<dtt::PreparedPrompt>& group) override {
    const Clock::time_point start = Clock::now();
    std::vector<int> slots;
    {
      dtt::obs::TraceSpan span("models", "models.admit");
      slots = inner_->Admit(group);
    }
    timers_->admit.Add(SecondsSince(start));
    std::lock_guard<std::mutex> lock(mu_);
    for (size_t i = 0; i < group.size() && i < slots.size(); ++i) {
      auto it = prepared_.find({group[i].input_ids, group[i].max_steps});
      if (it == prepared_.end() || it->second.empty()) continue;
      resident_[slots[i]] = std::move(it->second.front());
      it->second.pop_front();
      if (it->second.empty()) prepared_.erase(it);
    }
    return slots;
  }

  std::vector<Finished> Step() override {
    const Clock::time_point start = Clock::now();
    std::vector<Finished> finished;
    {
      dtt::obs::TraceSpan span("models", "models.step");
      finished = inner_->Step();
    }
    timers_->step.Add(SecondsSince(start));
    std::lock_guard<std::mutex> lock(mu_);
    for (const Finished& fin : finished) {
      auto it = resident_.find(fin.slot);
      if (it == resident_.end()) continue;
      recorder_->Record(it->second, fin.output, /*failed=*/false);
      resident_.erase(it);
    }
    return finished;
  }

  void Cancel(int slot) override {
    inner_->Cancel(slot);
    std::lock_guard<std::mutex> lock(mu_);
    resident_.erase(slot);
  }

  int max_slots() const override { return inner_->max_slots(); }
  int active_slots() const override { return inner_->active_slots(); }

 private:
  std::unique_ptr<dtt::TokenStreamDecoder> inner_;
  BoundaryRecorder* recorder_;
  ModelTimers* timers_;
  mutable std::mutex mu_;
  mutable std::map<std::pair<std::vector<int>, int>, std::deque<dtt::Prompt>>
      prepared_;
  std::unordered_map<int, dtt::Prompt> resident_;
};

}  // namespace

std::string PromptKey(const dtt::Prompt& prompt) {
  std::string key = std::to_string(prompt.max_output_tokens);
  key += '|';
  for (const dtt::ExamplePair& pair : prompt.examples) {
    AppendField(&key, pair.source);
    AppendField(&key, pair.target);
  }
  key += '|';
  AppendField(&key, prompt.source);
  return key;
}

void BoundaryRecorder::Record(const dtt::Prompt& prompt,
                              const std::string& output, bool failed) {
  std::string key = PromptKey(prompt);
  const int tokens =
      static_cast<int>(serializer_.EncodePrompt(prompt).size());
  std::lock_guard<std::mutex> lock(mu_);
  ++calls_;
  if (failed) ++failed_calls_;
  BoundaryEntry& entry = entries_[std::move(key)];
  entry.prompt = prompt;
  entry.output = output;
  entry.failed = failed;
  entry.prompt_tokens = tokens;
}

void BoundaryRecorder::Absorb(const BoundaryRecorder& other) {
  std::scoped_lock lock(mu_, other.mu_);
  calls_ += other.calls_;
  failed_calls_ += other.failed_calls_;
  for (const auto& [key, entry] : other.entries_) entries_[key] = entry;
}

const BoundaryEntry* BoundaryRecorder::Find(const dtt::Prompt& prompt) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = entries_.find(PromptKey(prompt));
  return it == entries_.end() ? nullptr : &it->second;
}

std::vector<const BoundaryEntry*> BoundaryRecorder::Entries() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<const BoundaryEntry*> out;
  out.reserve(entries_.size());
  for (const auto& [key, entry] : entries_) out.push_back(&entry);
  return out;
}

BoundaryCounts BoundaryRecorder::Counts() const {
  std::lock_guard<std::mutex> lock(mu_);
  BoundaryCounts counts;
  counts.prompts = calls_;
  counts.failed = failed_calls_;
  counts.distinct_prompts = entries_.size();
  std::set<std::string> pairs;
  std::set<std::vector<std::string>> contexts;
  std::vector<int> tokens;
  tokens.reserve(entries_.size());
  for (const auto& [key, entry] : entries_) {
    if (!entry.output.empty()) ++counts.answered;
    std::vector<std::string> context;
    for (const dtt::ExamplePair& pair : entry.prompt.examples) {
      context.push_back(PairKey(pair));
      pairs.insert(context.back());
      ++counts.pair_uses;
    }
    std::sort(context.begin(), context.end());
    contexts.insert(std::move(context));
    tokens.push_back(entry.prompt_tokens);
    counts.prompt_tokens_total += static_cast<uint64_t>(entry.prompt_tokens);
  }
  counts.distinct_pairs = pairs.size();
  counts.distinct_contexts = contexts.size();
  if (!tokens.empty()) {
    std::sort(tokens.begin(), tokens.end());
    counts.prompt_tokens_p50 = static_cast<uint64_t>(tokens[tokens.size() / 2]);
    counts.prompt_tokens_p90 =
        static_cast<uint64_t>(tokens[tokens.size() * 9 / 10]);
  }
  return counts;
}

dtt::Result<std::string> InstrumentedModel::Transform(
    const dtt::Prompt& prompt) {
  const Clock::time_point start = Clock::now();
  dtt::Result<std::string> result = [&] {
    dtt::obs::TraceSpan span("models", "models.transform");
    return inner_->Transform(prompt);
  }();
  timers_->transform.Add(SecondsSince(start));
  recorder_->Record(prompt, dtt::OutputOrAbstain(result), !result.ok());
  return result;
}

std::vector<dtt::Result<std::string>> InstrumentedModel::TransformBatch(
    const std::vector<dtt::Prompt>& prompts) {
  const Clock::time_point start = Clock::now();
  std::vector<dtt::Result<std::string>> results = [&] {
    dtt::obs::TraceSpan span("models", "models.transform_batch");
    return inner_->TransformBatch(prompts);
  }();
  timers_->transform.Add(SecondsSince(start));
  for (size_t i = 0; i < prompts.size() && i < results.size(); ++i) {
    recorder_->Record(prompts[i], dtt::OutputOrAbstain(results[i]),
                      !results[i].ok());
  }
  return results;
}

std::unique_ptr<dtt::TokenStreamDecoder> InstrumentedModel::NewStreamDecoder(
    const dtt::StreamDecoderOptions& options) {
  std::unique_ptr<dtt::TokenStreamDecoder> inner =
      inner_->NewStreamDecoder(options);
  if (inner == nullptr) return nullptr;
  return std::make_unique<InstrumentedStreamDecoder>(std::move(inner),
                                                     recorder_, timers_);
}

}  // namespace dttbench
