// Instrumentation the benchmark wraps around the program's public API: a
// forwarding TextToTextModel / TokenStreamDecoder decorator that times every
// call into the model layer and records each prompt and its output at the
// model boundary (the input of the aggregation and neural-decode checks and
// of the synthesis-redundancy counts).
#ifndef DTT_BENCHMARK_INSTRUMENT_H_
#define DTT_BENCHMARK_INSTRUMENT_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "models/model.h"
#include "text/serializer.h"

namespace dttbench {

using Clock = std::chrono::steady_clock;

inline double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// Lock-free accumulator of seconds spent in one layer, summed over threads.
class LayerTimer {
 public:
  void Add(double seconds) {
    ns_.fetch_add(static_cast<int64_t>(seconds * 1e9),
                  std::memory_order_relaxed);
  }
  double Seconds() const {
    return static_cast<double>(ns_.load(std::memory_order_relaxed)) * 1e-9;
  }

 private:
  std::atomic<int64_t> ns_{0};
};

/// Exact identity of a prompt: length-prefixed examples, source and budget.
std::string PromptKey(const dtt::Prompt& prompt);

/// One distinct prompt seen at the model boundary and the output returned
/// for it (empty = abstained or failed).
struct BoundaryEntry {
  dtt::Prompt prompt;
  std::string output;
  bool failed = false;  // the model returned a non-OK Result
  int prompt_tokens = 0;
};

/// Redundancy of the work that reached the model (synthesis in the simulated
/// model, prefill in the neural one).
struct BoundaryCounts {
  uint64_t prompts = 0;           // model calls, one per prompt
  uint64_t failed = 0;            // calls that returned a non-OK Result
  uint64_t distinct_prompts = 0;
  uint64_t answered = 0;          // non-empty outputs
  uint64_t pair_uses = 0;         // context example pairs over all prompts
  uint64_t distinct_pairs = 0;
  uint64_t distinct_contexts = 0; // distinct context example sets
  uint64_t prompt_tokens_p50 = 0;
  uint64_t prompt_tokens_p90 = 0;
  uint64_t prompt_tokens_total = 0;
};

/// Thread-safe record of every prompt that reached the model and its output.
class BoundaryRecorder {
 public:
  explicit BoundaryRecorder(dtt::SerializerOptions serializer = {})
      : serializer_(serializer) {}

  void Record(const dtt::Prompt& prompt, const std::string& output,
              bool failed);

  /// Adds every call and entry of `other` to this record.
  void Absorb(const BoundaryRecorder& other);

  /// The output recorded for `prompt`, or nullptr if it never reached the
  /// model.
  const BoundaryEntry* Find(const dtt::Prompt& prompt) const;

  /// Entries in key order (a deterministic sample source).
  std::vector<const BoundaryEntry*> Entries() const;

  BoundaryCounts Counts() const;

 private:
  dtt::Serializer serializer_;
  mutable std::mutex mu_;
  uint64_t calls_ = 0;
  uint64_t failed_calls_ = 0;
  std::map<std::string, BoundaryEntry> entries_;
};

/// Time spent inside the model layer, split by entry point.
struct ModelTimers {
  LayerTimer transform;  // Transform / TransformBatch
  LayerTimer admit;      // TokenStreamDecoder::Admit (prefill)
  LayerTimer step;       // TokenStreamDecoder::Step (decode)
  double BusySeconds() const {
    return transform.Seconds() + admit.Seconds() + step.Seconds();
  }
};

/// Forwarding decorator over a TextToTextModel. Routing and caching are
/// unchanged: thread_safe(), deterministic() and NewStreamDecoder are
/// forwarded (the stream decoder is wrapped the same way).
class InstrumentedModel : public dtt::TextToTextModel {
 public:
  InstrumentedModel(std::shared_ptr<dtt::TextToTextModel> inner,
                    BoundaryRecorder* recorder, ModelTimers* timers)
      : inner_(std::move(inner)), recorder_(recorder), timers_(timers) {}

  std::string name() const override { return inner_->name(); }
  dtt::Result<std::string> Transform(const dtt::Prompt& prompt) override;
  std::vector<dtt::Result<std::string>> TransformBatch(
      const std::vector<dtt::Prompt>& prompts) override;
  bool thread_safe() const override { return inner_->thread_safe(); }
  bool deterministic() const override { return inner_->deterministic(); }
  std::unique_ptr<dtt::TokenStreamDecoder> NewStreamDecoder(
      const dtt::StreamDecoderOptions& options) override;

 private:
  std::shared_ptr<dtt::TextToTextModel> inner_;
  BoundaryRecorder* recorder_;
  ModelTimers* timers_;
};

}  // namespace dttbench

#endif  // DTT_BENCHMARK_INSTRUMENT_H_
