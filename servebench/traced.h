// Tracing decorators for the serving benchmark. They wrap the CacheTier
// handed to ClusterServer and the KVStore handed to Engine, so every call
// the serving path makes into the storage layer can be timed without
// touching the library. Spans stay in memory (SpanLog) and are written out
// once, when the benchmark ends.
//
// The decorators are always installed, so the pin-balance check runs on
// every run; span recording is switched on only for the traced run.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "obs/trace.h"
#include "storage/cache_tier.h"
#include "storage/kv_store.h"

namespace servebench {

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// One timed call. `op` names the decorated function; `req` is the request
// id the serving path had in scope (0 outside a request); `value` carries
// the op's work size (bytes, tokens) where it has one.
struct Span {
  const char* op = "";
  uint64_t req = 0;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  double value = 0.0;
};

class SpanLog {
 public:
  void set_enabled(bool on) { enabled_.store(on); }
  void Add(const char* op, int64_t start_ns, double value = 0.0) {
    if (!enabled_.load(std::memory_order_relaxed)) return;
    const Span s{op, cachegen::obs::ScopedRequestId::Current(), start_ns,
                 NowNs(), value};
    std::lock_guard<std::mutex> lock(mu_);
    spans_.push_back(s);
  }
  std::vector<Span> Take() {
    std::lock_guard<std::mutex> lock(mu_);
    return std::move(spans_);
  }

 private:
  std::atomic<bool> enabled_{false};
  std::mutex mu_;
  std::vector<Span> spans_;
};

// Counters kept whether or not spans are recorded.
struct StorageCounters {
  std::atomic<uint64_t> lookups{0}, full_hits{0}, covered_tokens{0},
      requested_tokens{0};
  std::atomic<uint64_t> gets{0}, get_nulls{0}, get_bytes{0};
  std::atomic<uint64_t> puts{0}, put_bytes{0};
  std::atomic<uint64_t> coverage_chunks{0}, coverage_skipped{0};
  // Pinned lookups + Pin - Unpin: zero once every request has released.
  std::atomic<int64_t> pin_balance{0};

  // Zero the traffic counters (not the pin balance), so they cover Serve
  // and not the set-up's Prestore.
  void ResetTraffic() {
    for (auto* c : {&lookups, &full_hits, &covered_tokens, &requested_tokens,
                    &gets, &get_nulls, &get_bytes, &puts, &put_bytes,
                    &coverage_chunks, &coverage_skipped}) {
      c->store(0);
    }
  }
};

class TracedKVStore final : public cachegen::KVStore {
 public:
  TracedKVStore(cachegen::KVStore& inner, SpanLog& log, StorageCounters& c)
      : inner_(inner), log_(log), c_(c) {}

  void Put(const cachegen::ChunkKey& key,
           std::span<const uint8_t> bytes) override {
    const int64_t t0 = NowNs();
    inner_.Put(key, bytes);
    c_.puts += 1;
    c_.put_bytes += bytes.size();
    log_.Add("storage.put", t0, static_cast<double>(bytes.size()));
  }
  void PutBatch(const std::string& context_id,
                std::span<const cachegen::ChunkView> chunks) override {
    const int64_t t0 = NowNs();
    inner_.PutBatch(context_id, chunks);
    uint64_t bytes = 0;
    for (const auto& [key, view] : chunks) bytes += view.size();
    c_.puts += 1;
    c_.put_bytes += bytes;
    log_.Add("storage.put", t0, static_cast<double>(bytes));
  }
  std::vector<bool> PreStoreCoverage(
      const std::string& context_id, size_t num_chunks,
      std::span<const int32_t> level_ids) const override {
    const int64_t t0 = NowNs();
    std::vector<bool> out =
        inner_.PreStoreCoverage(context_id, num_chunks, level_ids);
    uint64_t skipped = 0;
    for (bool b : out) skipped += b ? 1 : 0;
    c_.coverage_chunks += num_chunks;
    c_.coverage_skipped += skipped;
    log_.Add("storage.coverage", t0, static_cast<double>(num_chunks));
    return out;
  }
  std::optional<std::vector<uint8_t>> Get(
      const cachegen::ChunkKey& key) const override {
    const int64_t t0 = NowNs();
    auto out = inner_.Get(key);
    c_.gets += 1;
    if (out) {
      c_.get_bytes += out->size();
    } else {
      c_.get_nulls += 1;
    }
    log_.Add("storage.get", t0, out ? static_cast<double>(out->size()) : 0.0);
    return out;
  }
  bool ContainsContext(const std::string& id) const override {
    return inner_.ContainsContext(id);
  }
  void EraseContext(const std::string& id) override { inner_.EraseContext(id); }
  uint64_t TotalBytes() const override { return inner_.TotalBytes(); }
  uint64_t ContextBytes(const std::string& id) const override {
    return inner_.ContextBytes(id);
  }

 private:
  cachegen::KVStore& inner_;
  SpanLog& log_;
  StorageCounters& c_;
};

// kv() is the TracedKVStore over the inner tier's kv(), so an Engine built
// on it satisfies ClusterServer's `engine.store() == tier.kv()` contract.
class TracedTier final : public cachegen::CacheTier {
 public:
  TracedTier(std::shared_ptr<cachegen::CacheTier> inner, SpanLog& log)
      : inner_(std::move(inner)), log_(log), kv_(inner_->kv(), log, c_) {}

  cachegen::TierLookup LookupAndPin(const std::string& context_id,
                                    const cachegen::ContextSpec& spec,
                                    double t_s) override {
    const int64_t t0 = NowNs();
    const cachegen::TierLookup look =
        inner_->LookupAndPin(context_id, spec, t_s);
    c_.lookups += 1;
    c_.full_hits += look.hit() ? 1 : 0;
    c_.covered_tokens += look.hit() ? spec.num_tokens : look.covered_tokens;
    c_.requested_tokens += spec.num_tokens;
    if (look.pinned) c_.pin_balance += 1;
    log_.Add("storage.lookup", t0, static_cast<double>(spec.num_tokens));
    return look;
  }
  void Pin(const std::string& context_id) override {
    inner_->Pin(context_id);
    c_.pin_balance += 1;
  }
  void Unpin(const std::string& context_id) override {
    inner_->Unpin(context_id);
    c_.pin_balance -= 1;
  }
  void Touch(const std::string& context_id, double t_s) override {
    inner_->Touch(context_id, t_s);
  }
  void BeginStore(const std::string& context_id,
                  const cachegen::ContextSpec& spec) override {
    inner_->BeginStore(context_id, spec);
  }
  void AbortStore(const std::string& context_id) override {
    inner_->AbortStore(context_id);
  }
  void Flush() override { inner_->Flush(); }
  cachegen::KVStore& kv() override { return kv_; }
  const cachegen::ShardedKVStore* hot_tier() const override {
    return inner_->hot_tier();
  }
  const cachegen::TieredKVStore* tiered() const override {
    return inner_->tiered();
  }
  const cachegen::PrefixCache* prefix() const override {
    return inner_->prefix();
  }

  StorageCounters& counters() { return c_; }

 private:
  std::shared_ptr<cachegen::CacheTier> inner_;
  SpanLog& log_;
  StorageCounters c_;
  TracedKVStore kv_;
};

}  // namespace servebench
