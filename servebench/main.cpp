// The serving benchmark: one named workload per invocation, run through the
// public ClusterServer / Engine / CacheTier API.
//
//   serve_bench --workload NAME --seed N --seconds S --trace 0|1 --scratch DIR
//
// A run repeats {set up, Serve} until S seconds have passed (at least three
// times), then walks an arrival-rate ladder on the last set-up, and prints
// one JSON line last: end-to-end metrics when --trace 0, per-layer metrics
// (decorator spans, tier counters and standalone probes) when --trace 1.
// Every correctness check failure is printed and makes the exit code 1.
// README.md in this directory describes the workloads and metrics.
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <functional>
#include <map>
#include <memory>
#include <set>
#include <stdexcept>
#include <string>
#include <vector>

#include "cluster/cluster_server.h"
#include "fabric/cache_fabric.h"
#include "prefix/prefix_cache.h"
#include "probes.h"
#include "storage/tiered_kv_store.h"
#include "traced.h"
#include "workload/prefix_trace.h"

namespace servebench {
namespace {

namespace fs = std::filesystem;
using cachegen::CacheTier;
using cachegen::ClusterRequest;
using cachegen::ClusterServer;
using cachegen::ContextSpec;
using cachegen::RequestOutcome;
using Clock = std::chrono::steady_clock;

double Since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

// Nearest-rank percentile of a sorted sample.
double Percentile(const std::vector<double>& sorted, double p) {
  if (sorted.empty()) return 0.0;
  const double rank = std::ceil(p / 100.0 * static_cast<double>(sorted.size()));
  const size_t i = static_cast<size_t>(std::max(1.0, rank)) - 1;
  return sorted[std::min(i, sorted.size() - 1)];
}

// The highest percentile on a fixed ladder with at least ten samples beyond
// it, so a tail figure always rests on more than a handful of requests.
double TailPercentile(size_t n) {
  for (double p : {99.99, 99.9, 99.0, 95.0, 90.0}) {
    if (static_cast<double>(n) * (100.0 - p) / 100.0 >= 10.0 - 1e-6) return p;
  }
  return 50.0;
}

// ---------------------------------------------------------------------------
// Workloads

struct Workload {
  std::string name;
  ClusterServer::Options copts;
  // Codec thread pool size (calling thread included). Workers + coordinator
  // + pool threads busy during Serve stay within the 4 CPUs the benchmark
  // is sized for.
  unsigned codec_threads = 1;
  double slo_s = 3.0;
  double rate_hz = 1.0;
  // Share of requests that must meet the SLO on a max_rate_hz ladder rung.
  // Below 0.99 where cold hits miss the SLO even unloaded, chosen where
  // attainment falls steeply with rate, so the rung found is stable.
  double goal = 0.99;
  size_t num_requests = 0;
  size_t ladder_requests = 0;
  // Outcomes must replay bit for bit across repeats.
  bool deterministic = true;
  std::function<std::shared_ptr<CacheTier>(const fs::path& cold)> make_tier;
  std::function<std::vector<ClusterRequest>(double rate_hz, size_t n)> trace;
  std::vector<std::pair<std::string, ContextSpec>> prestore;
};

Workload HotStream(uint64_t seed) {
  Workload w;
  w.name = "hot_stream";
  w.copts.num_workers = 3;
  w.copts.write_back_on_miss = false;
  w.codec_threads = 4;  // idle during Serve: every request is a hot hit
  w.slo_s = 1.0;
  w.copts.default_slo_s = w.slo_s;
  w.rate_hz = 1.6;
  w.goal = 0.99;
  w.num_requests = 30000;
  w.ladder_requests = 8000;
  cachegen::RequestTraceOptions t;
  t.num_contexts = 6;
  t.zipf_exponent = 0.9;
  // Contexts of one length: a seed changes arrivals and which contexts are
  // popular, not how much work a request is.
  t.min_tokens = 4000;
  t.max_tokens = 4000;
  t.slo_s = w.slo_s;
  t.seed = seed;
  w.make_tier = [](const fs::path&) -> std::shared_ptr<CacheTier> {
    return std::make_shared<cachegen::ShardedKVStore>(
        cachegen::ShardedKVStore::Options{.num_shards = 8,
                                          .capacity_bytes = 0});
  };
  w.trace = [t](double rate, size_t n) {
    cachegen::RequestTraceOptions o = t;
    o.arrival_rate_hz = rate;
    o.num_requests = n;
    return cachegen::PoissonTrace(o);
  };
  for (size_t i = 0; i < t.num_contexts; ++i) {
    w.prestore.emplace_back(cachegen::PoolContextId(i),
                            cachegen::PoolContextSpec(t, i));
  }
  return w;
}

// Family members: a shared one-chunk prefix plus a suffix of 1200-1500
// tokens (one chunk), every request drawn from the families (no one-shot
// contexts), so a seed moves arrivals, popularity and lengths but not how
// many chunks are written or read. The SLO is below a text re-prefill of a
// whole context, so the adapter streams cached KV wherever it has some.
cachegen::PrefixTraceOptions FamilyTrace(uint64_t seed, size_t families,
                                         size_t suffixes) {
  cachegen::PrefixTraceOptions p;
  p.num_families = families;
  p.family_zipf = 0.9;
  p.prefix_tokens = cachegen::kDefaultChunkTokens;
  p.suffix_min_tokens = 1200;
  p.suffix_max_tokens = cachegen::kDefaultChunkTokens;
  p.suffixes_per_family = suffixes;
  p.shared_fraction = 1.0;
  p.slo_s = 0.3;
  p.seed = seed;
  return p;
}

// Cold device and interconnect fast enough that a cold or remote KV hit
// still beats a text re-prefill, as on an NVMe cold tier.
void FastDevices(ClusterServer::Options& o) {
  o.cold_read_gbps = 2.5;
  o.remote_read_gbps = 2.5;
}

Workload PrefixWriteback(uint64_t seed) {
  Workload w;
  w.name = "prefix_writeback";
  w.copts.num_workers = 2;
  w.copts.write_back_on_miss = true;
  w.codec_threads = 2;
  FastDevices(w.copts);
  const cachegen::PrefixTraceOptions p = FamilyTrace(seed, 3, 3);
  w.slo_s = p.slo_s;
  w.copts.default_slo_s = w.slo_s;
  w.rate_hz = 1.0;
  w.goal = 0.8;
  w.num_requests = 100;
  w.ladder_requests = 1000;
  // The hot tier holds a fraction of the working set, so write-backs demote
  // to the cold directory and later hits promote from it.
  w.make_tier = [](const fs::path& cold) -> std::shared_ptr<CacheTier> {
    cachegen::TieredKVStore::Options s;
    s.hot = {.num_shards = 2, .capacity_bytes = 12ull << 20};
    s.cold_root = cold;
    s.cold_capacity_bytes = 0;
    auto tiered = std::make_shared<cachegen::TieredKVStore>(s);
    cachegen::PrefixCache::Options po;
    po.chunk_tokens = cachegen::kDefaultChunkTokens;
    return std::make_shared<cachegen::PrefixCache>(tiered, po);
  };
  w.trace = [p](double rate, size_t n) {
    cachegen::PrefixTraceOptions o = p;
    o.arrival_rate_hz = rate;
    o.num_requests = n;
    return cachegen::SharedPrefixTrace(o);
  };
  // One member of the most popular family: the first request of each other
  // family is a full miss, and the first of every other member a partial
  // prefix hit, each written back.
  w.prestore.emplace_back(cachegen::PrefixFamilyContextId(0, 0),
                          cachegen::PrefixFamilySpec(p, 0, 0));
  return w;
}

Workload FabricDecode(uint64_t seed) {
  Workload w;
  w.name = "fabric_decode";
  w.copts.num_workers = 2;
  w.copts.assemble_kv = true;
  w.codec_threads = 2;
  w.deterministic = false;  // see the assembly-pin corner in cluster_server.h
  FastDevices(w.copts);
  const cachegen::PrefixTraceOptions p = FamilyTrace(seed, 2, 3);
  w.slo_s = p.slo_s;
  w.copts.default_slo_s = w.slo_s;
  w.rate_hz = 1.0;
  w.goal = 0.8;
  w.num_requests = 100;
  w.ladder_requests = 1000;
  // Per-node hot tiers hold part of the warmed pool; the rest sits cold.
  w.make_tier = [](const fs::path& cold) -> std::shared_ptr<CacheTier> {
    cachegen::CacheFabric::Options f;
    f.num_nodes = 4;
    f.chunk_replicas = 2;
    f.node_store = {.num_shards = 2, .capacity_bytes = 6ull << 20};
    f.cold_root = cold;
    f.node_cold_capacity_bytes = 0;
    f.prefix = true;
    f.prefix_opts.chunk_tokens = cachegen::kDefaultChunkTokens;
    return std::make_shared<cachegen::CacheFabric>(f);
  };
  w.trace = [p](double rate, size_t n) {
    cachegen::PrefixTraceOptions o = p;
    o.arrival_rate_hz = rate;
    o.num_requests = n;
    return cachegen::SharedPrefixTrace(o);
  };
  for (size_t f = 0; f < p.num_families; ++f) {
    for (size_t s = 0; s < p.suffixes_per_family; ++s) {
      w.prestore.emplace_back(cachegen::PrefixFamilyContextId(f, s),
                              cachegen::PrefixFamilySpec(p, f, s));
    }
  }
  return w;
}

// ---------------------------------------------------------------------------
// One set-up: tier arrangement, decorators, engine, server, prestored pool.

struct Setup {
  std::shared_ptr<CacheTier> inner;
  std::shared_ptr<TracedTier> tier;
  std::unique_ptr<cachegen::Engine> engine;
  std::unique_ptr<ClusterServer> server;
  PhaseCount prestore;
};

// Every workload streams over one 3 Gbps shared link.
constexpr double kLinkGbps = 3.0;

cachegen::Engine::Options EngineOptions() {
  cachegen::Engine::Options o;
  o.model_name = "mistral-7b";
  o.calib_context_tokens = 1000;
  o.calib_num_contexts = 10;
  return o;
}

std::unique_ptr<Setup> Build(const Workload& w, const fs::path& cold,
                             SpanLog& log) {
  auto s = std::make_unique<Setup>();
  s->inner = w.make_tier(cold);
  s->tier = std::make_shared<TracedTier>(s->inner, log);
  // The engine's store is the decorator's kv(), owned through the tier.
  s->engine = std::make_unique<cachegen::Engine>(
      EngineOptions(),
      std::shared_ptr<cachegen::KVStore>(s->tier, &s->tier->kv()));
  s->engine->calibration();
  s->server = std::make_unique<ClusterServer>(
      *s->engine, s->tier, cachegen::BandwidthTrace::Constant(kLinkGbps),
      w.copts);
  for (const auto& ctx : w.prestore) {
    s->prestore.attempted += 1;
    try {
      s->server->Prestore(std::span(&ctx, 1));
    } catch (const std::exception&) {
      s->prestore.failed += 1;
    }
  }
  return s;
}

// ---------------------------------------------------------------------------
// Outcome checks and digest

uint64_t Fnv(uint64_t h, const void* p, size_t n) {
  const auto* b = static_cast<const unsigned char*>(p);
  for (size_t i = 0; i < n; ++i) {
    h ^= b[i];
    h *= 0x100000001b3ull;
  }
  return h;
}

template <typename T>
uint64_t FnvValue(uint64_t h, const T& v) {
  return Fnv(h, &v, sizeof(v));
}

// Hash over every RequestOutcome field, in declaration order.
uint64_t Digest(const std::vector<RequestOutcome>& outcomes) {
  uint64_t h = 0xcbf29ce484222325ull;
  for (const RequestOutcome& o : outcomes) {
    const ClusterRequest& r = o.request;
    h = FnvValue(h, r.id);
    h = FnvValue(h, r.arrival_s);
    h = Fnv(h, r.context_id.data(), r.context_id.size());
    h = FnvValue(h, r.spec.seed);
    h = FnvValue(h, r.spec.num_tokens);
    h = FnvValue(h, r.spec.prefix_seed);
    h = FnvValue(h, r.spec.prefix_tokens);
    h = FnvValue(h, r.slo_s);
    h = FnvValue(h, r.weight);
    h = FnvValue(h, o.worker);
    h = FnvValue(h, o.admit_s);
    h = FnvValue(h, o.queue_delay_s);
    h = FnvValue(h, o.load_finish_s);
    h = FnvValue(h, o.ttft_s);
    h = FnvValue(h, o.finish_s);
    h = FnvValue(h, o.slo_violated);
    h = FnvValue(h, o.cache_hit);
    h = FnvValue(h, o.cold_hit);
    h = FnvValue(h, o.remote_hit);
    h = FnvValue(h, o.prefix_hit);
    h = FnvValue(h, o.covered_tokens);
    h = FnvValue(h, o.forced_text);
    h = FnvValue(h, o.quality);
    h = FnvValue(h, o.bytes_sent);
    h = FnvValue(h, o.answer_correct);
    h = FnvValue(h, o.write_back_done);
    h = FnvValue(h, o.write_back_failed);
    h = FnvValue(h, o.fabric_node);
    h = FnvValue(h, o.base_quality);
    h = FnvValue(h, o.refine_delay_s);
    h = FnvValue(h, o.base_token_fraction);
    h = FnvValue(h, o.enhanced_token_fraction);
  }
  return h;
}

// Served exactly once, one scenario each, scenario rates summing to 1, and
// TTFT >= queue wait >= 0.
void CheckOutcomes(const std::vector<ClusterRequest>& trace,
                   const std::vector<RequestOutcome>& outcomes,
                   const std::string& phase, std::vector<std::string>& errors) {
  if (outcomes.size() != trace.size()) {
    errors.push_back(phase + ": " + std::to_string(outcomes.size()) +
                     " outcomes for " + std::to_string(trace.size()) +
                     " requests");
    return;
  }
  std::vector<int> seen(trace.size(), 0);
  size_t bad_scenario = 0, bad_times = 0, bad_ids = 0;
  for (const RequestOutcome& o : outcomes) {
    const uint64_t id = o.request.id;
    if (id >= trace.size() || trace[id].context_id != o.request.context_id) {
      ++bad_ids;
      continue;
    }
    seen[id] += 1;
    const int scenarios = (o.cache_hit && !o.cold_hit) +
                          (o.cache_hit && o.cold_hit) + o.prefix_hit +
                          o.forced_text;
    if (scenarios != 1) ++bad_scenario;
    if (!(o.queue_delay_s >= 0.0 && o.ttft_s >= o.queue_delay_s)) ++bad_times;
  }
  for (int n : seen) {
    if (n != 1) ++bad_ids;
  }
  if (bad_ids) {
    errors.push_back(phase + ": " + std::to_string(bad_ids) +
                     " requests not served exactly once");
  }
  if (bad_scenario) {
    errors.push_back(phase + ": " + std::to_string(bad_scenario) +
                     " outcomes not in exactly one of hot/cold/prefix/miss");
  }
  if (bad_times) {
    errors.push_back(phase + ": " + std::to_string(bad_times) +
                     " outcomes violate ttft >= queue wait >= 0");
  }
  const cachegen::ClusterSummary s = cachegen::Summarize(outcomes);
  const double sum = s.hot_hit_rate + s.cold_hit_rate + s.prefix_hit_rate +
                     s.miss_rate;
  if (std::fabs(sum - 1.0) > 1e-9) {
    errors.push_back(phase + ": scenario fractions sum to " +
                     std::to_string(sum));
  }
}

// ---------------------------------------------------------------------------
// Virtual-time (modelled system) figures of one Serve.

struct Virtual {
  double ttft_p50 = 0.0, ttft_tail = 0.0, tail_pct = 0.0;
  size_t n = 0;
  double slo_attainment = 0.0, quality_mean = 0.0, kv_bytes_per_tok = 0.0;
  double queue_p50 = 0.0, queue_tail = 0.0, load_p50 = 0.0;
  double queue_first_tenth = 0.0, queue_last_tenth = 0.0;
};

Virtual VirtualFigures(const std::vector<RequestOutcome>& out,
                       size_t attempted) {
  Virtual v;
  v.n = out.size();
  if (out.empty()) return v;
  std::vector<double> ttft, queue, load;
  double quality = 0.0, bytes = 0.0, tokens = 0.0;
  size_t met = 0;
  for (const RequestOutcome& o : out) {
    ttft.push_back(o.ttft_s);
    queue.push_back(o.queue_delay_s);
    load.push_back(o.load_finish_s);
    quality += o.quality;
    bytes += o.bytes_sent;
    tokens += static_cast<double>(o.request.spec.num_tokens);
    met += o.slo_violated ? 0 : 1;
  }
  const size_t tenth = std::max<size_t>(1, out.size() / 10);
  const double per = 1.0 / static_cast<double>(tenth);
  for (size_t i = 0; i < tenth; ++i) {
    v.queue_first_tenth += queue[i] * per;
    v.queue_last_tenth += queue[out.size() - 1 - i] * per;
  }
  std::sort(ttft.begin(), ttft.end());
  std::sort(queue.begin(), queue.end());
  std::sort(load.begin(), load.end());
  v.tail_pct = TailPercentile(out.size());
  v.ttft_p50 = Percentile(ttft, 50.0);
  v.ttft_tail = Percentile(ttft, v.tail_pct);
  v.queue_p50 = Percentile(queue, 50.0);
  v.queue_tail = Percentile(queue, v.tail_pct);
  v.load_p50 = Percentile(load, 50.0);
  // Failed requests count as SLO misses: divide by what was attempted.
  v.slo_attainment = static_cast<double>(met) / static_cast<double>(attempted);
  v.quality_mean = quality / static_cast<double>(out.size());
  v.kv_bytes_per_tok = tokens > 0.0 ? bytes / tokens : 0.0;
  return v;
}

// Count and mean TTFT of each serving scenario, for the report.
std::string Scenarios(const std::vector<RequestOutcome>& out) {
  std::map<std::string, std::pair<size_t, double>> by;
  for (const RequestOutcome& o : out) {
    std::string k = o.cache_hit ? (o.cold_hit ? "cold" : "hot")
                                : (o.prefix_hit ? "prefix" : "miss");
    if (o.remote_hit) k += "+remote";
    by[k].first += 1;
    by[k].second += o.ttft_s;
  }
  std::string s;
  for (const auto& [k, v] : by) {
    char buf[96];
    std::snprintf(buf, sizeof(buf), "%s%s %zu / %.3f", s.empty() ? "" : ", ",
                  k.c_str(), v.first, v.second / static_cast<double>(v.first));
    s += buf;
  }
  return s;
}

// ---------------------------------------------------------------------------
// Arrival-rate ladder: the highest rate r_k = 0.1 Hz * 1.05^k at which the
// workload's goal share of requests meets the SLO without a growing backlog
// (mean queue wait of the last tenth of the trace within 0.1 * SLO of the
// first tenth's). A failed request counts as a miss. Rungs replay the
// workload's request mix on the set-up's tier with write-back and KV
// assembly off, so rungs cost little wall time and leave the tier's set of
// contexts unchanged. Found by bisection, which assumes a rung that fails
// is not followed by one that passes.

struct Ladder {
  double max_rate_hz = 0.0;
  std::string rungs;  // "rate:attainment:pass" per rung, in visit order
  PhaseCount count;
};

Ladder MaxRate(const Workload& w, Setup& s, std::vector<std::string>& errors) {
  ClusterServer::Options o = w.copts;
  o.write_back_on_miss = false;
  o.assemble_kv = false;
  ClusterServer server(*s.engine, s.tier,
                       cachegen::BandwidthTrace::Constant(kLinkGbps), o);
  const auto rate = [](size_t k) { return 0.1 * std::pow(1.05, k); };
  Ladder l;
  const auto pass = [&](size_t k) {
    const auto trace = w.trace(rate(k), w.ladder_requests);
    l.count.attempted += trace.size();
    std::vector<RequestOutcome> out;
    try {
      out = server.Serve(trace);
    } catch (const std::exception& e) {
      l.count.failed += trace.size();
      errors.push_back(std::string("ladder: Serve threw: ") + e.what());
      return false;
    }
    CheckOutcomes(trace, out, "ladder", errors);
    const Virtual v = VirtualFigures(out, trace.size());
    const bool ok = v.slo_attainment >= w.goal &&
                    v.queue_last_tenth <= v.queue_first_tenth + 0.1 * w.slo_s;
    char buf[64];
    std::snprintf(buf, sizeof(buf), " %.3g:%.3f:%s", rate(k), v.slo_attainment,
                  ok ? "ok" : "no");
    l.rungs += buf;
    return ok;
  };
  // The top rung, 0.1 * 1.05^95 ~ 10.4 Hz, is taken to fail unvisited: it is
  // several times the capacity of every workload here.
  size_t lo = 0, hi = 95;
  if (!pass(lo)) return l;
  while (hi - lo > 1) {
    const size_t mid = (lo + hi) / 2;
    (pass(mid) ? lo : hi) = mid;
  }
  l.max_rate_hz = rate(lo);
  return l;
}

// ---------------------------------------------------------------------------
// Per-layer figures from the decorators and the tier's own counters.

struct TierStats {
  double demotions = 0, promotions = 0, demotion_drops = 0, evictions = 0;
  double dedup_ratio = 0, remote_fetch_ratio = 0, max_read_share = 0;
};

void AddTiered(const cachegen::TieredKVStore* t, TierStats& s) {
  if (!t) return;
  const auto st = t->stats();
  s.demotions += static_cast<double>(st.demotions);
  s.promotions += static_cast<double>(st.promotions);
  s.demotion_drops += static_cast<double>(st.demotion_drops);
  s.evictions += static_cast<double>(st.hot_tier.evictions);
}

TierStats CollectTierStats(const std::shared_ptr<CacheTier>& inner) {
  TierStats s;
  uint64_t deduped = 0, unique = 0;
  const auto add_prefix = [&](const cachegen::PrefixCache* p) {
    if (!p) return;
    const auto st = p->stats();
    deduped += st.deduped_chunks;
    unique += st.unique_chunks;
  };
  if (auto fabric = std::dynamic_pointer_cast<cachegen::CacheFabric>(inner)) {
    for (size_t i = 0; i < fabric->num_nodes(); ++i) {
      AddTiered(fabric->node_tier(i).tiered(), s);
      add_prefix(fabric->node_tier(i).prefix());
    }
    const auto st = fabric->stats();
    s.remote_fetch_ratio =
        st.chunk_reads ? static_cast<double>(st.remote_chunk_fetches) /
                             static_cast<double>(st.chunk_reads)
                       : 0.0;
    s.max_read_share = st.max_read_share();
  } else {
    AddTiered(inner->tiered(), s);
    add_prefix(inner->prefix());
    if (!inner->tiered() && inner->hot_tier()) {
      s.evictions = static_cast<double>(inner->hot_tier()->stats().evictions);
    }
  }
  s.dedup_ratio = deduped + unique ? static_cast<double>(deduped) /
                                         static_cast<double>(deduped + unique)
                                   : 0.0;
  return s;
}

std::vector<Metric> StorageMetrics(const StorageCounters& c,
                                   const TierStats& t) {
  const auto ratio = [](uint64_t a, uint64_t b) {
    return b ? static_cast<double>(a) / static_cast<double>(b) : 0.0;
  };
  return {
      {"storage.full_hit_ratio", ratio(c.full_hits, c.lookups), "ratio"},
      {"storage.covered_tok_ratio",
       ratio(c.covered_tokens, c.requested_tokens), "ratio"},
      {"storage.get_mb", static_cast<double>(c.get_bytes) / 1e6, "MB"},
      {"storage.get_null_ratio", ratio(c.get_nulls, c.gets), "ratio"},
      {"storage.put_mb", static_cast<double>(c.put_bytes) / 1e6, "MB"},
      {"storage.encode_skip_ratio",
       ratio(c.coverage_skipped, c.coverage_chunks), "ratio"},
      {"storage.demotions", t.demotions, "count"},
      {"storage.promotions", t.promotions, "count"},
      {"storage.demotion_drops", t.demotion_drops, "count"},
      {"storage.evictions", t.evictions, "count"},
      {"prefix.dedup_ratio", t.dedup_ratio, "ratio"},
      {"fabric.remote_fetch_ratio", t.remote_fetch_ratio, "ratio"},
      {"fabric.max_read_share", t.max_read_share, "ratio"},
  };
}

// Span durations of one op, in seconds, sorted.
std::vector<double> Durations(const std::vector<Span>& spans, const char* op) {
  std::vector<double> d;
  for (const Span& s : spans) {
    if (std::strcmp(s.op, op) == 0) d.push_back((s.end_ns - s.start_ns) * 1e-9);
  }
  std::sort(d.begin(), d.end());
  return d;
}

// Part of [begin, end) covered by the union of the storage spans.
double CoveredNs(const std::vector<Span>& spans, int64_t begin, int64_t end) {
  std::vector<std::pair<int64_t, int64_t>> iv;
  for (const Span& s : spans) {
    if (std::strncmp(s.op, "storage.", 8) != 0) continue;
    const int64_t a = std::max(begin, s.start_ns), b = std::min(end, s.end_ns);
    if (a < b) iv.emplace_back(a, b);
  }
  std::sort(iv.begin(), iv.end());
  double covered = 0.0;
  int64_t cur_a = 0, cur_b = 0;
  bool open = false;
  for (const auto& [a, b] : iv) {
    if (open && a <= cur_b) {
      cur_b = std::max(cur_b, b);
      continue;
    }
    if (open) covered += static_cast<double>(cur_b - cur_a);
    cur_a = a;
    cur_b = b;
    open = true;
  }
  if (open) covered += static_cast<double>(cur_b - cur_a);
  return covered;
}

void WriteSpans(const std::vector<Span>& spans, const fs::path& path) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (!f) return;
  std::fprintf(f, "{\"traceEvents\":[\n");
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    std::fprintf(f,
                 "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%llu,"
                 "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"value\":%.17g}}\n",
                 i ? "," : "", s.op, static_cast<unsigned long long>(s.req),
                 s.start_ns * 1e-3, (s.end_ns - s.start_ns) * 1e-3, s.value);
  }
  std::fprintf(f, "]}\n");
  std::fclose(f);
}

struct Usage {
  double user_s = 0.0, sys_s = 0.0, ctx_switches = 0.0;
};

Usage GetUsage() {
  rusage u{};
  getrusage(RUSAGE_SELF, &u);
  const auto secs = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) + t.tv_usec * 1e-6;
  };
  return {secs(u.ru_utime), secs(u.ru_stime),
          static_cast<double>(u.ru_nvcsw + u.ru_nivcsw)};
}

double PeakRssMb() {
  rusage u{};
  getrusage(RUSAGE_SELF, &u);
  return static_cast<double>(u.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

struct Rep {
  bool traced = false;
  double setup_s = 0.0, wall_s = 0.0;
  Usage usage;
  bool threw = false;
  std::vector<RequestOutcome> outcomes;
  uint64_t digest = 0;
};

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  fs::path scratch;
};

bool ParseArgs(int argc, char** argv, Args& a) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i], v = argv[i + 1];
    if (k == "--workload") a.workload = v;
    else if (k == "--seed") a.seed = std::stoull(v);
    else if (k == "--seconds") a.seconds = std::stod(v);
    else if (k == "--trace") a.trace = v == "1";
    else if (k == "--scratch") a.scratch = v;
    else return false;
  }
  return !a.workload.empty() && !a.scratch.empty() && a.seconds > 0.0;
}

void PrintJson(bool correct, uint64_t attempted, uint64_t failed,
               const std::vector<Metric>& metrics) {
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              correct ? "true" : "false",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed));
  for (size_t i = 0; i < metrics.size(); ++i) {
    const double v = std::isfinite(metrics[i].value) ? metrics[i].value : 0.0;
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", i ? ", " : "",
                metrics[i].name.c_str(), v, metrics[i].unit.c_str());
  }
  std::printf("}}\n");
}

int Run(const Args& args) {
  Workload w;
  if (args.workload == "hot_stream") w = HotStream(args.seed);
  else if (args.workload == "prefix_writeback") w = PrefixWriteback(args.seed);
  else if (args.workload == "fabric_decode") w = FabricDecode(args.seed);
  else {
    std::fprintf(stderr, "unknown workload '%s'\n", args.workload.c_str());
    return 2;
  }
  // Sized once, on the pool's first use.
  setenv("CACHEGEN_THREADS", std::to_string(w.codec_threads).c_str(), 1);

  const auto run_t0 = Clock::now();
  const std::vector<ClusterRequest> trace = w.trace(w.rate_hz, w.num_requests);
  std::vector<std::string> errors;
  PhaseCount prestore, serve, storage;
  SpanLog log;
  std::vector<Rep> reps;
  std::unique_ptr<Setup> last;
  std::vector<fs::path> cold_dirs;
  std::vector<Metric> storage_metrics;  // from the first traced repeat
  std::vector<std::pair<int64_t, int64_t>> traced_serves;

  // Repeat {set up, Serve} until --seconds have passed, at least three
  // times (four when traced: traced and untraced repeats alternate).
  const size_t min_reps = args.trace ? 4 : 3;
  for (size_t i = 0;; ++i) {
    Rep rep;
    rep.traced = args.trace && i % 2 == 0;
    const fs::path cold = args.scratch / ("cold-" + std::to_string(i));
    cold_dirs.push_back(cold);
    last.reset();
    const auto t0 = Clock::now();
    last = Build(w, cold, log);
    rep.setup_s = Since(t0);
    prestore.attempted += last->prestore.attempted;
    prestore.failed += last->prestore.failed;

    last->tier->counters().ResetTraffic();
    log.set_enabled(rep.traced);
    serve.attempted += trace.size();
    const Usage u0 = GetUsage();
    const int64_t serve_begin_ns = NowNs();
    const auto t1 = Clock::now();
    try {
      rep.outcomes = last->server->Serve(trace);
    } catch (const std::exception& e) {
      rep.threw = true;
      serve.failed += trace.size();
      errors.push_back(std::string("Serve threw: ") + e.what());
    }
    rep.wall_s = Since(t1);
    const int64_t serve_end_ns = NowNs();
    const Usage u1 = GetUsage();
    log.set_enabled(false);
    rep.usage = {u1.user_s - u0.user_s, u1.sys_s - u0.sys_s,
                 u1.ctx_switches - u0.ctx_switches};
    if (rep.traced) traced_serves.emplace_back(serve_begin_ns, serve_end_ns);

    const auto tf = Clock::now();
    last->tier->Flush();
    const double flush_s = Since(tf);
    const int64_t balance = last->tier->counters().pin_balance.load();
    if (balance != 0) {
      errors.push_back("pin balance " + std::to_string(balance) +
                       " after Flush (pinned lookups + Pin - Unpin)");
    }
    if (!rep.threw) {
      CheckOutcomes(trace, rep.outcomes, "serve", errors);
      rep.digest = Digest(rep.outcomes);
      for (const RequestOutcome& o : rep.outcomes) {
        if (o.write_back_done || o.write_back_failed) storage.attempted += 1;
        if (o.write_back_failed) {
          storage.failed += 1;
          serve.failed += 1;
        }
      }
    }
    if (rep.traced && i == 0) {
      storage_metrics =
          StorageMetrics(last->tier->counters(), CollectTierStats(last->inner));
      storage_metrics.push_back({"storage.flush_ms", flush_s * 1e3, "ms"});
    }
    reps.push_back(std::move(rep));
    if (reps.size() >= min_reps && Since(run_t0) >= args.seconds) break;
  }

  // Outcome digests: identical across repeats unless the workload documents
  // a timing-dependent corner.
  std::set<uint64_t> digests;
  for (const Rep& r : reps) {
    if (!r.threw) digests.insert(r.digest);
  }
  if (w.deterministic && digests.size() > 1) {
    errors.push_back(std::to_string(digests.size()) +
                     " distinct outcome digests across repeats of a "
                     "deterministic workload");
  }

  const double reps_s = Since(run_t0);
  const auto ladder_t0 = Clock::now();
  const Ladder ladder = MaxRate(w, *last, errors);
  const double ladder_s = Since(ladder_t0);

  ProbeResult probes;
  if (args.trace) {
    ProbeInputs in;
    in.engine = last->engine.get();
    std::set<std::string> ids;
    for (const ClusterRequest& r : trace) {
      in.request_ids.push_back(r.context_id);
      if (ids.insert(r.context_id).second && in.contexts.size() < 16) {
        in.contexts.push_back(r.spec);
      }
    }
    in.link_gbps = kLinkGbps;
    in.slo_s = w.slo_s;
    probes = RunProbes(in);
    errors.insert(errors.end(), probes.errors.begin(), probes.errors.end());
  }

  last.reset();
  for (const fs::path& d : cold_dirs) {
    std::error_code ec;
    fs::remove_all(d, ec);
    if (fs::exists(d)) {
      errors.push_back("cold directory " + d.string() + " left behind");
    }
  }

  // ---- metrics ----------------------------------------------------------
  std::vector<double> setup, rps, cpu_us, p50, tail, slo, quality, bpt;
  std::vector<double> rps_traced, self_us, ctxsw, sysfrac;
  Virtual shown;
  const std::vector<Span> spans = log.Take();
  for (const Rep& r : reps) {
    setup.push_back(r.setup_s);
    if (r.threw) continue;
    const double n = static_cast<double>(r.outcomes.size());
    const Virtual v = VirtualFigures(r.outcomes, trace.size());
    shown = v;
    if (r.traced) {
      rps_traced.push_back(n / r.wall_s);
      continue;
    }
    ctxsw.push_back(r.usage.ctx_switches / n);
    sysfrac.push_back(r.usage.sys_s /
                      std::max(1e-9, r.usage.user_s + r.usage.sys_s));
    rps.push_back(n / r.wall_s);
    cpu_us.push_back((r.usage.user_s + r.usage.sys_s) * 1e6 / n);
    p50.push_back(v.ttft_p50);
    tail.push_back(v.ttft_tail);
    slo.push_back(v.slo_attainment);
    quality.push_back(v.quality_mean);
    bpt.push_back(v.kv_bytes_per_tok);
  }
  for (const auto& [b, e] : traced_serves) {
    self_us.push_back((static_cast<double>(e - b) - CoveredNs(spans, b, e)) *
                      1e-3 / static_cast<double>(trace.size()));
  }

  std::vector<Metric> m;
  if (!args.trace) {
    m = {
        {"setup_s", Median(setup), "s"},
        {"serve_req_per_s", Median(rps), "req/s"},
        {"serve_cpu_us_per_req", Median(cpu_us), "us"},
        {"peak_rss_mb", PeakRssMb(), "MB"},
        {"ttft_p50_s", Median(p50), "s"},
        {"ttft_tail_s", Median(tail), "s"},
        {"slo_attainment", Median(slo), "ratio"},
        {"quality_mean", Median(quality), "ratio"},
        {"kv_bytes_per_tok", Median(bpt), "B/token"},
        {"max_rate_hz", ladder.max_rate_hz, "Hz"},
    };
  } else {
    m = {
        {"cluster.self_us_per_req", Median(self_us), "us"},
        {"cluster.ctx_switches_per_req", Median(ctxsw), "count"},
        {"cluster.sys_cpu_frac", Median(sysfrac), "ratio"},
        {"cluster.queue_wait_p50_s", shown.queue_p50, "s"},
        {"cluster.queue_wait_tail_s", shown.queue_tail, "s"},
        {"cluster.load_p50_s", shown.load_p50, "s"},
        {"bench.trace_overhead_frac",
         Median(rps_traced) > 0.0 ? Median(rps) / Median(rps_traced) - 1.0
                                  : 0.0,
         "ratio"},
    };
    const std::vector<double> lookup = Durations(spans, "storage.lookup");
    const std::vector<double> get = Durations(spans, "storage.get");
    const std::vector<double> put = Durations(spans, "storage.put");
    m.push_back({"storage.tier_lookup_us_p50",
                 Percentile(lookup, 50.0) * 1e6, "us"});
    m.push_back({"storage.tier_lookup_us_tail",
                 Percentile(lookup, TailPercentile(lookup.size())) * 1e6,
                 "us"});
    m.push_back({"storage.get_us_p50", Percentile(get, 50.0) * 1e6, "us"});
    m.push_back({"storage.put_ms_p50", Percentile(put, 50.0) * 1e3, "ms"});
    m.insert(m.end(), storage_metrics.begin(), storage_metrics.end());
    m.insert(m.end(), probes.metrics.begin(), probes.metrics.end());
    WriteSpans(spans, args.scratch.parent_path() /
                          ("spans-" + w.name + "-" + std::to_string(args.seed) +
                           ".json"));
  }

  // ---- report -------------------------------------------------------------
  std::printf("workload %s seed %llu: %zu repeats, %zu requests each, %zu "
              "workers, codec pool %u\n",
              w.name.c_str(), static_cast<unsigned long long>(args.seed),
              reps.size(), trace.size(), w.copts.num_workers, w.codec_threads);
  std::printf("ttft tail = p%.2f over %zu requests (%.0f beyond it)\n",
              shown.tail_pct, shown.n,
              static_cast<double>(shown.n) * (100.0 - shown.tail_pct) / 100.0);
  std::printf("wall: repeats %.2f s, ladder %.2f s, total %.2f s\n", reps_s,
              ladder_s, Since(run_t0));
  std::printf("max_rate ladder (%zu requests per rung, Hz:attainment):%s\n",
              w.ladder_requests, ladder.rungs.c_str());
  std::printf("scenarios (count / mean ttft s): %s\n",
              Scenarios(reps.back().outcomes).c_str());
  std::printf("outcome digests: %zu distinct over %zu repeats", digests.size(),
              reps.size());
  for (uint64_t d : digests) {
    std::printf(" %016llx", static_cast<unsigned long long>(d));
  }
  if (!w.deterministic) {
    std::printf(" (nondeterministic by design: the assemble_kv pin-lingering "
                "corner documented in cluster_server.h)");
  }
  std::printf("\n");
  const PhaseCount probe = probes.count;
  for (const auto& [phase, c] :
       std::initializer_list<std::pair<const char*, PhaseCount>>{
           {"prestore", prestore}, {"serve", serve}, {"storage", storage},
           {"ladder", ladder.count}, {"probes", probe}}) {
    std::printf("phase %-8s attempted %llu succeeded %llu failed %llu\n", phase,
                static_cast<unsigned long long>(c.attempted),
                static_cast<unsigned long long>(c.attempted - c.failed),
                static_cast<unsigned long long>(c.failed));
  }
  for (const Metric& x : m) {
    std::printf("%-32s %.6g %s\n", x.name.c_str(), x.value, x.unit.c_str());
  }
  for (const std::string& e : errors) {
    std::fprintf(stderr, "CHECK FAILED: %s\n", e.c_str());
  }
  std::fflush(stderr);

  const uint64_t attempted = prestore.attempted + serve.attempted +
                             ladder.count.attempted + probe.attempted;
  const uint64_t failed =
      prestore.failed + serve.failed + ladder.count.failed + probe.failed;
  const bool correct = errors.empty() && failed == 0;
  PrintJson(correct, attempted, failed, m);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace servebench

int main(int argc, char** argv) {
  servebench::Args args;
  try {
    if (!servebench::ParseArgs(argc, argv, args)) {
      std::fprintf(stderr,
                   "usage: serve_bench --workload NAME --seed N --seconds S "
                   "--trace 0|1 --scratch DIR\n");
      return 2;
    }
    return servebench::Run(args);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "serve_bench: %s\n", e.what());
    return 1;
  }
}
