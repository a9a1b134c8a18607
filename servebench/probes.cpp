#include "probes.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <functional>
#include <memory>
#include <stdexcept>

#include "ac/freq_table.h"
#include "ac/range_decoder.h"
#include "ac/range_encoder.h"
#include "bitstream/bit_reader.h"
#include "bitstream/bit_writer.h"
#include "cluster/shared_link.h"
#include "codec/encoding_level.h"
#include "fabric/hash_ring.h"
#include "net/link.h"
#include "obs/metrics.h"
#include "prefix/radix_index.h"
#include "quant/symbol_kernels.h"
#include "serving/engine.h"
#include "streamer/streamer.h"

namespace servebench {
namespace {

using Clock = std::chrono::steady_clock;

double Since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

// Seconds per call of `fn`, repeated until at least `min_s` has elapsed.
double PerCall(const std::function<void()>& fn, double min_s) {
  size_t calls = 0;
  const auto t0 = Clock::now();
  double elapsed = 0.0;
  do {
    fn();
    ++calls;
    elapsed = Since(t0);
  } while (elapsed < min_s);
  return elapsed / static_cast<double>(calls);
}

// Runs one probe; it fails if it throws or any of its checks fails.
void Guard(ProbeResult& r, const char* name, const std::function<void()>& fn) {
  const size_t errors = r.errors.size();
  r.count.attempted += 1;
  try {
    fn();
  } catch (const std::exception& e) {
    r.errors.push_back(std::string(name) + " threw: " + e.what());
  }
  if (r.errors.size() > errors) r.count.failed += 1;
}

void Fail(ProbeResult& r, const std::string& what) { r.errors.push_back(what); }

// Keeps a timed loop's result alive, so the loop is not optimised away.
void Keep(uint64_t v) {
  static std::atomic<uint64_t> sink{0};
  sink.store(v, std::memory_order_relaxed);
}

// Single-flow SharedLink step: the link's fixed cost per request, free of
// contention.
void LinkProbe(const ProbeInputs& in, ProbeResult& r) {
  cachegen::SharedLink link(cachegen::BandwidthTrace::Constant(in.link_gbps));
  uint64_t i = 0;
  const double per = PerCall(
      [&] {
        const auto flow = link.Register(link.now());
        link.Transfer(flow, 64e3);
        link.CompleteFlow(flow, link.FlowClock(flow), i++);
        link.ReleaseHold(link.PopCompletion(1).hold);
      },
      0.2);
  r.metrics.push_back({"cluster.link_transfer_us", per * 1e6, "us"});
}

void StreamerProbe(const ProbeInputs& in, ProbeResult& r) {
  cachegen::Engine& engine = *in.engine;
  const size_t levels = cachegen::DefaultEncodingLevels().size();
  const cachegen::KVStreamer streamer(engine.cost(), engine.model(), in.slo_s,
                                      levels);
  std::vector<cachegen::ContextPlan> plans;
  for (const auto& spec : in.contexts) {
    plans.push_back(engine.PlanFromCalibration(spec.num_tokens));
  }
  size_t chunks = 0, text = 0, kv = 0;
  double level_sum = 0.0;
  for (const auto& plan : plans) {
    cachegen::Link link(cachegen::BandwidthTrace::Constant(in.link_gbps));
    for (const auto& step : streamer.Stream(plan, link).steps) {
      ++chunks;
      if (step.config.text) {
        ++text;
      } else {
        ++kv;
        level_sum += step.config.level_id;
      }
    }
  }
  const double per_pass = PerCall(
      [&] {
        for (const auto& plan : plans) {
          cachegen::Link link(cachegen::BandwidthTrace::Constant(in.link_gbps));
          streamer.Stream(plan, link);
        }
      },
      0.2);
  r.metrics.push_back({"streamer.stream_us_per_chunk",
                       per_pass * 1e6 / static_cast<double>(chunks), "us"});
  r.metrics.push_back({"streamer.text_chunk_ratio",
                       static_cast<double>(text) / static_cast<double>(chunks),
                       "ratio"});
  r.metrics.push_back({"streamer.mean_level",
                       kv ? level_sum / static_cast<double>(kv) : -1.0,
                       "level"});
}

// StoreKV / AssembleKV / CalculateKV on a private engine over a memory
// store, so the workload's tier is not touched. Also checks that text-path
// assembly reproduces prefill bit for bit.
void ServingProbe(const ProbeInputs& in, ProbeResult& r) {
  cachegen::Engine engine(in.engine->options(),
                          std::make_shared<cachegen::MemoryKVStore>());
  const size_t n = std::min<size_t>(2, in.contexts.size());
  double prefill_s = 0.0, store_s = 0.0, assemble_s = 0.0;
  size_t tokens = 0;
  for (size_t i = 0; i < n; ++i) {
    const cachegen::ContextSpec& spec = in.contexts[i];
    const std::string id = "probe-" + std::to_string(i);
    auto t0 = Clock::now();
    const cachegen::KVCache ref = engine.CalculateKV(spec);
    prefill_s += Since(t0);
    t0 = Clock::now();
    const cachegen::ContextPlan plan = engine.StoreKV(id, spec);
    store_s += Since(t0);
    const std::vector<int> kv_levels(plan.chunks.size(),
                                     cachegen::DefaultLevel().id);
    t0 = Clock::now();
    const cachegen::KVCache assembled = engine.AssembleKV(id, spec, kv_levels);
    assemble_s += Since(t0);
    tokens += spec.num_tokens;
    if (assembled.num_tokens() != spec.num_tokens) {
      Fail(r, "AssembleKV returned " + std::to_string(assembled.num_tokens()) +
                  " tokens for a " + std::to_string(spec.num_tokens) +
                  "-token context");
    }
    const std::vector<int> text_levels(plan.chunks.size(), -1);
    const cachegen::KVCache text = engine.AssembleKV(id, spec, text_levels);
    bool exact = text.num_layers() == ref.num_layers() &&
                 text.num_tokens() == ref.num_tokens();
    for (size_t l = 0; exact && l < ref.num_layers(); ++l) {
      const auto& a = text.layer(l);
      const auto& b = ref.layer(l);
      exact = std::equal(a.k.Data().begin(), a.k.Data().end(),
                         b.k.Data().begin()) &&
              std::equal(a.v.Data().begin(), a.v.Data().end(),
                         b.v.Data().begin());
    }
    if (!exact) Fail(r, "text-path AssembleKV differs from CalculateKV");
  }
  const double ktok = static_cast<double>(tokens) / 1e3;
  r.metrics.push_back(
      {"serving.store_kv_ms_per_ktok", 1e3 * store_s / ktok, "ms/ktok"});
  r.metrics.push_back(
      {"serving.assemble_kv_ms_per_ktok", 1e3 * assemble_s / ktok, "ms/ktok"});
  r.metrics.push_back(
      {"llm.prefill_ms_per_ktok", 1e3 * prefill_s / ktok, "ms/ktok"});
}

// Chunk encode/decode at every level, with the round trip checked against
// the level's calibrated quality; then the range coder and quantizer
// kernels on the same chunk's rows.
void CodecProbe(const ProbeInputs& in, ProbeResult& r) {
  cachegen::Engine& engine = *in.engine;
  const cachegen::ContextSpec& spec = in.contexts.front();
  const size_t chunk_tokens =
      std::min(engine.options().chunk_tokens, spec.num_tokens);
  const cachegen::KVCache full = engine.CalculateKV(spec);
  const cachegen::KVCache chunk = full.SliceTokens(0, chunk_tokens);
  const double symbols =
      2.0 * static_cast<double>(chunk.num_layers() * chunk.num_tokens() *
                                chunk.num_channels());
  const auto& quality = engine.calibration().quality_per_level;
  double enc_s = 0.0, dec_s = 0.0, passes = 0.0;
  double default_bytes = 0.0;
  for (const auto& level : cachegen::DefaultEncodingLevels()) {
    auto t0 = Clock::now();
    const cachegen::EncodedChunk enc =
        engine.EncoderFor(level.id).EncodeChunk(chunk, 0, 0, 1);
    enc_s += Since(t0);
    t0 = Clock::now();
    const cachegen::KVCache dec =
        engine.DecoderFor(level.id).DecodeChunk(enc, 1);
    dec_s += Since(t0);
    passes += 1.0;
    if (level.id == cachegen::DefaultLevel().id) {
      default_bytes = static_cast<double>(enc.PayloadBytes());
    }
    // The level's error bound is the quality its calibration promises the
    // streamer; a round trip may not deliver less.
    const double q = engine.quality_model().QualityFromKV(chunk, dec);
    const double bound = quality.at(static_cast<size_t>(level.id)) - 0.02;
    if (!(q >= bound)) {
      char buf[160];
      std::snprintf(buf, sizeof(buf),
                    "codec level %d round trip quality %.4f below bound %.4f",
                    level.id, q, bound);
      Fail(r, buf);
    }
  }
  r.metrics.push_back(
      {"codec.encode_msym_s", passes * symbols / enc_s / 1e6, "Msym/s"});
  r.metrics.push_back(
      {"codec.decode_msym_s", passes * symbols / dec_s / 1e6, "Msym/s"});
  r.metrics.push_back({"codec.bytes_per_tok",
                       default_bytes / static_cast<double>(chunk.num_tokens()),
                       "B/token"});

  // Quantizer: one symbol per element of every K row, per-channel sigma.
  const size_t ch = chunk.num_channels();
  std::vector<double> zero(ch, 0.0), sigma(ch, 1.0), ref(ch, 0.0);
  for (size_t c = 0; c < ch; ++c) {
    double ss = 0.0;
    for (size_t t = 0; t < chunk.num_tokens(); ++t) {
      const double x = chunk.layer(0).k.At(t, c);
      ss += x * x;
    }
    sigma[c] = std::max(1e-6, std::sqrt(ss / chunk.num_tokens()));
  }
  constexpr uint32_t kMaxSym = 15;
  const double bin = 0.5;
  std::vector<uint32_t> syms(chunk.num_layers() * chunk.num_tokens() * ch);
  std::vector<float> out(ch);
  const double q_per = PerCall(
      [&] {
        uint32_t* s = syms.data();
        for (size_t l = 0; l < chunk.num_layers(); ++l) {
          for (size_t t = 0; t < chunk.num_tokens(); ++t, s += ch) {
            cachegen::QuantizeRow(chunk.layer(l).k.Row(t).data(), zero.data(),
                                  sigma.data(), bin, kMaxSym, ch, s);
          }
        }
      },
      0.1);
  const double r_per = PerCall(
      [&] {
        const uint32_t* s = syms.data();
        for (size_t row = 0; row < syms.size() / ch; ++row, s += ch) {
          cachegen::ReconstructRow(s, sigma.data(), bin, kMaxSym, false, ch,
                                   ref.data(), out.data());
        }
      },
      0.1);
  const double elems = static_cast<double>(syms.size());
  r.metrics.push_back(
      {"quant.quantize_melem_s", elems / q_per / 1e6, "Melem/s"});
  r.metrics.push_back(
      {"quant.reconstruct_melem_s", elems / r_per / 1e6, "Melem/s"});

  // Range coder over those symbols under their own histogram.
  std::vector<uint64_t> counts(2 * kMaxSym + 1, 1);
  for (uint32_t s : syms) counts[s] += 1;
  const cachegen::FreqTable table = cachegen::FreqTable::FromCounts(counts);
  cachegen::BitWriter w;
  cachegen::RangeEncoder encoder(w);
  encoder.EncodeRun(table, syms.data(), syms.size());
  encoder.Finish();
  const std::vector<uint8_t> bytes = w.bytes();
  std::vector<uint32_t> decoded(syms.size());
  const double d_per = PerCall(
      [&] {
        cachegen::BitReader reader(bytes);
        cachegen::RangeDecoder decoder(reader);
        decoder.DecodeRun(table, decoded.data(), decoded.size());
      },
      0.1);
  if (decoded != syms) Fail(r, "range decoder did not reproduce its input");
  r.metrics.push_back({"ac.decode_msym_s", elems / d_per / 1e6, "Msym/s"});
}

size_t CommonPrefix(const std::vector<uint32_t>& a,
                    const std::vector<uint32_t>& b) {
  const size_t n = std::min(a.size(), b.size());
  size_t i = 0;
  while (i < n && a[i] == b[i]) ++i;
  return i;
}

// The index holds every other context; every context is then queried and
// checked against a brute-force scan.
void RadixProbe(const ProbeInputs& in, ProbeResult& r) {
  std::vector<std::vector<uint32_t>> seqs;
  for (const auto& spec : in.contexts) seqs.push_back(ContextTokenIds(spec));
  cachegen::RadixPrefixIndex index;
  std::vector<size_t> inserted;
  for (size_t i = 0; i < seqs.size(); i += 2) {
    index.Insert(seqs[i]);
    inserted.push_back(i);
  }
  size_t mismatches = 0;
  for (const auto& q : seqs) {
    size_t best = 0;
    for (size_t i : inserted) best = std::max(best, CommonPrefix(q, seqs[i]));
    if (index.LongestPrefixTokens(q) != best) ++mismatches;
  }
  if (mismatches) {
    Fail(r, "radix index disagrees with brute force on " +
                std::to_string(mismatches) + " queries");
  }
  const double per = PerCall(
      [&] {
        uint64_t matched = 0;
        for (const auto& q : seqs) matched += index.LongestPrefixTokens(q);
        Keep(matched);
      },
      0.1);
  r.metrics.push_back({"prefix.radix_lookup_ns",
                       per * 1e9 / static_cast<double>(seqs.size()), "ns"});
}

void RingProbe(const ProbeInputs& in, ProbeResult& r) {
  const cachegen::HashRing ring(4);
  const double per = PerCall(
      [&] {
        uint64_t nodes = 0;
        for (const auto& id : in.request_ids) nodes += ring.PrimaryNode(id);
        Keep(nodes);
      },
      0.1);
  r.metrics.push_back(
      {"fabric.ring_lookup_ns",
       per * 1e9 / static_cast<double>(in.request_ids.size()), "ns"});
}

void ObsProbe(ProbeResult& r) {
  constexpr int kCalls = 1 << 20;
  const double counter = PerCall(
      [&] {
        for (int i = 0; i < kCalls; ++i) CG_METRIC_COUNT("servebench.probe", 1);
      },
      0.05);
  const double hist = PerCall(
      [&] {
        for (int i = 0; i < kCalls; ++i) {
          CG_METRIC_HIST("servebench.probe_us", i & 1023);
        }
      },
      0.05);
  r.metrics.push_back({"obs.counter_site_ns", counter * 1e9 / kCalls, "ns"});
  r.metrics.push_back({"obs.hist_site_ns", hist * 1e9 / kCalls, "ns"});
}

}  // namespace

ProbeResult RunProbes(const ProbeInputs& in) {
  ProbeResult r;
  Guard(r, "link", [&] { LinkProbe(in, r); });
  Guard(r, "streamer", [&] { StreamerProbe(in, r); });
  Guard(r, "serving", [&] { ServingProbe(in, r); });
  Guard(r, "codec", [&] { CodecProbe(in, r); });
  Guard(r, "radix", [&] { RadixProbe(in, r); });
  Guard(r, "ring", [&] { RingProbe(in, r); });
  Guard(r, "obs", [&] { ObsProbe(r); });
  return r;
}

}  // namespace servebench
