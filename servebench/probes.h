// Standalone per-layer probes: each times one layer's public functions on
// inputs drawn from the workload being measured (its contexts, its request
// ids, its link and SLO), and checks what it computes.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "llm/synthetic_model.h"

namespace cachegen {
class Engine;
}

namespace servebench {

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct PhaseCount {
  uint64_t attempted = 0;
  uint64_t failed = 0;
};

struct ProbeInputs {
  // The workload's engine: cost model, model geometry, codec ladder and
  // calibration (read-only use).
  cachegen::Engine* engine = nullptr;
  std::vector<cachegen::ContextSpec> contexts;  // distinct, trace order
  std::vector<std::string> request_ids;         // context id per request
  double link_gbps = 3.0;
  double slo_s = 3.0;
};

struct ProbeResult {
  std::vector<Metric> metrics;
  PhaseCount count;
  std::vector<std::string> errors;  // failed checks, one line each
};

ProbeResult RunProbes(const ProbeInputs& in);

}  // namespace servebench
