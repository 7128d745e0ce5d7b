// The sf-serve wire protocol: newline-delimited JSON (NDJSON), one request
// object per line in, one response object per line out, over an AF_UNIX
// socket or stdin/stdout. Reuses the src/support/json document model; modeled
// quantities travel as %.17g doubles so a response round-trips bit-exactly
// (the warm-start contract is checked end-to-end through this protocol).
//
// Request line:
//   {"id":"r1","client":"ci","model":"bert","batch":1,"seq":128,
//    "arch":"a100","deadline_ms":0}
// id is echoed back; client keys the per-client quota (default "anonymous");
// deadline_ms <= 0 means no deadline. "shutdown" as the model name asks the
// daemon to exit after responding (tools/sf_serve.cc).
//
// Response line (success):
//   {"id":"r1","status":"ok","outcome":"cold","coalesced":false, ...}
// status is "ok" or a StatusCodeName ("DEADLINE_EXCEEDED",
// "RESOURCE_EXHAUSTED", ...) with the detail in "error".
#ifndef SPACEFUSION_SRC_SERVE_PROTOCOL_H_
#define SPACEFUSION_SRC_SERVE_PROTOCOL_H_

#include <cstdint>
#include <string>

#include "src/graph/models.h"
#include "src/graph/shape_bucket.h"
#include "src/sim/arch.h"
#include "src/sim/kernel.h"
#include "src/support/status.h"

namespace spacefusion {

struct ServeRequest {
  std::string id;                  // client-chosen, echoed in the response
  std::string client = "anonymous";  // quota key
  std::string model;               // "bert" | "albert" | "t5" | "vit" | "llama2"
  // The request shape. On the wire either as "batch"/"seq" integers or as
  // one "shape":"b<batch>s<seq>" label (mixing both is ambiguous and
  // rejected). Malformed shape fields are an SFV0701 INVALID_ARGUMENT —
  // never silently replaced by the defaults.
  std::int64_t batch = 1;
  std::int64_t seq = 128;
  std::string arch = "a100";       // "v100" | "a100" | "h100"
  std::int64_t deadline_ms = 0;    // <= 0: no deadline

  ShapeKey shape_key() const { return {batch, seq}; }
};

struct ServeResponse {
  std::string id;
  std::string status = "ok";       // "ok" or a StatusCodeName
  std::string error;               // detail when status != "ok"
  std::string outcome;             // "cold" | "cache_hit" | "persistent_hit"
  bool coalesced = false;          // waited on another request's compile
  std::string model;
  int unique_subprograms = 0;
  int cache_hits = 0;              // intra-model repeats served from cache
  double tuning_seconds = 0.0;     // simulated tuning time (deterministic)
  ExecutionReport estimate;        // whole-model modeled execution
  double wall_ms = 0.0;            // daemon-side wall clock (nondeterministic)
  // Shape bucketing: the request shape label, the bucket it was routed to,
  // whether the whole request was served without a tuner invocation, and how
  // many tuner configs were seeded from a neighboring bucket. Absent in
  // pre-bucket responses (parse back as empty/zero).
  std::string shape;
  std::string bucket;
  bool bucket_hit = false;
  std::int64_t transfer_seeded = 0;

  bool ok() const { return status == "ok"; }
};

std::string ServeRequestToJson(const ServeRequest& request);
StatusOr<ServeRequest> ServeRequestFromJson(const std::string& line);

std::string ServeResponseToJson(const ServeResponse& response);
StatusOr<ServeResponse> ServeResponseFromJson(const std::string& line);

}  // namespace spacefusion

#endif  // SPACEFUSION_SRC_SERVE_PROTOCOL_H_
