#include "src/serve/protocol.h"

#include <cstdio>

#include "src/support/json.h"
#include "src/support/string_util.h"

namespace spacefusion {

namespace {

// %.17g round-trips every finite double exactly; the warm-start contract
// compares ExecutionReports that crossed this protocol bit for bit.
std::string ExactDouble(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::int64_t GetInt(const JsonValue& doc, const std::string& key, std::int64_t fallback) {
  const JsonValue* v = doc.Get(key);
  return v != nullptr && v->is_number() ? v->integer() : fallback;
}

// SFV0701: a shape field that is present must be a positive integral JSON
// number. A typo'd "seq":"256" used to fall back to the default silently —
// and compile the wrong bucket — so malformed shapes are now a hard error.
StatusOr<std::int64_t> GetShapeField(const JsonValue& doc, const std::string& key,
                                     std::int64_t fallback) {
  const JsonValue* v = doc.Get(key);
  if (v == nullptr) {
    return fallback;
  }
  if (!v->is_number() || v->number() != static_cast<double>(v->integer()) || v->integer() < 1) {
    return InvalidArgument(
        StrCat("[SFV0701] serve request: \"", key, "\" must be a positive integer"));
  }
  return v->integer();
}

}  // namespace

std::string ServeRequestToJson(const ServeRequest& request) {
  return StrCat("{\"id\":\"", JsonEscape(request.id), "\",\"client\":\"",
                JsonEscape(request.client), "\",\"model\":\"", JsonEscape(request.model),
                "\",\"batch\":", request.batch, ",\"seq\":", request.seq, ",\"arch\":\"",
                JsonEscape(request.arch), "\",\"deadline_ms\":", request.deadline_ms, "}");
}

StatusOr<ServeRequest> ServeRequestFromJson(const std::string& line) {
  SF_ASSIGN_OR_RETURN(JsonValue doc, JsonValue::Parse(line));
  if (!doc.is_object()) {
    return InvalidArgument("serve request: line is not a JSON object");
  }
  ServeRequest request;
  request.id = doc.GetString("id");
  request.client = doc.GetString("client", "anonymous");
  request.model = doc.GetString("model");
  if (const JsonValue* shape = doc.Get("shape"); shape != nullptr) {
    if (doc.Get("batch") != nullptr || doc.Get("seq") != nullptr) {
      return InvalidArgument(
          "[SFV0701] serve request: \"shape\" and \"batch\"/\"seq\" are mutually exclusive");
    }
    if (!shape->is_string()) {
      return InvalidArgument("[SFV0701] serve request: \"shape\" must be a \"b<batch>s<seq>\" string");
    }
    StatusOr<ShapeKey> key = ParseShapeLabel(shape->str());
    if (!key.ok()) {
      return InvalidArgument(StrCat("[SFV0701] serve request: ", key.status().message()));
    }
    request.batch = key->batch;
    request.seq = key->seq;
  } else {
    SF_ASSIGN_OR_RETURN(request.batch, GetShapeField(doc, "batch", 1));
    SF_ASSIGN_OR_RETURN(request.seq, GetShapeField(doc, "seq", 128));
  }
  request.arch = doc.GetString("arch", "a100");
  request.deadline_ms = GetInt(doc, "deadline_ms", 0);
  if (request.model.empty()) {
    return InvalidArgument("serve request: missing \"model\"");
  }
  return request;
}

std::string ServeResponseToJson(const ServeResponse& response) {
  std::string out = StrCat("{\"id\":\"", JsonEscape(response.id), "\",\"status\":\"",
                           JsonEscape(response.status), "\"");
  if (!response.ok()) {
    out += StrCat(",\"error\":\"", JsonEscape(response.error), "\"}");
    return out;
  }
  out += StrCat(
      ",\"outcome\":\"", JsonEscape(response.outcome),
      "\",\"coalesced\":", response.coalesced ? "true" : "false", ",\"model\":\"",
      JsonEscape(response.model), "\",\"unique_subprograms\":", response.unique_subprograms,
      ",\"cache_hits\":", response.cache_hits,
      ",\"tuning_seconds\":", ExactDouble(response.tuning_seconds),
      ",\"estimate\":{\"time_us\":", ExactDouble(response.estimate.time_us),
      ",\"kernel_count\":", response.estimate.kernel_count,
      ",\"flops\":", response.estimate.flops, ",\"dram_bytes\":", response.estimate.dram_bytes,
      ",\"l1_accesses\":", response.estimate.l1_accesses,
      ",\"l1_misses\":", response.estimate.l1_misses,
      ",\"l2_accesses\":", response.estimate.l2_accesses,
      ",\"l2_misses\":", response.estimate.l2_misses,
      "},\"wall_ms\":", ExactDouble(response.wall_ms),
      ",\"shape\":\"", JsonEscape(response.shape),
      "\",\"bucket\":\"", JsonEscape(response.bucket),
      "\",\"bucket_hit\":", response.bucket_hit ? "true" : "false",
      ",\"transfer_seeded\":", response.transfer_seeded, "}");
  return out;
}

StatusOr<ServeResponse> ServeResponseFromJson(const std::string& line) {
  SF_ASSIGN_OR_RETURN(JsonValue doc, JsonValue::Parse(line));
  if (!doc.is_object()) {
    return InvalidArgument("serve response: line is not a JSON object");
  }
  ServeResponse response;
  response.id = doc.GetString("id");
  response.status = doc.GetString("status", "ok");
  response.error = doc.GetString("error");
  response.outcome = doc.GetString("outcome");
  const JsonValue* coalesced = doc.Get("coalesced");
  response.coalesced = coalesced != nullptr && coalesced->boolean();
  response.model = doc.GetString("model");
  response.unique_subprograms = static_cast<int>(GetInt(doc, "unique_subprograms", 0));
  response.cache_hits = static_cast<int>(GetInt(doc, "cache_hits", 0));
  response.tuning_seconds = doc.GetNumber("tuning_seconds");
  if (const JsonValue* estimate = doc.Get("estimate");
      estimate != nullptr && estimate->is_object()) {
    response.estimate.time_us = estimate->GetNumber("time_us");
    response.estimate.kernel_count = static_cast<int>(GetInt(*estimate, "kernel_count", 0));
    response.estimate.flops = GetInt(*estimate, "flops", 0);
    response.estimate.dram_bytes = GetInt(*estimate, "dram_bytes", 0);
    response.estimate.l1_accesses = GetInt(*estimate, "l1_accesses", 0);
    response.estimate.l1_misses = GetInt(*estimate, "l1_misses", 0);
    response.estimate.l2_accesses = GetInt(*estimate, "l2_accesses", 0);
    response.estimate.l2_misses = GetInt(*estimate, "l2_misses", 0);
  }
  response.wall_ms = doc.GetNumber("wall_ms");
  response.shape = doc.GetString("shape");
  response.bucket = doc.GetString("bucket");
  const JsonValue* bucket_hit = doc.Get("bucket_hit");
  response.bucket_hit = bucket_hit != nullptr && bucket_hit->boolean();
  response.transfer_seeded = GetInt(doc, "transfer_seeded", 0);
  return response;
}

}  // namespace spacefusion
