#include "src/obs/report.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <filesystem>

#include "src/support/file_util.h"
#include "src/support/json.h"
#include "src/support/logging.h"
#include "src/support/string_util.h"

namespace spacefusion {

namespace {

std::string FormatNumber(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.9g", v);
  return buf;
}

// 64-bit values exceed JSON's interoperable integer range, so fingerprints
// and digests travel as decimal strings.
std::string U64String(std::uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "%llu", static_cast<unsigned long long>(v));
  return buf;
}

std::uint64_t ParseU64(const std::string& text) {
  return static_cast<std::uint64_t>(std::strtoull(text.c_str(), nullptr, 10));
}

}  // namespace

std::string CompileReport::ToJson() const {
  std::string out = StrCat(
      "{\"schema_version\":", kSchemaVersion,
      ",\"request_id\":\"", JsonEscape(request_id),
      "\",\"model\":\"", JsonEscape(model),
      "\",\"graph_fingerprint\":\"", U64String(graph_fingerprint),
      "\",\"options_digest\":\"", U64String(options_digest),
      "\",\"outcome\":\"", JsonEscape(outcome),
      "\",\"status_message\":\"", JsonEscape(status_message),
      "\",\"cache_collision\":", cache_collision ? "true" : "false",
      ",\"wall_ms\":", FormatNumber(wall_ms), ",\"passes\":[");
  for (size_t i = 0; i < passes.size(); ++i) {
    if (i > 0) {
      out += ",";
    }
    out += StrCat("{\"pass\":\"", JsonEscape(passes[i].pass),
                  "\",\"wall_ms\":", FormatNumber(passes[i].wall_ms),
                  ",\"cpu_ms\":", FormatNumber(passes[i].cpu_ms), "}");
  }
  out += StrCat("],\"tuning\":{\"configs_enumerated\":", configs_enumerated,
                ",\"configs_screened\":", configs_screened,
                ",\"configs_admitted\":", configs_admitted,
                ",\"tuning_seconds\":", FormatNumber(tuning_seconds),
                "},\"verifier\":", VerifierJson(),
                ",\"memory\":{\"kernels\":", kernels, ",\"smem_bytes\":", smem_bytes,
                ",\"reg_bytes\":", reg_bytes,
                "},\"modeled_time_us\":", FormatNumber(modeled_time_us),
                ",\"shape\":\"", JsonEscape(shape),
                "\",\"bucket\":\"", JsonEscape(bucket),
                "\",\"bucket_hit\":", bucket_hit ? "true" : "false",
                ",\"transfer_seeded\":", transfer_seeded, "}");
  return out;
}

std::string CompileReport::VerifierJson() const {
  std::string out = StrCat("{\"errors\":", verifier_errors, ",\"warnings\":", verifier_warnings,
                           ",\"diagnostics\":[");
  for (size_t i = 0; i < diagnostics.size(); ++i) {
    if (i > 0) {
      out += ",";
    }
    out += StrCat("{\"code\":\"", JsonEscape(diagnostics[i].code),
                  "\",\"severity\":\"", JsonEscape(diagnostics[i].severity),
                  "\",\"message\":\"", JsonEscape(diagnostics[i].message), "\"}");
  }
  return out + "]}";
}

StatusOr<CompileReport> CompileReport::FromJson(const std::string& json) {
  SF_ASSIGN_OR_RETURN(JsonValue doc, JsonValue::Parse(json));
  if (!doc.is_object()) {
    return InvalidArgument("compile report: document is not an object");
  }
  const std::int64_t version = static_cast<std::int64_t>(doc.GetNumber("schema_version", 0));
  if (version > kSchemaVersion) {
    return InvalidArgument(
        StrCat("compile report: schema_version ", version, " is newer than supported version ",
               kSchemaVersion));
  }
  CompileReport report;
  report.request_id = doc.GetString("request_id");
  report.model = doc.GetString("model");
  report.graph_fingerprint = ParseU64(doc.GetString("graph_fingerprint", "0"));
  report.options_digest = ParseU64(doc.GetString("options_digest", "0"));
  report.outcome = doc.GetString("outcome");
  report.status_message = doc.GetString("status_message");
  const JsonValue* collision = doc.Get("cache_collision");
  report.cache_collision = collision != nullptr && collision->boolean();
  report.wall_ms = doc.GetNumber("wall_ms");
  if (const JsonValue* passes = doc.Get("passes"); passes != nullptr && passes->is_array()) {
    for (const JsonValue& entry : passes->items()) {
      PassReportEntry pass;
      pass.pass = entry.GetString("pass");
      pass.wall_ms = entry.GetNumber("wall_ms");
      pass.cpu_ms = entry.GetNumber("cpu_ms");
      report.passes.push_back(std::move(pass));
    }
  }
  if (const JsonValue* tuning = doc.Get("tuning"); tuning != nullptr && tuning->is_object()) {
    report.configs_enumerated = static_cast<std::int64_t>(tuning->GetNumber("configs_enumerated"));
    report.configs_screened = static_cast<std::int64_t>(tuning->GetNumber("configs_screened"));
    report.configs_admitted = static_cast<std::int64_t>(tuning->GetNumber("configs_admitted"));
    report.tuning_seconds = tuning->GetNumber("tuning_seconds");
  }
  if (const JsonValue* verifier = doc.Get("verifier"); verifier != nullptr && verifier->is_object()) {
    report.verifier_errors = static_cast<int>(verifier->GetNumber("errors"));
    report.verifier_warnings = static_cast<int>(verifier->GetNumber("warnings"));
    if (const JsonValue* diags = verifier->Get("diagnostics");
        diags != nullptr && diags->is_array()) {
      for (const JsonValue& entry : diags->items()) {
        ReportDiagnostic diag;
        diag.code = entry.GetString("code");
        diag.severity = entry.GetString("severity");
        diag.message = entry.GetString("message");
        report.diagnostics.push_back(std::move(diag));
      }
    }
  }
  if (const JsonValue* memory = doc.Get("memory"); memory != nullptr && memory->is_object()) {
    report.kernels = static_cast<int>(memory->GetNumber("kernels"));
    report.smem_bytes = static_cast<std::int64_t>(memory->GetNumber("smem_bytes"));
    report.reg_bytes = static_cast<std::int64_t>(memory->GetNumber("reg_bytes"));
  }
  report.modeled_time_us = doc.GetNumber("modeled_time_us");
  // Absent in pre-bucket documents: fields default to empty/zero.
  report.shape = doc.GetString("shape");
  report.bucket = doc.GetString("bucket");
  const JsonValue* bucket_hit = doc.Get("bucket_hit");
  report.bucket_hit = bucket_hit != nullptr && bucket_hit->boolean();
  report.transfer_seeded = static_cast<std::int64_t>(doc.GetNumber("transfer_seeded"));
  return report;
}

void CompileReport::Merge(const CompileReport& other) {
  cache_collision = cache_collision || other.cache_collision;
  for (const PassReportEntry& pass : other.passes) {
    auto have = std::find_if(passes.begin(), passes.end(),
                             [&](const PassReportEntry& p) { return p.pass == pass.pass; });
    if (have == passes.end()) {
      passes.push_back(pass);
    } else {
      have->wall_ms += pass.wall_ms;
      have->cpu_ms += pass.cpu_ms;
    }
  }
  configs_enumerated += other.configs_enumerated;
  configs_screened += other.configs_screened;
  configs_admitted += other.configs_admitted;
  tuning_seconds += other.tuning_seconds;
  verifier_errors += other.verifier_errors;
  verifier_warnings += other.verifier_warnings;
  diagnostics.insert(diagnostics.end(), other.diagnostics.begin(), other.diagnostics.end());
  kernels += other.kernels;
  smem_bytes = std::max(smem_bytes, other.smem_bytes);
  reg_bytes = std::max(reg_bytes, other.reg_bytes);
  transfer_seeded += other.transfer_seeded;
}

double CompileReport::PassWallMs(const std::string& pass_name) const {
  for (const PassReportEntry& entry : passes) {
    if (entry.pass == pass_name) {
      return entry.wall_ms;
    }
  }
  return 0.0;
}

void DirectoryReportSink::Emit(const CompileReport& report) {
  std::error_code ec;
  std::filesystem::create_directories(dir_, ec);  // ok if it already exists
  // Request ids are engine-generated ("req-%06d") but sanitize anyway so a
  // hand-built report cannot escape the directory.
  std::string name;
  for (char c : report.request_id) {
    bool safe = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9') ||
                c == '-' || c == '_' || c == '.';
    name.push_back(safe ? c : '_');
  }
  if (name.empty()) {
    name = "unnamed";
  }
  std::string path = StrCat(dir_, "/", name, ".report.json");
  // Atomic write-then-rename: an interrupted writer must not leave a torso
  // where sf-stats or a report differ would read it.
  Status written = AtomicWriteFile(path, report.ToJson() + "\n");
  if (!written.ok()) {
    SF_LOG(Warning) << "cannot write compile report " << path << ": " << written.ToString();
  }
}

}  // namespace spacefusion
