// Structured diagnostics for the phase-boundary IR verifiers.
//
// Every violated invariant is reported as a Diagnostic with a stable error
// code ("SFV" + 4 digits: the first two digits name the owning checker, the
// last two the check), a severity, the compiler phase that found it, and the
// offending entity (op / tensor / space / mapping / dim name). A
// DiagnosticReport accumulates the diagnostics of one verification run and
// renders them one line per finding; the engine carries them to machines in
// the compile's CompileReport.
//
// Code ranges (the full catalog lives in DESIGN.md "Static verification"):
//   SFV01xx  GraphVerifier       operator-graph structure
//   SFV02xx  SmgVerifier         space-mapping-graph legality
//   SFV03xx  SliceVerifier       slicing decisions / dim coverage
//   SFV04xx  ScheduleVerifier    inter-block dependency preservation
//   SFV05xx  MemoryPlanVerifier  footprints and resource budgets
//   SFV06xx  RaceAnalyzer        cross-block race / alias freedom
#ifndef SPACEFUSION_SRC_VERIFY_DIAGNOSTICS_H_
#define SPACEFUSION_SRC_VERIFY_DIAGNOSTICS_H_

#include <string>
#include <vector>

#include "src/support/status.h"

namespace spacefusion {

enum class DiagSeverity { kWarning, kError };

const char* DiagSeverityName(DiagSeverity severity);

struct Diagnostic {
  std::string code;      // "SFV0101"
  DiagSeverity severity = DiagSeverity::kError;
  std::string phase;     // "graph" | "smg" | "slice" | "schedule" | "memory"
  std::string context;   // owning graph / kernel name
  std::string subject;   // offending op / tensor / space / mapping / dim
  std::string message;   // human-readable description of the violation

  // "SFV0101 [error] graph(mha): op softmax_0: ..." — one line.
  std::string ToString() const;
};

// Accumulates the diagnostics of one verification run.
class DiagnosticReport {
 public:
  // Context (graph / kernel name) stamped onto subsequently added
  // diagnostics; set it before invoking a checker.
  void SetContext(std::string context) { context_ = std::move(context); }
  const std::string& context() const { return context_; }

  Diagnostic& AddError(const char* code, const char* phase, std::string subject,
                       std::string message);
  Diagnostic& AddWarning(const char* code, const char* phase, std::string subject,
                         std::string message);

  const std::vector<Diagnostic>& diagnostics() const { return diagnostics_; }
  int error_count() const;
  int warning_count() const;
  bool ok() const { return error_count() == 0; }
  bool empty() const { return diagnostics_.empty(); }

  // True if a diagnostic with exactly this code was recorded.
  bool HasCode(const std::string& code) const;

  // Moves every diagnostic of `other` into this report.
  void Merge(DiagnosticReport&& other);

  // One line per diagnostic; "" when the report is empty.
  std::string ToString() const;

  // Collapses the report into a Status carrying every rendered diagnostic
  // (Ok when there are no errors; warnings alone do not fail).
  Status ToStatus(StatusCode code = StatusCode::kInvalidArgument) const;

 private:
  Diagnostic& Add(DiagSeverity severity, const char* code, const char* phase,
                  std::string subject, std::string message);

  std::string context_;
  std::vector<Diagnostic> diagnostics_;
};

}  // namespace spacefusion

#endif  // SPACEFUSION_SRC_VERIFY_DIAGNOSTICS_H_
