#include "src/verify/diagnostics.h"

#include "src/support/string_util.h"

namespace spacefusion {

const char* DiagSeverityName(DiagSeverity severity) {
  switch (severity) {
    case DiagSeverity::kWarning:
      return "warning";
    case DiagSeverity::kError:
      return "error";
  }
  return "?";
}

std::string Diagnostic::ToString() const {
  std::ostringstream out;
  out << code << " [" << DiagSeverityName(severity) << "] " << phase;
  if (!context.empty()) {
    out << "(" << context << ")";
  }
  out << ": ";
  if (!subject.empty()) {
    out << subject << ": ";
  }
  out << message;
  return out.str();
}

Diagnostic& DiagnosticReport::Add(DiagSeverity severity, const char* code, const char* phase,
                                  std::string subject, std::string message) {
  Diagnostic d;
  d.code = code;
  d.severity = severity;
  d.phase = phase;
  d.context = context_;
  d.subject = std::move(subject);
  d.message = std::move(message);
  diagnostics_.push_back(std::move(d));
  return diagnostics_.back();
}

Diagnostic& DiagnosticReport::AddError(const char* code, const char* phase, std::string subject,
                                       std::string message) {
  return Add(DiagSeverity::kError, code, phase, std::move(subject), std::move(message));
}

Diagnostic& DiagnosticReport::AddWarning(const char* code, const char* phase, std::string subject,
                                         std::string message) {
  return Add(DiagSeverity::kWarning, code, phase, std::move(subject), std::move(message));
}

int DiagnosticReport::error_count() const {
  int n = 0;
  for (const Diagnostic& d : diagnostics_) {
    n += d.severity == DiagSeverity::kError ? 1 : 0;
  }
  return n;
}

int DiagnosticReport::warning_count() const {
  return static_cast<int>(diagnostics_.size()) - error_count();
}

bool DiagnosticReport::HasCode(const std::string& code) const {
  for (const Diagnostic& d : diagnostics_) {
    if (d.code == code) {
      return true;
    }
  }
  return false;
}

void DiagnosticReport::Merge(DiagnosticReport&& other) {
  for (Diagnostic& d : other.diagnostics_) {
    diagnostics_.push_back(std::move(d));
  }
  other.diagnostics_.clear();
}

std::string DiagnosticReport::ToString() const {
  std::ostringstream out;
  for (size_t i = 0; i < diagnostics_.size(); ++i) {
    if (i > 0) {
      out << "\n";
    }
    out << diagnostics_[i].ToString();
  }
  return out.str();
}

Status DiagnosticReport::ToStatus(StatusCode code) const {
  if (ok()) {
    return Status::Ok();
  }
  return Status(code, StrCat("verification failed with ", error_count(), " error(s):\n",
                             ToString()));
}

}  // namespace spacefusion
