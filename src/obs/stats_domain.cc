#include "obs/stats_domain.h"

#include "util/string_util.h"

namespace tpm {
namespace obs {

namespace {

std::string JsonEscape(const std::string& s) {
  std::string out;
  out.reserve(s.size() + 2);
  for (char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          out += StringPrintf("\\u%04x", c);
        } else {
          out += c;
        }
    }
  }
  return out;
}

}  // namespace

std::string PostmortemJson(const StatsDomain& domain,
                           const MetricsSnapshot& metrics,
                           const std::string& outcome,
                           const std::string& detail,
                           const std::string& checkpoint_path) {
  const std::vector<FlightEvent> events = domain.recorder().Events();
  const uint64_t base_ns = events.empty() ? 0 : events.front().t_ns;
  std::string out = "{\n";
  out += StringPrintf("  \"domain\": \"%s\",\n", JsonEscape(domain.id()).c_str());
  out += StringPrintf("  \"outcome\": \"%s\",\n", JsonEscape(outcome).c_str());
  out += StringPrintf("  \"detail\": \"%s\",\n", JsonEscape(detail).c_str());
  out += StringPrintf("  \"checkpoint\": \"%s\",\n",
                      JsonEscape(checkpoint_path).c_str());
  out += StringPrintf(
      "  \"events_recorded\": %llu,\n",
      static_cast<unsigned long long>(domain.recorder().total_recorded()));
  out += "  \"events\": [";
  for (size_t i = 0; i < events.size(); ++i) {
    const FlightEvent& e = events[i];
    out += StringPrintf(
        "%s\n    {\"us\": %llu, \"kind\": \"%s\", \"a\": %llu, \"b\": %llu}",
        i == 0 ? "" : ",",
        static_cast<unsigned long long>((e.t_ns - base_ns) / 1000),
        JsonEscape(e.kind).c_str(), static_cast<unsigned long long>(e.a),
        static_cast<unsigned long long>(e.b));
  }
  out += events.empty() ? "],\n" : "\n  ],\n";
  out += "  \"metrics\": " + metrics.ToJson() + "\n";
  out += "}\n";
  return out;
}

}  // namespace obs
}  // namespace tpm
