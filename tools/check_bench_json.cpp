// check_bench_json — schema validator for firefly-bench-v1 and
// firefly-soak-v1 JSONL files.
//
//   check_bench_json <file.json> [--require-series]
//
// The schema is auto-detected from line 1.  A firefly-soak-v1 file (written
// by `firefly_cli --service --soak-out`) is validated structurally instead:
//   * line 1 is the soak meta record: git_sha, compiler, a known protocol
//     id plus numeric n, duration_slots and window_slots,
//   * every further line is a "window" record or the single trailing
//     "summary" record, and nothing follows the summary,
//   * at least one window was emitted.
// --require-series applies only to bench files.
//
// Used by CI (and by hand) to gate the machine-readable bench output
// without pulling in python or a JSON library: a small recursive-descent
// parser validates every line and collects top-level keys.  Checks:
//   * every line is a syntactically valid JSON object,
//   * line 1 is the meta record: schema == "firefly-bench-v1" plus bench,
//     git_sha and compiler keys,
//   * every line carries a "bench" key,
//   * every "series" record names a known protocol id, and when the meta
//     record declares a "protocols" array, each record's protocol is a
//     member of it (the sweep axis and the records must agree),
//   * with --require-series, at least one line has "protocol" and "n"
//     (a sweep-series record, as fig3/fig4 emit).
// Performance is gated by the perfbench benchmark, not here.
// Exit 0 on success, 1 on any violation (first violation is reported).
#include <algorithm>
#include <cctype>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <string>
#include <utility>
#include <vector>

namespace {

// Display ids of the registered protocol backends, mirroring
// proto::Registry::instance() (src/proto/registry.cpp).  Kept as a literal
// so this tool stays free of simulator dependencies; a new backend must be
// added here for its bench output to validate.
constexpr const char* kKnownProtocols[] = {"FST", "ST", "Birthday", "DESYNC"};

bool known_protocol(const std::string& id) {
  for (const char* p : kKnownProtocols)
    if (id == p) return true;
  return false;
}

std::string known_protocols_list() {
  std::string out;
  for (const char* p : kKnownProtocols) {
    if (!out.empty()) out += ", ";
    out += p;
  }
  return out;
}

// Minimal JSON validator; collects top-level object keys, the string
// value of top-level string fields (enough to check the schema tag) and
// the elements of top-level arrays of strings (the meta "protocols" axis).
class LineParser {
 public:
  explicit LineParser(const std::string& line) : p_(line.data()), end_(p_ + line.size()) {}

  /// Parse one complete JSON object covering the whole line.
  bool parse() {
    skip_ws();
    if (!parse_object(/*top_level=*/true)) return false;
    skip_ws();
    return p_ == end_;
  }

  [[nodiscard]] bool has_key(const std::string& key) const {
    for (const auto& [k, v] : top_fields_)
      if (k == key) return true;
    return false;
  }

  /// Value of a top-level string field ("" when absent or not a string).
  [[nodiscard]] std::string string_value(const std::string& key) const {
    for (const auto& [k, v] : top_fields_)
      if (k == key) return v;
    return {};
  }

  /// Elements of a top-level array-of-strings field (empty when absent,
  /// not an array, or holding non-string elements).
  [[nodiscard]] const std::vector<std::string>& array_value(const std::string& key) const {
    static const std::vector<std::string> kEmpty;
    for (const auto& [k, v] : top_arrays_)
      if (k == key) return v;
    return kEmpty;
  }

  /// Value of a top-level numeric field; false when absent or not a number.
  [[nodiscard]] bool number_value(const std::string& key, double* out) const {
    for (const auto& [k, v] : top_fields_) {
      if (k != key || v.empty()) continue;
      char* end = nullptr;
      const double parsed = std::strtod(v.c_str(), &end);
      if (end == v.c_str() + v.size()) {
        *out = parsed;
        return true;
      }
    }
    return false;
  }

 private:
  void skip_ws() {
    while (p_ != end_ && (*p_ == ' ' || *p_ == '\t' || *p_ == '\r' || *p_ == '\n')) ++p_;
  }

  bool parse_string(std::string* out) {
    if (p_ == end_ || *p_ != '"') return false;
    ++p_;
    while (p_ != end_ && *p_ != '"') {
      if (*p_ == '\\') {
        ++p_;
        if (p_ == end_) return false;
        switch (*p_) {
          case '"': case '\\': case '/': case 'b': case 'f':
          case 'n': case 'r': case 't':
            if (out) out->push_back(*p_);
            ++p_;
            break;
          case 'u': {
            ++p_;
            for (int i = 0; i < 4; ++i, ++p_)
              if (p_ == end_ || !std::isxdigit(static_cast<unsigned char>(*p_))) return false;
            break;
          }
          default:
            return false;
        }
      } else {
        if (out) out->push_back(*p_);
        ++p_;
      }
    }
    if (p_ == end_) return false;
    ++p_;  // closing quote
    return true;
  }

  bool parse_number(std::string* out) {
    const char* start = p_;
    if (p_ != end_ && *p_ == '-') ++p_;
    if (p_ == end_ || !std::isdigit(static_cast<unsigned char>(*p_))) return false;
    while (p_ != end_ && std::isdigit(static_cast<unsigned char>(*p_))) ++p_;
    if (p_ != end_ && *p_ == '.') {
      ++p_;
      if (p_ == end_ || !std::isdigit(static_cast<unsigned char>(*p_))) return false;
      while (p_ != end_ && std::isdigit(static_cast<unsigned char>(*p_))) ++p_;
    }
    if (p_ != end_ && (*p_ == 'e' || *p_ == 'E')) {
      ++p_;
      if (p_ != end_ && (*p_ == '+' || *p_ == '-')) ++p_;
      if (p_ == end_ || !std::isdigit(static_cast<unsigned char>(*p_))) return false;
      while (p_ != end_ && std::isdigit(static_cast<unsigned char>(*p_))) ++p_;
    }
    if (p_ == start) return false;
    if (out) out->assign(start, p_);
    return true;
  }

  bool parse_literal(const char* lit) {
    for (const char* c = lit; *c != '\0'; ++c, ++p_)
      if (p_ == end_ || *p_ != *c) return false;
    return true;
  }

  bool parse_value(std::string* string_out) {
    skip_ws();
    if (p_ == end_) return false;
    switch (*p_) {
      case '{': return parse_object(false);
      case '[': return parse_array(nullptr);
      case '"': return parse_string(string_out);
      case 't': return parse_literal("true");
      case 'f': return parse_literal("false");
      case 'n': return parse_literal("null");
      default: return parse_number(string_out);
    }
  }

  /// With `strings_out`, collect every element that is a string; a single
  /// non-string element clears the collection (mixed arrays are not a
  /// string axis, but still valid JSON).
  bool parse_array(std::vector<std::string>* strings_out) {
    if (*p_ != '[') return false;
    ++p_;
    skip_ws();
    if (p_ != end_ && *p_ == ']') { ++p_; return true; }
    bool all_strings = true;
    while (true) {
      skip_ws();
      std::string element;
      const bool is_string = p_ != end_ && *p_ == '"';
      if (!parse_value(is_string ? &element : nullptr)) return false;
      if (strings_out != nullptr) {
        if (is_string) strings_out->push_back(std::move(element));
        else all_strings = false;
      }
      skip_ws();
      if (p_ == end_) return false;
      if (*p_ == ']') {
        ++p_;
        if (strings_out != nullptr && !all_strings) strings_out->clear();
        return true;
      }
      if (*p_ != ',') return false;
      ++p_;
    }
  }

  bool parse_object(bool top_level) {
    if (p_ == end_ || *p_ != '{') return false;
    ++p_;
    skip_ws();
    if (p_ != end_ && *p_ == '}') { ++p_; return true; }
    while (true) {
      skip_ws();
      std::string key;
      if (!parse_string(&key)) return false;
      skip_ws();
      if (p_ == end_ || *p_ != ':') return false;
      ++p_;
      skip_ws();
      if (top_level && p_ != end_ && *p_ == '[') {
        std::vector<std::string> elements;
        if (!parse_array(&elements)) return false;
        top_fields_.emplace_back(key, std::string());
        top_arrays_.emplace_back(std::move(key), std::move(elements));
      } else {
        std::string value;
        if (!parse_value(top_level ? &value : nullptr)) return false;
        if (top_level) top_fields_.emplace_back(std::move(key), std::move(value));
      }
      skip_ws();
      if (p_ == end_) return false;
      if (*p_ == '}') { ++p_; return true; }
      if (*p_ != ',') return false;
      ++p_;
    }
  }

  const char* p_;
  const char* end_;
  std::vector<std::pair<std::string, std::string>> top_fields_;
  std::vector<std::pair<std::string, std::vector<std::string>>> top_arrays_;
};

int fail(const std::string& path, std::size_t line_no, const std::string& why) {
  std::cerr << path << ":" << line_no << ": " << why << "\n";
  return 1;
}

/// Validate `path` line by line.  Returns false after printing the first
/// violation.
bool validate_file(const std::string& path, bool require_series,
                   std::size_t* records_out, std::size_t* series_out) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    std::cerr << "cannot open " << path << "\n";
    return false;
  }
  std::string line;
  std::size_t line_no = 0;
  std::size_t series_records = 0;
  std::vector<std::string> meta_protocols;  // declared sweep axis (may be empty)
  while (std::getline(in, line)) {
    ++line_no;
    if (line.empty()) { fail(path, line_no, "empty line"); return false; }
    LineParser parser(line);
    if (!parser.parse()) { fail(path, line_no, "not a valid JSON object"); return false; }
    if (line_no == 1) {
      if (parser.string_value("schema") != "firefly-bench-v1") {
        fail(path, line_no, "meta record missing schema \"firefly-bench-v1\"");
        return false;
      }
      for (const char* key : {"bench", "git_sha", "compiler"})
        if (!parser.has_key(key)) {
          fail(path, line_no, std::string("meta record missing \"") + key + "\"");
          return false;
        }
      if (parser.has_key("protocols")) {
        meta_protocols = parser.array_value("protocols");
        if (meta_protocols.empty()) {
          fail(path, line_no, "meta \"protocols\" is not a non-empty string array");
          return false;
        }
        for (const std::string& id : meta_protocols)
          if (!known_protocol(id)) {
            fail(path, line_no, "meta \"protocols\" names unknown protocol \"" + id +
                                    "\" (known: " + known_protocols_list() + ")");
            return false;
          }
      }
    }
    if (!parser.has_key("bench")) {
      fail(path, line_no, "record missing \"bench\" key");
      return false;
    }
    if (line_no > 1 && parser.has_key("protocol")) {
      const std::string id = parser.string_value("protocol");
      if (!known_protocol(id)) {
        fail(path, line_no, "record names unknown protocol \"" + id +
                                "\" (known: " + known_protocols_list() + ")");
        return false;
      }
      if (!meta_protocols.empty() &&
          std::find(meta_protocols.begin(), meta_protocols.end(), id) ==
              meta_protocols.end()) {
        fail(path, line_no, "record protocol \"" + id +
                                "\" is not in the meta \"protocols\" axis");
        return false;
      }
    }
    if (parser.has_key("protocol") && parser.has_key("n")) ++series_records;
  }
  if (line_no == 0) { fail(path, 1, "file is empty"); return false; }
  if (require_series && series_records == 0) {
    fail(path, line_no, "no series records (need \"protocol\" and \"n\")");
    return false;
  }
  if (records_out) *records_out = line_no;
  if (series_out) *series_out = series_records;
  return true;
}

/// Structural validation of a firefly-soak-v1 stream (see the file comment).
bool validate_soak_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    std::cerr << "cannot open " << path << "\n";
    return false;
  }
  std::string line;
  std::size_t line_no = 0;
  std::size_t windows = 0;
  bool summary_seen = false;
  while (std::getline(in, line)) {
    ++line_no;
    if (line.empty()) { fail(path, line_no, "empty line"); return false; }
    LineParser parser(line);
    if (!parser.parse()) { fail(path, line_no, "not a valid JSON object"); return false; }
    if (line_no == 1) {
      if (parser.string_value("schema") != "firefly-soak-v1") {
        fail(path, line_no, "meta record missing schema \"firefly-soak-v1\"");
        return false;
      }
      for (const char* key : {"git_sha", "compiler", "protocol"})
        if (!parser.has_key(key)) {
          fail(path, line_no, std::string("soak meta record missing \"") + key + "\"");
          return false;
        }
      if (!known_protocol(parser.string_value("protocol"))) {
        fail(path, line_no, "soak meta record names unknown protocol \"" +
                                parser.string_value("protocol") +
                                "\" (known: " + known_protocols_list() + ")");
        return false;
      }
      for (const char* key : {"n", "duration_slots", "window_slots"}) {
        double v = 0.0;
        if (!parser.number_value(key, &v) || v <= 0.0) {
          fail(path, line_no,
               std::string("soak meta record missing positive numeric \"") + key + "\"");
          return false;
        }
      }
      continue;
    }
    if (summary_seen) {
      fail(path, line_no, "record after the summary record");
      return false;
    }
    if (parser.has_key("window")) {
      ++windows;
    } else if (parser.has_key("summary")) {
      summary_seen = true;
    } else {
      fail(path, line_no, "soak record is neither a \"window\" nor the \"summary\"");
      return false;
    }
  }
  if (line_no == 0) { fail(path, 1, "file is empty"); return false; }
  if (windows == 0) { fail(path, line_no, "soak stream has no window records"); return false; }
  std::cout << path << ": OK (firefly-soak-v1, " << windows << " windows, summary "
            << (summary_seen ? "present" : "absent — soak interrupted?") << ")\n";
  return true;
}

/// Schema tag from a file's first line ("" when unreadable/invalid).
std::string peek_schema(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::string line;
  if (!in || !std::getline(in, line)) return {};
  LineParser parser(line);
  if (!parser.parse()) return {};
  return parser.string_value("schema");
}

int usage() {
  std::cerr << "usage: check_bench_json <file.json> [--require-series]\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::string path;
  bool require_series = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--require-series") {
      require_series = true;
    } else if (path.empty()) {
      path = arg;
    } else {
      return usage();
    }
  }
  if (path.empty()) return usage();

  if (peek_schema(path) == "firefly-soak-v1") {
    if (require_series) {
      std::cerr << path << ": --require-series does not apply to "
                << "firefly-soak-v1 files\n";
      return 2;
    }
    return validate_soak_file(path) ? 0 : 1;
  }

  std::size_t records = 0, series = 0;
  if (!validate_file(path, require_series, &records, &series)) return 1;
  std::cout << path << ": OK (" << records << " records, " << series << " series)\n";
  return 0;
}
