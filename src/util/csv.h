#ifndef HCPATH_UTIL_CSV_H_
#define HCPATH_UTIL_CSV_H_

#include <cstdint>
#include <fstream>
#include <optional>
#include <string>
#include <vector>

#include "util/status.h"

namespace hcpath {

/// Streaming CSV writer used by the bench harness to dump figure series.
/// Fields containing commas, quotes or newlines are quoted per RFC 4180.
class CsvWriter {
 public:
  /// Opens `path` for writing (truncates). Check `status()` afterwards.
  explicit CsvWriter(const std::string& path);

  const Status& status() const { return status_; }

  /// Writes one row; the variadic overloads accept strings and numerics.
  void WriteRow(const std::vector<std::string>& fields);

  template <typename... Ts>
  void Row(const Ts&... vals) {
    std::vector<std::string> fields;
    fields.reserve(sizeof...(vals));
    (fields.push_back(ToField(vals)), ...);
    WriteRow(fields);
  }

  /// Flushes and closes the file.
  Status Close();

 private:
  static std::string ToField(const std::string& s) { return s; }
  static std::string ToField(const char* s) { return s; }
  static std::string ToField(double v);
  static std::string ToField(int64_t v) { return std::to_string(v); }
  static std::string ToField(uint64_t v) { return std::to_string(v); }
  static std::string ToField(int v) { return std::to_string(v); }
  /// An empty optional is a cell with no value: an empty field.
  template <typename T>
  static std::string ToField(const std::optional<T>& v) {
    return v.has_value() ? ToField(*v) : std::string();
  }

  static std::string Escape(const std::string& field);

  std::ofstream out_;
  Status status_;
};

}  // namespace hcpath

#endif  // HCPATH_UTIL_CSV_H_
