#ifndef STREAMLAKE_FORMAT_TYPES_H_
#define STREAMLAKE_FORMAT_TYPES_H_

#include <cmath>
#include <cstdint>
#include <string>
#include <variant>
#include <vector>

#include "common/bytes.h"
#include "common/coding.h"
#include "common/result.h"

namespace streamlake::format {

/// Column types supported by table objects. Timestamps are kInt64 seconds
/// (matching the paper's start_time predicates in Fig. 13). kNull tags a
/// NULL cell; a field of type kNull holds only NULLs.
enum class DataType : uint8_t {
  kBool = 0,
  kInt64 = 1,
  kDouble = 2,
  kString = 3,
  kNull = 4,
};

const char* DataTypeName(DataType type);

/// One cell value. The variant alternatives parallel DataType; monostate is
/// SQL NULL.
using Value = std::variant<bool, int64_t, double, std::string, std::monostate>;

DataType TypeOf(const Value& v);

inline bool IsNull(const Value& v) {
  return std::holds_alternative<std::monostate>(v);
}

/// Three-way comparison for same-typed values: <0, 0, >0. NULL compares equal
/// to NULL and sorts before every non-NULL value. Comparing two different
/// non-NULL types is a programming error (checked). These are WHERE's
/// semantics: a NaN compares equal to every double.
int CompareValues(const Value& a, const Value& b);

/// The key rule: the one total order GROUP BY, joins, ORDER BY and MIN/MAX
/// compare keys by. It equals CompareValues except on doubles, where
/// -0.0 == 0.0, and NaN == NaN and sorts after every number (PostgreSQL's
/// rule, and the distinct count a LakeFile's stats record). NULL equals
/// NULL and sorts first.
int CompareKeys(const Value& a, const Value& b);

/// CompareKeys of two doubles.
inline int CompareDoubleKeys(double x, double y) {
  if (x < y) return -1;
  if (x > y) return 1;
  if (x == y) return 0;
  return static_cast<int>(std::isnan(x)) - static_cast<int>(std::isnan(y));
}

std::string ValueToString(const Value& v);

/// Serialize one value (self-describing: type tag + payload).
void EncodeValue(Bytes* dst, const Value& v);
Result<Value> DecodeValue(Decoder* dec);

/// A row of a table; field order matches the table schema.
struct Row {
  std::vector<Value> fields;

  bool operator==(const Row& other) const { return fields == other.fields; }
};

}  // namespace streamlake::format

#endif  // STREAMLAKE_FORMAT_TYPES_H_
