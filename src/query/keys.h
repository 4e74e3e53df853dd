#ifndef STREAMLAKE_QUERY_KEYS_H_
#define STREAMLAKE_QUERY_KEYS_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "format/lakefile.h"
#include "format/types.h"

namespace streamlake::query {

/// One key or aggregate-input cell, read in place from a Value or from a
/// decoded chunk's typed vectors.
struct Cell {
  format::DataType type = format::DataType::kNull;  // kNull: SQL NULL
  int64_t i = 0;       // kInt64, and kBool as 0/1
  double d = 0.0;      // kDouble
  std::string_view s;  // kString

  static Cell Of(const format::Value& v);

  /// Row `row` of `chunk` (indexing through the dictionary of a dict
  /// view); NULL when the chunk is absent.
  static Cell At(const format::ColumnChunkData* chunk, size_t row) {
    Cell c;
    if (chunk == nullptr || chunk->IsNullAt(row)) return c;
    const format::ColumnData& src =
        chunk->dict_view ? chunk->dict : chunk->values;
    const size_t idx = chunk->dict_view ? chunk->codes[row] : row;
    c.type = chunk->type;
    switch (chunk->type) {
      case format::DataType::kBool:
        c.i = std::get<std::vector<uint8_t>>(src)[idx] != 0 ? 1 : 0;
        break;
      case format::DataType::kInt64:
        c.i = std::get<std::vector<int64_t>>(src)[idx];
        break;
      case format::DataType::kDouble:
        c.d = std::get<std::vector<double>>(src)[idx];
        break;
      case format::DataType::kString:
        c.s = std::get<std::vector<std::string>>(src)[idx];
        break;
      case format::DataType::kNull:
        break;
    }
    return c;
  }

  /// The SUM/AVG input: numbers as doubles, bools as 0/1, strings as 0.
  double ToDouble() const;
  format::Value ToValue() const;
  /// format::CompareKeys(ToValue(), v) without building the value.
  int Compare(const format::Value& v) const;
};

/// \brief Writes key cells as order-preserving normalized bytes: for two
/// keys whose cells have the same column types, memcmp of their encodings
/// has the sign of format::CompareKeys (lexicographic over the cells of a
/// composite key, a shorter prefix first), and the encodings are equal
/// exactly when the keys compare equal. The one key format of GROUP BY and
/// of the join build side (KeyTable).
///
/// Each cell is a tag byte, then its payload:
///   NULL    0x00 (sorts first)
///   bool    0x01, then 0x00 or 0x01
///   int64   0x02, then 8 bytes big-endian with the sign bit flipped
///   double  0x03, then 8 bytes big-endian: -0.0 is written as 0.0 and
///           every NaN as one positive quiet NaN; a positive value's bits
///           get the sign bit flipped, a negative value's bits all flip,
///           so NaN is one key just above +inf
///   string  0x04, then the bytes with each 0x00 written as 0x00 0xFF,
///           then 0x00 0x00, so a string sorts before every extension of
///           it and the next cell of a composite key starts after it
class KeyEncoder {
 public:
  void Clear() { bytes_.clear(); }
  std::string_view bytes() const { return bytes_; }

  void Add(const Cell& cell);
  void Add(const format::Value& v) { Add(Cell::Of(v)); }
  /// Row `row` of `chunk`, read in place (Cell::At).
  void Add(const format::ColumnChunkData* chunk, size_t row) {
    Add(Cell::At(chunk, row));
  }

 private:
  void AddWord(char tag, uint64_t bits);

  std::string bytes_;
};

/// \brief One flat open-addressing hash table over normalized key bytes
/// (KeyEncoder), hashed with Hash64. It maps each distinct key to a dense
/// id in first-insert order, so the state it keys (GROUP BY groups, a join
/// build side's row lists) lives in plain vectors indexed by id. SortedIds
/// gives the key rule's order (memcmp of the bytes), so no ordered
/// container is needed for sorted output.
class KeyTable {
 public:
  static constexpr uint32_t kNotFound = UINT32_MAX;

  static uint64_t HashOf(std::string_view key);

  /// The id of `key` (whose HashOf is `hash`), adding it as id size() when
  /// absent; `second` is true when it was added.
  std::pair<uint32_t, bool> Insert(std::string_view key, uint64_t hash);
  std::pair<uint32_t, bool> Insert(std::string_view key) {
    return Insert(key, HashOf(key));
  }
  /// The id of `key`, or kNotFound.
  uint32_t Find(std::string_view key) const;
  /// Make room for `n` keys in all, so inserting up to that many rehashes
  /// nothing.
  void Reserve(size_t n);

  size_t size() const { return hashes_.size(); }
  /// The bytes of key `id`; valid until the next Insert.
  std::string_view key(uint32_t id) const {
    return std::string_view(arena_).substr(offsets_[id],
                                           offsets_[id + 1] - offsets_[id]);
  }
  uint64_t hash(uint32_t id) const { return hashes_[id]; }

  /// Every id, ordered by its key bytes.
  std::vector<uint32_t> SortedIds() const;

 private:
  struct Slot {
    uint32_t id_plus_one = 0;  // 0: empty
    uint32_t tag = 0;          // low hash bits, checked before the bytes
  };

  size_t SlotOf(uint64_t hash) const {
    return static_cast<size_t>(hash >> 32) & (slots_.size() - 1);
  }
  /// The slot holding `key`, else the empty slot where it would go.
  size_t Probe(std::string_view key, uint64_t hash) const;
  void Grow();

  std::string arena_;                // every key's bytes, back to back
  std::vector<uint32_t> offsets_{0};  // key id -> start in arena_; one more
  std::vector<uint64_t> hashes_;     // key id -> HashOf
  std::vector<Slot> slots_;          // a power of two, at most half full
};

}  // namespace streamlake::query

#endif  // STREAMLAKE_QUERY_KEYS_H_
