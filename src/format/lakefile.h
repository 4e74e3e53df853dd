#ifndef STREAMLAKE_FORMAT_LAKEFILE_H_
#define STREAMLAKE_FORMAT_LAKEFILE_H_

#include <memory>
#include <optional>
#include <span>
#include <variant>
#include <vector>

#include "codec/compression.h"
#include "codec/encoding.h"
#include "format/schema.h"
#include "format/types.h"

namespace streamlake::format {

/// \brief LakeFile: StreamLake's columnar analytics format.
///
/// Plays the role Parquet plays in the paper (Section IV-B): rows are
/// organized into row groups; each column chunk is encoded (plain / RLE /
/// delta / dictionary / bit-packed), block-compressed, and CRC-protected;
/// the footer carries per-chunk min/max statistics so queries can skip
/// whole row groups ("footers contain statistics to support data skipping
/// within the file").
///
/// Layout:
///   [magic][chunk]...[chunk][footer][footer_size:4][magic]
///   chunk  = [encoding u8][compression u8][raw_len][data_len][data][crc:4]
///   footer = schema, row-group directory (offsets, row counts, stats)
struct LakeFileOptions {
  size_t rows_per_group = 8192;
  codec::Compression compression = codec::Compression::kLz;
};

/// Per-column statistics of one row group: min/max plus null count / exact
/// distinct count / average width, which every writer records (a reader
/// still accepts stats without them, `has_extended` false).
struct ColumnStats {
  std::optional<Value> min;  // over non-NULL values
  std::optional<Value> max;
  bool has_extended = false;  // null_count/ndv/avg_width are populated
  uint64_t null_count = 0;
  uint64_t ndv = 0;       // exact distinct non-NULL values in the chunk
  double avg_width = 0.0;  // mean plain-encoded width of non-NULL values
};

/// The one ColumnStats codec: a LakeFile footer's chunk stats and a commit
/// file's DataFileMeta both use it.
void EncodeColumnStats(Bytes* dst, const ColumnStats& stats);
Result<ColumnStats> DecodeColumnStats(Decoder* dec);

struct ChunkMeta {
  uint64_t offset = 0;  // file offset of the chunk
  uint64_t size = 0;    // total bytes including chunk header and crc
  ColumnStats stats;
};

struct RowGroupMeta {
  uint64_t num_rows = 0;
  std::vector<ChunkMeta> columns;
};

/// Decoded values of one column chunk; alternative parallels DataType
/// (bools decode to uint8_t 0/1).
using ColumnData =
    std::variant<std::vector<uint8_t>, std::vector<int64_t>,
                 std::vector<double>, std::vector<std::string>>;

/// One column chunk in its cheapest scannable form. Dictionary chunks stay in
/// code space (`dict` + `codes`, `values` empty) so predicates can run on the
/// compressed representation; other encodings decode into `values`. NULL rows
/// carry the type's default in the value stream and are flagged in
/// `null_mask`.
struct ColumnChunkData {
  DataType type = DataType::kBool;
  uint64_t num_rows = 0;
  uint64_t raw_bytes = 0;  // uncompressed payload size == decode cost
  ColumnData values;
  bool dict_view = false;
  ColumnData dict;              // dictionary entries (dict_view only)
  std::vector<uint32_t> codes;  // per-row dictionary codes (dict_view only)
  std::vector<uint8_t> null_mask;  // 1 = NULL at row; empty when no NULLs

  bool IsNullAt(size_t row) const {
    return !null_mask.empty() && null_mask[row] != 0;
  }
  /// Materializes one cell (NULL-aware; indexes through the dictionary for
  /// dict views).
  Value ValueAt(size_t row) const;
};

/// A decoded chunk, shared by the block cache and every scan batch that
/// reads it.
using ColumnChunkPtr = std::shared_ptr<const ColumnChunkData>;

/// One encoded LakeFile and the file-level stats of its rows.
struct EncodedLakeFile {
  Bytes bytes;
  /// One entry per schema column, from the same pass that builds the
  /// chunks: null_count, ndv exact across every row group
  /// (a NaN counts as one value), avg_width, and min/max over the non-NULL
  /// values — absent when there are none, or when a double column holds a
  /// NaN, which no range can bound.
  std::vector<ColumnStats> column_stats;
};

/// The one input of EncodeLakeFile: a table slice in columns. Each column
/// holds its field type's typed vector (a ColumnData alternative; a kNull
/// column keeps its vector empty) and a null mask of one byte per row.
/// NULL rows hold the type's default value (false, 0, 0.0, "") in the
/// vector, as every LakeFile stores them.
struct ColumnBatch {
  struct Column {
    DataType type = DataType::kNull;
    ColumnData values;
    std::vector<uint8_t> null_mask;  // 1 = NULL at row
  };

  /// No rows, one empty column per field of `schema`.
  explicit ColumnBatch(const Schema& schema);

  /// Reserves room for `rows` rows in every column.
  void Reserve(size_t rows);
  /// Appends `rows`, valid for the schema (Schema::ValidateRow), one column
  /// at a time.
  void AppendRows(std::span<const Row* const> rows);
  /// Appends rows `rows` of decoded chunks, one per column (plain or
  /// dictionary views alike), as stored: a NULL row keeps the default.
  void AppendRows(std::span<const ColumnChunkPtr> chunks,
                  std::span<const uint32_t> rows);
  /// Overwrites one cell with `value`, of the column's type or NULL.
  void Set(size_t column, size_t row, const Value& value);

  uint64_t num_rows = 0;
  std::vector<Column> columns;
};

/// Encodes `batch` (of `schema`'s columns) as one LakeFile, cutting a row
/// group every `options.rows_per_group` rows. One pass over each chunk's
/// typed vector gathers its stats and its dictionary codes. A chunk holding
/// a NaN records no min/max in the footer either, so it is never pruned.
EncodedLakeFile EncodeLakeFile(const Schema& schema, const ColumnBatch& batch,
                               const LakeFileOptions& options);

/// Row-at-a-time front end of EncodeLakeFile: validates each appended row
/// into a ColumnBatch, then Finish() encodes it.
class LakeFileWriter {
 public:
  LakeFileWriter(Schema schema, LakeFileOptions options = LakeFileOptions());

  Status Append(const Row& row);
  Status AppendBatch(const std::vector<Row>& rows);

  /// Encode the buffered rows and return the serialized file. The writer
  /// cannot be reused afterwards.
  Result<Bytes> Finish();

 private:
  Schema schema_;
  LakeFileOptions options_;
  ColumnBatch batch_;
  bool finished_ = false;
};

/// Random-access reader over an in-memory LakeFile.
class LakeFileReader {
 public:
  /// Parses the footer; chunk payloads are decoded lazily per column.
  static Result<LakeFileReader> Open(Bytes file);

  const Schema& schema() const { return schema_; }
  size_t num_row_groups() const { return groups_.size(); }
  uint64_t num_rows() const;
  const RowGroupMeta& row_group(size_t i) const { return groups_[i]; }

  /// Decode one column chunk into its scannable form: dictionary chunks stay
  /// as dict + codes (compute-on-compressed), others as plain values.
  Result<ColumnChunkData> ReadColumnChunk(size_t group, size_t column) const;

  /// Materialize all rows of one row group (all columns).
  Result<std::vector<Row>> ReadRowGroup(size_t group) const;

  /// Materialize the whole file.
  Result<std::vector<Row>> ReadAll() const;

  size_t file_size() const { return file_.size(); }

 private:
  LakeFileReader() = default;

  Bytes file_;
  Schema schema_;
  std::vector<RowGroupMeta> groups_;
};

}  // namespace streamlake::format

#endif  // STREAMLAKE_FORMAT_LAKEFILE_H_
