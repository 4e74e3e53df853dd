#include "streaming/archive.h"

#include "common/coding.h"
#include "format/lakefile.h"
#include "format/row_codec.h"

namespace streamlake::streaming {

namespace {

/// Fixed schema of archived messages (the topic's own table conversion
/// uses convert_2_table instead; the archive preserves raw messages).
format::Schema ArchiveSchema() {
  return format::Schema{{"key", format::DataType::kString},
                        {"value", format::DataType::kString},
                        {"timestamp", format::DataType::kInt64}};
}

}  // namespace

std::string ArchiveService::OffsetKey(const std::string& topic,
                                      uint32_t stream) const {
  return "archive/" + topic + "/" + std::to_string(stream);
}

Result<ArchiveService::RunStats> ArchiveService::Run(const std::string& topic,
                                                     bool force) {
  SL_ASSIGN_OR_RETURN(TopicConfig config, dispatcher_->GetTopicConfig(topic));
  RunStats stats;
  if (!config.archive.enabled && !force) return stats;

  SL_ASSIGN_OR_RETURN(uint32_t streams, dispatcher_->NumStreams(topic));

  // First pass: measure the unarchived volume to evaluate the trigger.
  std::vector<uint64_t> from(streams, 0);
  std::vector<std::vector<stream::StreamRecord>> tails(streams);
  uint64_t unarchived_bytes = 0;
  for (uint32_t s = 0; s < streams; ++s) {
    const std::string key = OffsetKey(topic, s);
    auto committed = meta_->Get(key);
    if (committed.ok()) {
      SL_ASSIGN_OR_RETURN(from[s], ParseDecimal<uint64_t>(*committed, key));
    }
    SL_ASSIGN_OR_RETURN(auto route, dispatcher_->RouteFetch(topic, s));
    SL_ASSIGN_OR_RETURN(tails[s],
                        route.worker->Fetch(route.stream_object_id, from[s],
                                            SIZE_MAX));
    for (const auto& record : tails[s]) unarchived_bytes += record.ByteSize();
  }
  if (!force && unarchived_bytes < config.archive.archive_size_mb << 20) {
    return stats;  // below the archive_size trigger
  }

  for (uint32_t s = 0; s < streams; ++s) {
    if (tails[s].empty()) continue;
    std::string path = "/archive/" + topic + "/" + std::to_string(s) + "-" +
                       std::to_string(next_file_seq_++);
    Bytes file;
    if (config.archive.row_2_col) {
      // Columnar conversion: dictionary/RLE + compression shrink the
      // archive far below the raw stream bytes.
      format::LakeFileWriter writer(ArchiveSchema());
      for (const auto& record : tails[s]) {
        format::Row row;
        row.fields = {format::Value(record.key),
                      format::Value(BytesToString(record.value)),
                      format::Value(record.timestamp)};
        SL_RETURN_NOT_OK(writer.Append(row));
      }
      SL_ASSIGN_OR_RETURN(file, writer.Finish());
      path += ".lake";
    } else {
      format::Schema schema = ArchiveSchema();
      for (const auto& record : tails[s]) {
        format::Row row;
        row.fields = {format::Value(record.key),
                      format::Value(BytesToString(record.value)),
                      format::Value(record.timestamp)};
        format::EncodeRow(schema, row, &file);
      }
      path += ".rows";
    }
    SL_RETURN_NOT_OK(archive_store_->Write(path, ByteView(file)));
    stats.files_written += 1;
    stats.archived_bytes += file.size();
    stats.archived_records += tails[s].size();
    for (const auto& record : tails[s]) {
      stats.source_bytes += record.ByteSize();
    }
    SL_RETURN_NOT_OK(meta_->Put(OffsetKey(topic, s),
                                std::to_string(from[s] + tails[s].size())));
  }
  return stats;
}

}  // namespace streamlake::streaming
