#include "convert/converter.h"

#include "common/coding.h"
#include "common/metrics.h"
#include "format/row_codec.h"
#include "streaming/producer.h"

namespace streamlake::convert {

std::string ConversionService::OffsetKey(const std::string& topic,
                                         uint32_t stream) const {
  return "convert/" + topic + "/" + std::to_string(stream);
}

std::string ConversionService::LastRunKey(const std::string& topic) const {
  return "convert/" + topic + "/last_run";
}

Result<ConversionService::RunStats> ConversionService::Run(
    const std::string& topic, bool force) {
  SL_ASSIGN_OR_RETURN(streaming::TopicConfig config,
                      dispatcher_->GetTopicConfig(topic));
  RunStats stats;
  const streaming::ConvertToTableConfig& convert = config.convert_2_table;
  if (!convert.enabled && !force) return stats;
  stats.table_name = convert.table_path;

  SL_ASSIGN_OR_RETURN(uint32_t streams, dispatcher_->NumStreams(topic));

  // Gather per-stream objects, conversion frontiers and unconverted counts.
  std::vector<stream::StreamObject*> objects(streams, nullptr);
  std::vector<uint64_t> from(streams, 0);
  uint64_t unconverted = 0;
  for (uint32_t s = 0; s < streams; ++s) {
    const std::string offset_key = OffsetKey(topic, s);
    auto committed = meta_->Get(offset_key);
    if (committed.ok()) {
      SL_ASSIGN_OR_RETURN(from[s],
                          ParseDecimal<uint64_t>(*committed, offset_key));
    }
    SL_ASSIGN_OR_RETURN(uint64_t object_id, dispatcher_->StreamObjectId(topic, s));
    objects[s] = objects_->GetObject(object_id);
    if (objects[s] == nullptr) return Status::NotFound("stream object gone");
    unconverted += objects[s]->frontier() - from[s];
  }

  // Trigger evaluation: message-count threshold or elapsed time.
  int64_t now = static_cast<int64_t>(clock_->NowSeconds());
  int64_t last_run = 0;
  auto last = meta_->Get(LastRunKey(topic));
  if (last.ok()) {
    SL_ASSIGN_OR_RETURN(last_run,
                        ParseDecimal<int64_t>(*last, LastRunKey(topic)));
  }
  bool count_trigger = unconverted >= convert.split_offset;
  bool time_trigger =
      unconverted > 0 &&
      now - last_run >= static_cast<int64_t>(convert.split_time_sec);
  if (!force && !count_trigger && !time_trigger) return stats;
  stats.triggered = true;
  static Counter* triggered_runs =
      MetricsRegistry::Global().GetCounter("convert.runs_triggered");
  triggered_runs->Increment();
  if (unconverted == 0) {
    SL_RETURN_NOT_OK(meta_->Put(LastRunKey(topic), std::to_string(now)));
    return stats;
  }

  // Resolve or create the target table.
  auto table_result = lakehouse_->GetTable(convert.table_path);
  table::Table* table = nullptr;
  if (table_result.ok()) {
    table = *table_result;
  } else if (table_result.status().IsNotFound()) {
    SL_ASSIGN_OR_RETURN(table, lakehouse_->CreateTable(convert.table_path,
                                                       convert.table_schema,
                                                       convert.partition_spec));
  } else {
    return table_result.status();
  }

  // Convert each stream's tail: decode message values as rows of the
  // topic's declared table schema.
  for (uint32_t s = 0; s < streams; ++s) {
    stream::StreamObject* object = objects[s];
    SL_ASSIGN_OR_RETURN(auto records, object->Read(from[s], SIZE_MAX));
    if (records.empty()) continue;
    std::vector<format::Row> rows;
    rows.reserve(records.size());
    for (const stream::StreamRecord& record : records) {
      auto row = format::DecodeRow(convert.table_schema,
                                   ByteView(record.value));
      if (!row.ok()) {
        ++stats.parse_errors;
        continue;
      }
      rows.push_back(std::move(*row));
    }
    if (!rows.empty()) {
      SL_RETURN_NOT_OK(table->Insert(rows));
    }
    stats.converted_records += rows.size();
    uint64_t new_offset = from[s] + records.size();
    SL_RETURN_NOT_OK(meta_->Put(OffsetKey(topic, s),
                                std::to_string(new_offset)));
    if (convert.delete_msg) {
      SL_RETURN_NOT_OK(object->Flush());
      SL_RETURN_NOT_OK(object->TrimTo(new_offset));
      stats.trimmed_records += records.size();
    }
  }
  SL_RETURN_NOT_OK(meta_->Put(LastRunKey(topic), std::to_string(now)));
  static Counter* converted =
      MetricsRegistry::Global().GetCounter("convert.converted_records");
  static Counter* parse_errors =
      MetricsRegistry::Global().GetCounter("convert.parse_errors");
  static Counter* trimmed =
      MetricsRegistry::Global().GetCounter("convert.trimmed_records");
  converted->Increment(stats.converted_records);
  parse_errors->Increment(stats.parse_errors);
  trimmed->Increment(stats.trimmed_records);
  return stats;
}

Result<uint64_t> ConversionService::PlaybackToStream(
    const std::string& table_name, const std::string& topic,
    int64_t as_of_timestamp) {
  SL_ASSIGN_OR_RETURN(table::Table * table, lakehouse_->GetTable(table_name));
  SL_ASSIGN_OR_RETURN(table::TableInfo info, table->Info());

  query::QuerySpec all;
  table::SelectOptions options;
  options.as_of_timestamp = as_of_timestamp;
  SL_ASSIGN_OR_RETURN(query::QueryResult result, table->Select(all, options));
  // A message encodes no NULL (format::EncodeRow), so a table holding one
  // is refused before the first message is produced.
  for (const format::Row& row : result.rows) {
    for (size_t c = 0; c < row.fields.size(); ++c) {
      if (format::IsNull(row.fields[c])) {
        return Status::InvalidArgument(
            "playback of " + table_name + ": column " +
            info.schema.field(c).name + " holds a NULL, which a message "
            "cannot carry");
      }
    }
  }

  streaming::Producer producer(dispatcher_);
  uint64_t produced = 0;
  for (const format::Row& row : result.rows) {
    Bytes value;
    format::EncodeRow(info.schema, row, &value);
    streaming::Message message;
    message.value = BytesToString(value);
    // Key by partition value so playback preserves per-key ordering.
    auto partition = info.partition_spec.PartitionOf(info.schema, row);
    if (partition.ok()) message.key = *partition;
    SL_ASSIGN_OR_RETURN([[maybe_unused]] uint64_t offset,
                        producer.Send(topic, message));
    ++produced;
  }
  static Counter* playback =
      MetricsRegistry::Global().GetCounter("convert.playback_records");
  playback->Increment(produced);
  return produced;
}

}  // namespace streamlake::convert
