#ifndef STREAMLAKE_CONVERT_CONVERTER_H_
#define STREAMLAKE_CONVERT_CONVERTER_H_

#include <string>

#include "streaming/dispatcher.h"
#include "table/lakehouse.h"

namespace streamlake::convert {

/// \brief The stream-to-table background service (Section V-B).
///
/// "A background process will apply the table_schema to convert messages
/// to table object records periodically and save them in table_path. The
/// conversion is triggered by either an accumulation of 10^7 messages or
/// the passing of 36000 seconds." With delete_msg set, the converted
/// stream tail is trimmed so one copy serves both stream and batch
/// processing — the 75% storage saving of Table I.
///
/// The reverse conversion (table records back to stream messages, "data
/// playback") is PlaybackToStream().
class ConversionService {
 public:
  ConversionService(streaming::StreamDispatcher* dispatcher,
                    stream::StreamObjectManager* objects,
                    table::LakehouseService* lakehouse, kv::KvStore* meta,
                    sim::SimClock* clock)
      : dispatcher_(dispatcher),
        objects_(objects),
        lakehouse_(lakehouse),
        meta_(meta),
        clock_(clock) {}

  struct RunStats {
    bool triggered = false;
    uint64_t converted_records = 0;
    uint64_t parse_errors = 0;
    uint64_t trimmed_records = 0;
    std::string table_name;
  };

  /// One pass over `topic`: convert if a trigger fired (or `force`).
  /// Creates the target table on first conversion.
  Result<RunStats> Run(const std::string& topic, bool force = false);

  /// Reverse conversion: publish the rows of `table_name` (optionally as
  /// of a past timestamp) into `topic`. Returns messages produced. A table
  /// holding a NULL cell is refused with InvalidArgument naming its column,
  /// before any message is produced: messages carry no NULL.
  Result<uint64_t> PlaybackToStream(const std::string& table_name,
                                    const std::string& topic,
                                    int64_t as_of_timestamp = -1);

 private:
  std::string OffsetKey(const std::string& topic, uint32_t stream) const;
  std::string LastRunKey(const std::string& topic) const;

  streaming::StreamDispatcher* dispatcher_;
  stream::StreamObjectManager* objects_;
  table::LakehouseService* lakehouse_;
  kv::KvStore* meta_;
  sim::SimClock* clock_;
};

}  // namespace streamlake::convert

#endif  // STREAMLAKE_CONVERT_CONVERTER_H_
