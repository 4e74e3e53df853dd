#include "storage/replication.h"

#include <set>

#include "common/coding.h"
#include "common/hash.h"

namespace streamlake::storage {

Result<RemoteReplicationService::RunStats>
RemoteReplicationService::Replicate(const std::string& prefix) {
  RunStats stats;
  std::set<std::string> live;
  for (const std::string& path : primary_->List(prefix)) {
    live.insert(path);
    SL_ASSIGN_OR_RETURN(Bytes data, primary_->Read(path));
    uint32_t crc = Crc32c(ByteView(data));
    // An unparsable recorded CRC counts as changed: the object ships again.
    const std::string state_key = StateKey(path);
    auto recorded = state_->Get(state_key);
    if (recorded.ok()) {
      auto recorded_crc = ParseDecimal<uint32_t>(*recorded, state_key);
      if (recorded_crc.ok() && *recorded_crc == crc) {
        ++stats.objects_unchanged;
        continue;
      }
    }
    wan_->ChargeTransfer(data.size());
    SL_RETURN_NOT_OK(remote_->Write(path, ByteView(data)));
    SL_RETURN_NOT_OK(state_->Put(state_key, std::to_string(crc)));
    ++stats.objects_shipped;
    stats.bytes_shipped += data.size();
  }
  // Prune remote objects deleted at the primary.
  for (const std::string& path : remote_->List(prefix)) {
    if (!live.count(path)) {
      SL_RETURN_NOT_OK(remote_->Delete(path));
      // Drop the recorded CRC too: a stale entry would make a future run
      // skip re-shipping an identical recreated object.
      SL_RETURN_NOT_OK(state_->Delete(StateKey(path)));
      ++stats.objects_pruned;
    }
  }
  return stats;
}

Status RemoteReplicationService::RestoreObject(const std::string& path) {
  SL_ASSIGN_OR_RETURN(Bytes data, remote_->Read(path));
  wan_->ChargeTransfer(data.size());
  return primary_->Write(path, ByteView(data));
}

}  // namespace streamlake::storage
