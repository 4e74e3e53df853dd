// The stream object interface of Fig. 3, through its C-style functions:
// create an erasure-coded stream object, append records without blocking,
// read them back from an offset, and destroy the object. Applications
// written against the paper's interface bind the cluster's stream object
// manager once and run unchanged.
//
// Run: ./build/examples/stream_objects

#include <cstdio>
#include <string>

#include "core/streamlake.h"
#include "stream/stream_c_api.h"

using namespace streamlake;

int main() {
  core::StreamLake lake;
  stream::SetServerStreamManager(&lake.stream_objects());

  // CREATE_OPTIONS_S: EC(4,1), no I/O quota, aggregated I/O.
  stream::CREATE_OPTIONS_S options;
  options.redundancy_mode = 1;
  options.ec_data = 4;
  options.ec_parity = 1;
  stream::object_id_t object = 0;
  if (stream::CreateServerStreamObject(&options, &object) != 0) return 1;
  std::printf("created stream object %llu (EC 4+1)\n",
              static_cast<unsigned long long>(object));

  // Two appends of 500 records each; each returns its first offset.
  for (int batch = 0; batch < 2; ++batch) {
    stream::IO_CONTENT_S io;
    for (int i = 0; i < 500; ++i) {
      stream::StreamRecord record;
      record.key = "sensor-" + std::to_string(i % 8);
      record.value = ToBytes("reading " + std::to_string(batch * 500 + i));
      record.timestamp = 1656806400 + batch * 500 + i;
      io.records.push_back(std::move(record));
    }
    uint64_t offset = 0;
    if (stream::AppendServerStreamObject(&object, &io, &offset) != 0) return 1;
    std::printf("appended %zu records at offset %llu\n", io.records.size(),
                static_cast<unsigned long long>(offset));
  }

  // READ_CTRL_S bounds the response; the read starts at any offset.
  stream::READ_CTRL_S ctrl;
  ctrl.max_records = 3;
  stream::IO_CONTENT_S read;
  if (stream::ReadServerStreamObject(&object, 640, &ctrl, &read) != 0) {
    return 1;
  }
  for (const stream::StreamRecord& record : read.records) {
    std::printf("read %s = '%s' (t=%lld)\n", record.key.c_str(),
                BytesToString(record.value).c_str(),
                static_cast<long long>(record.timestamp));
  }

  // Destroy releases the object; later calls name it as missing.
  if (stream::DestroyServerStreamObject(&object) != 0) return 1;
  const int32_t after = stream::ReadServerStreamObject(&object, 0, &ctrl, &read);
  std::printf("destroyed object %llu; a read now returns %d\n",
              static_cast<unsigned long long>(object), after);
  stream::SetServerStreamManager(nullptr);
  return after != 0 ? 0 : 1;
}
