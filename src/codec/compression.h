#ifndef STREAMLAKE_CODEC_COMPRESSION_H_
#define STREAMLAKE_CODEC_COMPRESSION_H_

#include <cstdint>

#include "common/bytes.h"
#include "common/result.h"

namespace streamlake::codec {

/// Block compression codecs available to PLogs, LakeFile column chunks, and
/// the archive service. kLz is a from-scratch LZ77 variant (greedy parse,
/// 64 KiB window, 4-byte to 64 KiB matches) — the "compression techniques"
/// lever of the TCO story. Its parse is fixed: candidates are rejected with
/// one 4-byte compare and matches extended 8 bytes at a time, but the token
/// stream is byte-for-byte what a byte-at-a-time matcher emits, so stored
/// files never change with the kernel.
enum class Compression : uint8_t {
  kNone = 0,
  kLz = 1,
};

/// Compress `input` with `codec`. The output is self-describing enough to
/// decompress given the codec and the original size.
Bytes Compress(Compression codec, ByteView input);

/// Decompress a block produced by Compress(). `uncompressed_size` must be
/// the original input size (stored by every on-disk block header). A stream
/// that would decode to more or fewer bytes, or to a longer match than
/// Compress emits, is Corruption; nothing is allocated beyond what the
/// input can expand to, so a forged size cannot exhaust memory.
Result<Bytes> Decompress(Compression codec, ByteView input,
                         size_t uncompressed_size);

}  // namespace streamlake::codec

#endif  // STREAMLAKE_CODEC_COMPRESSION_H_
