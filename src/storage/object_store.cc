#include "storage/object_store.h"

#include "common/coding.h"

namespace streamlake::storage {

namespace {
constexpr std::string_view kIndexPrefix = "obj/";
}

ObjectStore::ObjectStore(PlogStore* plogs, kv::KvStore* index,
                         uint64_t max_fragment_bytes)
    : plogs_(plogs), index_(index), max_fragment_bytes_(max_fragment_bytes) {}

std::string ObjectStore::IndexKey(const std::string& path) {
  return std::string(kIndexPrefix) + path;
}

std::string ObjectStore::RefKey(const PlogAddress& address) {
  return "ref/" + std::to_string(address.shard) + "/" +
         std::to_string(address.plog_index) + "/" +
         std::to_string(address.offset);
}

bool ObjectStore::IsWorm(const std::string& path) const {
  MutexLock lock(&worm_mu_);
  for (const std::string& prefix : worm_prefixes_) {
    if (path.compare(0, prefix.size(), prefix) == 0) return true;
  }
  return false;
}

void ObjectStore::SetWormPrefix(const std::string& prefix) {
  MutexLock lock(&worm_mu_);
  worm_prefixes_.push_back(prefix);
}

Status ObjectStore::AcquireFragment(const Fragment& fragment) {
  const std::string key = RefKey(fragment.address);
  auto count = index_->Get(key);
  uint64_t refs = 1;
  if (count.ok()) {
    SL_ASSIGN_OR_RETURN(refs, ParseDecimal<uint64_t>(*count, key));
  }
  return index_->Put(key, std::to_string(refs + 1));
}

Status ObjectStore::ReleaseFragment(const Fragment& fragment) {
  const std::string key = RefKey(fragment.address);
  auto count = index_->Get(key);
  uint64_t refs = 1;
  if (count.ok()) {
    SL_ASSIGN_OR_RETURN(refs, ParseDecimal<uint64_t>(*count, key));
  }
  if (refs <= 1) {
    if (count.ok()) {
      SL_RETURN_NOT_OK(index_->Delete(key));
    }
    return plogs_->MarkGarbage(fragment.address, fragment.length);
  }
  return index_->Put(key, std::to_string(refs - 1));
}

void ObjectStore::EncodeFragments(const std::vector<Fragment>& fragments,
                                  Bytes* dst) {
  PutVarint64(dst, fragments.size());
  for (const Fragment& f : fragments) {
    PutVarint64(dst, f.address.shard);
    PutVarint64(dst, f.address.plog_index);
    PutVarint64(dst, f.address.offset);
    PutVarint64(dst, f.length);
  }
}

Result<std::vector<ObjectStore::Fragment>> ObjectStore::DecodeFragments(
    ByteView data) {
  Decoder dec(data);
  uint64_t count;
  if (!dec.GetVarint(&count)) return Status::Corruption("fragment count");
  if (count > dec.Remaining()) {
    return Status::Corruption("fragment count bogus");
  }
  std::vector<Fragment> fragments;
  fragments.reserve(count);
  for (uint64_t i = 0; i < count; ++i) {
    Fragment f;
    uint64_t shard, plog_index;
    if (!dec.GetVarint(&shard) || !dec.GetVarint(&plog_index) ||
        !dec.GetVarint(&f.address.offset) || !dec.GetVarint(&f.length)) {
      return Status::Corruption("fragment fields");
    }
    f.address.shard = static_cast<uint32_t>(shard);
    f.address.plog_index = static_cast<uint32_t>(plog_index);
    fragments.push_back(f);
  }
  return fragments;
}

Status ObjectStore::Write(const std::string& path, ByteView data) {
  // Replace semantics: free old fragments afterwards on success.
  std::vector<Fragment> old_fragments;
  auto existing = index_->Get(IndexKey(path));
  if (existing.ok()) {
    if (IsWorm(path)) {
      return Status::InvalidArgument("WORM: " + path + " is immutable");
    }
    SL_ASSIGN_OR_RETURN(old_fragments, DecodeFragments(ByteView(*existing)));
  }

  // The appended fragments become visible only through the final index
  // Put; until then any failure orphans them via MarkGarbage so readers
  // never see a half-written object.
  std::vector<Fragment> fragments;
  Status s = Status::OK();
  uint64_t pos = 0;
  do {
    uint64_t len = std::min<uint64_t>(max_fragment_bytes_, data.size() - pos);
    Fragment f;
    f.length = len;
    // Route fragments by path+index so a big file spreads over shards.
    std::string route = path + "#" + std::to_string(fragments.size());
    auto address =
        plogs_->AppendKeyed(ByteView(route), data.subview(pos, len));
    if (!address.ok()) {
      s = address.status();
      break;
    }
    f.address = *address;
    fragments.push_back(f);
    pos += len;
  } while (pos < data.size());

  if (s.ok()) {
    Bytes encoded;
    EncodeFragments(fragments, &encoded);
    s = index_->Put(IndexKey(path), BytesToString(encoded));
  }
  if (!s.ok()) {
    for (const Fragment& f : fragments) {
      plogs_->MarkGarbage(f.address, f.length)
          .LogIgnored("object write rollback");
    }
    return s;
  }

  // The new index entry is committed; releasing the replaced fragments is
  // best-effort garbage collection and must not fail the completed write.
  for (const Fragment& f : old_fragments) {
    ReleaseFragment(f).LogIgnored("object overwrite release");
  }
  return Status::OK();
}

Result<Bytes> ObjectStore::Read(const std::string& path) const {
  SL_ASSIGN_OR_RETURN(std::string encoded, index_->Get(IndexKey(path)));
  SL_ASSIGN_OR_RETURN(auto fragments, DecodeFragments(ByteView(encoded)));
  Bytes out;
  for (const Fragment& f : fragments) {
    SL_ASSIGN_OR_RETURN(Bytes part, plogs_->Read(f.address));
    if (part.size() != f.length) {
      return Status::Corruption("fragment length mismatch at " + path);
    }
    out.insert(out.end(), part.begin(), part.end());
  }
  return out;
}

Status ObjectStore::Delete(const std::string& path) {
  SL_ASSIGN_OR_RETURN(std::string encoded, index_->Get(IndexKey(path)));
  if (IsWorm(path)) {
    return Status::InvalidArgument("WORM: " + path +
                                   " is retained and cannot be deleted");
  }
  SL_ASSIGN_OR_RETURN(auto fragments, DecodeFragments(ByteView(encoded)));
  SL_RETURN_NOT_OK(index_->Delete(IndexKey(path)));
  // The object is gone once the index entry is; fragment releases are
  // best-effort GC (a failed release leaks re-collectable garbage, but
  // failing here would leave the delete half-reported to the caller).
  for (const Fragment& f : fragments) {
    ReleaseFragment(f).LogIgnored("object delete release");
  }
  return Status::OK();
}

Status ObjectStore::Clone(const std::string& source, const std::string& dest) {
  SL_ASSIGN_OR_RETURN(std::string encoded, index_->Get(IndexKey(source)));
  SL_ASSIGN_OR_RETURN(auto fragments, DecodeFragments(ByteView(encoded)));
  // Replace semantics at the destination.
  std::vector<Fragment> old_fragments;
  auto existing = index_->Get(IndexKey(dest));
  if (existing.ok()) {
    if (IsWorm(dest)) {
      return Status::InvalidArgument("WORM: " + dest + " is immutable");
    }
    SL_ASSIGN_OR_RETURN(old_fragments, DecodeFragments(ByteView(*existing)));
  }
  // Refcount bumps become real only with the dest index Put; undo them
  // if anything fails before it so no fragment leaks a phantom reference.
  Status s = Status::OK();
  size_t acquired = 0;
  for (const Fragment& f : fragments) {
    s = AcquireFragment(f);
    if (!s.ok()) break;
    ++acquired;
  }
  if (s.ok()) s = index_->Put(IndexKey(dest), encoded);
  if (!s.ok()) {
    for (size_t i = 0; i < acquired; ++i) {
      ReleaseFragment(fragments[i]).LogIgnored("clone rollback");
    }
    return s;
  }
  // Dest entry committed; releasing the replaced fragments is best-effort.
  for (const Fragment& f : old_fragments) {
    ReleaseFragment(f).LogIgnored("clone overwrite release");
  }
  return Status::OK();
}

Result<size_t> ObjectStore::SnapshotPrefix(const std::string& source_prefix,
                                           const std::string& dest_prefix) {
  size_t cloned = 0;
  for (const std::string& path : List(source_prefix)) {
    std::string dest = dest_prefix + path.substr(source_prefix.size());
    SL_RETURN_NOT_OK(Clone(path, dest));
    ++cloned;
  }
  return cloned;
}

bool ObjectStore::Exists(const std::string& path) const {
  return index_->Contains(IndexKey(path));
}

Result<uint64_t> ObjectStore::Size(const std::string& path) const {
  SL_ASSIGN_OR_RETURN(std::string encoded, index_->Get(IndexKey(path)));
  SL_ASSIGN_OR_RETURN(auto fragments, DecodeFragments(ByteView(encoded)));
  uint64_t total = 0;
  for (const Fragment& f : fragments) total += f.length;
  return total;
}

std::vector<std::string> ObjectStore::List(const std::string& prefix,
                                           size_t limit) const {
  auto rows = index_->Scan(IndexKey(prefix), limit);
  std::vector<std::string> paths;
  paths.reserve(rows.size());
  for (const auto& [key, value] : rows) {
    paths.push_back(key.substr(kIndexPrefix.size()));
  }
  return paths;
}

uint64_t ObjectStore::num_objects() const {
  return index_->Scan(kIndexPrefix).size();
}

}  // namespace streamlake::storage
