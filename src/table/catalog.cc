#include "table/catalog.h"

#include <algorithm>
#include <map>
#include <set>
#include <span>
#include <string_view>
#include <utility>

#include "common/metrics.h"

namespace streamlake::table {

namespace {

Counter* CommitsDecoded() {
  static Counter* counter =
      MetricsRegistry::Global().GetCounter("table.catalog.commits_decoded");
  return counter;
}

Gauge* MemoBytes() {
  static Gauge* gauge =
      MetricsRegistry::Global().GetGauge("table.catalog.memo_bytes");
  return gauge;
}

/// `base` with `commits` applied in order. The last add or remove of a
/// path in `commits` decides it (a commit removes before it adds); paths
/// they never name keep `base`'s entry. No file entry is copied.
std::shared_ptr<const LiveSet> Derive(const LiveSet& base,
                                      std::span<const CommitPtr> commits) {
  auto out = std::make_shared<LiveSet>();
  out->commits.reserve(base.commits.size() + commits.size());
  out->commits = base.commits;
  out->commits.insert(out->commits.end(), commits.begin(), commits.end());
  out->deletes = base.deletes;
  std::map<std::string_view, const DataFileMeta*> delta;  // null: removed
  for (const CommitPtr& c : commits) {
    for (const DataFileMeta& f : c->commit.removed) delta[f.path] = nullptr;
    for (const DataFileMeta& f : c->commit.added) delta[f.path] = &f;
    for (const DeleteRecord& d : c->commit.deletes) {
      out->deletes.push_back(&d);
    }
  }
  // Merge the path-ordered base with the path-ordered delta.
  out->files.reserve(base.files.size() + delta.size());
  auto d = delta.begin();
  auto emit = [&](const DataFileMeta* f) {
    if (f != nullptr) out->files.push_back(f);
  };
  for (const DataFileMeta* f : base.files) {
    for (; d != delta.end() && d->first < f->path; ++d) emit(d->second);
    if (d != delta.end() && d->first == f->path) {
      emit(d->second);
      ++d;
    } else {
      emit(f);
    }
  }
  for (; d != delta.end(); ++d) emit(d->second);
  return out;
}

}  // namespace

Catalog::Catalog(MetadataStore* meta)
    : meta_(meta), memo_(std::make_shared<const LiveSet>()) {}

Catalog::~Catalog() {
  MutexLock lock(&mu_);
  MemoBytes()->Add(-static_cast<int64_t>(memo_bytes_));
}

std::shared_ptr<const LiveSet> Catalog::Memo() const {
  MutexLock lock(&mu_);
  return memo_;
}

Result<CommitPtr> Catalog::ReadCommit(const std::string& table_path,
                                      uint64_t seq, const LiveSet& memo) {
  SL_ASSIGN_OR_RETURN(Bytes bytes, meta_->ReadCommit(table_path, seq));
  auto it = std::lower_bound(
      memo.commits.begin(), memo.commits.end(), seq,
      [](const CommitPtr& c, uint64_t key) { return c->seq < key; });
  if (it != memo.commits.end() && (*it)->seq == seq &&
      (*it)->encoded == bytes) {
    return *it;
  }
  SL_ASSIGN_OR_RETURN(CommitFile commit,
                      CommitFile::DecodeFrom(ByteView(bytes)));
  CommitsDecoded()->Increment();
  return std::make_shared<const DecodedCommit>(
      DecodedCommit{seq, std::move(bytes), std::move(commit)});
}

Result<SnapshotRead> Catalog::Read(const TableInfo& info,
                                   uint64_t snapshot_id) {
  SnapshotRead out;
  if (snapshot_id == 0) {
    out.live = std::make_shared<const LiveSet>();
    return out;
  }
  SL_ASSIGN_OR_RETURN(SnapshotMeta snap,
                      meta_->GetSnapshot(info.path, snapshot_id));
  const std::shared_ptr<const LiveSet> memo = Memo();
  const bool file_based = meta_->mode() == MetadataMode::kFileBased;
  std::vector<CommitPtr> chain;
  chain.reserve(snap.commit_seqs.size());
  size_t shared = 0;  // leading commits that are the memo's own
  for (uint64_t seq : snap.commit_seqs) {
    SL_ASSIGN_OR_RETURN(CommitPtr commit, ReadCommit(info.path, seq, *memo));
    const uint64_t bytes = commit->encoded.size();
    out.metadata_memory = file_based ? out.metadata_memory + bytes
                                     : std::max(out.metadata_memory, bytes);
    if (shared == chain.size() && shared < memo->commits.size() &&
        memo->commits[shared] == commit) {
      ++shared;
    }
    chain.push_back(std::move(commit));
  }
  if (shared < memo->commits.size()) {
    out.live = Derive(LiveSet(), chain);
  } else if (shared < chain.size()) {
    out.live = Derive(*memo, std::span(chain).subspan(shared));
  } else {
    out.live = memo;  // the memo's own chain
  }
  // A head older than the memo's (a reader with a stale catalog entry)
  // keeps the memo.
  const bool older = shared == chain.size() && shared < memo->commits.size();
  if (snapshot_id == info.current_snapshot_id && out.live != memo &&
      !older) {
    uint64_t bytes = 0;
    for (const CommitPtr& c : chain) bytes += c->encoded.size();
    std::shared_ptr<const LiveSet> replaced;  // freed after the unlock
    int64_t grew = 0;
    {
      MutexLock lock(&mu_);
      replaced = std::exchange(memo_, out.live);
      grew = static_cast<int64_t>(bytes) - static_cast<int64_t>(memo_bytes_);
      memo_bytes_ = bytes;
    }
    MemoBytes()->Add(grew);
  }
  return out;
}

Status Catalog::VisitCommitsSince(
    const TableInfo& info, uint64_t base_snapshot_id,
    const std::function<Status(const CommitFile&)>& visit) {
  SL_ASSIGN_OR_RETURN(SnapshotMeta base,
                      meta_->GetSnapshot(info.path, base_snapshot_id));
  SL_ASSIGN_OR_RETURN(SnapshotMeta head,
                      meta_->GetSnapshot(info.path, info.current_snapshot_id));
  const std::set<uint64_t> base_commits(base.commit_seqs.begin(),
                                        base.commit_seqs.end());
  const std::shared_ptr<const LiveSet> memo = Memo();
  for (uint64_t seq : head.commit_seqs) {
    if (base_commits.count(seq)) continue;
    SL_ASSIGN_OR_RETURN(CommitPtr commit, ReadCommit(info.path, seq, *memo));
    SL_RETURN_NOT_OK(visit(commit->commit));
  }
  return Status::OK();
}

}  // namespace streamlake::table
