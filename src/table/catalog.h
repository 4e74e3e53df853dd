#ifndef STREAMLAKE_TABLE_CATALOG_H_
#define STREAMLAKE_TABLE_CATALOG_H_

#include <cstddef>
#include <functional>
#include <iterator>
#include <memory>
#include <string>
#include <vector>

#include "common/mutex.h"
#include "table/metadata_store.h"

namespace streamlake::table {

/// One commit as the metadata store returned it: its key, its stored
/// encoding and what that encoding decodes to. Immutable and shared.
struct DecodedCommit {
  uint64_t seq = 0;
  Bytes encoded;
  CommitFile commit;
};
using CommitPtr = std::shared_ptr<const DecodedCommit>;

/// What one snapshot's commit chain replays to. Immutable once built and
/// shared by every reader of that chain; the pointers point into
/// `commits`, which keeps them alive.
struct LiveSet {
  std::vector<const DataFileMeta*> files;    // live data files, path order
  std::vector<const DeleteRecord*> deletes;  // outstanding MOR deletes
  std::vector<CommitPtr> commits;            // the chain, in order
};

/// A snapshot's live data files in path order, shared with the live set
/// they come from rather than copied. Iterates as `const DataFileMeta&`.
class LiveFileList {
 public:
  class Iterator {
   public:
    using iterator_category = std::forward_iterator_tag;
    using value_type = DataFileMeta;
    using difference_type = std::ptrdiff_t;
    using pointer = const DataFileMeta*;
    using reference = const DataFileMeta&;

    Iterator() = default;
    explicit Iterator(std::vector<const DataFileMeta*>::const_iterator it)
        : it_(it) {}
    reference operator*() const { return **it_; }
    pointer operator->() const { return *it_; }
    Iterator& operator++() {
      ++it_;
      return *this;
    }
    Iterator operator++(int) {
      Iterator old = *this;
      ++it_;
      return old;
    }
    bool operator==(const Iterator&) const = default;

   private:
    std::vector<const DataFileMeta*>::const_iterator it_;
  };

  explicit LiveFileList(std::shared_ptr<const LiveSet> live)
      : live_(std::move(live)) {}

  size_t size() const { return live_->files.size(); }
  bool empty() const { return live_->files.empty(); }
  const DataFileMeta& operator[](size_t i) const { return *live_->files[i]; }
  const DataFileMeta& front() const { return *live_->files.front(); }
  Iterator begin() const { return Iterator(live_->files.begin()); }
  Iterator end() const { return Iterator(live_->files.end()); }

 private:
  std::shared_ptr<const LiveSet> live_;
};

/// One snapshot read: the shared live set, and the compute memory the
/// replay needs (Fig. 15b): the file-based catalog holds every commit at
/// once (the sum of their stored bytes), acceleration streams them (the
/// largest).
struct SnapshotRead {
  std::shared_ptr<const LiveSet> live;
  uint64_t metadata_memory = 0;
};

/// \brief The one reader of a table's snapshots (the commit-chain replay
/// of Section V-B), with a memo that saves decode work but no I/O.
///
/// Every read makes the same metadata-store calls: the snapshot record,
/// then one read per commit of its chain. The memo is the live set of the
/// last head chain read, decoded commits included. A commit just read
/// reuses a memoized decode only when its key and its stored bytes both
/// equal the memo entry's (a failed commit's sequence number is reused by
/// the next commit, so no key alone is trusted). A chain that extends the
/// memo's derives its live set from the memo's, sharing every file entry;
/// any other chain replays in full. Only head reads replace the memo, so
/// it holds one chain per table and dies with its Table.
class Catalog {
 public:
  explicit Catalog(MetadataStore* meta);
  ~Catalog();

  Catalog(const Catalog&) = delete;
  Catalog& operator=(const Catalog&) = delete;

  /// Read snapshot `snapshot_id` of `info` (0, an empty table, is an
  /// empty live set and reads nothing).
  Result<SnapshotRead> Read(const TableInfo& info, uint64_t snapshot_id);

  /// Visit, in chain order, each commit of `info`'s head chain that
  /// `base_snapshot_id`'s chain lacks: both snapshot records are read,
  /// then each such commit just before its visit. The first non-OK visit
  /// stops the walk and is returned.
  Status VisitCommitsSince(
      const TableInfo& info, uint64_t base_snapshot_id,
      const std::function<Status(const CommitFile&)>& visit);

 private:
  std::shared_ptr<const LiveSet> Memo() const;
  /// Read commit `seq`; reuse `memo`'s decode when key and bytes match.
  Result<CommitPtr> ReadCommit(const std::string& table_path, uint64_t seq,
                               const LiveSet& memo);

  MetadataStore* meta_;
  // Leaf: held only to swap the memo pointer, never across I/O or decode.
  mutable Mutex mu_{LockRank::kTableCatalog, "table.catalog"};
  std::shared_ptr<const LiveSet> memo_ GUARDED_BY(mu_);
  uint64_t memo_bytes_ GUARDED_BY(mu_) = 0;  // encoded bytes memo_ holds
};

}  // namespace streamlake::table

#endif  // STREAMLAKE_TABLE_CATALOG_H_
