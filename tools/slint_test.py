#!/usr/bin/env python3
"""Self-tests for tools/slint: each check (S1-S7) must catch its seeded
violation in a synthetic fixture, clean fixtures must produce zero
findings, and the suppression grammar must reject malformed entries.

Run directly (python3 tools/slint_test.py) or via the slint_selftest ctest.
"""

import os
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from slint import Analysis, parse_program  # noqa: E402
from slint import checks as C  # noqa: E402

# A miniature mutex.h: parse_program only reads the LockRank enum from it.
MUTEX_H = """
#pragma once
namespace fix {
enum class LockRank : unsigned {
  kLow = 10,
  kMid = 20,
  kHigh = 30,
};
}
"""

# Shared class declarations for the fixtures.
WIDGET_H = """
#pragma once
class Widget {
 public:
  void ErrorPathInversion();
  void SleepTwoFramesDown();
  void UnguardedWrite();
  void GuardedWrite();
  void BumpLocked() REQUIRES(low_);
 private:
  Mutex low_{LockRank::kLow, "fix.low"};
  Mutex high_{LockRank::kHigh, "fix.high"};
  int count_ GUARDED_BY(low_) = 0;
};
"""


def analyze(sources, observed=None):
    srcs = {"src/common/mutex.h": MUTEX_H}
    for name, text in sources.items():
        srcs["src/" + name] = text
    program = parse_program(srcs)
    analysis = Analysis(program)
    findings, edges = C.run_checks(program, analysis, observed)
    return program, analysis, findings, edges


def keys(findings, check=None):
    return [(f.check, f.key) for f in findings
            if check is None or f.check == check]


class S1RankInversionTest(unittest.TestCase):
    def test_inversion_on_error_path_is_found(self):
        # The ascending acquisition lives in an `if` no test may ever
        # enter — exactly what the runtime checker cannot see.
        _, _, findings, edges = analyze({
            "widget.h": WIDGET_H,
            "widget.cc": """
#include "widget.h"
void Widget::ErrorPathInversion() {
  MutexLock lock(&low_);
  count_ += 1;
  if (count_ < 0) {
    MutexLock recover(&high_);
    count_ = 0;
  }
}
""",
        })
        self.assertIn(("S1", "fix.low->fix.high"), keys(findings))
        self.assertIn(("fix.low", "fix.high"), edges)

    def test_descending_acquisition_is_clean(self):
        _, _, findings, _ = analyze({
            "widget.h": WIDGET_H,
            "widget.cc": """
#include "widget.h"
void Widget::ErrorPathInversion() {
  MutexLock outer(&high_);
  MutexLock inner(&low_);
  count_ += 1;
}
""",
        })
        self.assertEqual(keys(findings, "S1"), [])

    def test_striped_same_name_nesting_is_left_to_runtime(self):
        # Ascending same-rank striped acquisition is the documented idiom;
        # the static pass admits same-name edges (stripe ORDER is runtime's
        # job) and must not flag them.
        _, _, findings, _ = analyze({
            "striped.h": """
#pragma once
class Striped {
 public:
  void Ascending();
 private:
  Mutex s0_{LockRank::kMid, "fix.stripe", 0};
  Mutex s1_{LockRank::kMid, "fix.stripe", 1};
};
""",
            "striped.cc": """
#include "striped.h"
void Striped::Ascending() {
  MutexLock a(&s0_);
  MutexLock b(&s1_);
}
""",
        })
        self.assertEqual(keys(findings), [])

    def test_interprocedural_edge_through_callee(self):
        # Caller holds high_, callee (another class) takes its own lock at
        # a higher-or-equal rank: the edge only exists interprocedurally.
        _, _, findings, edges = analyze({
            "a.h": """
#pragma once
class Inner {
 public:
  void Touch();
 private:
  Mutex imu_{LockRank::kHigh, "fix.inner"};
};
class Outer {
 public:
  void Call(Inner* inner);
 private:
  Mutex omu_{LockRank::kLow, "fix.outer"};
};
""",
            "a.cc": """
#include "a.h"
void Inner::Touch() { MutexLock lock(&imu_); }
void Outer::Call(Inner* inner) {
  MutexLock lock(&omu_);
  inner->Touch();
}
""",
        })
        self.assertIn(("fix.outer", "fix.inner"), edges)
        self.assertIn(("S1", "fix.outer->fix.inner"), keys(findings))


class S2BlockingTest(unittest.TestCase):
    def test_sleep_two_frames_below_a_lock_is_found(self):
        _, _, findings, _ = analyze({
            "widget.h": WIDGET_H,
            "widget.cc": """
#include "widget.h"
static void NapInner() {
  std::this_thread::sleep_for(std::chrono::milliseconds(1));
}
static void Nap() { NapInner(); }
void Widget::SleepTwoFramesDown() {
  MutexLock lock(&low_);
  Nap();
}
""",
        })
        s2 = keys(findings, "S2")
        self.assertIn(("S2", "Widget::SleepTwoFramesDown:sleep"), s2)
        # The witness chain names the intermediate frame.
        msg = [f.message for f in findings
               if f.key == "Widget::SleepTwoFramesDown:sleep"][0]
        self.assertIn("Nap", msg)

    def test_condvar_wait_on_own_mutex_is_exempt(self):
        _, _, findings, _ = analyze({
            "waiter.h": """
#pragma once
class Waiter {
 public:
  void WaitIdle();
  void WaitHoldingForeign();
 private:
  Mutex mu_{LockRank::kLow, "fix.waiter"};
  Mutex other_{LockRank::kHigh, "fix.other"};
  CondVar cv_;
  bool busy_ = false;
};
""",
            "waiter.cc": """
#include "waiter.h"
void Waiter::WaitIdle() {
  MutexLock lock(&mu_);
  while (busy_) cv_.Wait(&mu_);
}
void Waiter::WaitHoldingForeign() {
  MutexLock outer(&other_);
  MutexLock lock(&mu_);
  while (busy_) cv_.Wait(&mu_);
}
""",
        })
        s2 = keys(findings, "S2")
        self.assertNotIn(("S2", "Waiter::WaitIdle:condvar"), s2)
        # Waiting with a FOREIGN lock also held parks that lock: flagged.
        self.assertIn(("S2", "Waiter::WaitHoldingForeign:condvar"), s2)

    def test_parallel_for_under_a_held_lock_is_found(self):
        # ParallelFor submits jobs and waits for all of them, so calling it
        # with a lock held parks that lock for the whole fan-out. Its job
        # runs on a worker with nothing held: no low -> high edge.
        _, _, findings, edges = analyze({
            "widget.h": WIDGET_H,
            "widget.cc": """
#include "widget.h"
void Widget::SleepTwoFramesDown() {
  MutexLock lock(&low_);
  ParallelFor(pool_, 4, [this](size_t i) {
    MutexLock inner(&high_);
  });
}
void Widget::GuardedWrite() {
  ParallelFor(pool_, 4, [this](size_t i) { (void)i; });
  MutexLock lock(&low_);
  count_ = 1;
}
""",
        })
        s2 = keys(findings, "S2")
        self.assertIn(("S2", "Widget::SleepTwoFramesDown:parallel-for"), s2)
        self.assertNotIn(("S2", "Widget::GuardedWrite:parallel-for"), s2)
        self.assertNotIn(("fix.low", "fix.high"), edges)

    def test_no_lock_held_means_no_finding(self):
        _, _, findings, _ = analyze({
            "widget.h": WIDGET_H,
            "widget.cc": """
#include "widget.h"
void Widget::SleepTwoFramesDown() {
  std::this_thread::sleep_for(std::chrono::milliseconds(1));
  MutexLock lock(&low_);
  count_ += 1;
}
""",
        })
        self.assertEqual(keys(findings, "S2"), [])


class S3GuardedByTest(unittest.TestCase):
    def test_unguarded_access_is_found(self):
        _, _, findings, _ = analyze({
            "widget.h": WIDGET_H,
            "widget.cc": """
#include "widget.h"
void Widget::UnguardedWrite() { count_ = 7; }
""",
        })
        self.assertIn(("S3", "Widget::UnguardedWrite:count_"),
                      keys(findings, "S3"))

    def test_guard_scope_and_requires_both_satisfy(self):
        _, _, findings, _ = analyze({
            "widget.h": WIDGET_H,
            "widget.cc": """
#include "widget.h"
void Widget::GuardedWrite() {
  MutexLock lock(&low_);
  count_ = 7;
}
void Widget::BumpLocked() { count_ += 1; }
""",
        })
        self.assertEqual(keys(findings, "S3"), [])


class S4SubsetTest(unittest.TestCase):
    FIXTURE = {
        "widget.h": WIDGET_H,
        "widget.cc": """
#include "widget.h"
void Widget::GuardedWrite() {
  MutexLock outer(&high_);
  MutexLock lock(&low_);
  count_ = 7;
}
""",
    }

    def test_observed_edge_missing_from_static_is_found(self):
        observed = """digraph lock_order {
  "fix.low" [lockrank=10];
  "fix.high" [lockrank=30];
  "fix.low" -> "fix.high";
}
"""
        _, _, findings, _ = analyze(self.FIXTURE, observed)
        self.assertIn(("S4", "fix.low->fix.high"), keys(findings, "S4"))

    def test_observed_subset_and_foreign_nodes_pass(self):
        observed = """digraph lock_order {
  "fix.high" -> "fix.low";
  "test.only" -> "fix.low";
}
"""
        _, _, findings, _ = analyze(self.FIXTURE, observed)
        # high->low is in the static graph; test.only is outside the
        # static universe (a test-local lock) and is ignored.
        self.assertEqual(keys(findings, "S4"), [])


class S5GuardCompletenessTest(unittest.TestCase):
    def test_submit_lambda_write_to_unannotated_member_is_found(self):
        # Tracker escapes to a worker thread via the Submit lambda; hits_
        # is written there but carries no GUARDED_BY and is not atomic.
        _, _, findings, _ = analyze({
            "tracker.h": """
#pragma once
class Tracker {
 public:
  void Kick();
 private:
  ThreadPool* pool_;
  int hits_ = 0;
};
""",
            "tracker.cc": """
#include "tracker.h"
void Tracker::Kick() {
  pool_->Submit([this] { hits_ = hits_ + 1; });
}
""",
        })
        self.assertIn(("S5", "Tracker:hits_"), keys(findings, "S5"))

    def test_parallel_for_job_write_to_unannotated_member_is_found(self):
        # A ParallelFor job is deferred like a Submit lambda: what it
        # writes is seen by the escape pass.
        _, _, findings, _ = analyze({
            "tracker.h": """
#pragma once
class Tracker {
 public:
  void Kick();
 private:
  ThreadPool* pool_;
  int hits_ = 0;
};
""",
            "tracker.cc": """
#include "tracker.h"
void Tracker::Kick() {
  ParallelFor(pool_, 2, [this](size_t i) { hits_ = hits_ + 1; });
}
""",
        })
        self.assertIn(("S5", "Tracker:hits_"), keys(findings, "S5"))

    def test_annotated_and_atomic_members_are_clean(self):
        _, _, findings, _ = analyze({
            "tracker.h": """
#pragma once
class SafeTracker {
 public:
  void Kick();
 private:
  ThreadPool* pool_;
  Mutex mu_{LockRank::kMid, "fix.tracker"};
  int hits_ GUARDED_BY(mu_) = 0;
  std::atomic<int> spins_{0};
};
""",
            "tracker.cc": """
#include "tracker.h"
void SafeTracker::Kick() {
  pool_->Submit([this] {
    MutexLock lock(&mu_);
    hits_ = hits_ + 1;
    spins_ = spins_ + 1;
  });
}
""",
        })
        self.assertEqual(keys(findings, "S5"), [])

    def test_const_after_construction_member_is_clean(self):
        # name_ is written only by the constructor, which runs before the
        # object can be shared with the pool workers.
        _, _, findings, _ = analyze({
            "tracker.h": """
#pragma once
class NamedTracker {
 public:
  NamedTracker();
  void Kick();
 private:
  ThreadPool* pool_;
  int name_ = 0;
};
""",
            "tracker.cc": """
#include "tracker.h"
NamedTracker::NamedTracker() { name_ = 7; }
void NamedTracker::Kick() {
  pool_->Submit([this] { int x = name_; (void)x; });
}
""",
        })
        self.assertEqual(keys(findings, "S5"), [])


class S6TornStateTest(unittest.TestCase):
    COMMITTER_H = """
#pragma once
class Committer {
 public:
  Status Commit();
  Status CommitWithRollback();
  Status CommitViaHelper();
  Status Stamp();
  Status Purge();
 private:
  void Retract();
  KvStore* kv_;
};
"""

    def test_error_return_between_two_writes_without_rollback_is_found(self):
        _, _, findings, _ = analyze({
            "committer.h": self.COMMITTER_H,
            "committer.cc": """
#include "committer.h"
Status Committer::Commit() {
  SL_RETURN_NOT_OK(kv_->Write("a", "1"));
  Status b = kv_->Write("b", "2");
  if (!b.ok()) return b;
  return Status::OK();
}
""",
        })
        self.assertIn(("S6", "Committer::Commit:torn"), keys(findings, "S6"))

    def test_discarded_delete_before_the_return_is_a_rollback(self):
        _, _, findings, _ = analyze({
            "committer.h": self.COMMITTER_H,
            "committer.cc": """
#include "committer.h"
Status Committer::CommitWithRollback() {
  SL_RETURN_NOT_OK(kv_->Write("a", "1"));
  Status b = kv_->Write("b", "2");
  if (!b.ok()) {
    kv_->Delete("a").LogIgnored("rollback");
    return b;
  }
  return Status::OK();
}
""",
        })
        self.assertEqual(keys(findings, "S6"), [])

    def test_factored_out_undo_helper_is_a_rollback(self):
        # Retract() performs no mutation of its own (its Delete is
        # discarded, i.e. best-effort) — calling it counts as the undo.
        _, _, findings, _ = analyze({
            "committer.h": self.COMMITTER_H,
            "committer.cc": """
#include "committer.h"
void Committer::Retract() { kv_->Delete("a").LogIgnored("rollback"); }
Status Committer::CommitViaHelper() {
  SL_RETURN_NOT_OK(kv_->Write("a", "1"));
  Status b = kv_->Write("b", "2");
  if (!b.ok()) {
    Retract();
    return b;
  }
  return Status::OK();
}
""",
        })
        self.assertEqual(keys(findings, "S6"), [])

    def test_terminal_return_mutation_cannot_tear(self):
        # `return kv_->Write(...)` ends its path: nothing can fail after
        # it, so only one non-terminal mutation remains — below the bar.
        _, _, findings, _ = analyze({
            "committer.h": self.COMMITTER_H,
            "committer.cc": """
#include "committer.h"
Status Committer::Stamp() {
  SL_RETURN_NOT_OK(kv_->Write("a", "1"));
  return kv_->Write("b", "2");
}
""",
        })
        self.assertEqual(keys(findings, "S6"), [])

    def test_all_delete_kind_protocol_is_exempt(self):
        # A torn delete protocol leaves re-drivable garbage; re-running
        # the delete IS the rollback.
        _, _, findings, _ = analyze({
            "committer.h": self.COMMITTER_H,
            "committer.cc": """
#include "committer.h"
Status Committer::Purge() {
  SL_RETURN_NOT_OK(kv_->Delete("a"));
  SL_RETURN_NOT_OK(kv_->Delete("b"));
  return Status::OK();
}
""",
        })
        self.assertEqual(keys(findings, "S6"), [])


class S7PublishLastTest(unittest.TestCase):
    CATALOG_H = """
#pragma once
class Catalog {
 public:
  Status CreatePublishFirst();
  Status CreatePublishLast();
  Status CreateWithGc();
 private:
  KvStore* kv_;
  std::map<std::string, int> live_;
};
"""

    def test_fallible_call_after_member_map_publish_is_found(self):
        _, _, findings, _ = analyze({
            "catalog.h": self.CATALOG_H,
            "catalog.cc": """
#include "catalog.h"
Status Catalog::CreatePublishFirst() {
  SL_RETURN_NOT_OK(kv_->Write("meta", "1"));
  live_["t"] = 1;
  return kv_->Write("audit", "2");
}
""",
        })
        self.assertIn(("S7", "Catalog::CreatePublishFirst:publish"),
                      keys(findings, "S7"))

    def test_publish_as_last_step_is_clean(self):
        _, _, findings, _ = analyze({
            "catalog.h": self.CATALOG_H,
            "catalog.cc": """
#include "catalog.h"
Status Catalog::CreatePublishLast() {
  SL_RETURN_NOT_OK(kv_->Write("meta", "1"));
  SL_RETURN_NOT_OK(kv_->Write("audit", "2"));
  live_["t"] = 1;
  return Status::OK();
}
""",
        })
        self.assertEqual(keys(findings, "S7"), [])

    def test_discarded_cleanup_after_publish_is_clean(self):
        # Best-effort GC after the flip cannot tear the commit: its
        # status is absorbed, so the protocol cannot error past it.
        _, _, findings, _ = analyze({
            "catalog.h": self.CATALOG_H,
            "catalog.cc": """
#include "catalog.h"
Status Catalog::CreateWithGc() {
  SL_RETURN_NOT_OK(kv_->Write("meta", "1"));
  live_["t"] = 1;
  kv_->Delete("tmp").LogIgnored("gc");
  return Status::OK();
}
""",
        })
        self.assertEqual(keys(findings, "S7"), [])


class DotRoundTripTest(unittest.TestCase):
    def test_write_then_parse_preserves_nodes_and_edges(self):
        program, _, _, edges = analyze(S4SubsetTest.FIXTURE)
        text = C.write_dot(program, edges)
        nodes, parsed_edges = C.parse_dot(text)
        self.assertEqual(nodes, {"fix.low", "fix.high"})
        self.assertIn(("fix.high", "fix.low"), parsed_edges)
        # Stable: emitting twice yields identical text.
        self.assertEqual(text, C.write_dot(program, edges))


class SuppressionsTest(unittest.TestCase):
    def test_justified_entry_suppresses_exactly_its_finding(self):
        _, _, findings, _ = analyze({
            "widget.h": WIDGET_H,
            "widget.cc": """
#include "widget.h"
void Widget::UnguardedWrite() { count_ = 7; }
""",
        })
        supps = C.load_suppressions(
            "S3 Widget::UnguardedWrite:count_ -- stats read, torn ok\n")
        remaining, unused = C.apply_suppressions(findings, supps)
        self.assertEqual(keys(remaining, "S3"), [])
        self.assertEqual(unused, [])

    def test_trailing_star_wildcard_matches_key_prefix(self):
        _, _, findings, _ = analyze({
            "committer.h": S6TornStateTest.COMMITTER_H,
            "committer.cc": """
#include "committer.h"
Status Committer::Commit() {
  SL_RETURN_NOT_OK(kv_->Write("a", "1"));
  Status b = kv_->Write("b", "2");
  if (!b.ok()) return b;
  return Status::OK();
}
""",
        })
        supps = C.load_suppressions(
            "S6 Committer::* -- fixture protocol is at-least-once\n")
        remaining, unused = C.apply_suppressions(findings, supps)
        self.assertEqual(keys(remaining, "S6"), [])
        self.assertEqual(unused, [])

    def test_unused_suppression_is_itself_an_error(self):
        remaining, unused = C.apply_suppressions(
            [], C.load_suppressions("S1 a->b -- stale\n"))
        self.assertEqual(remaining, [])
        self.assertEqual(len(unused), 1)
        self.assertIn("unused suppression", unused[0].message)

    def test_malformed_lines_are_rejected(self):
        for bad in ("S3 key.without.justification\n",
                    "S9 key -- bogus check id\n",
                    "key -- no check id\n"):
            with self.assertRaises(ValueError):
                C.load_suppressions(bad)

    def test_comments_and_blanks_are_ignored(self):
        self.assertEqual(
            C.load_suppressions("# comment\n\nS2 f:sleep -- why\n"),
            [("S2", "f:sleep", "why", 3)])


class ModelSanityTest(unittest.TestCase):
    def test_mutex_db_records_rank_stripe_owner(self):
        program, _, _, _ = analyze({
            "striped.h": """
#pragma once
class Striped {
 private:
  Mutex s0_{LockRank::kMid, "fix.stripe", 0};
  Mutex plain_{LockRank::kLow, "fix.plain"};
};
""",
        })
        stripe = program.mutexes["fix.stripe"]
        self.assertEqual(stripe.rank, 20)
        self.assertTrue(stripe.striped)
        self.assertEqual(stripe.owner_class, "Striped")
        plain = program.mutexes["fix.plain"]
        self.assertEqual(plain.rank, 10)
        self.assertFalse(plain.striped)

    def test_submit_lambda_is_deferred_not_inline(self):
        # A lambda handed to ThreadPool::Submit runs later on a worker
        # with nothing held: its acquisitions must NOT create edges from
        # the submitter's held set.
        _, _, findings, edges = analyze({
            "widget.h": WIDGET_H,
            "widget.cc": """
#include "widget.h"
void Widget::GuardedWrite() {
  MutexLock lock(&low_);
  count_ = 1;
  pool_->Submit([this] {
    MutexLock inner(&high_);
  });
}
""",
        })
        self.assertNotIn(("fix.low", "fix.high"), edges)
        self.assertEqual(keys(findings, "S1"), [])


if __name__ == "__main__":
    unittest.main()
