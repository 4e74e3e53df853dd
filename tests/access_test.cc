#include <gtest/gtest.h>

#include "access/access_control.h"
#include "access/block_service.h"
#include "access/nas_service.h"
#include "access/s3_gateway.h"
#include "common/random.h"

namespace streamlake::access {
namespace {

struct AccessFixture {
  sim::SimClock clock;
  storage::StoragePool pool{"ssd", sim::MediaType::kNvmeSsd, &clock};
  sim::NetworkModel network{sim::NetworkProfile::Tcp(), &clock};
  kv::KvStore index;
  std::unique_ptr<storage::PlogStore> plogs;
  std::unique_ptr<storage::ObjectStore> objects;
  AccessController acl;

  AccessFixture() {
    pool.AddCluster(3, 2, 256 << 20);
    storage::PlogStoreConfig config;
    config.num_shards = 8;
    config.plog.capacity = 16 << 20;
    config.plog.redundancy = storage::RedundancyConfig::Replication(3);
    plogs = std::make_unique<storage::PlogStore>(&pool, config, &clock);
    objects = std::make_unique<storage::ObjectStore>(plogs.get(), &index);
  }
};

// ---------------- AccessController ----------------

TEST(AccessControlTest, AuthenticateAndAuthorize) {
  AccessController acl;
  std::string token = acl.CreatePrincipal("alice");
  auto who = acl.Authenticate(token);
  ASSERT_TRUE(who.ok());
  EXPECT_EQ(*who, "alice");
  EXPECT_TRUE(acl.Authenticate("tok-bogus").status().IsInvalidArgument());

  // No grants yet.
  EXPECT_FALSE(acl.Authorize("alice", "/data/x", Permission::kRead));
  ASSERT_TRUE(acl.Grant("alice", "/data/", Permission::kRead).ok());
  EXPECT_TRUE(acl.Authorize("alice", "/data/x", Permission::kRead));
  EXPECT_FALSE(acl.Authorize("alice", "/data/x", Permission::kWrite));
  EXPECT_FALSE(acl.Authorize("alice", "/other/x", Permission::kRead));

  // Admin implies everything under the prefix.
  ASSERT_TRUE(acl.Grant("alice", "/admin/", Permission::kAdmin).ok());
  EXPECT_TRUE(acl.Authorize("alice", "/admin/sub", Permission::kWrite));

  // CheckRequest combines both steps.
  EXPECT_TRUE(acl.CheckRequest(token, "/data/x", Permission::kRead).ok());
  EXPECT_TRUE(acl.CheckRequest(token, "/data/x", Permission::kWrite)
                  .IsInvalidArgument());
}

TEST(AccessControlTest, RevokeGrantAndPrincipal) {
  AccessController acl;
  std::string token = acl.CreatePrincipal("bob");
  ASSERT_TRUE(acl.Grant("bob", "/d/", Permission::kRead).ok());
  ASSERT_TRUE(acl.Grant("bob", "/d/", Permission::kWrite).ok());
  ASSERT_TRUE(acl.Revoke("bob", "/d/", Permission::kWrite).ok());
  EXPECT_TRUE(acl.Authorize("bob", "/d/x", Permission::kRead));
  EXPECT_FALSE(acl.Authorize("bob", "/d/x", Permission::kWrite));
  EXPECT_TRUE(acl.Revoke("bob", "/nope/", Permission::kRead).IsNotFound());

  ASSERT_TRUE(acl.RevokePrincipal("bob").ok());
  EXPECT_TRUE(acl.Authenticate(token).status().IsInvalidArgument());
  EXPECT_TRUE(acl.Grant("bob", "/d/", Permission::kRead).IsNotFound());
}

TEST(AccessControlTest, GrantToUnknownPrincipalFails) {
  AccessController acl;
  EXPECT_TRUE(acl.Grant("ghost", "/", Permission::kRead).IsNotFound());
}

// ---------------- S3 gateway ----------------

TEST(S3GatewayTest, BucketLifecycleWithAuth) {
  AccessFixture f;
  S3Gateway s3(f.objects.get(), &f.acl, &f.network);
  std::string admin = f.acl.CreatePrincipal("admin");
  ASSERT_TRUE(f.acl.Grant("admin", "/s3/", Permission::kAdmin).ok());

  ASSERT_TRUE(s3.CreateBucket(admin, "logs").ok());
  EXPECT_TRUE(s3.CreateBucket(admin, "logs").IsAlreadyExists());
  EXPECT_TRUE(s3.PutObject(admin, "missing", "k", ByteView("v")).IsNotFound());

  ASSERT_TRUE(s3.PutObject(admin, "logs", "2022/07/03.log",
                           ByteView("log line")).ok());
  auto data = s3.GetObject(admin, "logs", "2022/07/03.log");
  ASSERT_TRUE(data.ok());
  EXPECT_EQ(BytesToString(*data), "log line");
  EXPECT_EQ(*s3.HeadObject(admin, "logs", "2022/07/03.log"), 8u);

  ASSERT_TRUE(s3.PutObject(admin, "logs", "2022/07/04.log", ByteView("x")).ok());
  auto keys = s3.ListObjects(admin, "logs", "2022/07/");
  ASSERT_TRUE(keys.ok());
  EXPECT_EQ(keys->size(), 2u);

  ASSERT_TRUE(s3.DeleteObject(admin, "logs", "2022/07/03.log").ok());
  EXPECT_TRUE(s3.GetObject(admin, "logs", "2022/07/03.log").status()
                  .IsNotFound());
}

TEST(S3GatewayTest, ListObjectsPrefixEndingInFF) {
  AccessFixture f;
  S3Gateway s3(f.objects.get(), &f.acl, &f.network);
  std::string admin = f.acl.CreatePrincipal("admin");
  ASSERT_TRUE(f.acl.Grant("admin", "/s3/", Permission::kAdmin).ok());
  ASSERT_TRUE(s3.CreateBucket(admin, "b").ok());
  for (std::string key : {std::string("x\xff" "1"), std::string("plain")}) {
    ASSERT_TRUE(s3.PutObject(admin, "b", key, ByteView("v")).ok());
  }
  auto keys = s3.ListObjects(admin, "b", "x\xff");
  ASSERT_TRUE(keys.ok());
  ASSERT_EQ(keys->size(), 1u);
  EXPECT_EQ((*keys)[0], "x\xff" "1");
}

TEST(S3GatewayTest, UnauthorizedRequestsRejected) {
  AccessFixture f;
  S3Gateway s3(f.objects.get(), &f.acl, &f.network);
  std::string admin = f.acl.CreatePrincipal("admin");
  ASSERT_TRUE(f.acl.Grant("admin", "/s3/", Permission::kAdmin).ok());
  ASSERT_TRUE(s3.CreateBucket(admin, "secure").ok());
  ASSERT_TRUE(s3.PutObject(admin, "secure", "secret", ByteView("42")).ok());

  // Reader can read but not write.
  std::string reader = f.acl.CreatePrincipal("reader");
  ASSERT_TRUE(f.acl.Grant("reader", "/s3/secure/", Permission::kRead).ok());
  EXPECT_TRUE(s3.GetObject(reader, "secure", "secret").ok());
  EXPECT_TRUE(s3.PutObject(reader, "secure", "secret", ByteView("evil"))
                  .IsInvalidArgument());
  // Stranger can do nothing; bogus tokens fail authentication.
  std::string stranger = f.acl.CreatePrincipal("stranger");
  EXPECT_TRUE(s3.GetObject(stranger, "secure", "secret").status()
                  .IsInvalidArgument());
  EXPECT_TRUE(s3.GetObject("tok-fake", "secure", "secret").status()
                  .IsInvalidArgument());
}

// ---------------- Block service ----------------

TEST(BlockServiceTest, ThinProvisionedVolume) {
  AccessFixture f;
  BlockService blocks(&f.pool, &f.acl, /*chunk_bytes=*/1 << 20);
  std::string token = f.acl.CreatePrincipal("vm");
  ASSERT_TRUE(f.acl.Grant("vm", "/block/", Permission::kAdmin).ok());

  auto lun = blocks.CreateVolume(token, 64ULL << 20);
  ASSERT_TRUE(lun.ok());
  // Thin: nothing allocated yet.
  EXPECT_EQ(*blocks.AllocatedBytes(token, *lun), 0u);

  // Unwritten regions read back as zeros.
  auto zeros = blocks.Read(token, *lun, 10 << 20, 4096);
  ASSERT_TRUE(zeros.ok());
  EXPECT_EQ(*zeros, Bytes(4096, 0));

  Random rng(3);
  Bytes data;
  for (int i = 0; i < 100000; ++i) {
    data.push_back(static_cast<uint8_t>(rng.Uniform(256)));
  }
  // Write crossing a chunk boundary.
  uint64_t offset = (1 << 20) - 5000;
  ASSERT_TRUE(blocks.Write(token, *lun, offset, ByteView(data)).ok());
  auto read = blocks.Read(token, *lun, offset, data.size());
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(*read, data);
  // Two 1 MB chunks x 2 replicas allocated.
  EXPECT_EQ(*blocks.AllocatedBytes(token, *lun), 4ULL << 20);

  EXPECT_TRUE(blocks.Write(token, *lun, 64ULL << 20, ByteView("x"))
                  .IsInvalidArgument());
  ASSERT_TRUE(blocks.DeleteVolume(token, *lun).ok());
  EXPECT_TRUE(blocks.Read(token, *lun, 0, 1).status().IsNotFound());
  EXPECT_EQ(f.pool.AllocatedBytes(), 0u);
}

TEST(BlockServiceTest, ReplicaSurvivesNodeFailure) {
  AccessFixture f;
  BlockService blocks(&f.pool, &f.acl, 1 << 20, /*replication=*/2);
  std::string token = f.acl.CreatePrincipal("vm");
  ASSERT_TRUE(f.acl.Grant("vm", "/block/", Permission::kAdmin).ok());
  auto lun = blocks.CreateVolume(token, 8 << 20);
  ASSERT_TRUE(lun.ok());
  ASSERT_TRUE(blocks.Write(token, *lun, 0, ByteView("persistent")).ok());
  f.pool.SetNodeFailed(0, true);
  auto read = blocks.Read(token, *lun, 0, 10);
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(BytesToString(*read), "persistent");
}

// ---------------- NAS service ----------------

TEST(NasServiceTest, FileLifecycle) {
  AccessFixture f;
  NasService nas(f.objects.get(), &f.acl, &f.clock);
  std::string token = f.acl.CreatePrincipal("app");
  ASSERT_TRUE(f.acl.Grant("app", "/nas/", Permission::kAdmin).ok());

  ASSERT_TRUE(nas.MakeDirectory(token, "/exports").ok());
  EXPECT_TRUE(nas.MakeDirectory(token, "/exports").IsAlreadyExists());

  auto handle = nas.Open(token, "/exports/report.csv", /*for_write=*/true);
  ASSERT_TRUE(handle.ok());
  ASSERT_TRUE(nas.WriteAt(*handle, 0, ByteView("a,b,c\n")).ok());
  ASSERT_TRUE(nas.WriteAt(*handle, 6, ByteView("1,2,3\n")).ok());
  ASSERT_TRUE(nas.Close(*handle).ok());
  EXPECT_EQ(nas.open_handles(), 0u);

  auto reader = nas.Open(token, "/exports/report.csv", /*for_write=*/false);
  ASSERT_TRUE(reader.ok());
  auto contents = nas.ReadAt(*reader, 0, 100);
  ASSERT_TRUE(contents.ok());
  EXPECT_EQ(BytesToString(*contents), "a,b,c\n1,2,3\n");
  // Writes through a read-only handle fail.
  EXPECT_TRUE(nas.WriteAt(*reader, 0, ByteView("x")).IsInvalidArgument());
  ASSERT_TRUE(nas.Close(*reader).ok());
  EXPECT_TRUE(nas.Close(*reader).IsInvalidArgument());  // stale handle

  auto attrs = nas.GetAttributes(token, "/exports/report.csv");
  ASSERT_TRUE(attrs.ok());
  EXPECT_EQ(attrs->size, 12u);
  EXPECT_FALSE(attrs->is_directory);
  EXPECT_TRUE(nas.GetAttributes(token, "/exports")->is_directory);

  auto listing = nas.ReadDirectory(token, "/exports");
  ASSERT_TRUE(listing.ok());
  ASSERT_EQ(listing->size(), 1u);
  EXPECT_EQ((*listing)[0], "report.csv");

  ASSERT_TRUE(nas.Remove(token, "/exports/report.csv").ok());
  EXPECT_TRUE(nas.Open(token, "/exports/report.csv", false).status()
                  .IsNotFound());
}

TEST(NasServiceTest, OpenMissingForReadFails) {
  AccessFixture f;
  NasService nas(f.objects.get(), &f.acl, &f.clock);
  std::string token = f.acl.CreatePrincipal("app");
  ASSERT_TRUE(f.acl.Grant("app", "/nas/", Permission::kAdmin).ok());
  EXPECT_TRUE(nas.Open(token, "/missing", false).status().IsNotFound());
  // Unauthorized principal cannot even probe.
  std::string other = f.acl.CreatePrincipal("other");
  EXPECT_TRUE(nas.Open(other, "/missing", false).status().IsInvalidArgument());
}

}  // namespace
}  // namespace streamlake::access
