// The data access layer and enterprise resilience features (Section III):
// one piece of data reached through S3, NAS, and block protocols, guarded
// by authentication + ACLs; the storage pool's zero-copy clones, namespace
// snapshots and WORM retention; then disk failure -> data reconstruction,
// remote-site replication -> disaster recovery, and revocation.
//
// Run: ./build/examples/multi_protocol

#include <cstdio>

#include "access/access_control.h"
#include "access/block_service.h"
#include "access/nas_service.h"
#include "access/s3_gateway.h"
#include "core/streamlake.h"
#include "storage/repair.h"
#include "storage/replication.h"

using namespace streamlake;

int main() {
  core::StreamLake lake;
  access::AccessController acl;

  // --- Principals and ACLs ---
  std::string admin = acl.CreatePrincipal("admin");
  std::string analyst = acl.CreatePrincipal("analyst");
  SL_CHECK_OK(acl.Grant("admin", "/", access::Permission::kAdmin));
  SL_CHECK_OK(acl.Grant("analyst", "/s3/reports/", access::Permission::kRead));

  // --- S3 protocol ---
  access::S3Gateway s3(&lake.objects(), &acl, &lake.data_bus());
  SL_CHECK_OK(s3.CreateBucket(admin, "reports"));
  SL_CHECK_OK(s3.PutObject(admin, "reports", "q2.csv", ByteView("region,revenue\ncn,42\n")));
  auto fetched = s3.GetObject(analyst, "reports", "q2.csv");
  std::printf("S3: analyst reads %zu bytes from s3://reports/q2.csv\n",
              fetched.ok() ? fetched->size() : 0);
  auto denied = s3.PutObject(analyst, "reports", "q2.csv", ByteView("tamper"));
  std::printf("S3: analyst write denied as expected: %s\n",
              denied.ToString().c_str());
  auto keys = s3.ListObjects(analyst, "reports");
  SL_CHECK_OK(keys.status());
  auto head = s3.HeadObject(analyst, "reports", "q2.csv");
  SL_CHECK_OK(head.status());
  std::printf("S3: LIST s3://reports/ -> %zu key(s); HEAD q2.csv -> %llu "
              "bytes\n",
              keys->size(), static_cast<unsigned long long>(*head));

  // --- NAS protocol over the same object namespace ---
  access::NasService nas(&lake.objects(), &acl, &lake.clock());
  SL_CHECK_OK(nas.MakeDirectory(admin, "/shared"));
  auto handle = nas.Open(admin, "/shared/notes.txt", /*for_write=*/true);
  SL_CHECK_OK(nas.WriteAt(*handle, 0, ByteView("mounted via NFS\n")));
  SL_CHECK_OK(nas.Close(*handle));
  auto attrs = nas.GetAttributes(admin, "/shared/notes.txt");
  std::printf("NAS: /shared/notes.txt is %llu bytes\n",
              static_cast<unsigned long long>(attrs->size));
  auto reader = nas.Open(analyst, "/shared/notes.txt", /*for_write=*/false);
  std::printf("NAS: analyst open without a grant denied: %s\n",
              reader.status().ToString().c_str());
  reader = nas.Open(admin, "/shared/notes.txt", /*for_write=*/false);
  SL_CHECK_OK(reader.status());
  auto word = nas.ReadAt(*reader, 12, 3);
  SL_CHECK_OK(word.status());
  SL_CHECK_OK(nas.Close(*reader));
  auto listing = nas.ReadDirectory(admin, "/shared");
  SL_CHECK_OK(listing.status());
  std::printf("NAS: read '%s' at offset 12; /shared lists %zu entr%s\n",
              BytesToString(*word).c_str(), listing->size(),
              listing->size() == 1 ? "y" : "ies");
  SL_CHECK_OK(nas.Remove(admin, "/shared/notes.txt"));
  std::printf("NAS: removed /shared/notes.txt: %s\n",
              nas.GetAttributes(admin, "/shared/notes.txt").ok() ? "no"
                                                                 : "yes");

  // --- Block protocol (iSCSI LUN, thin-provisioned) ---
  access::BlockService blocks(&lake.ssd_pool(), &acl);
  auto lun = blocks.CreateVolume(admin, 256ULL << 20);
  SL_CHECK_OK(blocks.Write(admin, *lun, 4096, ByteView("raw database pages")));
  auto sector = blocks.Read(admin, *lun, 4096, 18);
  std::printf("Block: LUN %llu read back '%s'; %llu bytes provisioned of "
              "256 MB\n",
              static_cast<unsigned long long>(*lun),
              BytesToString(*sector).c_str(),
              static_cast<unsigned long long>(
                  *blocks.AllocatedBytes(admin, *lun)));
  auto scratch_lun = blocks.CreateVolume(admin, 64ULL << 20);
  SL_CHECK_OK(blocks.DeleteVolume(admin, *scratch_lun));
  std::printf("Block: scratch LUN %llu deleted; reads now fail: %s\n",
              static_cast<unsigned long long>(*scratch_lun),
              blocks.Read(admin, *scratch_lun, 0, 1).ok() ? "no" : "yes");

  // --- Storage pool: zero-copy clone, namespace snapshot, WORM ---
  storage::ObjectStore& objects = lake.objects();
  SL_CHECK_OK(objects.Clone("/s3/reports/q2.csv", "/archive/q2-clone.csv"));
  auto snapped = objects.SnapshotPrefix("/s3/reports/", "/snapshots/day1/");
  SL_CHECK_OK(snapped.status());
  objects.SetWormPrefix("/snapshots/");
  auto tamper = objects.Write("/snapshots/day1/q2.csv", ByteView("tamper"));
  std::printf("Pool: clone shares q2.csv's fragments (%llu bytes); snapshot "
              "of %zu object(s) under WORM, overwrite rejected: %s\n",
              static_cast<unsigned long long>(
                  *objects.Size("/archive/q2-clone.csv")),
              *snapped, tamper.ToString().c_str());

  // --- Disk failure -> data reconstruction ---
  lake.ssd_pool().SetNodeFailed(0, true);
  auto still_readable = s3.GetObject(admin, "reports", "q2.csv");
  std::printf("Failure: node 0 down, object still readable: %s\n",
              still_readable.ok() ? "yes" : "no");
  auto repaired = lake.repair().Run();
  std::printf("Repair: %llu degraded PLogs rebuilt onto healthy disks\n",
              static_cast<unsigned long long>(repaired->plogs_repaired));
  lake.ssd_pool().SetNodeFailed(0, false);

  // --- Remote replication + disaster recovery ---
  core::StreamLake remote_site;
  kv::KvStore repl_state;
  sim::NetworkModel wan(sim::NetworkProfile::Tcp(), &lake.clock());
  storage::RemoteReplicationService replication(&lake.objects(),
                                                &remote_site.objects(), &wan,
                                                &repl_state);
  auto shipped = replication.Replicate("/s3/reports/");
  std::printf("Replication: %llu objects (%llu bytes) mirrored to site B\n",
              static_cast<unsigned long long>(shipped->objects_shipped),
              static_cast<unsigned long long>(shipped->bytes_shipped));
  SL_CHECK_OK(s3.DeleteObject(admin, "reports", "q2.csv"));
  SL_CHECK_OK(replication.RestoreObject("/s3/reports/q2.csv"));
  auto restored = s3.GetObject(admin, "reports", "q2.csv");
  std::printf("Disaster recovery: object restored from site B (%zu bytes)\n",
              restored.ok() ? restored->size() : 0);

  // --- Revocation: a grant, then the principal itself ---
  SL_CHECK_OK(acl.Revoke("analyst", "/s3/reports/", access::Permission::kRead));
  auto revoked_read = s3.GetObject(analyst, "reports", "q2.csv");
  std::printf("ACL: analyst read after revoking the grant: %s\n",
              revoked_read.status().ToString().c_str());
  SL_CHECK_OK(acl.RevokePrincipal("analyst"));
  std::printf("ACL: analyst token after removing the principal: %s\n",
              acl.Authenticate(analyst).status().ToString().c_str());
  return 0;
}
