package artifact

import (
	"context"
	"crypto/sha256"
	"errors"
	"os"
	"path/filepath"
	"testing"

	"cghti/internal/iofault"
	"cghti/internal/obs"
)

// TestTornEntryCounted pins the torn/corrupt distinction: a truncated
// entry (crash mid-write) increments artifact.disk_torn — not
// disk_corrupt — and is dropped from index and disk.
func TestTornEntryCounted(t *testing.T) {
	dir := t.TempDir()
	c := NewCache(0, 0)
	if err := c.AttachDir(dir); err != nil {
		t.Fatal(err)
	}
	c.Put(fpN(0), []byte("a payload long enough to truncate meaningfully"))
	path := filepath.Join(dir, fpN(0).String())
	full, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Truncate mid-payload: header intact, declared length unmet.
	if err := os.WriteFile(path, full[:len(full)-10], 0o644); err != nil {
		t.Fatal(err)
	}

	c2 := NewCache(0, 0)
	if err := c2.AttachDir(dir); err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	ctx := obs.WithRegistry(context.Background(), reg)
	if _, ok := c2.GetCtx(ctx, fpN(0)); ok {
		t.Fatal("torn entry served as a hit")
	}
	if got := reg.Counter("artifact.disk_torn").Value(); got != 1 {
		t.Fatalf("disk_torn = %d, want 1", got)
	}
	if got := reg.Counter("artifact.disk_corrupt").Value(); got != 0 {
		t.Fatalf("disk_corrupt = %d, want 0 (truncation is torn, not corrupt)", got)
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Fatal("torn entry should be unlinked")
	}
	if got := c2.DiskLen(); got != 0 {
		t.Fatalf("disk index len = %d, want 0", got)
	}
}

// TestTornWriteNeverServesPartial drives a torn write through the
// iofault seam: the crash-shaped temp file must never become a
// servable entry (the rename is what publishes), and a later process
// reads nothing rather than garbage.
func TestTornWriteNeverServesPartial(t *testing.T) {
	dir := t.TempDir()
	c := NewCache(0, 0)
	// Tear every .tmp write 10 bytes in: writeEntry's retries all fail.
	c.SetFS(iofault.NewFaulty(iofault.OS(),
		iofault.Spec{Op: iofault.OpWrite, Path: ".tmp", Kind: iofault.KindTorn, K: 10},
	))
	if err := c.AttachDir(dir); err != nil {
		t.Fatal(err)
	}
	c.Put(fpN(0), []byte("this payload will be torn during the write"))

	// Nothing published: a fresh cache over the dir sees no entry.
	c2 := NewCache(0, 0)
	if err := c2.AttachDir(dir); err != nil {
		t.Fatal(err)
	}
	if _, ok := c2.Get(fpN(0)); ok {
		t.Fatal("torn write published a servable entry")
	}
	if got := c2.DiskLen(); got != 0 {
		t.Fatalf("disk index len = %d, want 0", got)
	}
}

// TestWriteRetriesTransientFault pins the retry wrapper: a single
// transient write error is retried (counted in artifact.io_retries) and
// the entry still lands durably.
func TestWriteRetriesTransientFault(t *testing.T) {
	dir := t.TempDir()
	c := NewCache(0, 0)
	boom := errors.New("transient device error")
	c.SetFS(iofault.NewFaulty(iofault.OS(),
		iofault.Spec{Op: iofault.OpWrite, Path: ".tmp", Kind: iofault.KindErr, Err: boom, OnHit: 1},
	))
	if err := c.AttachDir(dir); err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	ctx := obs.WithRegistry(context.Background(), reg)
	c.PutCtx(ctx, fpN(0), []byte("retried payload"))

	if got := reg.Counter("artifact.io_retries").Value(); got < 1 {
		t.Fatalf("io_retries = %d, want >= 1", got)
	}
	// The entry is fully readable by a successor process.
	c2 := NewCache(0, 0)
	if err := c2.AttachDir(dir); err != nil {
		t.Fatal(err)
	}
	if data, ok := c2.Get(fpN(0)); !ok || string(data) != "retried payload" {
		t.Fatalf("entry after retried write = %q, %v", data, ok)
	}
}

// TestV1EntryIsMiss pins that a legacy CGA1 entry (magic + sha256 +
// payload, no length) is treated as corrupt: never served, counted in
// artifact.disk_corrupt, and dropped from the disk index and the disk.
func TestV1EntryIsMiss(t *testing.T) {
	dir := t.TempDir()
	payload := []byte("legacy-format payload")
	sum := sha256.Sum256(payload)
	v1 := make([]byte, 0, 4+sha256.Size+len(payload))
	v1 = append(v1, "CGA1"...)
	v1 = append(v1, sum[:]...)
	v1 = append(v1, payload...)
	if err := os.WriteFile(filepath.Join(dir, fpN(0).String()), v1, 0o644); err != nil {
		t.Fatal(err)
	}
	c := NewCache(0, 0)
	if err := c.AttachDir(dir); err != nil {
		t.Fatal(err)
	}
	if got := c.DiskLen(); got != 1 {
		t.Fatalf("setup: disk index len = %d, want 1", got)
	}
	reg := obs.NewRegistry()
	ctx := obs.WithRegistry(context.Background(), reg)
	if data, ok := c.GetCtx(ctx, fpN(0)); ok {
		t.Fatalf("v1 entry served as a hit: %q", data)
	}
	if got := reg.Counter("artifact.disk_corrupt").Value(); got != 1 {
		t.Fatalf("disk_corrupt = %d, want 1", got)
	}
	if got := c.DiskLen(); got != 0 {
		t.Fatalf("disk index len = %d, want 0 after the v1 entry is dropped", got)
	}
	if n := diskFiles(t, dir); n != 0 {
		t.Fatalf("v1 entry file still on disk (%d files)", n)
	}
}
