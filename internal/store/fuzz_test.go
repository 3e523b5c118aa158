package store

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
	"time"
)

// FuzzStoreLoad writes arbitrary bytes at a key's blob path and checks
// that Load fails closed: it never panics, and it either serves a value
// (leaving the blob in place) or reports a miss with the blob
// quarantined — counted, and moved out of the serving path.
func FuzzStoreLoad(f *testing.F) {
	seed := open(f, f.TempDir())
	seed.Store(key(1), payload{Name: "seed", Vals: []float64{1, 2.5}, Count: 3})
	blob, err := os.ReadFile(seed.blobPath(key(1)))
	if err != nil {
		f.Fatal(err)
	}
	nl := bytes.IndexByte(blob, '\n')
	f.Add(blob)
	f.Add(blob[:nl+1])                     // header only
	f.Add(blob[:len(blob)-1])              // truncated payload
	f.Add(append(blob, 0))                 // trailing garbage
	f.Add(blob[nl+1:])                     // payload without header
	f.Add(bytes.Repeat([]byte("x"), 5000)) // header line over the limit
	f.Add([]byte{})
	f.Add([]byte("\n"))
	f.Add([]byte("null\n"))
	f.Add([]byte(`{"magic":"` + blobMagic + `","schema":"test-schema/v1","sha256":"","size":0}` + "\n"))
	f.Fuzz(func(t *testing.T, b []byte) {
		s := open(t, t.TempDir())
		path := s.blobPath(key(1))
		if err := os.WriteFile(path, b, 0o644); err != nil {
			t.Fatal(err)
		}
		_, ok := s.Load(key(1))
		st := s.Stats()
		_, statErr := os.Stat(path)
		if ok {
			if st.DiskHits != 1 || st.Quarantined != 0 || statErr != nil {
				t.Fatalf("served blob: stats %+v, blob stat err %v; want one disk hit, nothing quarantined, blob kept", st, statErr)
			}
			return
		}
		if st.Misses != 1 || st.Quarantined != 1 {
			t.Fatalf("rejected blob: stats %+v, want one miss and one quarantine", st)
		}
		if !os.IsNotExist(statErr) {
			t.Fatalf("rejected blob still at its serving path (stat err %v)", statErr)
		}
		if q, err := os.ReadDir(filepath.Join(s.dir, "quarantine")); err != nil || len(q) != 1 {
			t.Fatalf("quarantine dir: %d entries, err %v; want the rejected blob", len(q), err)
		}
	})
}

// FuzzLeaseRelease overwrites a held lease file with arbitrary bytes —
// a peer's lease after a takeover, or a torn write — and checks that
// the file's content never decides anything: release neither panics nor
// deletes the foreign file, a peer still loses the claim while the
// file's mtime is fresh, and takes it over once the mtime is stale.
func FuzzLeaseRelease(f *testing.F) {
	f.Add([]byte(`{"pid":1,"host":"peer","token":"1-peer-1-1","created":"2024-01-01T00:00:00Z","beats":3}` + "\n"))
	f.Add([]byte(`{"token":""}`))
	f.Add([]byte(`{"token":null}`))
	f.Add([]byte("null\n"))
	f.Add([]byte("{"))
	f.Add([]byte{})
	f.Add(bytes.Repeat([]byte("x"), 5000))
	f.Fuzz(func(t *testing.T, b []byte) {
		dir := t.TempDir()
		// A timeout far beyond the test keeps the heartbeat from
		// rewriting the file; staleness comes only from Chtimes.
		s := open(t, dir, func(o *Options) { o.LeaseTimeout = time.Hour })
		defer s.Close()
		release, ok := s.TryLock(key(1))
		if !ok {
			t.Fatal("TryLock on a fresh key denied")
		}
		files := leaseFiles(t, dir)
		if len(files) != 1 {
			t.Fatalf("lease files = %v, want exactly 1", files)
		}
		path := files[0]
		if err := os.WriteFile(path, b, 0o644); err != nil {
			t.Fatal(err)
		}
		release()
		if got, err := os.ReadFile(path); err != nil || !bytes.Equal(got, b) {
			t.Fatalf("release touched a foreign lease file (err %v)", err)
		}

		if _, ok := s.TryLock(key(1)); ok {
			t.Fatal("TryLock granted over a fresh foreign lease")
		}
		old := time.Now().Add(-2 * time.Hour)
		if err := os.Chtimes(path, old, old); err != nil {
			t.Fatal(err)
		}
		release, ok = s.TryLock(key(1))
		if !ok {
			t.Fatal("TryLock over a stale foreign lease denied, want takeover")
		}
		release()
		if st := s.Stats(); st.LeaseLosses != 1 || st.LeaseTakeovers != 1 || st.LeasesAcquired != 2 {
			t.Fatalf("stats = %+v, want 1 loss, 1 takeover, 2 acquired", st)
		}
		if got := leaseFiles(t, dir); len(got) != 0 {
			t.Fatalf("lease files after the successor's release = %v, want none", got)
		}
	})
}
