package store

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
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
