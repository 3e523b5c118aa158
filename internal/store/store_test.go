package store

import (
	"encoding/gob"
	"fmt"
	"log/slog"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"carf/internal/sched"
)

type payload struct {
	Name  string
	Vals  []float64
	Count uint64
}

func init() { gob.Register(payload{}) }

func testLogger() *slog.Logger {
	return slog.New(slog.NewTextHandler(os.Stderr, &slog.HandlerOptions{Level: slog.LevelError + 1}))
}

func open(t testing.TB, dir string, opts ...func(*Options)) *Store {
	t.Helper()
	o := Options{Dir: dir, Schema: "test-schema/v1", Logger: testLogger()}
	for _, f := range opts {
		f(&o)
	}
	s, err := Open(o)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	return s
}

func key(b byte) sched.Key {
	var k sched.Key
	k[0] = b
	return k
}

func TestRoundTripAcrossReopen(t *testing.T) {
	dir := t.TempDir()
	s := open(t, dir)
	want := payload{Name: "fib", Vals: []float64{1, 1, 2, 3}, Count: 42}
	s.Store(key(1), want)
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	// A fresh store (fresh memory tier) must serve the value from disk.
	s2 := open(t, dir)
	v, ok := s2.Load(key(1))
	if !ok {
		t.Fatal("Load after reopen: miss, want disk hit")
	}
	got, ok := v.(payload)
	if !ok {
		t.Fatalf("Load returned %T, want payload", v)
	}
	if got.Name != want.Name || got.Count != want.Count || len(got.Vals) != len(want.Vals) {
		t.Fatalf("round-trip mismatch: got %+v want %+v", got, want)
	}
	st := s2.Stats()
	if st.DiskHits != 1 {
		t.Fatalf("DiskHits = %d, want 1", st.DiskHits)
	}
	// Second load of the same key is a memory hit (promoted on disk read).
	if _, ok := s2.Load(key(1)); !ok {
		t.Fatal("second Load: miss")
	}
	if st := s2.Stats(); st.MemHits != 1 {
		t.Fatalf("MemHits = %d, want 1", st.MemHits)
	}
}

func TestMissOnAbsentKey(t *testing.T) {
	s := open(t, t.TempDir())
	if _, ok := s.Load(key(9)); ok {
		t.Fatal("Load of absent key: hit")
	}
	if st := s.Stats(); st.Misses != 1 {
		t.Fatalf("Misses = %d, want 1", st.Misses)
	}
}

func TestTruncatedBlobQuarantined(t *testing.T) {
	dir := t.TempDir()
	s := open(t, dir)
	s.Store(key(2), payload{Name: "victim", Count: 7})
	path := s.blobPath(key(2))
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read blob: %v", err)
	}
	// Simulate a crash mid-write that somehow survived as a named blob:
	// chop the payload tail.
	if err := os.WriteFile(path, b[:len(b)-3], 0o644); err != nil {
		t.Fatalf("truncate blob: %v", err)
	}

	s2 := open(t, dir)
	if _, ok := s2.Load(key(2)); ok {
		t.Fatal("Load of truncated blob: hit, want quarantined miss")
	}
	st := s2.Stats()
	if st.Quarantined != 1 {
		t.Fatalf("Quarantined = %d, want 1", st.Quarantined)
	}
	// The corrupt blob is preserved under quarantine/ and gone from the
	// serving directory.
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Fatalf("corrupt blob still present at %s (err=%v)", path, err)
	}
	q, err := os.ReadDir(filepath.Join(s2.dir, "quarantine"))
	if err != nil || len(q) != 1 {
		t.Fatalf("quarantine dir: %v entries, err=%v; want 1", len(q), err)
	}
	// Misses are re-storable: a re-simulated value replaces the blob.
	s2.Store(key(2), payload{Name: "victim", Count: 7})
	s3 := open(t, dir)
	if _, ok := s3.Load(key(2)); !ok {
		t.Fatal("Load after re-store: miss")
	}
}

func TestCorruptPayloadBitsQuarantined(t *testing.T) {
	dir := t.TempDir()
	s := open(t, dir)
	s.Store(key(3), payload{Name: "bits", Count: 1})
	path := s.blobPath(key(3))
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	b[len(b)-1] ^= 0xff // flip bits in the payload, size stays right
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}
	s2 := open(t, dir)
	if _, ok := s2.Load(key(3)); ok {
		t.Fatal("Load of bit-flipped blob: hit, want quarantined miss")
	}
	if st := s2.Stats(); st.Quarantined != 1 {
		t.Fatalf("Quarantined = %d, want 1", st.Quarantined)
	}
}

func TestForeignSchemaNotServed(t *testing.T) {
	dir := t.TempDir()
	s := open(t, dir)
	s.Store(key(4), payload{Name: "old"})
	s.Close()

	s2 := open(t, dir, func(o *Options) { o.Schema = "test-schema/v2" })
	if _, ok := s2.Load(key(4)); ok {
		t.Fatal("v2 store served a v1 blob")
	}
	// Different schema hashes to a different namespace directory, so the
	// v1 blob is untouched, not quarantined.
	if st := s2.Stats(); st.Quarantined != 0 {
		t.Fatalf("Quarantined = %d, want 0 (namespaces are separate)", st.Quarantined)
	}
	s3 := open(t, dir)
	if _, ok := s3.Load(key(4)); !ok {
		t.Fatal("v1 blob lost after v2 store opened")
	}
}

func TestTmpSweepAtOpen(t *testing.T) {
	dir := t.TempDir()
	s := open(t, dir)
	s.Store(key(5), payload{Name: "keep"})
	// A crashed writer leaves a temporary behind.
	stray := filepath.Join(s.dir, "deadbeef-12345.tmp")
	if err := os.WriteFile(stray, []byte("partial"), 0o644); err != nil {
		t.Fatal(err)
	}
	s2 := open(t, dir)
	if _, err := os.Stat(stray); !os.IsNotExist(err) {
		t.Fatalf("stray .tmp survived Open (err=%v)", err)
	}
	if _, ok := s2.Load(key(5)); !ok {
		t.Fatal("valid blob lost during sweep")
	}
	if st := s2.Stats(); st.DiskBlobs != 1 {
		t.Fatalf("DiskBlobs = %d, want 1", st.DiskBlobs)
	}
}

func TestDegradeWhenDirIsAFile(t *testing.T) {
	// Running as root ignores permission bits, so the reliable way to
	// make the disk tier unavailable is a path that cannot be a
	// directory.
	base := t.TempDir()
	file := filepath.Join(base, "not-a-dir")
	if err := os.WriteFile(file, []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	s := open(t, file)
	st := s.Stats()
	if !st.Degraded || st.Mode != "memory-only" {
		t.Fatalf("store not degraded: %+v", st)
	}
	if st.Reason == "" {
		t.Fatal("degraded store has empty Reason")
	}
	// Still fully functional in memory.
	s.Store(key(6), payload{Name: "mem"})
	if _, ok := s.Load(key(6)); !ok {
		t.Fatal("memory-only store lost a value")
	}
}

func TestMemoryOnlyByChoice(t *testing.T) {
	s := open(t, "")
	st := s.Stats()
	if st.Degraded {
		t.Fatalf("Dir=\"\" should be memory-only by choice, not degraded: %+v", st)
	}
	s.Store(key(7), payload{Name: "m"})
	if _, ok := s.Load(key(7)); !ok {
		t.Fatal("miss in memory-only store")
	}
}

func TestUnencodableValueSkipped(t *testing.T) {
	dir := t.TempDir()
	s := open(t, dir)
	type unregistered struct{ X chan int } // gob cannot encode chans
	s.Store(key(8), unregistered{})
	st := s.Stats()
	if st.PutSkipped != 1 {
		t.Fatalf("PutSkipped = %d, want 1", st.PutSkipped)
	}
	if st.Degraded {
		t.Fatal("unencodable value degraded the store")
	}
	// The value still serves from the memory tier.
	if _, ok := s.Load(key(8)); !ok {
		t.Fatal("unencodable value not served from memory tier")
	}
}

func TestMemLRUEviction(t *testing.T) {
	s := open(t, t.TempDir(), func(o *Options) { o.MemEntries = 2 })
	s.Store(key(1), payload{Name: "a"})
	s.Store(key(2), payload{Name: "b"})
	s.Store(key(3), payload{Name: "c"}) // evicts key(1) from memory
	st := s.Stats()
	if st.MemEntries != 2 {
		t.Fatalf("MemEntries = %d, want 2", st.MemEntries)
	}
	if st.Evictions != 1 {
		t.Fatalf("Evictions = %d, want 1", st.Evictions)
	}
	// Evicted from memory, but still on disk.
	if _, ok := s.Load(key(1)); !ok {
		t.Fatal("evicted key not recoverable from disk")
	}
	if st := s.Stats(); st.DiskHits != 1 {
		t.Fatalf("DiskHits = %d, want 1", st.DiskHits)
	}
}

func TestDegradeOnWriteFailure(t *testing.T) {
	dir := t.TempDir()
	s := open(t, dir)
	// Pull the directory out from under the store to force a write error.
	if err := os.RemoveAll(s.dir); err != nil {
		t.Fatal(err)
	}
	s.Store(key(9), payload{Name: "doomed"})
	st := s.Stats()
	if !st.Degraded {
		t.Fatalf("write failure did not degrade the store: %+v", st)
	}
	if st.PutErrors != 1 {
		t.Fatalf("PutErrors = %d, want 1", st.PutErrors)
	}
	// The store keeps serving from memory after degradation.
	if _, ok := s.Load(key(9)); !ok {
		t.Fatal("degraded store lost the value")
	}
	s.Store(key(10), payload{Name: "after"})
	if _, ok := s.Load(key(10)); !ok {
		t.Fatal("degraded store cannot store new values in memory")
	}
}

func TestImplementsSchedTier(t *testing.T) {
	var _ sched.Tier = (*Store)(nil)
}

func TestReadingsShape(t *testing.T) {
	s := open(t, t.TempDir())
	s.Store(key(11), payload{Name: "r"})
	rs := s.Readings()
	found := map[string]bool{}
	for _, r := range rs {
		if !strings.HasPrefix(r.Name, "store.") {
			t.Fatalf("reading %q lacks store. prefix", r.Name)
		}
		found[r.Name] = true
	}
	for _, want := range []string{"store.disk_blobs", "store.degraded", "store.puts_total", "store.quarantined_total"} {
		if !found[want] {
			t.Fatalf("Readings missing %s", want)
		}
	}
}

func TestConcurrentAccess(t *testing.T) {
	s := open(t, t.TempDir(), func(o *Options) { o.MemEntries = 8 })
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				k := key(byte(i % 16))
				if i%3 == 0 {
					s.Store(k, payload{Name: fmt.Sprintf("g%d-i%d", g, i), Count: uint64(i)})
				} else {
					s.Load(k)
				}
			}
		}(g)
	}
	wg.Wait()
	if st := s.Stats(); st.Degraded {
		t.Fatalf("concurrent access degraded the store: %+v", st)
	}
}
