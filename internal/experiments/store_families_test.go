package experiments

import (
	"bytes"
	"encoding/hex"
	"maps"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"sync"
	"testing"

	"carf/internal/profile"
	"carf/internal/sched"
	"carf/internal/store"
)

// storeFamilies are the instrumented run families, each with the
// exhibit that renders it and a zero value of the type its scheduler
// job returns.
var storeFamilies = []struct {
	name, exp string
	sample    any
}{
	{"oracle", "fig1", OracleOut{}},
	{"phases", "phases", PhasesOut{}},
	{"cpistack", "cpistack", profile.CPIStack{}},
	{"faults", "faults", FaultOut{}},
	{"memloc", "memloc", MemlocOut{}},
	{"smt", "ext", SMTOut{}},
}

// refSched is the storeless scheduler the reference renders share, so
// each distinct run simulates once across every test that asks.
var refSched = sync.OnceValue(func() *sched.Scheduler { return sched.New(4) })

// storelessRender renders name at determinismScale with no tier.
func storelessRender(t testing.TB, name string) string {
	t.Helper()
	r, err := Run(name, Options{Scale: determinismScale, Sched: refSched()})
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	return r.Render()
}

// TestWarmStoreSimulatesNothing runs every experiment twice over one
// store directory. The cold pass must persist every value it produces,
// and the warm pass must simulate nothing and render every exhibit
// byte-identically to a storeless render.
func TestWarmStoreSimulatesNothing(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the whole study twice")
	}
	dir := t.TempDir()
	for _, name := range Names() {
		if _, _, sst := renderWithStore(t, name, dir); sst.PutSkipped != 0 {
			t.Errorf("cold %s: store skipped %d values it could not encode", name, sst.PutSkipped)
		}
	}
	for _, name := range Names() {
		text, st, _ := renderWithStore(t, name, dir)
		if st.Misses != 0 {
			t.Errorf("warm %s simulated %d runs, want 0", name, st.Misses)
		}
		if want := storelessRender(t, name); text != want {
			t.Errorf("warm %s differs from a storeless render:\n--- storeless ---\n%s\n--- warm ---\n%s", name, want, text)
		}
	}
}

// codecTier is an in-memory sched.Tier that keeps every value as its
// store.GobCodec encoding and decodes it afresh on each Load.
type codecTier struct {
	t     *testing.T
	mu    sync.Mutex
	blobs map[sched.Key][]byte
	types map[reflect.Type]bool
}

func (c *codecTier) Load(key sched.Key) (any, bool) {
	c.mu.Lock()
	b, ok := c.blobs[key]
	c.mu.Unlock()
	if !ok {
		return nil, false
	}
	v, err := store.GobCodec{}.Decode(b)
	if err != nil {
		c.t.Errorf("decode %s: %v", key.Short(), err)
		return nil, false
	}
	return v, true
}

func (c *codecTier) Store(key sched.Key, v any) {
	b, err := store.GobCodec{}.Encode(v)
	if err != nil {
		c.t.Errorf("encode %T: %v", v, err)
		return
	}
	c.mu.Lock()
	c.blobs[key] = b
	c.types[reflect.TypeOf(v)] = true
	c.mu.Unlock()
}

// TestFamilyCodecRoundTrip renders each instrumented family's exhibit
// once to fill a GobCodec tier, then again on a fresh scheduler that
// gets every value decoded from its encoding: the second render must
// simulate nothing and match a storeless render byte for byte.
func TestFamilyCodecRoundTrip(t *testing.T) {
	for _, fam := range storeFamilies {
		t.Run(fam.name, func(t *testing.T) {
			t.Parallel()
			tier := &codecTier{t: t, blobs: map[sched.Key][]byte{}, types: map[reflect.Type]bool{}}
			cold := sched.New(2)
			cold.SetTier(tier)
			render(t, fam.exp, Options{Scale: determinismScale, Sched: cold})
			if !tier.types[reflect.TypeOf(fam.sample)] {
				t.Fatalf("%s persisted no %T value", fam.exp, fam.sample)
			}
			warm := sched.New(2)
			warm.SetTier(tier)
			got := render(t, fam.exp, Options{Scale: determinismScale, Sched: warm})
			if st := warm.Stats(); st.Misses != 0 {
				t.Errorf("decoded pass simulated %d runs, want 0", st.Misses)
			}
			if want := storelessRender(t, fam.exp); got != want {
				t.Errorf("decoded render differs:\n--- storeless ---\n%s\n--- decoded ---\n%s", want, got)
			}
		})
	}
}

// mapTier is an in-memory sched.Tier over plain values.
type mapTier struct {
	mu   sync.Mutex
	vals map[sched.Key]any
}

func (m *mapTier) Load(key sched.Key) (any, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	v, ok := m.vals[key]
	return v, ok
}

func (m *mapTier) Store(key sched.Key, v any) {
	m.mu.Lock()
	m.vals[key] = v
	m.mu.Unlock()
}

// fuzzScale keeps the fuzz fixture, which every fuzz process simulates
// under coverage instrumentation, to about 2 s on a 2-vCPU host.
const fuzzScale = 0.01

// familyBlob is one family's fuzz fixture: every run value its exhibit
// reads, the key of one run of the family's own type, and the exhibit's
// reference render.
type familyBlob struct {
	exp  string
	key  sched.Key
	vals map[sched.Key]any
	text string
}

// FuzzFamilyBlobLoad writes arbitrary bytes at the blob path of one
// instrumented family's run in a real carf-run store and checks that
// Load fails closed: it never panics, and it either quarantines the
// blob or serves a value the exhibit renders exactly as the reference
// does. A valid blob of another family's type still decodes, so the
// store serves it; the exhibit must then fail with an error, never
// render from it.
func FuzzFamilyBlobLoad(f *testing.F) {
	fams := make([]familyBlob, len(storeFamilies))
	for i, fam := range storeFamilies {
		tier := &mapTier{vals: map[sched.Key]any{}}
		s := sched.New(2)
		s.SetTier(tier)
		r, err := Run(fam.exp, Options{Scale: fuzzScale, Sched: s})
		if err != nil {
			f.Fatalf("%s: %v", fam.exp, err)
		}
		var keys []sched.Key
		for k, v := range tier.vals {
			if reflect.TypeOf(v) == reflect.TypeOf(fam.sample) {
				keys = append(keys, k)
			}
		}
		if len(keys) == 0 {
			f.Fatalf("%s ran no %T run", fam.exp, fam.sample)
		}
		key := slices.MinFunc(keys, func(a, b sched.Key) int { return bytes.Compare(a[:], b[:]) })
		fams[i] = familyBlob{exp: fam.exp, key: key, vals: tier.vals, text: r.Render()}

		st := openFamilyStore(f, f.TempDir())
		st.Store(fams[i].key, tier.vals[fams[i].key])
		blob, err := os.ReadFile(blobPath(st, fams[i].key))
		if err != nil {
			f.Fatal(err)
		}
		nl := bytes.IndexByte(blob, '\n')
		for _, b := range [][]byte{
			blob,
			blob[:nl+1],                           // header only
			blob[:len(blob)-1],                    // truncated payload
			append(blob[:len(blob):len(blob)], 0), // trailing garbage
			blob[nl+1:],                           // payload without header
		} {
			f.Add(uint8(i), b)
		}
	}
	f.Fuzz(func(t *testing.T, idx uint8, b []byte) {
		fam := fams[int(idx)%len(fams)]
		st := openFamilyStore(t, t.TempDir())
		path := blobPath(st, fam.key)
		if err := os.WriteFile(path, b, 0o644); err != nil {
			t.Fatal(err)
		}
		v, ok := st.Load(fam.key)
		if !ok {
			if sst := st.Stats(); sst.Misses != 1 || sst.Quarantined != 1 {
				t.Fatalf("rejected blob: stats %+v, want one miss and one quarantine", sst)
			}
			if _, err := os.Stat(path); !os.IsNotExist(err) {
				t.Fatalf("rejected blob still at its serving path (stat err %v)", err)
			}
			return
		}
		vals := maps.Clone(fam.vals)
		vals[fam.key] = v
		s := sched.New(2)
		s.SetTier(&mapTier{vals: vals})
		r, err := Run(fam.exp, Options{Scale: fuzzScale, Sched: s})
		if st := s.Stats(); st.Misses != 0 {
			t.Fatalf("render over a full tier simulated %d runs", st.Misses)
		}
		switch {
		case reflect.TypeOf(v) != reflect.TypeOf(fam.vals[fam.key]):
			if err == nil {
				t.Fatalf("%s rendered from a served %T in place of a %T", fam.exp, v, fam.vals[fam.key])
			}
		case err != nil:
			t.Fatalf("%s over a served %T: %v", fam.exp, v, err)
		case r.Render() != fam.text:
			t.Fatalf("served %T renders %s differently:\n%s", v, fam.exp, r.Render())
		}
	})
}

func openFamilyStore(t testing.TB, dir string) *store.Store {
	t.Helper()
	st, err := store.Open(store.Options{Dir: dir, Schema: StoreSchema, Logger: quietLogger()})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	return st
}

// blobPath is where st keeps key's blob.
func blobPath(st *store.Store, key sched.Key) string {
	return filepath.Join(st.Stats().Dir, hex.EncodeToString(key[:])+".blob")
}
