package fleet

import (
	"os"
	"testing"
)

// FuzzShardLoad writes arbitrary bytes as an experiment's result file
// and checks that Load fails closed: it never panics, and a result it
// reports as present is the one that was asked for.
func FuzzShardLoad(f *testing.F) {
	for _, seed := range []string{
		`{"name":"fig5","text":"out","elapsed_seconds":1.5,"sched":{"runs":3}}`,
		`{"name":"fig5"}`,
		`{"name":"table2","text":"other"}`, // another experiment's result
		`{"name":"fig5","te`,
		`{}`,   // decodes, but records no experiment
		`null`, // likewise
		`[]`,
		`""`,
		`{"name":7}`,
		`{"name":"fig5","sched":"not-an-object"}`,
		``,
	} {
		f.Add("fig5", []byte(seed))
	}
	// safeName maps both names onto the same result file.
	f.Add("../x", []byte(`{"name":".._x"}`))
	f.Fuzz(func(t *testing.T, name string, body []byte) {
		sh := OpenShard(t.TempDir())
		if err := os.WriteFile(sh.resultPath(name), body, 0o644); err != nil {
			t.Skip() // name not representable as a file on this filesystem
		}
		r, ok, err := sh.Load(name)
		if err != nil {
			t.Fatalf("Load(%q) = error %v with no error file", name, err)
		}
		if ok && r.Name != name {
			t.Fatalf("Load(%q) accepted a result named %q", name, r.Name)
		}
	})
}
