// Package fleet is the multi-process sweep driver: it divides one
// study's experiment list among N worker processes sharing a single
// store directory, and merges their results back in suite order so the
// rendered output is byte-identical with a serial run.
//
// Coordination is file-based and lives inside the store directory the
// workers already share — no sockets, no coordinator service:
//
//   - The parent creates a shard directory (sweeps/<id> under the store
//     root) and re-executes its own binary N times in worker mode.
//   - Workers walk the experiment list in suite order and claim work
//     with <name>.claim files (O_CREAT|O_EXCL — the same exactly-one-
//     winner primitive the store's cross-process leases use, one level
//     up: leases dedup *simulations*, claims shard *experiments*).
//   - A worker that wins a claim runs the experiment and writes
//     <name>.json (rendered text + per-experiment scheduler counters)
//     or <name>.err; either way the claim stays on disk, so no other
//     worker re-runs it.
//   - After all workers exit, the parent sweeps the list once more: an
//     experiment with no result (its worker crashed after claiming, or
//     no worker reached it) is run in-process. This is crash recovery
//     at the experiment level; the store's lease takeover handles it at
//     the simulation level below.
//   - Below the claims, every simulation still goes through the shared
//     scheduler + store, so two workers whose experiments overlap (the
//     suite's configs do) share results via disk hits and peer-lease
//     waits instead of duplicating them.
//
// The package is mechanism only: it never imports the experiment
// runner. The command supplies a run callback and whatever argv its
// worker mode needs.
package fleet

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
)

// Result is one experiment's outcome as recorded by the worker that ran
// it — everything the parent needs to render the suite block and the
// per-experiment activity trailer.
type Result struct {
	Name           string  `json:"name"`
	Text           string  `json:"text"`
	ElapsedSeconds float64 `json:"elapsed_seconds"`

	// Sched carries the experiment's own scheduler counters (the
	// command's stats type, round-tripped as JSON so fleet stays
	// independent of it).
	Sched json.RawMessage `json:"sched,omitempty"`
}

// Summary is one worker's whole-process accounting, written as
// worker-<k>.json when the worker exits cleanly. The parent sums these
// (plus its own in-process stats) into the combined trailer, which is
// how "zero duplicate simulations" becomes checkable from the outside.
type Summary struct {
	Worker      int             `json:"worker"`
	PID         int             `json:"pid"`
	Experiments []string        `json:"experiments"` // claims this worker won, in order
	WallSeconds float64         `json:"wall_seconds"`
	Sched       json.RawMessage `json:"sched,omitempty"`
	Store       json.RawMessage `json:"store,omitempty"`
}

// Shard is one sweep's coordination directory.
type Shard struct {
	Dir string
}

// NewShard creates a fresh shard directory under root (the store
// directory, conventionally root/sweeps/<unique>). The parent removes
// it with Cleanup after a successful merge; a failed sweep leaves it
// behind for post-mortems.
func NewShard(root string) (*Shard, error) {
	base := filepath.Join(root, "sweeps")
	if err := os.MkdirAll(base, 0o755); err != nil {
		return nil, fmt.Errorf("fleet: cannot create sweep root: %w", err)
	}
	dir, err := os.MkdirTemp(base, "sweep-")
	if err != nil {
		return nil, fmt.Errorf("fleet: cannot create shard dir: %w", err)
	}
	return &Shard{Dir: dir}, nil
}

// OpenShard wraps an existing shard directory (worker side).
func OpenShard(dir string) *Shard { return &Shard{Dir: dir} }

// Cleanup removes the shard directory.
func (sh *Shard) Cleanup() { os.RemoveAll(sh.Dir) }

// safeName guards against experiment names escaping the shard dir.
func safeName(name string) string {
	return strings.Map(func(r rune) rune {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9', r == '-', r == '_', r == '.':
			return r
		}
		return '_'
	}, name)
}

func (sh *Shard) claimPath(name string) string {
	return filepath.Join(sh.Dir, safeName(name)+".claim")
}
func (sh *Shard) resultPath(name string) string {
	return filepath.Join(sh.Dir, safeName(name)+".json")
}
func (sh *Shard) errPath(name string) string {
	return filepath.Join(sh.Dir, safeName(name)+".err")
}

// Claim attempts to take ownership of one experiment. Exactly one
// caller across all processes sharing the shard wins each name.
func (sh *Shard) Claim(name string) bool {
	f, err := os.OpenFile(sh.claimPath(name), os.O_CREATE|os.O_EXCL|os.O_WRONLY, 0o644)
	if err != nil {
		return false
	}
	fmt.Fprintf(f, "%d\n", os.Getpid())
	f.Close()
	return true
}

// WriteResult records a claimed experiment's outcome (atomically:
// temp + rename, so the parent never reads a half-written result).
func (sh *Shard) WriteResult(r Result) error {
	b, err := json.Marshal(r)
	if err != nil {
		return err
	}
	return atomicWrite(sh.resultPath(r.Name), b)
}

// WriteError records a claimed experiment's failure. The claim is left
// in place: a deterministic failure re-run N times is N failures.
func (sh *Shard) WriteError(name string, runErr error) error {
	return atomicWrite(sh.errPath(name), []byte(runErr.Error()+"\n"))
}

// Load retrieves one experiment's recorded outcome: (result, ok),
// or an error if the worker recorded a failure. It fails closed: a
// result file that does not decode, or that decodes to a result for
// some other name (`null`, `{}`, a foreign file, or a name that
// safeName maps onto the same path), reads as "not run", so the
// parent's recovery sweep re-runs the experiment in-process.
func (sh *Shard) Load(name string) (Result, bool, error) {
	if b, err := os.ReadFile(sh.errPath(name)); err == nil {
		return Result{}, false, fmt.Errorf("fleet: worker reported: %s", strings.TrimSpace(string(b)))
	}
	b, err := os.ReadFile(sh.resultPath(name))
	if err != nil {
		return Result{}, false, nil // not run (claim orphaned by a crash, or never claimed)
	}
	var r Result
	if err := json.Unmarshal(b, &r); err != nil || r.Name != name {
		return Result{}, false, nil // torn/foreign file: treat as not run
	}
	return r, true, nil
}

// WriteSummary records a worker's whole-process accounting.
func (sh *Shard) WriteSummary(s Summary) error {
	b, err := json.Marshal(s)
	if err != nil {
		return err
	}
	return atomicWrite(filepath.Join(sh.Dir, fmt.Sprintf("worker-%d.json", s.Worker)), b)
}

// Summaries loads every worker summary present, by worker index.
func (sh *Shard) Summaries() ([]Summary, error) {
	matches, err := filepath.Glob(filepath.Join(sh.Dir, "worker-*.json"))
	if err != nil {
		return nil, err
	}
	var out []Summary
	for _, m := range matches {
		b, err := os.ReadFile(m)
		if err != nil {
			continue
		}
		var s Summary
		if json.Unmarshal(b, &s) == nil {
			out = append(out, s)
		}
	}
	return out, nil
}

// Work is the worker-side loop: walk names in suite order, claim what
// is unclaimed, run it, record the outcome. Returns the names this
// worker ran. A failed experiment is recorded and does not stop the
// worker — the parent decides what a failure means for the sweep.
func (sh *Shard) Work(ctx context.Context, names []string, run func(name string) (Result, error)) ([]string, error) {
	var ran []string
	for _, name := range names {
		if err := ctx.Err(); err != nil {
			return ran, err
		}
		if !sh.Claim(name) {
			continue
		}
		ran = append(ran, name)
		r, err := run(name)
		if err != nil {
			if werr := sh.WriteError(name, err); werr != nil {
				return ran, werr
			}
			continue
		}
		r.Name = name
		if err := sh.WriteResult(r); err != nil {
			return ran, err
		}
	}
	return ran, nil
}

// Spawn re-executes this binary n times with the given argv (one worker
// per process, worker index appended by indexFlag when non-empty) and
// waits for all of them. Worker stderr is forwarded to stderr with a
// per-worker prefix handled by the workers' own log labels; stdout is
// discarded (workers render nothing — results travel through the
// shard). Returns per-worker errors (nil entries for clean exits).
func Spawn(ctx context.Context, n int, args []string, indexFlag string, env []string, stderr io.Writer) []error {
	self, err := os.Executable()
	if err != nil {
		errs := make([]error, n)
		for i := range errs {
			errs[i] = fmt.Errorf("fleet: cannot locate own executable: %w", err)
		}
		return errs
	}
	errs := make([]error, n)
	done := make(chan int, n)
	for i := 0; i < n; i++ {
		go func(i int) {
			defer func() { done <- i }()
			argv := args
			if indexFlag != "" {
				argv = append(append([]string{}, args...), indexFlag, fmt.Sprint(i))
			}
			cmd := exec.CommandContext(ctx, self, argv...)
			cmd.Stdout = io.Discard
			cmd.Stderr = stderr
			cmd.Env = append(os.Environ(), env...)
			errs[i] = cmd.Run()
		}(i)
	}
	for i := 0; i < n; i++ {
		<-done
	}
	return errs
}

// atomicWrite writes b to path via a temporary in the same directory
// and rename, mirroring the store's blob discipline.
func atomicWrite(path string, b []byte) error {
	dir := filepath.Dir(path)
	f, err := os.CreateTemp(dir, filepath.Base(path)+".tmp-*")
	if err != nil {
		return err
	}
	tmp := f.Name()
	if _, err := f.Write(b); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return err
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return err
	}
	return nil
}
