package main

import (
	"fmt"
	"io"
	"log/slog"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"carf/internal/experiments"
	"carf/internal/sched"
	"carf/internal/store"
)

var quiet = slog.New(slog.NewTextHandler(io.Discard, nil))

// studyLayer accumulates the traced study passes, one value per round.
type studyLayer struct {
	renderMs, slowestS            []float64
	coldSim, warmSim, reuse       []float64
	queueWaitS, simWallS, busy    []float64
	putMs, loadMs                 []float64 // every call
	puts, loadHitFrac, quarantine []float64
}

// passOut is one study pass over every experiment.
type passOut struct {
	wall     time.Duration
	texts    map[string]string
	errs     map[string]error
	slowest  time.Duration
	renderMs float64
	stats    sched.Stats
	tier     *timedTier
	quar     uint64
}

// studyPass runs every experiment, studyJobs at a time in the given
// submission order, on a fresh scheduler over the store in dir.
func studyPass(dir string, order []string, tr *tracer, parent int, name string) (passOut, error) {
	st, err := store.Open(store.Options{Dir: dir, Schema: experiments.StoreSchema, Logger: quiet})
	if err != nil {
		return passOut{}, err
	}
	if st.Stats().Degraded {
		st.Close()
		return passOut{}, fmt.Errorf("study store %s is degraded: %s", dir, st.Stats().Reason)
	}
	s := sched.New(studyJobs)
	passSpan := tr.open("study."+name, parent, "")
	out := passOut{texts: map[string]string{}, errs: map[string]error{}}
	if tr != nil {
		out.tier = &timedTier{inner: st}
		s.SetTier(out.tier)
		s.SetObserver(newSchedObserver(tr, passSpan))
	} else {
		s.SetTier(st)
	}

	var mu sync.Mutex
	next := 0
	t0 := time.Now()
	sched.ForEach(studyJobs, func(int) error { //nolint:errcheck // errors are kept per experiment
		for {
			mu.Lock()
			i := next
			next++
			mu.Unlock()
			if i >= len(order) {
				return nil
			}
			e := order[i]
			e0 := time.Now()
			res, err := experiments.Run(e, experiments.Options{Scale: studyScale, Sched: s, Batch: 1})
			e1 := time.Now()
			var text string
			if err == nil {
				text = res.Render()
			}
			e2 := time.Now()
			runSpan := tr.add("experiments.run", passSpan, e, e0, e1)
			tr.add("experiments.render", runSpan, e, e1, e2)
			mu.Lock()
			out.texts[e], out.errs[e] = text, err
			out.slowest = max(out.slowest, e2.Sub(e0))
			out.renderMs += float64(e2.Sub(e1)) / 1e6
			mu.Unlock()
		}
	})
	out.wall = time.Since(t0)
	tr.close(passSpan)
	out.stats = s.Stats()
	out.quar = st.Stats().Quarantined
	return out, st.Close()
}

// studyPhase runs the cold and the warm pass on a fresh store and checks
// that both render every experiment exactly as recorded.
func (b *bench) studyPhase(rp roundPlan, r int, tr *tracer, parent int) {
	runtime.GC()
	dir := filepath.Join(b.work, fmt.Sprintf("study-%d", r))
	defer os.RemoveAll(dir)
	phase := tr.open("phase.study", parent, "")
	defer tr.close(phase)

	cold, err := studyPass(dir, rp.StudyCold, tr, phase, "cold")
	if err != nil {
		b.chk.op(fmt.Errorf("study cold pass: %w", err))
		return
	}
	for _, e := range experiments.Names() {
		b.chk.op(b.studyErr(e, cold.texts[e], cold.errs[e]))
	}
	var warms []passOut
	for _, order := range rp.StudyWarm {
		runtime.GC()
		warm, err := studyPass(dir, order, tr, phase, "warm")
		if err != nil {
			b.chk.op(fmt.Errorf("study warm pass: %w", err))
			return
		}
		for _, e := range experiments.Names() {
			err := b.studyErr(e, warm.texts[e], warm.errs[e])
			if err == nil && warm.texts[e] != cold.texts[e] {
				err = fmt.Errorf("study %s: warm render differs from cold", e)
			}
			b.chk.op(err)
		}
		if warm.quar != 0 {
			b.chk.op(fmt.Errorf("study store quarantined %d blobs", warm.quar))
		}
		warms = append(warms, warm)
	}
	if cold.quar != 0 {
		b.chk.op(fmt.Errorf("study store quarantined %d blobs", cold.quar))
	}

	if tr == nil {
		b.studyCold = append(b.studyCold, cold.wall.Seconds())
		for _, w := range warms {
			b.studyWarm = append(b.studyWarm, w.wall.Seconds())
		}
		return
	}
	l := &b.study
	l.slowestS = append(l.slowestS, cold.slowest.Seconds())
	l.coldSim = append(l.coldSim, float64(cold.stats.Misses))
	l.queueWaitS = append(l.queueWaitS, cold.stats.QueueWait.Seconds())
	l.simWallS = append(l.simWallS, cold.stats.SimWall.Seconds())
	l.busy = append(l.busy, frac(cold.stats.SimWall.Seconds(), cold.wall.Seconds()*studyJobs))
	l.putMs = append(l.putMs, cold.tier.puts...)
	l.puts = append(l.puts, float64(len(cold.tier.puts)))
	reused := func(s sched.Stats) float64 { return float64(s.Hits + s.Joins + s.DiskHits) }
	quar := cold.quar
	for _, w := range warms {
		l.renderMs = append(l.renderMs, w.renderMs)
		l.warmSim = append(l.warmSim, float64(w.stats.Misses))
		l.reuse = append(l.reuse, frac(reused(cold.stats)+reused(w.stats), float64(cold.stats.Runs+w.stats.Runs)))
		l.loadMs = append(l.loadMs, w.tier.loads...)
		l.loadHitFrac = append(l.loadHitFrac, frac(float64(w.tier.loadHits), float64(len(w.tier.loads))))
		quar += w.quar
	}
	l.quarantine = append(l.quarantine, float64(quar))
}

func (b *bench) studyErr(name, text string, err error) error {
	if err != nil {
		return fmt.Errorf("study %s: %w", name, err)
	}
	return b.exp.checkStudy(name, text)
}
