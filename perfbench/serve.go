package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"time"

	"carf"
	"carf/internal/experiments"
	"carf/internal/sched"
	"carf/internal/serve"
	"carf/internal/store"
)

// daemon is one in-process carfserve daemon on loopback.
type daemon struct {
	d    *serve.Daemon
	base string
	tier *timedTier // nil unless traced
}

// startDaemon starts a daemon on a fresh scheduler over the store in
// dir. traced wraps the store in a timing tier.
func startDaemon(dir string, traced bool) (*daemon, error) {
	st, err := store.Open(store.Options{Dir: dir, Schema: experiments.StoreSchema, Logger: quiet})
	if err != nil {
		return nil, err
	}
	if st.Stats().Degraded {
		st.Close()
		return nil, fmt.Errorf("serve store %s is degraded: %s", dir, st.Stats().Reason)
	}
	s := sched.New(2)
	d := serve.New(serve.Options{Scheduler: s, Store: st, Logger: quiet})
	out := &daemon{d: d}
	if traced {
		// serve.New attached the store itself; put the timing wrapper in
		// its place (SetTier also re-wires the store's leases through it).
		out.tier = &timedTier{inner: st}
		s.SetTier(out.tier)
	}
	addr, err := d.Start("127.0.0.1:0")
	if err != nil {
		d.Shutdown(context.Background()) //nolint:errcheck // reporting the listen error instead
		return nil, err
	}
	out.base = "http://" + addr
	return out, nil
}

func (d *daemon) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	return d.d.Shutdown(ctx)
}

// kernelDoc mirrors the JSON body of a finished kernel job, which
// carries the measurement fields of carf.Result.
type kernelDoc struct {
	Kernel            string
	Organization      string
	Cycles            uint64
	Instructions      uint64
	IPC               float64
	Branches          uint64
	Mispredicts       uint64
	IntOperands       uint64
	BypassedOperands  uint64
	BypassRate        float64
	RegFileEnergy     float64
	RegFileArea       float64
	RegFileAccessTime float64
	ReadsByType       [3]uint64
	WritesByType      [3]uint64
	AvgLiveLong       float64
	RecoveryStalls    uint64
}

func docOf(r carf.Result) kernelDoc {
	return kernelDoc{
		Kernel: r.Kernel, Organization: string(r.Organization),
		Cycles: r.Cycles, Instructions: r.Instructions, IPC: r.IPC,
		Branches: r.Branches, Mispredicts: r.Mispredicts,
		IntOperands: r.IntOperands, BypassedOperands: r.BypassedOperands, BypassRate: r.BypassRate,
		RegFileEnergy: r.RegFileEnergy, RegFileArea: r.RegFileArea, RegFileAccessTime: r.RegFileAccessTime,
		ReadsByType: r.ReadsByType, WritesByType: r.WritesByType,
		AvgLiveLong: r.AvgLiveLong, RecoveryStalls: r.RecoveryStalls,
	}
}

// jobDoc is the part of GET /api/v1/runs/{id} the benchmark reads.
type jobDoc struct {
	Submitted time.Time  `json:"submitted"`
	Started   *time.Time `json:"started"`
	Sched     struct {
		Simulated uint64 `json:"simulated"`
		MemHits   uint64 `json:"mem_hits"`
		DiskHits  uint64 `json:"disk_hits"`
		Joins     uint64 `json:"joins"`
		PeerHits  uint64 `json:"peer_hits"`
	} `json:"sched"`
}

func (j jobDoc) outcome() string {
	switch {
	case j.Sched.Simulated > 0:
		return "miss"
	case j.Sched.MemHits > 0:
		return "hit"
	case j.Sched.DiskHits > 0:
		return "disk"
	case j.Sched.Joins > 0:
		return "join"
	case j.Sched.PeerHits > 0:
		return "peer"
	}
	return "none"
}

// jobResult is one request as a client saw it.
type jobResult struct {
	spec     serve.SubmitRequest
	start    time.Time
	latency  time.Duration // POST to result body received
	submit   time.Duration // POST to 202
	queue    time.Duration // job submitted to started, from the job document
	outcome  string
	body     []byte
	rejected bool
	err      error
}

// request submits spec, follows the job's stream to its done frame and
// reads the result body; the job document is fetched afterwards, off
// the clock.
func request(hc *http.Client, base, client string, spec serve.SubmitRequest) jobResult {
	out := jobResult{spec: spec}
	payload, err := json.Marshal(spec)
	if err != nil {
		out.err = err
		return out
	}
	t0 := time.Now()
	out.start = t0
	req, err := http.NewRequest(http.MethodPost, base+"/api/v1/runs", bytes.NewReader(payload))
	if err != nil {
		out.err = err
		return out
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("X-Carf-Client", client)
	resp, err := hc.Do(req)
	if err != nil {
		out.err = err
		return out
	}
	var sub struct {
		ID string `json:"id"`
	}
	derr := json.NewDecoder(resp.Body).Decode(&sub)
	resp.Body.Close()
	out.submit = time.Since(t0)
	if resp.StatusCode == http.StatusTooManyRequests || resp.StatusCode == http.StatusServiceUnavailable {
		out.rejected = true
		out.err = fmt.Errorf("submit %s: %s", spec.Kernel, resp.Status)
		return out
	}
	if resp.StatusCode != http.StatusAccepted || derr != nil {
		out.err = fmt.Errorf("submit %s: %s (%v)", spec.Kernel, resp.Status, derr)
		return out
	}

	stream, err := get(hc, base+"/api/v1/runs/"+sub.ID+"/stream")
	if err != nil {
		out.err = err
		return out
	}
	if st := doneStatus(stream); st != serve.StatusDone {
		out.err = fmt.Errorf("job %s (%s) ended %q", sub.ID, spec.Kernel, st)
		return out
	}
	out.body, err = get(hc, base+"/api/v1/runs/"+sub.ID+"/result")
	out.latency = time.Since(t0)
	if err != nil {
		out.err = err
		return out
	}

	raw, err := get(hc, base+"/api/v1/runs/"+sub.ID)
	if err != nil {
		out.err = err
		return out
	}
	var jd jobDoc
	if err := json.Unmarshal(raw, &jd); err != nil {
		out.err = fmt.Errorf("job %s document: %w", sub.ID, err)
		return out
	}
	out.outcome = jd.outcome()
	if jd.Started != nil {
		out.queue = jd.Started.Sub(jd.Submitted)
	}
	return out
}

func get(hc *http.Client, url string) ([]byte, error) {
	resp, err := hc.Get(url)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, fmt.Errorf("GET %s: %w", url, err)
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: %s", url, resp.Status)
	}
	return b, nil
}

// doneStatus returns the status carried by the last frame of an SSE
// job stream ("" when there is none).
func doneStatus(stream []byte) string {
	var last string
	for _, line := range strings.Split(string(stream), "\n") {
		if strings.HasPrefix(line, "data: ") {
			last = strings.TrimPrefix(line, "data: ")
		}
	}
	var f serve.JobStreamFrame
	if json.Unmarshal([]byte(last), &f) != nil || f.Type != "done" {
		return ""
	}
	return f.Status
}

// drive sends specs from serveClients closed-loop clients, each taking
// the next spec once its previous job's result has arrived. It returns
// the results in spec order and the wall time.
func drive(hc *http.Client, base string, specs []serve.SubmitRequest) ([]jobResult, time.Duration) {
	out := make([]jobResult, len(specs))
	var mu sync.Mutex
	next := 0
	var wg sync.WaitGroup
	t0 := time.Now()
	for c := 0; c < serveClients; c++ {
		wg.Add(1)
		go func(client string) {
			defer wg.Done()
			for {
				mu.Lock()
				i := next
				next++
				mu.Unlock()
				if i >= len(specs) {
					return
				}
				out[i] = request(hc, base, client, specs[i])
			}
		}(fmt.Sprintf("perfbench-%d", c))
	}
	wg.Wait()
	return out, time.Since(t0)
}

// restarted starts another daemon on dir's store, asks it for specs an
// earlier daemon completed, which it must serve from disk, and stops it.
func (b *bench) restarted(dir string, specs []serve.SubmitRequest, tr *tracer, parent int) []jobResult {
	span := tr.open("serve.restarted", parent, "")
	defer tr.close(span)
	d, err := startDaemon(dir, tr != nil)
	if err != nil {
		b.chk.op(fmt.Errorf("restart daemon: %w", err))
		return nil
	}
	// Open the clients' connections to the new port off the clock.
	for i := 0; i < serveClients; i++ {
		if _, err := get(b.hc, d.base+"/healthz"); err != nil {
			b.chk.op(fmt.Errorf("restarted daemon health: %w", err))
		}
	}
	res, _ := drive(b.hc, d.base, specs)
	traceRequests(tr, span, res)
	for _, r := range res {
		b.chk.op(b.verify(r, "disk"))
	}
	if err := d.stop(); err != nil {
		b.chk.op(fmt.Errorf("stop restarted daemon: %w", err))
	}
	if tr != nil {
		b.srv.storeLoadMs = append(b.srv.storeLoadMs, d.tier.loads...)
	}
	return res
}

// traceRequests records each answered request as a serve.request span
// with serve.submit (POST to 202) and serve.wait (202 to result body)
// children.
func traceRequests(tr *tracer, parent int, rs []jobResult) {
	for _, r := range rs {
		if r.err != nil {
			continue
		}
		id := r.spec.Kernel + "/" + r.spec.Organization + "/" + r.outcome
		req := tr.add("serve.request", parent, id, r.start, r.start.Add(r.latency))
		tr.add("serve.submit", req, id, r.start, r.start.Add(r.submit))
		tr.add("serve.wait", req, id, r.start.Add(r.submit), r.start.Add(r.latency))
	}
}

// serveLayer accumulates the traced service rounds.
type serveLayer struct {
	submitMs, queueMs       []float64
	hitMs, diskMs, missMs   []float64
	rejected                float64
	storeLoadMs, storePutMs []float64
}

// reference returns carf.RunCtx's result for spec, computed once per
// spec and kept for later repeats.
func (b *bench) reference(spec serve.SubmitRequest) (kernelDoc, error) {
	if d, ok := b.refs[spec]; ok {
		return d, nil
	}
	r, err := carf.RunCtx(context.Background(), spec.Kernel, carf.Config{
		Organization: carf.Organization(spec.Organization),
		DPlusN:       spec.DPlusN,
		ShortRegs:    spec.ShortRegs,
		LongRegs:     spec.LongRegs,
		Scale:        spec.Scale,
	})
	if err != nil {
		return kernelDoc{}, fmt.Errorf("reference run %+v: %w", spec, err)
	}
	b.refs[spec] = docOf(r)
	return b.refs[spec], nil
}

// verify checks one job: it must have been served the way the plan
// intended and its body must equal carf.RunCtx for the same spec.
func (b *bench) verify(res jobResult, want string) error {
	if res.err != nil {
		return res.err
	}
	if res.outcome != want {
		return fmt.Errorf("%s/%s: served as %s, planned %s", res.spec.Kernel, res.spec.Organization, res.outcome, want)
	}
	var got kernelDoc
	if err := json.Unmarshal(res.body, &got); err != nil {
		return fmt.Errorf("%s result body: %w", res.spec.Kernel, err)
	}
	ref, err := b.reference(res.spec)
	if err != nil {
		return err
	}
	if got != ref {
		return fmt.Errorf("%+v: served %+v, carf.RunCtx gives %+v", res.spec, got, ref)
	}
	return nil
}

// servePhase starts a daemon on a fresh store, sends it every spec
// (misses) and then repeats of them (memory hits), and restarts daemons
// on the same store that must serve samples of them from disk.
func (b *bench) servePhase(rp roundPlan, r int, tr *tracer, parent int) {
	runtime.GC()
	phase := tr.open("phase.serve", parent, "")
	defer tr.close(phase)
	dir := filepath.Join(b.work, fmt.Sprintf("serve-%d", r))
	defer os.RemoveAll(dir)
	d, err := startDaemon(dir, tr != nil)
	if err != nil {
		b.chk.op(fmt.Errorf("start daemon: %w", err))
		return
	}

	var res []jobResult
	var wall time.Duration
	for _, batch := range []struct {
		specs []serve.SubmitRequest
		want  string
	}{{rp.Misses, "miss"}, {rp.Hits, "hit"}} {
		bs := tr.open("serve."+batch.want+"es", phase, "")
		rs, w := drive(b.hc, d.base, batch.specs)
		tr.close(bs)
		traceRequests(tr, bs, rs)
		for _, r := range rs {
			b.chk.op(b.verify(r, batch.want))
		}
		res, wall = append(res, rs...), wall+w
	}
	if err := d.stop(); err != nil {
		b.chk.op(fmt.Errorf("stop daemon: %w", err))
	}
	var disk []jobResult
	for _, sample := range rp.Disk {
		disk = append(disk, b.restarted(dir, sample, tr, phase)...)
	}

	lat := func(rs []jobResult, outcome string) []float64 {
		var xs []float64
		for _, r := range rs {
			if r.err == nil && r.outcome == outcome {
				xs = append(xs, float64(r.latency)/1e6)
			}
		}
		return xs
	}
	if tr == nil {
		b.hitMs = append(b.hitMs, lat(res, "hit")...)
		b.missMs = append(b.missMs, lat(res, "miss")...)
		b.diskMs = append(b.diskMs, lat(disk, "disk")...)
		b.serveJobs += len(res)
		b.serveWall += wall
		return
	}
	l := &b.srv
	l.hitMs = append(l.hitMs, lat(res, "hit")...)
	l.missMs = append(l.missMs, lat(res, "miss")...)
	l.diskMs = append(l.diskMs, lat(disk, "disk")...)
	for _, r := range append(res, disk...) {
		if r.rejected {
			l.rejected++
		}
		if r.err == nil {
			l.submitMs = append(l.submitMs, float64(r.submit)/1e6)
			l.queueMs = append(l.queueMs, float64(r.queue)/1e6)
		}
	}
	l.storePutMs = append(l.storePutMs, d.tier.puts...)
}
