package serve

import (
	"bufio"
	"context"
	"encoding/json"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"carf/internal/sched"
	"carf/internal/store"
	"carf/internal/telemetry"
)

// readJobFrames decodes data: lines from a job's SSE stream until it
// ends.
func readJobFrames(t *testing.T, ts *httptest.Server, id string) []JobStreamFrame {
	t.Helper()
	resp, err := ts.Client().Get(ts.URL + "/api/v1/runs/" + id + "/stream")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("stream status = %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("stream content type = %q", ct)
	}
	br := bufio.NewReader(resp.Body)
	var out []JobStreamFrame
	for {
		line, err := br.ReadString('\n')
		if err != nil {
			return out
		}
		line = strings.TrimSpace(line)
		if !strings.HasPrefix(line, "data: ") {
			continue
		}
		var f JobStreamFrame
		if err := json.Unmarshal([]byte(strings.TrimPrefix(line, "data: ")), &f); err != nil {
			t.Fatalf("bad frame %q: %v", line, err)
		}
		out = append(out, f)
		if f.Type == "done" {
			return out
		}
	}
}

// TestJobStreamProgressThenDone runs a real kernel job with the
// scheduler's throttle off and checks its stream: monotonic progress
// frames carrying target/pct payloads, then the terminal done frame.
func TestJobStreamProgressThenDone(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a real simulation")
	}
	sch := sched.New(2)
	sch.SetProgressInterval(0)
	_, ts := newTestDaemon(t, Options{Scheduler: sch})

	resp := submit(t, ts, "c1", `{"kernel":"crc64","scale":0.1}`)
	acc := decode[map[string]string](t, resp)
	waitStatus(t, ts, acc["id"], StatusDone)

	frames := readJobFrames(t, ts, acc["id"])
	if len(frames) < 3 {
		t.Fatalf("streamed %d frames, want >= 2 progress + done: %+v", len(frames), frames)
	}
	last := frames[len(frames)-1]
	if last.Type != "done" || last.Status != StatusDone || last.Note != "" {
		t.Fatalf("terminal frame = %+v, want done/done without a provenance note", last)
	}
	var prevInsts uint64
	for i, f := range frames[:len(frames)-1] {
		if f.Type != "progress" || f.Progress == nil {
			t.Fatalf("frame %d = %+v, want a progress frame", i, f)
		}
		if f.Progress.Insts < prevInsts {
			t.Fatalf("frame %d not monotonic: %d after %d", i, f.Progress.Insts, prevInsts)
		}
		prevInsts = f.Progress.Insts
		if f.Progress.Target == 0 || f.Progress.Pct < 0 {
			t.Errorf("frame %d missing target/pct: %+v", i, f.Progress)
		}
	}
	if fin := frames[len(frames)-2].Progress; !fin.Final || fin.Pct != 1 {
		t.Errorf("last progress frame = %+v, want Final at pct 1", fin)
	}

	// The job-status document carries the newest snapshot too.
	st, err := ts.Client().Get(ts.URL + "/api/v1/runs/" + acc["id"])
	if err != nil {
		t.Fatal(err)
	}
	j := decode[Job](t, st)
	if j.Progress == nil || j.Progress.Insts == 0 {
		t.Errorf("job status has no progress snapshot: %+v", j.Progress)
	}
}

// TestJobStreamDiskHitNote: a job served entirely from the persistent
// tier streams a single done frame whose note says no simulation ran.
func TestJobStreamDiskHitNote(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a real simulation")
	}
	dir := t.TempDir()
	body := `{"kernel":"crc64","scale":0.04}`

	runOnce := func() (string, []JobStreamFrame) {
		st, err := store.Open(store.Options{Dir: dir, Schema: "serve-stream-test/v1", Logger: testLogger()})
		if err != nil {
			t.Fatal(err)
		}
		d := New(Options{Scheduler: sched.New(2), Store: st, Logger: testLogger(), JobTimeout: 2 * time.Minute})
		ts := httptest.NewServer(d.Handler())
		defer ts.Close()
		resp := submit(t, ts, "c1", body)
		acc := decode[map[string]string](t, resp)
		waitStatus(t, ts, acc["id"], StatusDone)
		frames := readJobFrames(t, ts, acc["id"])
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := d.Shutdown(ctx); err != nil {
			t.Fatalf("Shutdown: %v", err)
		}
		return acc["id"], frames
	}

	_, first := runOnce()
	if last := first[len(first)-1]; last.Type != "done" || last.Note != "" {
		t.Fatalf("first pass terminal frame = %+v, want unannotated done", last)
	}

	_, second := runOnce()
	if len(second) != 1 {
		t.Fatalf("disk-served job streamed %d frames, want exactly 1: %+v", len(second), second)
	}
	f := second[0]
	if f.Type != "done" || f.Status != StatusDone || !strings.Contains(f.Note, "persistent tier") {
		t.Errorf("disk-hit terminal frame = %+v, want a done frame noting the persistent tier", f)
	}
}

// TestJobStreamUnknownID is a 404.
func TestJobStreamUnknownID(t *testing.T) {
	_, ts := newTestDaemon(t, Options{})
	resp, err := ts.Client().Get(ts.URL + "/api/v1/runs/r-999999/stream")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 404 {
		t.Errorf("status = %d, want 404", resp.StatusCode)
	}
}

// TestJobStreamSlowFollowerCutOff: the stream disconnect policy covers
// job streams. A follower that stops reading is cut off and counted in
// /metrics, while one that keeps up gets every progress frame and the
// done frame.
func TestJobStreamSlowFollowerCutOff(t *testing.T) {
	d, _ := newTestDaemon(t, Options{})
	j := &Job{ID: "r-slow", Client: "c1", stream: telemetry.NewBroadcaster(telemetry.StreamReplay, &d.fanout)}
	_, stalled, cancelStalled := j.stream.Subscribe()
	defer cancelStalled()
	_, healthy, cancelHealthy := j.stream.Subscribe()
	defer cancelHealthy()

	const frames = 1000 // well past any follower buffer plus the drop limit
	for i := 0; i < frames; i++ {
		d.jobProgress(j, "sim/slow", sched.Progress{Insts: uint64(i)})
		var f JobStreamFrame
		if err := json.Unmarshal(<-healthy, &f); err != nil || f.Progress.Insts != uint64(i) {
			t.Fatalf("healthy follower frame %d = %+v (%v)", i, f, err)
		}
	}
	for open := true; open; {
		select {
		case _, open = <-stalled:
		default:
			t.Fatal("stalled follower was never cut off")
		}
	}

	d.finish(j, "", sched.Stats{}, nil)
	if _, open := <-healthy; open {
		t.Fatal("healthy follower's channel still open after the job finished")
	}
	var last JobStreamFrame
	if err := json.Unmarshal(j.stream.Terminal(), &last); err != nil || last.Type != "done" || last.Status != StatusDone {
		t.Errorf("terminal frame = %+v (%v), want done/done", last, err)
	}

	got := map[string]float64{}
	for _, r := range d.metricsReadings() {
		got[r.Name] = r.Value
	}
	if got["serve.stream_slow_disconnects_total"] != 1 || got["serve.stream_frames_dropped_total"] < 1 ||
		got["serve.stream_frames_published_total"] != frames+1 {
		t.Errorf("stream metrics = %v, want 1 slow disconnect, >= 1 drop, %d published", got, frames+1)
	}
}
