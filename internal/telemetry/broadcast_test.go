package telemetry

import (
	"fmt"
	"net/http/httptest"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"carf/internal/sched"
)

// follow reads what ServeSSE would write for one subscription: the
// replay, then live frames until the channel closes, then the terminal
// frame if the broadcaster closed. Every frame the test expects is
// already buffered, so a read that would block is a failure.
func follow(t *testing.T, b *Broadcaster, replay [][]byte, ch <-chan []byte) []string {
	t.Helper()
	var out []string
	for _, p := range replay {
		out = append(out, string(p))
	}
	if ch == nil {
		return out
	}
	for {
		select {
		case p, ok := <-ch:
			if !ok {
				if term := b.Terminal(); term != nil {
					out = append(out, string(term))
				}
				return out
			}
			out = append(out, string(p))
		default:
			t.Fatalf("follower channel neither delivered nor closed after %d frames", len(out))
		}
	}
}

// ints returns the JSON encodings of the integers [from, to).
func ints(from, to int) []string {
	var out []string
	for i := from; i < to; i++ {
		out = append(out, strconv.Itoa(i))
	}
	return out
}

// done is the JSON encoding of the tests' terminal frame.
const done = `"done"`

// TestBroadcasterSubscribeBetweenPublishes forces a subscription into
// every gap of a publish sequence longer than the replay ring, for the
// /events depth (0) and the stream depth: the follower sees a
// gap-free, duplicate-free suffix of the published frames — the
// retained window, then every later frame live — and then exactly one
// terminal frame.
func TestBroadcasterSubscribeBetweenPublishes(t *testing.T) {
	const n = StreamReplay + 36
	for _, depth := range []int{0, StreamReplay} {
		for k := 0; k <= n; k++ {
			c := new(Counters)
			b := NewBroadcaster(depth, c)
			for i := 0; i < k; i++ {
				b.Publish(i)
			}
			replay, ch, cancel := b.Subscribe()
			for i := k; i < n; i++ {
				b.Publish(i)
			}
			b.Close("done")
			b.Close("again") // only the first Close counts
			b.Publish(n)     // nor does anything after it

			got := follow(t, b, replay, ch)
			if want := append(ints(k-min(k, depth), n), done); !slices.Equal(got, want) {
				t.Fatalf("depth %d, subscribed after %d: got %v, want %v", depth, k, got, want)
			}
			if p, d := c.Published.Load(), c.Dropped.Load(); p != n+1 || d != 0 {
				t.Fatalf("depth %d, subscribed after %d: published %d dropped %d, want %d and 0", depth, k, p, d, n+1)
			}
			cancel()
		}
	}
}

// TestBroadcasterSubscribeAfterClose: a closed broadcaster replays its
// retained frames plus the terminal frame and hands out no channel.
func TestBroadcasterSubscribeAfterClose(t *testing.T) {
	b := NewBroadcaster(StreamReplay, new(Counters))
	for i := 0; i < 3; i++ {
		b.Publish(i)
	}
	b.Close("done")
	replay, ch, cancel := b.Subscribe()
	defer cancel()
	if ch != nil {
		t.Fatal("subscribing after Close returned a live channel")
	}
	if got, want := follow(t, b, replay, ch), append(ints(0, 3), done); !slices.Equal(got, want) {
		t.Fatalf("replay = %v, want %v", got, want)
	}
	if n := len(b.Followers()); n != 0 {
		t.Errorf("followers after Close = %d, want 0", n)
	}
}

// TestBroadcasterSlowFollowerCutOff: with a healthy follower draining
// in lockstep, a stalled follower on a stream broadcaster is cut off
// after exactly maxConsecDrops drops past its full buffer and counted,
// its stream ends without a terminal frame, and the healthy follower
// still gets every frame and the terminal.
func TestBroadcasterSlowFollowerCutOff(t *testing.T) {
	c := new(Counters)
	b := NewBroadcaster(StreamReplay, c)
	_, stalled, cancelStalled := b.Subscribe()
	defer cancelStalled()
	_, healthy, cancelHealthy := b.Subscribe()
	defer cancelHealthy()

	total := followerBuf + maxConsecDrops
	for i := 0; i < total; i++ {
		b.Publish(i)
		if got := string(<-healthy); got != strconv.Itoa(i) {
			t.Fatalf("healthy follower got %s, want %d", got, i)
		}
		if cut := c.SlowDisconnects.Load(); cut != 0 && i < total-1 {
			t.Fatalf("stalled follower cut off after %d publishes, want %d", i+1, total)
		}
	}
	if got := follow(t, b, nil, stalled); !slices.Equal(got, ints(0, followerBuf)) {
		t.Fatalf("stalled follower read %d frames, want its %d buffered ones and no terminal", len(got), followerBuf)
	}
	if d, cut := c.Dropped.Load(), c.SlowDisconnects.Load(); d != maxConsecDrops || cut != 1 {
		t.Errorf("dropped %d, slow disconnects %d; want %d and 1", d, cut, maxConsecDrops)
	}
	if subs := b.Followers(); len(subs) != 1 || subs[0].Dropped != 0 {
		t.Errorf("followers after the cut-off = %+v, want only the healthy one with 0 drops", subs)
	}

	b.Close("done")
	if got := follow(t, b, nil, healthy); !slices.Equal(got, []string{done}) {
		t.Errorf("healthy follower after Close read %v, want the terminal frame", got)
	}
}

// TestBroadcasterConcurrent publishes from several goroutines while
// followers subscribe from others. Every follower sees, per publisher,
// a gap-free, duplicate-free suffix of that publisher's frames (the
// buffers hold every frame, so nothing drops), then the terminal frame.
func TestBroadcasterConcurrent(t *testing.T) {
	const publishers, followers, each = 4, 4, 50
	b := NewBroadcaster(StreamReplay, new(Counters))
	var pubs sync.WaitGroup
	for p := 0; p < publishers; p++ {
		pubs.Add(1)
		go func(p int) {
			defer pubs.Done()
			for i := 0; i < each; i++ {
				b.Publish([2]int{p, i})
			}
		}(p)
	}
	seen := make([][]string, followers)
	var subs sync.WaitGroup
	for f := 0; f < followers; f++ {
		subs.Add(1)
		go func(f int) {
			defer subs.Done()
			replay, ch, cancel := b.Subscribe()
			defer cancel()
			for _, p := range replay {
				seen[f] = append(seen[f], string(p))
			}
			if ch == nil {
				return
			}
			for p := range ch {
				seen[f] = append(seen[f], string(p))
			}
			seen[f] = append(seen[f], string(b.Terminal()))
		}(f)
	}
	pubs.Wait()
	b.Close("done")
	subs.Wait()

	for f, frames := range seen {
		if len(frames) == 0 || frames[len(frames)-1] != done {
			t.Fatalf("follower %d did not end with the terminal frame: %v", f, frames)
		}
		next := map[int]int{}
		for _, fr := range frames[:len(frames)-1] {
			var p, i int
			if _, err := fmt.Sscanf(fr, "[%d,%d]", &p, &i); err != nil {
				t.Fatalf("follower %d: bad frame %q", f, fr)
			}
			if want, ok := next[p]; ok && i != want {
				t.Fatalf("follower %d: publisher %d frame %d after %d, want %d", f, p, i, want-1, want)
			}
			next[p] = i + 1
		}
		for p, n := range next {
			if n != each {
				t.Errorf("follower %d: publisher %d's frames stop at %d of %d", f, p, n, each)
			}
		}
	}
}

// TestRunStreamSlowFollowerCounted applies the disconnect policy to a
// hub run stream and pins the hub's published-frame rule: every frame
// every hub broadcaster accepts counts, followed or not.
func TestRunStreamSlowFollowerCounted(t *testing.T) {
	hub := NewHub()
	hub.RunEnqueued(1, sched.KeyOf("slow-run"), "sim/slow/carf")
	b := hub.stream(1)
	_, stalled, cancel := b.Subscribe()
	defer cancel()

	total := followerBuf + maxConsecDrops
	for i := 0; i < total; i++ {
		hub.RunProgressed(1, sched.Progress{Insts: uint64(i)})
	}
	if got := follow(t, b, nil, stalled); len(got) != followerBuf {
		t.Fatalf("stalled run-stream follower read %d frames, want its %d buffered ones and no terminal", len(got), followerBuf)
	}
	hub.RunFinished(1, sched.Provenance{Outcome: sched.Miss}, nil)
	replay, ch, _ := b.Subscribe() // closed: nothing to cancel
	if ch != nil || len(replay) != StreamReplay+1 || !strings.Contains(string(replay[StreamReplay]), `"type":"done"`) {
		t.Fatalf("late subscriber got %d frames (live channel %v), want %d progress + done", len(replay), ch != nil, StreamReplay)
	}
	for name, want := range map[string]float64{
		"telemetry.sse_slow_disconnects_total": 1,
		"telemetry.events_dropped_total":       maxConsecDrops,
		// run-start + run-finish + one run-progress per report on
		// /events (no subscriber), and every progress frame plus the
		// done frame on the run stream.
		"telemetry.events_published_total": float64(2 + total + total + 1),
		"telemetry.sse_subscribers":        0,
	} {
		if got := metaReading(hub, name); got != want {
			t.Errorf("%s = %v, want %v", name, got, want)
		}
	}
}

// flushWriter is an httptest.ResponseRecorder that reports its first
// Flush: ServeSSE's greeting and replay are on the wire, so its
// subscription exists. Only the ServeSSE goroutine touches it until
// that goroutine returns.
type flushWriter struct {
	*httptest.ResponseRecorder
	flushed chan struct{} // closed on the first Flush
}

func (w *flushWriter) Flush() {
	w.ResponseRecorder.Flush()
	select {
	case <-w.flushed:
	default:
		close(w.flushed)
	}
}

// TestServeSSEWireFormat drives ServeSSE through a forced interleaving:
// frames published after the greeting is flushed all reach the body in
// order, between the greeting and replay and the terminal frame, in
// the data: framing clients parse.
func TestServeSSEWireFormat(t *testing.T) {
	b := NewBroadcaster(StreamReplay, new(Counters))
	b.Publish(0)
	w := &flushWriter{ResponseRecorder: httptest.NewRecorder(), flushed: make(chan struct{})}
	served := make(chan struct{})
	go func() {
		defer close(served)
		ServeSSE(w, httptest.NewRequest("GET", "/stream", nil), b, "hello")
	}()
	<-w.flushed
	b.Publish(1)
	b.Publish(2)
	b.Close("done")
	<-served

	var want strings.Builder
	for _, f := range []string{`"hello"`, "0", "1", "2", done} {
		fmt.Fprintf(&want, "data: %s\n\n", f)
	}
	if got := w.Body.String(); got != want.String() {
		t.Errorf("body = %q, want %q", got, want.String())
	}
	h := w.Header()
	if h.Get("Content-Type") != "text/event-stream" || h.Get("Cache-Control") != "no-cache" || h.Get("Connection") != "keep-alive" {
		t.Errorf("headers = %v", h)
	}
}

// countedFrame counts how often it is marshalled.
type countedFrame struct{ n *atomic.Int64 }

func (f countedFrame) MarshalJSON() ([]byte, error) {
	f.n.Add(1)
	return []byte(`{"type":"counted"}`), nil
}

// TestBroadcasterMarshalsOnlyForReaders checks that a frame nobody can
// read (no follower, no replay ring) is counted as published but never
// marshalled, and that a frame with followers is marshalled exactly
// once however many follow it.
func TestBroadcasterMarshalsOnlyForReaders(t *testing.T) {
	var marshals atomic.Int64
	frame := countedFrame{&marshals}
	var c Counters
	b := NewBroadcaster(0, &c)
	b.Publish(frame)
	if n := marshals.Load(); n != 0 {
		t.Errorf("unobserved publish marshalled %d times, want 0", n)
	}
	if p := c.Published.Load(); p != 1 {
		t.Errorf("published = %d after an unobserved publish, want 1", p)
	}

	_, ch1, cancel1 := b.Subscribe()
	defer cancel1()
	_, ch2, cancel2 := b.Subscribe()
	defer cancel2()
	b.Publish(frame)
	if n := marshals.Load(); n != 1 {
		t.Errorf("publish to two followers marshalled %d times, want 1", n)
	}
	for i, ch := range []<-chan []byte{ch1, ch2} {
		select {
		case p := <-ch:
			if string(p) != `{"type":"counted"}` {
				t.Errorf("follower %d got %s", i, p)
			}
		default:
			t.Errorf("follower %d got no frame", i)
		}
	}
	if p := c.Published.Load(); p != 2 {
		t.Errorf("published = %d, want 2", p)
	}

	b.Close(nil)
	b.Publish(frame)
	if n := marshals.Load(); n != 1 {
		t.Errorf("publish after Close marshalled (%d marshals, want 1)", n)
	}
}
