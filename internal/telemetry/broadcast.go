package telemetry

import (
	"encoding/json"
	"fmt"
	"net/http"
	"sync"
	"sync/atomic"
	"time"
)

// StreamReplay is the replay depth of per-run and per-job streams: a
// late subscriber sees the most recent progress frames, not the whole
// history (the terminal frame is kept separately). /events replays
// nothing.
const StreamReplay = 64

// maxConsecDrops is the slow-follower disconnect threshold: a follower
// that fails to drain its followerBuf-frame buffer for this many
// consecutive publishes is cut off (its channel is closed) instead of
// silently losing frames forever.
const maxConsecDrops = 64

// followerBuf is each follower's channel buffer, in frames: room for
// a burst of progress frames while one client's connection is briefly
// slow, small enough that a stalled client costs little memory before
// it is cut off.
const followerBuf = 256

// heartbeatEvery spaces the SSE comments that keep idle connections
// from timing out.
const heartbeatEvery = 15 * time.Second

// Counters is fan-out accounting that one or more broadcasters report
// into; the hub shares one across /events and every run stream.
type Counters struct {
	Published       atomic.Uint64 // frames accepted: every Publish before Close, plus the terminal frame
	Dropped         atomic.Uint64 // frames a follower missed because its buffer was full
	SlowDisconnects atomic.Uint64 // followers cut off after maxConsecDrops consecutive drops
}

// Broadcaster is the single SSE fan-out behind /events,
// /runs/{id}/stream and carfserve's job streams: a replay ring, an
// optional terminal frame, and non-blocking delivery to followers.
// Publishing never waits on a follower; one that stops reading drops
// frames (counted) and is disconnected after maxConsecDrops in a row.
// All methods are safe for concurrent use.
type Broadcaster struct {
	replay int
	c      *Counters

	mu       sync.Mutex
	ring     [][]byte // the most recent replay frames, oldest first
	terminal []byte   // set by Close
	subs     map[*follower]struct{}
	seq      uint64
}

type follower struct {
	id      uint64
	ch      chan []byte
	dropped uint64 // frames this follower missed
	consec  int    // consecutive misses (reset on any delivery)
}

// FollowerStat is one live follower's drop accounting.
type FollowerStat struct{ ID, Dropped uint64 }

// NewBroadcaster returns a broadcaster retaining the last replay
// frames for late subscribers and reporting into c.
func NewBroadcaster(replay int, c *Counters) *Broadcaster {
	return &Broadcaster{replay: replay, c: c, subs: map[*follower]struct{}{}}
}

// Publish marshals v to JSON and fans it out. It is a no-op after
// Close or when v does not marshal. A stream with no follower and no
// replay ring counts v as published without marshalling it: nobody
// could ever read the frame.
func (b *Broadcaster) Publish(v any) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.terminal != nil {
		return
	}
	if len(b.subs) == 0 && b.replay == 0 {
		b.c.Published.Add(1)
		return
	}
	payload, err := json.Marshal(v)
	if err != nil {
		return
	}
	b.c.Published.Add(1)
	if b.replay > 0 {
		b.ring = append(b.ring, payload)
		if len(b.ring) > b.replay {
			b.ring = b.ring[len(b.ring)-b.replay:]
		}
	}
	for f := range b.subs {
		select {
		case f.ch <- payload:
			f.consec = 0
		default:
			f.dropped++
			f.consec++
			b.c.Dropped.Add(1)
			if f.consec >= maxConsecDrops {
				delete(b.subs, f)
				close(f.ch)
				b.c.SlowDisconnects.Add(1)
			}
		}
	}
}

// Close ends the stream with a terminal frame (v as JSON, or
// {"type":"done"} if v does not marshal): every live follower's
// channel closes, and every later Subscribe replays it. Only the first
// Close counts.
func (b *Broadcaster) Close(v any) {
	payload, err := json.Marshal(v)
	if err != nil {
		payload = []byte(`{"type":"done"}`)
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.terminal != nil {
		return
	}
	b.terminal = payload
	b.c.Published.Add(1)
	for f := range b.subs {
		close(f.ch)
	}
	clear(b.subs)
}

// Subscribe attaches a follower. Atomically with respect to Publish
// and Close it returns the replay (the retained frames, ending with
// the terminal frame once closed), the live channel, and an idempotent
// cancel. Every frame published after Subscribe returns is either on
// the channel or counted as dropped, so a handler that subscribes
// before greeting loses nothing its client could have seen. The
// channel is nil once closed; a live channel is closed by Close or by
// a slow disconnect, and Terminal reports whether Close has happened.
func (b *Broadcaster) Subscribe() (replay [][]byte, ch <-chan []byte, cancel func()) {
	b.mu.Lock()
	defer b.mu.Unlock()
	replay = append([][]byte(nil), b.ring...)
	if b.terminal != nil {
		return append(replay, b.terminal), nil, func() {}
	}
	b.seq++
	f := &follower{id: b.seq, ch: make(chan []byte, followerBuf)}
	b.subs[f] = struct{}{}
	return replay, f.ch, func() {
		b.mu.Lock()
		delete(b.subs, f)
		b.mu.Unlock()
	}
}

// Terminal returns the terminal frame, or nil before Close.
func (b *Broadcaster) Terminal() []byte {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.terminal
}

// Followers reports each live follower's drop accounting.
func (b *Broadcaster) Followers() []FollowerStat {
	b.mu.Lock()
	defer b.mu.Unlock()
	out := make([]FollowerStat, 0, len(b.subs))
	for f := range b.subs {
		out = append(out, FollowerStat{ID: f.id, Dropped: f.dropped})
	}
	return out
}

// ServeSSE streams b to one client as server-sent events: headers,
// greet (as JSON, when non-nil), the replay, then live frames with
// heartbeat comments until b closes (ending with its terminal frame),
// the client is cut off as slow, or the client goes away. It
// subscribes before writing anything, so a client that has read the
// greeting is already following. Each frame is one `data:` line.
func ServeSSE(w http.ResponseWriter, r *http.Request, b *Broadcaster, greet any) {
	fl, ok := w.(http.Flusher)
	if !ok {
		http.Error(w, "streaming unsupported", http.StatusInternalServerError)
		return
	}
	replay, ch, cancel := b.Subscribe()
	defer cancel()
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.Header().Set("Connection", "keep-alive")
	if greet != nil {
		if payload, err := json.Marshal(greet); err == nil {
			replay = append([][]byte{payload}, replay...)
		}
	}
	for _, payload := range replay {
		fmt.Fprintf(w, "data: %s\n\n", payload)
	}
	fl.Flush()
	if ch == nil {
		return // closed: the replay ended with the terminal frame
	}
	heartbeat := time.NewTicker(heartbeatEvery)
	defer heartbeat.Stop()
	for {
		select {
		case <-r.Context().Done():
			return
		case <-heartbeat.C:
			fmt.Fprint(w, ": heartbeat\n\n")
		case payload, ok := <-ch:
			if !ok {
				// Closed by Close: emit the terminal frame. Cut off as
				// slow: just end, so the client learns it fell behind
				// (it still gets the terminal frame if the stream
				// finished before this handler noticed).
				if t := b.Terminal(); t != nil {
					fmt.Fprintf(w, "data: %s\n\n", t)
					fl.Flush()
				}
				return
			}
			fmt.Fprintf(w, "data: %s\n\n", payload)
		}
		fl.Flush()
	}
}
