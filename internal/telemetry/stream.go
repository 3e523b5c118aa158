package telemetry

import "carf/internal/sched"

// streamCap bounds finished streams retained for replay; older ones
// fall off oldest-first. In-flight streams are never evicted.
const streamCap = 256

// StreamFrame is one SSE message on a per-run /runs/{id}/stream:
// "progress" frames while the run executes, then exactly one "done"
// frame. Runs served without simulating (cache hit, disk hit, join)
// stream a single done frame whose Note says so.
type StreamFrame struct {
	Type  string  `json:"type"` // "progress" | "done"
	TMs   float64 `json:"t_ms"` // milliseconds since the hub started
	ID    uint64  `json:"id"`
	Label string  `json:"label,omitempty"`
	Key   string  `json:"key,omitempty"`

	// progress frames only.
	Progress *sched.Progress `json:"progress,omitempty"`

	// done frames only.
	Outcome   string  `json:"outcome,omitempty"`
	SimWallMs float64 `json:"sim_wall_ms,omitempty"`
	Err       string  `json:"error,omitempty"`
	Note      string  `json:"note,omitempty"` // provenance for frame-less runs
}

// stream returns run id's frame stream, or nil for an unknown (or
// evicted) id.
func (h *Hub) stream(id uint64) *Broadcaster {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.streams[id]
}
