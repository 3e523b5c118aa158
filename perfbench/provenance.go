package main

import (
	"context"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"strings"
	"time"
)

// provenance records where and how a result was measured. Results
// compare only within one host and session: absolute numbers copied
// between hosts are not evidence.
type provenance struct {
	Workload     string `json:"workload"`
	Seed         uint64 `json:"seed"`
	Traced       bool   `json:"traced"`
	GoVersion    string `json:"go_version"`
	GOOS         string `json:"goos"`
	GOARCH       string `json:"goarch"`
	NumCPU       int    `json:"nproc"`
	GOMAXPROCS   int    `json:"gomaxprocs"`
	GitDescribe  string `json:"git_describe"`
	LoadAvgStart string `json:"loadavg_start"`
	LoadAvgEnd   string `json:"loadavg_end"`
	Started      string `json:"started"`
	Note         string `json:"note"`
}

func startProvenance(workload string, seed uint64, traced bool) *provenance {
	return &provenance{
		Workload:     workload,
		Seed:         seed,
		Traced:       traced,
		GoVersion:    runtime.Version(),
		GOOS:         runtime.GOOS,
		GOARCH:       runtime.GOARCH,
		NumCPU:       runtime.NumCPU(),
		GOMAXPROCS:   runtime.GOMAXPROCS(0),
		GitDescribe:  gitDescribe(),
		LoadAvgStart: loadAvg(),
		Started:      time.Now().UTC().Format(time.RFC3339),
		Note:         "results compare only within one host and session",
	}
}

func (p *provenance) finish() { p.LoadAvgEnd = loadAvg() }

func (p *provenance) line() string {
	return fmt.Sprintf("%s %s/%s nproc=%d GOMAXPROCS=%d git=%s seed=%d load=[%s]->[%s] (%s)",
		p.GoVersion, p.GOOS, p.GOARCH, p.NumCPU, p.GOMAXPROCS, p.GitDescribe, p.Seed,
		p.LoadAvgStart, p.LoadAvgEnd, p.Note)
}

// gitDescribe is best-effort: a source tree without git history reports
// "unknown".
func gitDescribe() string {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	out, err := exec.CommandContext(ctx, "git", "describe", "--tags", "--always", "--dirty").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

// loadAvg returns the 1, 5 and 15 minute load averages.
func loadAvg() string {
	b, err := os.ReadFile("/proc/loadavg")
	if err != nil {
		return "unknown"
	}
	f := strings.Fields(string(b))
	if len(f) < 3 {
		return "unknown"
	}
	return strings.Join(f[:3], " ")
}
