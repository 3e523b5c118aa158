package main

import (
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"sync"
)

// simExpect is the recorded outcome of one simulation: the fields of
// carf.Result that pin what the simulator computed.
type simExpect struct {
	Cycles         uint64    `json:"cycles"`
	Instructions   uint64    `json:"instructions"`
	Mispredicts    uint64    `json:"mispredicts"`
	WritesByType   [3]uint64 `json:"writes_by_type"`
	RecoveryStalls uint64    `json:"recovery_stalls"`
	RegFileEnergy  float64   `json:"regfile_energy"`
}

// expectations are the outputs recorded with the benchmark (regenerate
// with -record after a change that is meant to alter simulated results).
type expectations struct {
	SimScale   float64              `json:"sim_scale"`
	StudyScale float64              `json:"study_scale"`
	Sim        map[string]simExpect `json:"sim"`   // "kernel/org"
	Study      map[string]string    `json:"study"` // experiment -> sha256 of Render()
}

//go:embed expected.json
var expectedJSON []byte

func loadExpectations() (expectations, error) {
	var e expectations
	if err := json.Unmarshal(expectedJSON, &e); err != nil {
		return e, fmt.Errorf("parse expected.json: %w", err)
	}
	if e.SimScale != simScale || e.StudyScale != studyScale {
		return e, fmt.Errorf("expected.json was recorded at sim scale %v / study scale %v, benchmark runs %v / %v",
			e.SimScale, e.StudyScale, simScale, studyScale)
	}
	return e, nil
}

func writeExpectations(path string, e expectations) error {
	b, err := json.MarshalIndent(e, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

func digest(s string) string {
	sum := sha256.Sum256([]byte(s))
	return hex.EncodeToString(sum[:])
}

// checker counts attempted and failed operations. An operation fails
// when it errors, is refused, or its output differs from the expected
// one. Safe for concurrent use.
type checker struct {
	mu        sync.Mutex
	attempted int
	failed    int
	errs      []string
}

// op records one operation; a non-nil err marks it failed.
func (c *checker) op(err error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.attempted++
	if err != nil {
		c.failed++
		if len(c.errs) < 20 {
			c.errs = append(c.errs, err.Error())
		}
	}
}

func (c *checker) counts() (attempted, failed int, errs []string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.attempted, c.failed, append([]string(nil), c.errs...)
}

// checkSim compares a simulation's outcome with the recorded one.
func (e expectations) checkSim(kernel, org string, got simExpect) error {
	want, ok := e.Sim[kernel+"/"+org]
	if !ok {
		return fmt.Errorf("%s/%s: no recorded expectation", kernel, org)
	}
	if got != want {
		return fmt.Errorf("%s/%s: got %+v, recorded %+v", kernel, org, got, want)
	}
	return nil
}

// checkStudy compares one experiment's rendered text with its recorded
// digest.
func (e expectations) checkStudy(name, text string) error {
	want, ok := e.Study[name]
	if !ok {
		return fmt.Errorf("study %s: no recorded digest", name)
	}
	if got := digest(text); got != want {
		return fmt.Errorf("study %s: rendered digest %s, recorded %s", name, got[:12], want[:12])
	}
	return nil
}
