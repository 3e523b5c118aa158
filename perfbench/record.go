package main

import (
	"context"
	"fmt"

	"carf"
	"carf/internal/experiments"
	"carf/internal/sched"
)

// recordExpectations simulates every (kernel, organization) of every
// workload and renders every experiment, and writes the outcomes the
// benchmark checks its runs against.
func recordExpectations(path string) error {
	e := expectations{SimScale: simScale, StudyScale: studyScale, Sim: map[string]simExpect{}, Study: map[string]string{}}
	for _, w := range workloads {
		for _, k := range w.Kernels {
			for _, o := range orgs {
				r, err := carf.RunCtx(context.Background(), k, carf.Config{Organization: o, Scale: simScale})
				if err != nil {
					return fmt.Errorf("%s/%s: %w", k, o, err)
				}
				e.Sim[k+"/"+string(o)] = expectOf(r)
			}
		}
	}
	s := sched.New(studyJobs)
	for _, name := range experiments.Names() {
		r, err := experiments.Run(name, experiments.Options{Scale: studyScale, Sched: s, Batch: 1})
		if err != nil {
			return fmt.Errorf("study %s: %w", name, err)
		}
		e.Study[name] = digest(r.Render())
	}
	return writeExpectations(path, e)
}
