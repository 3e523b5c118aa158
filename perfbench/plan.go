package main

import (
	"fmt"
	"math/rand/v2"

	"carf"
	"carf/internal/experiments"
	"carf/internal/serve"
)

// Scales of the three phases: large enough that one simulation takes
// tens of milliseconds, small enough that a round fits several times
// into a run.
const (
	simScale   = 0.25
	serveScale = 0.1
	studyScale = 0.02

	studyJobs    = 2 // concurrent experiments and scheduler workers in the study
	warmPasses   = 3 // warm study passes per round, each on a fresh scheduler
	serveClients = 2 // closed-loop HTTP clients
	setupRepeats = 7

	sweepsPerRound   = 6  // closed-loop simulation sweeps per round
	warmupJobs       = 4  // service jobs each setup runs
	hitsPerRound     = 96 // repeats of completed specs per round
	restartsPerRound = 3  // daemons restarted on the store per round
)

// workloadDef is one input mix: a kernel class that the simulation loop
// runs, and the class member the service's jobs simulate. The study
// phase is the same in every workload.
type workloadDef struct {
	Name        string
	Why         string
	Kernels     []string
	ServeKernel string
}

var workloads = []workloadDef{
	{
		Name:        "sim-stall",
		Why:         "low-IPC kernels (bfs, hashprobe, treeinsert): 54-72% of cycles commit and fetch nothing, so per-cycle pipeline cost dominates",
		Kernels:     []string{"bfs", "hashprobe", "treeinsert"},
		ServeKernel: "hashprobe",
	},
	{
		Name:        "sim-dense",
		Why:         "high-IPC kernels (matmul, histo, montecarlo, fft): few quiet cycles, so per-instruction regfile, core and vm work dominates",
		Kernels:     []string{"matmul", "histo", "montecarlo", "fft"},
		ServeKernel: "histo",
	},
}

func workloadByName(name string) (workloadDef, error) {
	for _, w := range workloads {
		if w.Name == name {
			return w, nil
		}
	}
	return workloadDef{}, fmt.Errorf("unknown workload %q", name)
}

var orgs = []carf.Organization{carf.Baseline, carf.ContentAware}

// simOp is one simulation of the closed loop.
type simOp struct {
	Kernel string
	Org    carf.Organization
}

// serveParams are the (d+n, short, long) choices of the service's
// jobs, one content-aware spec each: distinct run keys that a fresh
// daemon must simulate. Every round sends the same set in a seeded
// order, so the miss latency does not depend on the seed; one
// organization and one kernel keep it unimodal.
var serveParams = [][3]int{
	{12, 4, 32}, {14, 8, 40}, {16, 16, 48}, {18, 32, 56}, {20, 8, 64},
	{22, 4, 48}, {24, 16, 32}, {28, 32, 40}, {16, 8, 56}, {20, 16, 40},
}

func serveSpecs(kernel string) []serve.SubmitRequest {
	out := make([]serve.SubmitRequest, len(serveParams))
	for i, p := range serveParams {
		out[i] = serve.SubmitRequest{
			Kernel:       kernel,
			Organization: string(carf.ContentAware),
			DPlusN:       p[0],
			ShortRegs:    p[1],
			LongRegs:     p[2],
			Scale:        serveScale,
		}
	}
	return out
}

// roundPlan is everything one round does, in order.
type roundPlan struct {
	Phases    []string   // permutation of sim, study, serve
	Sweeps    [][]simOp  // closed-loop simulation order
	StudyCold []string   // experiment submission order, cold pass
	StudyWarm [][]string // experiment submission order, each warm pass

	// The service phase: every spec once to a fresh daemon (misses),
	// then repeats of them (memory hits), then each restarted daemon's
	// requests (disk hits).
	Misses []serve.SubmitRequest
	Hits   []serve.SubmitRequest
	Disk   [][]serve.SubmitRequest
}

// plan derives round r's inputs from the seed: the same (seed, r)
// always gives the same plan.
func plan(w workloadDef, seed uint64, r int) roundPlan {
	rng := rand.New(rand.NewPCG(seed, uint64(r)))
	var rp roundPlan

	rp.Phases = shuffled(rng, []string{"sim", "study", "serve"})

	var base []simOp
	for _, k := range w.Kernels {
		for _, o := range orgs {
			base = append(base, simOp{k, o})
		}
	}
	for s := 0; s < sweepsPerRound; s++ {
		off := rng.IntN(len(base))
		rp.Sweeps = append(rp.Sweeps, append(base[off:len(base):len(base)], base[:off]...))
	}

	rp.StudyCold = shuffled(rng, experiments.Names())
	for i := 0; i < warmPasses; i++ {
		rp.StudyWarm = append(rp.StudyWarm, shuffled(rng, experiments.Names()))
	}

	specs := serveSpecs(w.ServeKernel)
	rp.Misses = shuffled(rng, specs)
	for i := 0; i < hitsPerRound; i++ {
		rp.Hits = append(rp.Hits, specs[rng.IntN(len(specs))])
	}
	for i := 0; i < restartsPerRound; i++ {
		rp.Disk = append(rp.Disk, shuffled(rng, specs))
	}
	return rp
}

func shuffled[T any](rng *rand.Rand, xs []T) []T {
	out := append([]T(nil), xs...)
	rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}
