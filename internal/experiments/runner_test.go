package experiments_test

import (
	"fmt"
	"runtime"
	"sync"
	"testing"

	"natpunch/internal/experiments"
)

// detExperiments is a spread of cheap drivers covering UDP punching,
// TCP punching with loss, NAT-timeout sweeps, and multi-run grids —
// the shapes most likely to betray cross-run state sharing.
var detExperiments = []string{"E5", "E6", "E12", "E13"}

func runOne(t *testing.T, id string, seed int64) string {
	t.Helper()
	e, ok := experiments.Lookup(id)
	if !ok {
		t.Fatalf("unknown experiment %s", id)
	}
	return e.Run(seed).String()
}

// suiteRun is one seed-1 run of every experiment on an 8-wide pool —
// what `go run ./cmd/experiments -seed 1` prints. The tests that check
// seed-1 results all read it, so no experiment runs twice at one width.
var suiteRun = sync.OnceValue(func() []experiments.Result {
	defer experiments.SetWorkers(experiments.SetWorkers(8))
	return experiments.RunAll(1)
})

// suiteResult returns experiment id's result from suiteRun.
func suiteResult(t *testing.T, id string) experiments.Result {
	t.Helper()
	for _, r := range suiteRun() {
		if r.ID == id {
			return r
		}
	}
	t.Fatalf("experiment %s not registered", id)
	return experiments.Result{}
}

// requireSerialMatchesSuite runs id once on a serial pool and requires
// the rendered table to match the 8-wide suite run byte for byte.
func requireSerialMatchesSuite(t *testing.T, id string) {
	t.Helper()
	parallel := suiteResult(t, id).String()
	defer experiments.SetWorkers(experiments.SetWorkers(1))
	if serial := runOne(t, id, 1); serial != parallel {
		t.Errorf("%s: serial and 8-worker outputs differ:\n--- serial ---\n%s\n--- parallel ---\n%s", id, serial, parallel)
	}
}

// TestRunnerSerialParallelIdentical is the engine's core guarantee:
// the rendered tables are byte-for-byte identical at any worker-pool
// width.
func TestRunnerSerialParallelIdentical(t *testing.T) {
	for _, id := range detExperiments {
		requireSerialMatchesSuite(t, id)
	}
}

// TestRunnerSameSeedBitForBit runs each experiment twice with the
// same seed under the parallel pool: re-running a seed must reproduce
// the exact bytes.
func TestRunnerSameSeedBitForBit(t *testing.T) {
	defer experiments.SetWorkers(experiments.SetWorkers(4))
	for _, id := range detExperiments {
		first := runOne(t, id, 7)
		second := runOne(t, id, 7)
		if first != second {
			t.Errorf("%s: two runs with seed 7 differ:\n--- first ---\n%s\n--- second ---\n%s", id, first, second)
		}
	}
}

// TestRunnerGOMAXPROCSIndependent pins the scheduler to one OS
// thread, runs, then restores full width and runs again: results must
// not depend on how many threads the Go runtime may use.
func TestRunnerGOMAXPROCSIndependent(t *testing.T) {
	defer experiments.SetWorkers(experiments.SetWorkers(4))
	orig := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(orig)
	for _, id := range detExperiments {
		runtime.GOMAXPROCS(1)
		narrow := runOne(t, id, 3)
		runtime.GOMAXPROCS(orig)
		wide := runOne(t, id, 3)
		if narrow != wide {
			t.Errorf("%s: GOMAXPROCS=1 and GOMAXPROCS=%d outputs differ", id, orig)
		}
	}
}

// TestRunSeedsOrder checks that results come back in seed order no
// matter which worker finishes first.
func TestRunSeedsOrder(t *testing.T) {
	defer experiments.SetWorkers(experiments.SetWorkers(8))
	stub := experiments.Experiment{
		ID:    "stub",
		Title: "order probe",
		Run: func(seed int64) experiments.Result {
			return experiments.Result{ID: "stub", Table: fmt.Sprintf("seed=%d", seed)}
		},
	}
	seeds := experiments.Seeds(100, 64)
	results := experiments.RunSeeds(stub, seeds)
	if len(results) != len(seeds) {
		t.Fatalf("got %d results, want %d", len(results), len(seeds))
	}
	for i, r := range results {
		if want := fmt.Sprintf("seed=%d", seeds[i]); r.Table != want {
			t.Errorf("slot %d holds %q, want %q", i, r.Table, want)
		}
	}
}

// TestSeeds checks the campaign seed enumerator.
func TestSeeds(t *testing.T) {
	s := experiments.Seeds(5, 3)
	if len(s) != 3 || s[0] != 5 || s[1] != 6 || s[2] != 7 {
		t.Errorf("Seeds(5,3) = %v", s)
	}
	if len(experiments.Seeds(1, 0)) != 0 {
		t.Errorf("Seeds(1,0) should be empty")
	}
}

// TestRunAll smoke-runs the whole suite through the pool once.
func TestRunAll(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every experiment")
	}
	results := suiteRun()
	all := experiments.All()
	if len(results) != len(all) {
		t.Fatalf("got %d results, want %d", len(results), len(all))
	}
	for i, r := range results {
		if r.ID != all[i].ID {
			t.Errorf("slot %d holds %s, want %s", i, r.ID, all[i].ID)
		}
		if r.Table == "" {
			t.Errorf("%s produced an empty table", r.ID)
		}
	}
}
