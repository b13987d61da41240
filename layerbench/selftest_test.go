package main

// Self-test of the benchmark: the wrapping transport must not change
// the program it measures, the reported metric names must match
// BENCHMARK.json, and each correctness check must fail under the
// fault it exists to catch. Run it from this directory:
//
//	go test -count=1 .

import (
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"natpunch/realudp"
	"natpunch/transport"
)

func TestWrapForwardsScratchSendOK(t *testing.T) {
	rt, err := realudp.New("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	w := newWrap(rt, 0)
	var c transport.UDPConn
	rt.Invoke(func() { c, err = w.BindUDP(0) })
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ss, ok := c.(transport.ScratchSender)
	if !ok || !ss.ScratchSendOK() {
		t.Fatal("wrapped realudp conn does not report ScratchSendOK; the relay would switch to copying")
	}
	plain := &wrapConn{inner: noScratchConn{c}, w: w}
	if plain.ScratchSendOK() {
		t.Fatal("wrapper claims ScratchSendOK for an inner conn without the capability")
	}
}

// noScratchConn hides the inner conn's ScratchSender capability.
type noScratchConn struct{ transport.UDPConn }

func TestMetricNamesMatchBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var bj struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &bj); err != nil {
		t.Fatal(err)
	}
	same := func(kind string, got []struct{ Name, Unit string }, want []metricSpec) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the benchmark reports %d", kind, len(got), len(want))
			return
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s[%d]: BENCHMARK.json has %s (%s), the benchmark reports %s (%s)",
					kind, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	same("end_to_end", bj.EndToEnd, endToEnd)
	same("per_layer", bj.PerLayer, perLayer)
	if len(bj.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the benchmark runs %d", len(bj.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if bj.Workloads[i].Name != w.name {
			t.Errorf("workload %d: BENCHMARK.json has %q, the benchmark %q", i, bj.Workloads[i].Name, w.name)
		}
	}
}

// checkFault runs a workload clean and with one fault: the clean run
// must pass every check and the faulty one must fail one whose
// message contains want.
func checkFault(t *testing.T, cfg config, f faults, want string) {
	t.Helper()
	clean := cfg
	o := runWorkload(t, clean)
	if len(o.errs) > 0 || o.failed > 0 {
		t.Fatalf("clean %s run failed its checks: %v", cfg.workload, o.errs)
	}
	cfg.faults = f
	o = runWorkload(t, cfg)
	if len(o.errs) == 0 && o.failed == 0 {
		t.Fatalf("%s run with fault %+v passed every check", cfg.workload, f)
	}
	if !strings.Contains(strings.Join(o.errs, "\n"), want) {
		t.Fatalf("%s run with fault %+v failed for another reason: %v", cfg.workload, f, o.errs)
	}
	t.Logf("%s fault caught: %v", cfg.workload, o.errs)
}

func runWorkload(t *testing.T, cfg config) *outcome {
	t.Helper()
	for _, w := range workloads {
		if w.name == cfg.workload {
			return w.run(cfg)
		}
	}
	t.Fatalf("no workload %q", cfg.workload)
	return nil
}

func TestBulkFlippedByteFails(t *testing.T) {
	cfg := config{workload: "bulk", seed: 3, seconds: 1}
	checkFault(t, cfg, faults{flipByte: true}, "differs from the pattern")
}

func TestRPCRelayDirectPathFails(t *testing.T) {
	cfg := config{workload: "rpc_relay", seed: 3, seconds: 1}
	checkFault(t, cfg, faults{allowDirect: true}, "path")
}

func TestFleetOneByteDiffFails(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the simulator")
	}
	bin := filepath.Join(t.TempDir(), "experiments")
	build := exec.Command("go", "build", "-o", bin, "natpunch/cmd/experiments")
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("building cmd/experiments: %v\n%s", err, out)
	}
	cfg := config{workload: "fleet", seed: 1, seconds: 1, experiments: bin,
		expected: filepath.Join("..", "EXPERIMENTS.md")}
	checkFault(t, cfg, faults{fleetByte: true}, "differs from")
}

func TestFleetRowSumCheck(t *testing.T) {
	good := "== E-FLEET: x ==\n" +
		"steady-80  cone<->cone  522  521  0  0  1  100%  136ms  136ms\n" +
		"note: steady-80 server load: 1 connect/negotiate requests; fabric 10 packets; 20 sim events\n"
	if _, err := parseTable("E-FLEET", []byte(good)); err != nil {
		t.Fatalf("well-formed table rejected: %v", err)
	}
	bad := strings.Replace(good, "522", "523", 1)
	if _, err := parseTable("E-FLEET", []byte(bad)); err == nil {
		t.Fatal("a row whose outcomes do not sum to its attempts was accepted")
	}
}

func TestClosedLoopCountsFailure(t *testing.T) {
	n := 0
	p, err := runClosedLoop(time.Second, 8, func() error {
		n++
		if n == 3 {
			return os.ErrDeadlineExceeded
		}
		return nil
	})
	if err == nil || p.ops != 2 || p.failed != 1 {
		t.Fatalf("closed loop: ops %d failed %d err %v; want 2, 1, an error", p.ops, p.failed, err)
	}
}
