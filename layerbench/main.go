// Command layerbench is natpunch's layer-ladder benchmark. It runs
// one workload per invocation over the public API only (natpunch,
// natpunch/stream, realudp, rendezvousapi, transport, and the
// cmd/experiments binary for the simulator) and prints one JSON
// result line:
//
//	layerbench -workload bulk -seed 1 -seconds 10 -trace 0 -experiments PATH
//
// With -trace 0 the result carries the end-to-end metrics; with
// -trace 1 it carries the per-layer metrics of a separate traced run.
// See README.md for the workloads, metrics and layer map.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"slices"
	"strings"

	"natpunch/realudp"
)

// metricSpec names one reported metric and its unit.
type metricSpec struct{ name, unit string }

// endToEnd are the metrics of an untraced run, reported by every
// workload.
var endToEnd = []metricSpec{
	{"ops_per_s", "1/s"},
	{"op_p50_us", "us"},
	{"op_p95_us", "us"},
	{"cpu_ns_per_op", "ns"},
	{"peak_rss_MB", "MB"},
	{"setup_s", "s"},
	{"ok_share", "share"},
}

// perLayer are the metrics of a traced run, reported by every
// workload; a layer the workload does not exercise reads 0.
var perLayer = []metricSpec{
	{"realudp.tx_dgrams_per_op", "count"},
	{"realudp.rx_dgrams_per_op", "count"},
	{"realudp.tx_bytes_per_dgram", "B"},
	{"realudp.send_ns", "ns"},
	{"realudp.raw_MBps_batched", "MB/s"},
	{"realudp.raw_MBps_portable", "MB/s"},
	{"natpunch.dial_ms", "ms"},
	{"natpunch.rx_self_ns_per_dgram", "ns"},
	{"natpunch.invoke_ns", "ns"},
	{"natpunch.dgram_rtt_us", "us"},
	{"stream.goodput_MBps", "MB/s"},
	{"stream.wire_efficiency", "share"},
	{"stream.timer_arms_per_op", "count"},
	{"stream.timer_fires_per_op", "count"},
	{"stream.bytes_per_read", "B"},
	{"stream.srtt_us", "us"},
	{"stream.share_of_raw", "share"},
	{"runtime.allocs_per_op", "count"},
	{"runtime.alloc_bytes_per_op", "B"},
	{"runtime.gc_per_op", "count"},
	{"relay.msgs_per_op", "count"},
	{"relay.bytes_per_op", "B"},
	{"relay.errors", "count"},
	{"relay.fwd_self_ns_per_dgram", "ns"},
	{"sim.events_per_op", "count"},
	{"sim.fabric_pkts_per_op", "count"},
	{"sim.ns_per_event", "ns"},
	{"sim.gc_per_op", "count"},
	{"sim.connect_p50_ms", "virtual_ms"},
	{"sim.punch_p50_ms", "virtual_ms"},
	{"sim.direct_share", "share"},
	{"proc.cpu_util", "share"},
	{"trace.overhead_share", "share"},
}

// config is one invocation's settings.
type config struct {
	workload    string
	seed        int64
	seconds     int
	trace       bool
	experiments string // path to the built cmd/experiments binary
	expected    string // EXPERIMENTS.md, the seed-1 reference output
	outDir      string // where a traced run writes its spans
	self        string // this benchmark's executable, for set-up probes
	faults      faults
}

// faults are deliberate defects the self-test injects to prove each
// correctness check can fail; a normal run has none.
type faults struct {
	flipByte    bool // bulk/lossy: corrupt one byte of one written chunk
	allowDirect bool // rpc_relay: leave the direct path open
	fleetByte   bool // fleet: change one byte of the captured output
}

// outcome is what a workload reports back to main.
type outcome struct {
	attempted int64
	failed    int64
	errs      []string // correctness failures; empty means correct
	metrics   map[string]float64
	notes     []string // extra context printed before the result
}

func (o *outcome) fail(format string, args ...any) {
	o.errs = append(o.errs, fmt.Sprintf(format, args...))
}

type workload struct {
	name string
	run  func(cfg config) *outcome
}

var workloads = []workload{
	{"bulk", func(cfg config) *outcome { return runLoopback(cfg, loopSpecs["bulk"]) }},
	{"rpc_relay", func(cfg config) *outcome { return runLoopback(cfg, loopSpecs["rpc_relay"]) }},
	{"lossy", func(cfg config) *outcome { return runLoopback(cfg, loopSpecs["lossy"]) }},
	{"fleet", runFleet},
}

type metricJSON struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type resultJSON struct {
	Correct   bool                  `json:"correct"`
	Attempted int64                 `json:"attempted"`
	Failed    int64                 `json:"failed"`
	Metrics   map[string]metricJSON `json:"metrics"`
}

func main() {
	cfg := config{expected: "EXPERIMENTS.md", outDir: ".bench_build"}
	var trace int
	flag.StringVar(&cfg.workload, "workload", "", "workload to run: bulk, rpc_relay, lossy or fleet")
	flag.Int64Var(&cfg.seed, "seed", 1, "input seed")
	flag.IntVar(&cfg.seconds, "seconds", 10, "length of each timed phase in seconds")
	flag.IntVar(&trace, "trace", 0, "1 runs the traced per-layer measurement")
	flag.StringVar(&cfg.experiments, "experiments", "", "path to the built cmd/experiments binary (fleet)")
	probe := flag.Bool("setup-probe", false, "internal: time set-ups of a loopback workload and print them")
	flag.Parse()
	cfg.trace = trace == 1

	if *probe {
		if err := runSetupProbe(cfg); err != nil {
			fmt.Fprintln(os.Stderr, "layerbench:", err)
			os.Exit(1)
		}
		return
	}
	if exe, err := os.Executable(); err == nil {
		cfg.self = exe
	}

	var run func(config) *outcome
	for _, w := range workloads {
		if w.name == cfg.workload {
			run = w.run
		}
	}
	if run == nil || cfg.seconds < 1 || (trace != 0 && trace != 1) {
		fmt.Fprintf(os.Stderr, "layerbench: bad arguments (workload %q, seconds %d, trace %d)\n", cfg.workload, cfg.seconds, trace)
		os.Exit(2)
	}

	printEnv(cfg)
	o := run(cfg)
	res, err := buildResult(cfg, o)
	for _, n := range o.notes {
		fmt.Println("note:", n)
	}
	for _, e := range o.errs {
		fmt.Println("check failed:", e)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "layerbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "layerbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

// buildResult checks that the workload filled exactly the metric set
// of its mode and wraps it with units.
func buildResult(cfg config, o *outcome) (*resultJSON, error) {
	specs := endToEnd
	if cfg.trace {
		specs = perLayer
	}
	res := &resultJSON{
		Correct:   len(o.errs) == 0 && o.failed == 0 && o.attempted > 0,
		Attempted: o.attempted,
		Failed:    o.failed,
		Metrics:   map[string]metricJSON{},
	}
	if res.Attempted < 1 {
		res.Attempted = 1
		res.Failed = 1
	}
	var missing []string
	for _, s := range specs {
		v, ok := o.metrics[s.name]
		if !ok {
			missing = append(missing, s.name)
			continue
		}
		res.Metrics[s.name] = metricJSON{Value: v, Unit: s.unit}
	}
	if len(missing) > 0 {
		return nil, fmt.Errorf("workload %s left metrics unset: %s", cfg.workload, strings.Join(missing, ", "))
	}
	if len(o.metrics) != len(specs) {
		var extra []string
		for k := range o.metrics {
			if _, ok := res.Metrics[k]; !ok {
				extra = append(extra, k)
			}
		}
		slices.Sort(extra)
		return nil, fmt.Errorf("workload %s set unknown metrics: %s", cfg.workload, strings.Join(extra, ", "))
	}
	return res, nil
}

// printEnv records the conditions every result was measured under.
func printEnv(cfg config) {
	batched := false
	if tr, err := realudp.New("127.0.0.1:0"); err == nil {
		batched = tr.Batched()
		tr.Close()
	}
	env := map[string]any{
		"workload":   cfg.workload,
		"seed":       cfg.seed,
		"seconds":    cfg.seconds,
		"trace":      cfg.trace,
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go":         runtime.Version(),
		"batched":    batched,
		"link":       "loopback, not a real link",
	}
	line, _ := json.Marshal(env) // a map of plain values always encodes
	fmt.Println("env:", string(line))
}

// newMetrics returns the metric map of a mode with every name set to
// 0, for a workload that fills in the layers it exercises.
func newMetrics(trace bool) map[string]float64 {
	specs := endToEnd
	if trace {
		specs = perLayer
	}
	m := make(map[string]float64, len(specs))
	for _, s := range specs {
		m[s.name] = 0
	}
	return m
}
